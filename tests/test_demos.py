"""Each demo runs to completion from a copy and prints its headline lines.

Demo 01 writes its SVG beside itself, so every demo runs from a copy in
``tmp_path``; conftest puts this checkout's ``src`` on ``PYTHONPATH`` for
the interpreter the test starts.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name, expected", [
    ("01_region_tour.py",
     ["real-part bounds at r=0.5: closed (-0.6296660886, 0.3070560938)"]),
    ("02_radius_catalog.py",
     ["sine                               0.523598775598   0.523598775598"]),
    ("03_growth_and_covering.py",
     ["upper limit, |f| < 1.8726857622759594 on the disc (closed form 1.8726857622759594)"]),
    ("04_certification.py", ["c = 0.3: sup = 0.427959 vs bound 0.500000 -> pass",
                             "c = 0.4: sup = 0.665556 vs bound 0.500000 -> fail"]),
], ids=["01", "02", "03", "04"])
def test_demo_runs(tmp_path, name, expected):
    script = tmp_path / name
    shutil.copy(DEMOS / name, script)
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for prefix in expected:
        assert any(line.startswith(prefix) for line in lines), prefix
    if name.startswith("01_"):
        assert (tmp_path / "region_tour.svg").stat().st_size > 0
