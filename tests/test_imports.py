"""Import cost follows use: each check imports in a fresh interpreter.

The package root holds only ``__version__``; a submodule loads the
submodules it depends on and no others.  conftest puts this checkout's
``src`` on ``PYTHONPATH`` for the interpreters started here.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


# loaded by numpy.random.default_rng: its extension modules and, through
# secrets and hashlib, OpenSSL
_RNG_MODULES = ("numpy.random", "_hashlib")


def loaded_after(statement):
    """Sorted names of the parastar modules, numpy and the _RNG_MODULES in
    sys.modules after STATEMENT."""
    code = (f"{statement}\nimport json, sys\n"
            f"print(json.dumps(sorted(m for m in sys.modules if m in {('numpy',) + _RNG_MODULES} "
            "or m == 'parastar' or m.startswith('parastar.'))))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_root_loads_no_submodule_and_no_numpy():
    assert loaded_after("import parastar") == ["parastar"]


def test_maps_loads_only_maps_and_errors():
    assert loaded_after("import parastar.maps") == [
        "numpy", "parastar", "parastar.errors", "parastar.maps"]


def test_cli_loads_every_runtime_module_but_plots():
    # the benchmark's tracer wraps the modules loaded when it is installed,
    # after ``from parastar import cli``, so these stay eager; plots is
    # loaded by the plot command alone
    loaded = loaded_after("import parastar.cli")
    for name in ("errors", "maps", "oracle", "radii", "region", "series", "verify"):
        assert f"parastar.{name}" in loaded
    assert "parastar.plots" not in loaded


def test_verify_loads_no_numpy_random_or_openssl():
    # seeded checks draw from random.Random; default_rng added ~6 MB to a
    # cold verify process
    loaded = loaded_after("from parastar import verify\nverify.run_all()")
    assert "parastar.verify" in loaded
    assert not set(_RNG_MODULES) & set(loaded)


def test_cli_commands_load_no_numpy_random_or_openssl():
    statement = ("import contextlib, io\nfrom parastar.cli import main\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    for argv in (['eval', '--target', 'left_parabola', '--z', '-1'],\n"
                 "                 ['series', '--which', 'g0', '--n', '8'], ['radius', 'sp'],\n"
                 "                 ['radius-table'], ['verify', '--only', 'growth'],\n"
                 "                 ['plot', 'region', '--discs', '0,1']):\n"
                 "        assert main(argv) == 0, argv")
    assert not set(_RNG_MODULES) & set(loaded_after(statement))


def test_version_matches_pyproject():
    version = re.search(r'^version = "([^"]+)"$', PYPROJECT.read_text(), re.M).group(1)
    proc = subprocess.run([sys.executable, "-c", "import parastar; print(parastar.__version__)"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{version}\n"
