"""Every command of README's "Command line" block runs and exits 0.

Each ``parastar ...`` line runs in-process through ``cli.main`` from
``tmp_path``, where a small ``f.csv`` stands ready for ``certify``, so a
removed or renamed CLI path cannot leave the README stale.
"""

import re
import shlex
from pathlib import Path

import pytest

from parastar.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _commands() -> list[list[str]]:
    """argv of every ``parastar ...`` line of the block, comments dropped."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```bash\n(.*?)```", text, re.S)
    assert block, "README has no Command line block"
    return [shlex.split(line, comments=True)[1:] for line in block.group(1).splitlines()
            if line.startswith("parastar ")]


def test_block_lists_every_subcommand():
    used = {argv[0] for argv in _commands()}
    assert used == {"eval", "series", "radius", "radius-table", "verify", "certify", "plot"}


@pytest.mark.parametrize("argv", _commands(), ids=" ".join)
def test_command_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # f(z) = z + 0.05 z^2, which the certifier accepts
    (tmp_path / "f.csv").write_text("index,re,im\n0,0,0\n1,1,0\n2,0.05,0\n",
                                    encoding="utf-8")
    assert main(argv) == 0, capsys.readouterr().err
