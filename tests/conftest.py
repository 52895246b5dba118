import os
from pathlib import Path

# pyproject's pythonpath puts src on sys.path for this process only; the
# interpreters the tests start (python -m parastar ...) import parastar
# from this checkout through PYTHONPATH
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
