"""Rewrite the golden files of ``tests/test_golden.py`` from the current tree.

Run from the repository root::

    python tests/golden/regenerate.py

It reads ``tabalg`` from the repository's own ``src`` first, so it needs no
install and no ``PYTHONPATH``.  Each workload's directory is emptied and
written again; ``git diff`` then shows which commands' bytes moved.
"""

import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE.parent), str(ROOT / "perfbench")]

from test_golden import GOLDEN, record  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    home = os.getcwd()
    for name in sorted(WORKLOADS):
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                files = record(name)
            finally:
                os.chdir(home)
        target = GOLDEN / name
        target.mkdir(parents=True, exist_ok=True)
        for old in target.iterdir():
            old.unlink()
        for file, text in files.items():
            (target / file).write_bytes(text.encode("utf-8"))
        print(f"{name}: {len(files)} files")


if __name__ == "__main__":
    main()
