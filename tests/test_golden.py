"""The output bytes of the benchmark's commands, pinned.

Each command that ``perfbench/workloads.py`` builds at ``random.Random(1)``
runs in process through ``tabalg.cli.run``, once as text and once with
``--format machine``, in a work directory that holds its inputs under
relative paths.  Its argv, exit code and stdout, and the file ``restrict
-o`` writes, must equal the files under ``tests/golden/<workload>/``.
Stderr is left out: ``--timing`` times vary.

A change that moves a byte regenerates the files with
``python tests/golden/regenerate.py``, run from the repository root, and
says which commands changed and why.
"""

import contextlib
import io
import random
import shlex
from pathlib import Path

import pytest

import workloads
from tabalg import cli

GOLDEN = Path(__file__).parent / "golden"
SEED = 1


def record(name: str) -> dict[str, str]:
    """Golden file name -> content for workload ``name``, built and run in
    the current directory."""
    wl = workloads.WORKLOADS[name](random.Random(SEED), Path("."))
    files = {}
    listing = []
    for n, command in enumerate(wl.commands):
        argv = command.argv
        base = argv[2:] if argv[:2] == ["--format", "machine"] else argv
        written = Path(argv[argv.index("-o") + 1]) if "-o" in argv else None
        for fmt, args in (("text", base), ("machine", ["--format", "machine", *base])):
            if written is not None:
                written.unlink(missing_ok=True)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(list(args))
            stem = f"{n:02d}.{fmt}"
            listing.append(f"{stem} {code} {shlex.join(args)}\n")
            files[f"{stem}.out"] = stdout.getvalue()
            if written is not None:
                files[f"{stem}.{written.name}"] = written.read_bytes().decode("utf-8")
    files["commands.txt"] = "".join(listing)
    return files


def read_golden(name: str) -> dict[str, str]:
    return {path.name: path.read_bytes().decode("utf-8") for path in sorted((GOLDEN / name).iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_commands_print_the_golden_bytes(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = record(name)
    want = read_golden(name)
    assert sorted(got) == sorted(want)
    assert got["commands.txt"] == want["commands.txt"]
    changed = [file for file in sorted(want) if got[file] != want[file]]
    assert changed == []
