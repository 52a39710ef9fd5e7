"""Seeded mutation fuzz of the reader, run through the command line in process.

Each mutant is a shipped data file with one to three random edits: a line
deleted, duplicated or swapped with another, a token dropped, or a token
spliced in from the file itself or from the grammar.  One mutant in four
also gets a byte-level edit of a kind once fixed by hand: bytes that are
not UTF-8, a byte-order mark, a digit of another script, or a form feed,
U+0085 or U+2028 inside a comment.  Every mutant runs through
``tabalg.cli.run``: ``verify`` on a complete table, ``deduce`` on a
partial one.  Whatever the input, no exception escapes, the exit code is
0, 1 or 2, and stderr holds exactly one ``error:`` line on exit 2 and
nothing otherwise.

The counts are set by cost: a mutant that still parses runs the whole
command, and a Lemma 7.2 seed that still completes takes about 0.13 s.
"""

import random

import pytest

from tabalg import cli
from tabalg.bundled import AUXILIARY, BUNDLED, PARTIAL, data_text

# mutants per shipped file
COUNTS = {name: 40 for name in BUNDLED + AUXILIARY} | {
    "PSL27-partial": 30, "Lemma72-seed": 8, "Theorem41-seed": 30, "B32-stall": 20,
}
GRAMMAR = ("+", "=", "0", "1", "01", "#", "algebra", "element", "degree", "dual", "product")


def _edit_lines(lines: list[str], pool: list[str], rng: random.Random) -> None:
    i = rng.randrange(len(lines))
    op = rng.randrange(5)
    if op == 0:
        del lines[i]
    elif op == 1:
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    elif op == 2:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        tokens = lines[i].split(" ")
        if op == 3:
            del tokens[rng.randrange(len(tokens))]
        else:
            tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(pool))
        lines[i] = " ".join(tokens)


def _edit_bytes(data: bytes, rng: random.Random) -> bytes:
    op = rng.randrange(4)
    if op == 0:  # not UTF-8: a lone continuation or lead byte, or an encoded surrogate
        at = rng.randrange(len(data) + 1)
        return data[:at] + rng.choice((b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80")) + data[at:]
    if op == 1:
        return b"\xef\xbb\xbf" + data
    text = data.decode("utf-8")
    if op == 2:  # a digit of another script where an ASCII digit stood
        places = [n for n, ch in enumerate(text) if ch.isdigit()] or [len(text)]
        at = rng.choice(places)
        return (text[:at] + rng.choice("\u0663\uff13\u00b3\u0969") + text[at + 1:]).encode("utf-8")
    # a character that str.splitlines reads as a line end, inside a comment
    mark = rng.choice("\f\x85\u2028")
    at = text.find("#")
    if at < 0:
        return (text + f"# note{mark}more\n").encode("utf-8")
    return (text[: at + 1] + mark + text[at + 1:]).encode("utf-8")


def mutants(name: str, count: int):
    """``count`` seeded mutants of the shipped file ``name``, as bytes."""
    rng = random.Random(f"fuzz:{name}")
    text = data_text(name)
    pool = sorted(set(text.split())) + list(GRAMMAR)
    for _ in range(count):
        lines = text.split("\n")
        for _ in range(rng.randint(1, 3)):
            _edit_lines(lines, pool, rng)
        data = "\n".join(lines).encode("utf-8")
        if rng.randrange(4) == 0:
            data = _edit_bytes(data, rng)
        yield data


def run_file(capsys, tmp_path, name: str, data: bytes) -> tuple[int, str]:
    """Exit code and stderr of the command that reads ``name``'s mutant ``data``."""
    path = tmp_path / "mutant.alg"
    path.write_bytes(data)
    command = "deduce" if name in PARTIAL else "verify"
    code = cli.run([command, str(path)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (name, data)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (name, data, err)
    else:
        assert err == "", (name, data, err)
    return code, err


@pytest.mark.parametrize("name", list(COUNTS))
def test_mutants_fail_only_through_the_error_path(capsys, tmp_path, name):
    for data in mutants(name, COUNTS[name]):
        run_file(capsys, tmp_path, name, data)


C7 = data_text("C7").encode("utf-8")


@pytest.mark.parametrize("data, code, fragment", [
    (C7.replace(b"algebra C7", b"algebra\xff C7"), 2, "is not UTF-8: invalid start byte at byte 283"),
    (C7.replace(b"# ", b"# \xc3", 1), 2, "is not UTF-8: invalid continuation byte at byte 2"),
    (b"\xef\xbb\xbf" + C7, 0, ""),
    (C7.replace(b"degree 8", "degree \u0668".encode("utf-8"), 1), 2, "line 6: bad degree '\u0668'"),
    (C7.replace(b"2 x10", "\uff12 x10".encode("utf-8"), 1), 2, "line 17: bad coefficient '\uff12'"),
    (C7.replace(b"# ", b"# see\fnext ", 1), 0, ""),
    (C7.replace(b"# ", "# see\u2028next ".encode("utf-8"), 1), 0, ""),
], ids=["bad-start-byte", "bad-continuation-byte", "byte-order-mark", "arabic-indic-degree",
        "fullwidth-coefficient", "form-feed-in-comment", "line-separator-in-comment"])
def test_byte_level_cases(capsys, tmp_path, data, code, fragment):
    assert data != C7
    got, err = run_file(capsys, tmp_path, "C7", data)
    assert got == code
    assert fragment in err


# every command that reads an input, with the input's place marked IN
READERS = [
    ["verify", "IN"], ["mult", "IN", "b5", "b5"], ["inner", "IN", "b5", "b5"], ["subsets", "IN"],
    ["closure", "IN", "b5"], ["powers", "IN", "b5"], ["quotient", "IN", "--by", "b5"],
    ["restrict", "IN", "--to", "b5"], ["iso", "IN", "bundled:C7"], ["iso", "bundled:C7", "IN"],
    ["deduce", "IN"],
]


@pytest.mark.parametrize("bad", ["missing", "bogus"])
@pytest.mark.parametrize("argv", READERS, ids=[" ".join(argv) for argv in READERS])
def test_every_input_fails_through_the_one_error_path(capsys, tmp_path, argv, bad):
    """A missing file or one that is not an algebra file ends every command
    the same way: exit 2, nothing on stdout, one ``error:`` line."""
    path = tmp_path / "input.alg"
    if bad == "bogus":
        path.write_text("bogus\n")
    code = cli.run([str(path) if arg == "IN" else arg for arg in argv])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert ("No such file" if bad == "missing" else "line 1: unknown directive 'bogus'") in err
