"""The benchmark's three workloads: command scripts and their answer checks.

Each workload is a list of ``tabalg`` commands run one after another, each
in a fresh interpreter, with the answer every command must print.  A check
raises ``WrongAnswer``; a command whose check raises, whose exit code is
not the expected one, or that times out counts as failed.

* ``paper``: the paper's claims on the bundled data (k <= 32).  Many short
  commands, so interpreter start, import and parse dominate.
* ``deduce``: the deduction engine on completing, stalling and refuting
  seeds.
* ``scale``: the axiom verifier on tensor products from k = 42 to k = 68,
  on both sides of ``StructureConstants.DENSE_LIMIT = 64``, with failing
  inputs built from B32 as printed in the paper.
"""

from __future__ import annotations

import ast
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import corpus
from tabalg import serialize
from tabalg.bundled import load

class WrongAnswer(Exception):
    pass


@dataclass
class Command:
    # end-to-end group its latency is summed into, as ``<group>_s``
    group: str
    argv: list[str]
    exit_code: int
    check: Callable[[str], None]  # raises WrongAnswer


@dataclass
class Workload:
    commands: list[Command]
    # ("full" | "partial", path or bundled: URI) of every input file
    inputs: list[tuple[str, str]]
    # input whose verify_axioms peak memory the traced run reports
    peak_input: str | None = None
    # commands per calibration probe; the probe scales each of them
    calibrate_every: int = 1


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


def facts(stdout: str) -> list[tuple[str, str]]:
    """``key<TAB>value`` lines of ``--format machine`` output."""
    return [tuple(line.split("\t", 1)) for line in stdout.splitlines() if "\t" in line]


def fact(stdout: str, key: str) -> str:
    values = [v for k, v in facts(stdout) if k == key]
    expect(len(values) == 1, f"expected one {key!r} line, got {len(values)}")
    return values[0]


def terms(expr: str) -> dict[str, int]:
    """``2 b8 + x10`` -> {"b8": 2, "x10": 1}."""
    out = {}
    for term in expr.split(" + "):
        parts = term.split()
        out[parts[-1]] = int(parts[0]) if len(parts) == 2 else 1
    return out


# -- checks --------------------------------------------------------------------


def verify_passes(k: int):
    def check(stdout: str):
        want = f"PASS (8 axiom classes, {k ** 3} associativity triples)"
        expect(stdout.strip().splitlines()[-1:] == [want], f"verify summary is not {want!r}")

    return check


FAIL_LINE = re.compile(r"FAIL (\S+) witnesses=(\[.*\])$")


def verify_fails(witnesses: dict[str, list[tuple]]):
    """The failing checks are exactly those of ``witnesses`` (check name ->
    witness list, from the exact verifier), each listing those witnesses."""

    def check(stdout: str):
        lines = stdout.strip().splitlines()
        want = f"FAIL ({', '.join(witnesses)})"
        expect(lines[-1:] == [want], f"verify summary is not {want!r}")
        found = {}
        for line in lines[:-1]:
            m = FAIL_LINE.match(line)
            expect(m is not None, f"unexpected verify line {line[:80]!r}")
            found[m.group(1)] = ast.literal_eval(m.group(2))
        expect(found == witnesses, "failing checks or witnesses differ from the exact verifier's")

    return check


def subset_sizes(sizes: list[int]):
    def check(stdout: str):
        got = sorted(int(k.split(".")[1]) for k, _ in facts(stdout) if k.startswith("subset."))
        expect(got == sizes and int(fact(stdout, "count")) == len(sizes), f"lattice sizes {got} != {sizes}")

    return check


def cyclic_quotient(n: int):
    def check(stdout: str):
        expect(int(fact(stdout, "classes")) == n, f"quotient does not have {n} classes")
        expect(fact(stdout, "group-like") == f"cyclic({n})", f"quotient is not cyclic({n})")

    return check


def power_rows(rows: dict[int, set[str]]):
    def check(stdout: str):
        got = {int(k.split(".")[1]): set(v.split()) for k, v in facts(stdout) if k.startswith("power.")}
        expect(got == rows, "power supports differ from the paper's table")

    return check


def equals(key: str, value: str, parse_value=str):
    def check(stdout: str):
        got = fact(stdout, key)
        expect(parse_value(got) == parse_value(value), f"{key} is {got!r}, not {value!r}")

    return check


def iso_answer(yes: bool):
    return equals("isomorphic", "yes" if yes else "no")


HEADER = re.compile(r"(\S+): (completed|stalled|contradiction) after (\d+) steps$")
PRODUCT = re.compile(r"  (\S+)\*(\S+) = (.+)$")


def deduction(statuses: tuple[str, ...], truth: dict[tuple[str, str], dict[str, int]] | None = None):
    """Status is one of ``statuses``; a completed table must print every
    product of ``truth`` (name pair -> row) with exactly its value."""

    def check(stdout: str):
        lines = stdout.splitlines()
        m = HEADER.match(lines[0]) if lines else None
        expect(m is not None, "no deduction status line")
        status = m.group(2)
        expect(status in statuses, f"deduction {status}, expected {'/'.join(statuses)}")
        if status == "completed":
            printed = {}
            for line in lines[1:]:
                p = PRODUCT.match(line)
                expect(p is not None, f"unexpected deduction line {line[:80]!r}")
                printed[(p.group(1), p.group(2))] = terms(p.group(3))
            expect(printed == truth, "completed table differs from the source algebra")

    return check


def rows_by_name(algebra) -> dict[tuple[str, str], dict[str, int]]:
    name = algebra.basis.name
    k = algebra.size
    return {
        (name(i), name(j)): {name(m): v for m, v in algebra.constants.row_items(i, j)}
        for i in range(1, k)
        for j in range(i, k)
    }


# The character algebra of PSL(2,7) in the names of PSL27-partial; the
# benchmark's tests check it against the character-table oracle.
PSL27 = {
    ("c3", "c3"): {"c3bar": 1, "s6": 1},
    ("c3", "c3bar"): {"1": 1, "b8": 1},
    ("c3", "s6"): {"c3bar": 1, "b7": 1, "b8": 1},
    ("c3", "b7"): {"s6": 1, "b7": 1, "b8": 1},
    ("c3", "b8"): {"c3": 1, "s6": 1, "b7": 1, "b8": 1},
    ("c3bar", "c3bar"): {"c3": 1, "s6": 1},
    ("c3bar", "s6"): {"c3": 1, "b7": 1, "b8": 1},
    ("c3bar", "b7"): {"s6": 1, "b7": 1, "b8": 1},
    ("c3bar", "b8"): {"c3bar": 1, "s6": 1, "b7": 1, "b8": 1},
    ("s6", "s6"): {"1": 1, "s6": 2, "b7": 1, "b8": 2},
    ("s6", "b7"): {"c3": 1, "c3bar": 1, "s6": 1, "b7": 2, "b8": 2},
    ("s6", "b8"): {"c3": 1, "c3bar": 1, "s6": 2, "b7": 2, "b8": 2},
    ("b7", "b7"): {"1": 1, "c3": 1, "c3bar": 1, "s6": 2, "b7": 2, "b8": 2},
    ("b7", "b8"): {"c3": 1, "c3bar": 1, "s6": 2, "b7": 2, "b8": 3},
    ("b8", "b8"): {"1": 1, "c3": 1, "c3bar": 1, "s6": 2, "b7": 3, "b8": 3},
}

# Power supports of b3 as tabulated in the paper (Tables 1 and 2).
C = {"1", "b8", "x10", "b5", "c5", "c8", "x9"}
B32_POWERS = {
    1: {"b3"},
    2: {"c3", "b6"},
    3: {"r3", "s6", "t15"},
    4: {"c3bar", "b6bar", "y15bar", "c9bar"},
    5: {"b3bar", "x6bar", "x15bar", "b9bar", "z3"},
    6: C,
    7: {"b3", "x6", "x15", "b9", "z3bar"},
    8: {"c3", "b6", "y15", "c9", "d3bar"},
    9: {"r3", "s6", "t15", "d9", "y3"},
    10: {"c3bar", "b6bar", "y15bar", "c9bar", "d3"},
}
B22_POWERS = {
    1: {"b3"},
    2: {"r3", "s6"},
    3: {"b3bar", "t6", "b15bar"},
    4: C,
    5: {"b3", "t6bar", "b15", "y9", "x3"},
    6: {"r3", "s6", "t15", "d9", "y3"},
    7: {"b3bar", "t6", "b15bar", "y9bar", "x3bar"},
}


# -- workloads -----------------------------------------------------------------


def paper(rng: random.Random, work: Path) -> Workload:
    """The paper's claims; the seed only shuffles the order of the commands."""
    thm41 = work / "Theorem41.alg"
    thm41.write_text(corpus.theorem41_seed())
    b32_d = str(work / "B32-D.alg")
    b = "bundled:"
    groups = [[Command("verify", ["verify", b + name], 0, verify_passes(load(name).size))]
              for name in ("C7", "D17", "B22", "B32")]
    groups += [
        [Command("lattice", ["--format", "machine", "subsets", b + "B32"], 0, subset_sizes([1, 7, 12, 17, 32]))],
        [Command("lattice", ["--format", "machine", "subsets", b + "B22"], 0, subset_sizes([1, 7, 12, 22]))],
        [Command("lattice", ["--format", "machine", "subsets", b + "D17"], 0, subset_sizes([1, 7, 17]))],
    ]
    # B32/C is cyclic of order 6 and B22/C of order 4; D and E are the
    # preimages of its subgroups of index 2 and 3 (B32), 2 (B22).
    for name, by, n in (("B32", "C", 6), ("B32", "D", 2), ("B32", "E", 3), ("B22", "C", 4), ("B22", "E", 2)):
        groups.append([Command("quotient", ["--format", "machine", "quotient", b + name, "--by", by], 0,
                               cyclic_quotient(n))])
    groups += [
        [Command("quotient", ["--format", "machine", "powers", b + "B32", "b3", "--max", "10"], 0,
                 power_rows(B32_POWERS))],
        [Command("quotient", ["--format", "machine", "powers", b + "B22", "b3", "--max", "7"], 0,
                 power_rows(B22_POWERS))],
    ]
    # (b3 b8, b3 b8) = 3 in both algebras
    for name, product in (("B32", "b3 + x6 + x15"), ("B22", "b3 + t6bar + b15")):
        groups.append([
            Command("arith", ["--format", "machine", "mult", b + name, "b3", "b8"], 0,
                    equals("product", product, terms)),
            Command("arith", ["--format", "machine", "inner", b + name, product, product], 0, equals("inner", "3")),
        ])
    groups += [
        [
            Command("iso", ["--format", "machine", "restrict", b + "B32", "--to", "D", "-o", b32_d], 0,
                    equals("size", "17")),
            Command("iso", ["--format", "machine", "iso", b32_d, b + "D17"], 0, iso_answer(True)),
        ],
        [Command("iso", ["--format", "machine", "iso", b + "B32", b + "B22"], 1, iso_answer(False))],
        [Command("deduce", ["deduce", str(thm41)], 1, deduction(("contradiction",)))],
    ]
    rng.shuffle(groups)
    inputs = [("full", b + name) for name in ("C7", "D17", "B22", "B32")] + [("partial", str(thm41))]
    # its commands take about one calibration probe each: two share a probe
    return Workload([c for g in groups for c in g], inputs, peak_input=b + "B32", calibrate_every=2)


def deduce(rng: random.Random, work: Path) -> Workload:
    """Completing, stalling and refuting seeds; the seed draws the random
    one-third subtables."""
    seeds = {
        "Lemma72": corpus.lemma72_seed(),
        "Theorem41": corpus.theorem41_seed(),
        "B32stall": corpus.stall_seed(),
    }
    for name in ("B32", "B22", "D17"):
        seeds[f"{name}third"] = corpus.third_subtable_seed(name, rng)
    paths = {}
    for name, text in seeds.items():
        paths[name] = str(work / f"{name}.alg")
        Path(paths[name]).write_text(text)
    truth = {name: rows_by_name(load(name)) for name in ("B32", "B22", "D17")}
    commands = [
        Command("deduce", ["deduce", paths["Lemma72"]], 0, deduction(("completed",), truth["B32"])),
        Command("deduce", ["deduce", "bundled:PSL27-partial"], 0, deduction(("completed",), PSL27)),
        Command("deduce", ["deduce", paths["Theorem41"]], 1, deduction(("contradiction",))),
        Command("deduce", ["deduce", paths["B32stall"]], 1, deduction(("stalled",))),
    ]
    for name in ("B32", "B22", "D17"):
        # a subtable of a consistent algebra never yields a contradiction,
        # and without naming every derived product is forced, hence true
        commands.append(Command("deduce", ["deduce", "--no-names", paths[f"{name}third"]], 0,
                                deduction(("completed",), truth[name])))
    inputs = [("partial", p) for p in paths.values()] + [("partial", "bundled:PSL27-partial")]
    return Workload(commands, inputs)


# (file name, factors); the last factor varies fastest in the natural order
PASSING_RUNGS = (
    ("C7xZ6", ("C7", "Z6")),
    ("Z2xB32", ("Z2", "B32")),
    ("Z3xB22", ("Z3", "B22")),
    ("Z4xD17", ("Z4", "D17")),
    ("C7xZ4", ("C7", "Z4")),
    ("Z4xC7", ("Z4", "C7")),
    ("C7xZ2xZ2", ("C7", "Z2", "Z2")),
)


def scale(rng: random.Random, work: Path) -> Workload:
    """Tensor-product ladder with seeded basis order and names."""
    paths, rungs = {}, {}

    def write(name, factors):
        algebra = corpus.tensor(factors, name, rng)
        text = serialize(algebra)
        rungs[name] = corpus.check_rung(text, factors)
        paths[name] = str(work / f"{name}.alg")
        Path(paths[name]).write_text(text)

    for name, factors in PASSING_RUNGS:
        write(name, [load(f) for f in factors])
    write("Z2xB32printed", [load("Z2"), corpus.b32_as_printed(rng)])
    # verify and verify --exact must agree on every rung with k <= 49: the
    # timed commands compare them on C7xZ6, this on the other small rungs
    for name in ("C7xZ4", "Z4xC7", "C7xZ2xZ2"):
        if rungs[name].verify_axioms() != rungs[name].verify_axioms(force_exact=True):
            raise RuntimeError(f"{name}: verify and verify --exact disagree")
    # the witnesses the plain verifier must print are the exact verifier's
    report = rungs["Z2xB32printed"].verify_axioms(force_exact=True)
    failing = {c.name: [tuple(w) for w in c.witnesses] for c in report.checks if not c.passed}
    if tuple(failing) != corpus.PRINTED_FAILURES or not all(failing.values()):
        raise RuntimeError(f"Z2xB32printed fails {tuple(failing)}, not {corpus.PRINTED_FAILURES}")

    def verify(name, *flags):
        return Command("verify", ["verify", *flags, paths[name]], 0, verify_passes(rungs[name].size))

    commands = [
        verify("C7xZ6"),
        verify("C7xZ6", "--exact"),
        verify("Z2xB32"),
        verify("Z3xB22"),
        verify("Z4xD17"),
        Command("verify_fail", ["verify", paths["Z2xB32printed"]], 1, verify_fails(failing)),
        # Goursat: the products of {1}, Z2 with {1}, C, E, D, B32, plus the two
        # diagonals over the index-2 pairs E > C and B32 > D
        Command("lattice", ["--format", "machine", "subsets", paths["Z2xB32"]], 0,
                subset_sizes([1, 2, 7, 12, 12, 14, 17, 24, 32, 32, 34, 64])),
        Command("iso", ["--format", "machine", "iso", paths["C7xZ4"], paths["Z4xC7"]], 0, iso_answer(True)),
        Command("iso", ["--format", "machine", "iso", paths["C7xZ4"], paths["C7xZ2xZ2"]], 1, iso_answer(False)),
    ]
    inputs = [("full", p) for p in paths.values()]
    return Workload(commands, inputs, peak_input=paths["Z2xB32"])


WORKLOADS = {"paper": paper, "deduce": deduce, "scale": scale}
