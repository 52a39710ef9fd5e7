"""Tests of the benchmark's input generator and pinned answers.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).parent)]

import corpus  # noqa: E402
import workloads  # noqa: E402
from oracles import FiniteGroup, class_algebra_tensor, psl27_fusion  # noqa: E402
from tabalg import load, serialize  # noqa: E402


def direct_product(m: int, n: int) -> FiniteGroup:
    elements = [(a, b) for a in range(m) for b in range(n)]
    return FiniteGroup(elements, lambda x, y: ((x[0] + y[0]) % m, (x[1] + y[1]) % n), f"Z{m}xZ{n}")


@pytest.mark.parametrize("m,n", [(2, 3), (3, 2), (2, 2), (4, 6), (6, 4)])
def test_tensor_of_cyclic_class_algebras_is_the_convolution_oracle(m, n):
    algebra = corpus.tensor2(load(f"Z{m}"), load(f"Z{n}"))
    sizes, duals, tensor = class_algebra_tensor(direct_product(m, n))
    assert [e.degree for e in algebra.basis] == sizes
    assert [e.dual for e in algebra.basis] == duals
    k = algebra.size
    assert all(
        algebra.constants.delta(i, j, l) == tensor[i][j][l]
        for i in range(k) for j in range(k) for l in range(k)
    )


def test_seeded_rung_is_deterministic_round_trips_and_verifies():
    factors = [load("C7"), load("Z3")]
    texts = [serialize(corpus.tensor(factors, "C7xZ3", random.Random(7))) for _ in range(2)]
    assert texts[0] == texts[1]
    assert texts[0] != serialize(corpus.tensor(factors, "C7xZ3", random.Random(8)))
    algebra = corpus.check_rung(texts[0], factors)
    assert algebra.size == 21
    assert algebra.verify_axioms().ok


def test_b32_as_printed_fails_the_named_checks():
    for seed in range(6):
        report = corpus.b32_as_printed(random.Random(seed)).verify_axioms()
        assert tuple(c.name for c in report.checks if not c.passed) == corpus.PRINTED_FAILURES


def test_pinned_psl27_table_is_the_character_table():
    fusion = psl27_fusion()
    order = ["1", "c3", "c3bar", "s6", "b7", "b8"]  # characters 1, 3a, 3b, 6, 7, 8
    expected = {
        (order[i], order[j]): {order[m]: fusion[i][j][m] for m in range(6) if fusion[i][j][m]}
        for i in range(1, 6)
        for j in range(i, 6)
    }
    assert workloads.PSL27 == expected
