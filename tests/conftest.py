import pathlib
import sys

import pytest

# tests/ for the oracles, perfbench/ for its corpus builders (tensor2)
HERE = pathlib.Path(__file__).parent
sys.path[:0] = [str(HERE), str(HERE.parent / "perfbench")]

from tabalg import load
from tabalg.bundled import NAMED_SUBSETS
from tabalg.deduction import PartialTable, propagate


@pytest.fixture(scope="session")
def B32():
    return load("B32")


@pytest.fixture(scope="session")
def B22():
    return load("B22")


@pytest.fixture(scope="session")
def D17():
    return load("D17")


@pytest.fixture(scope="session")
def C7():
    return load("C7")


def subtable_seed(A, pairs):
    """A PartialTable on A's basis seeded with A's own rows on the index pairs."""
    return PartialTable(A.basis, {(i, j): A.constants.rows[i][j] for i, j in pairs})


def lemma72_seed(B32, with_b3b3=True):
    """Basis of B32, the full C and D tables, and the three hypothesis
    products b3*b3bar, b3*b3, b3*c3bar (b3*b3 left out when ``with_b3b3``
    is False)."""
    idx = B32.basis.index_of
    d = [idx(n) for n in NAMED_SUBSETS["B32"]["D"]]
    seed = subtable_seed(B32, [(i, j) for i in d for j in d if i <= j])
    seed.set_product(idx("b3"), idx("b3bar"), {0: 1, idx("b8"): 1})
    if with_b3b3:
        seed.set_product(idx("b3"), idx("b3"), {idx("c3"): 1, idx("b6"): 1})
    seed.set_product(idx("b3"), idx("c3bar"), {idx("b3bar"): 1, idx("x6bar"): 1})
    return seed


@pytest.fixture(scope="session")
def lemma72_run(B32):
    """The (table, trace) fixed point of the Lemma-7.2-style seed, shared
    across test modules because it takes a few seconds."""
    seed = lemma72_seed(B32)
    return propagate(seed, introduce_names=True)
