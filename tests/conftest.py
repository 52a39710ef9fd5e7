import pathlib
import sys

import pytest

# tests/ for the oracles; perfbench/ for its corpus: tensor products, the
# printed B32 lines, and the seed builders the shipped seeds must match
HERE = pathlib.Path(__file__).parent
sys.path[:0] = [str(HERE), str(HERE.parent / "perfbench")]

from tabalg import load, parse_partial
from tabalg.bundled import data_text
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


def bundled_seed(name, drop=()):
    """A PartialTable of the shipped partial table NAME, less the products
    of the name pairs in ``drop``."""
    _, basis, products = parse_partial(data_text(name))
    for a, b in drop:
        del products[tuple(sorted((basis.index_of(a), basis.index_of(b))))]
    return PartialTable(basis, products)


@pytest.fixture(scope="session")
def lemma72_run():
    """The (table, trace) fixed point of the shipped Lemma 7.2 seed, with
    naming, shared across test modules."""
    return propagate(bundled_seed("Lemma72-seed"), introduce_names=True)
