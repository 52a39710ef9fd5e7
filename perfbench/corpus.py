"""Input generation for the benchmark: the scale ladder and deduction seeds.

Everything here is a pure function of the bundled data and a
``random.Random`` drawn from the workload seed, so one seed always yields
byte-identical input files.  Inputs are built and self-checked before any
timing starts.

The scale ladder rests on one fact: the tensor product of two table
algebras is a table algebra whose degrees multiply and whose structure
constants multiply, ``(a_i x b_j)(a_p x b_q) = sum delta^A[i,p,m]
delta^B[j,q,n] (a_m x b_n)``.
"""

from __future__ import annotations

import functools
import random

from tabalg import parse, serialize
from tabalg.bundled import NAMED_SUBSETS, data_text, load
from tabalg.core import BasisElement, TableAlgebra, TableBasis

# The three degree-preserving "corrected from paper" lines of B32.  Putting
# back the printed value of any one of them still parses, and the result
# fails normalization symmetry and associativity.
B32_AS_PRINTED = (
    ("product d3 c8 = y15bar + b6bar + d3", "product d3 c8 = y15bar + b6 + d3"),
    ("product x6 x15 = 4 y15 + b6 + 2 c9 + d3bar + c3", "product x6 x15 = 4 y15 + b6 + 2 c9 + d3 + c3"),
    ("product x6 b9 = b6 + 2 c9 + 2 y15", "product x6 b9 = b6bar + 2 c9bar + 2 y15bar"),
)

# The checks an uncorrected B32 line breaks, tensored or not.
PRINTED_FAILURES = ("normalization-symmetry", "associativity")


def b32_as_printed(rng: random.Random) -> TableAlgebra:
    """Bundled B32 with one corrected product line put back as printed."""
    fixed, printed = rng.choice(B32_AS_PRINTED)
    text = data_text("B32")
    if text.count(fixed + "\n") != 1:
        raise RuntimeError(f"B32 no longer has the line {fixed!r}")
    algebra = parse(text.replace(fixed + "\n", printed + "\n"))
    algebra.name = "B32printed"
    return algebra


def tensor(factors: list[TableAlgebra], name: str, rng: random.Random) -> TableAlgebra:
    """Tensor product of the factors with its non-identity basis elements
    put in a random order and given shuffled names ``t1 .. t(k-1)``."""
    algebra = functools.reduce(tensor2, factors)
    k = algebra.size
    order = list(range(1, k))
    rng.shuffle(order)
    new_of = {0: 0, **{old: new for new, old in enumerate(order, start=1)}}
    labels = [f"t{n}" for n in range(1, k)]
    rng.shuffle(labels)
    names = ["1"] + labels
    old_of = [0] + order
    basis = TableBasis(
        [
            BasisElement(new, names[new], algebra.basis.degree(old), new_of[algebra.basis.dual(old)])
            for new, old in enumerate(old_of)
        ]
    )
    products = {}
    for p in range(1, k):
        for q in range(p, k):
            products[(p, q)] = {
                new_of[m]: v for m, v in algebra.constants.row_items(old_of[p], old_of[q])
            }
    return TableAlgebra.from_products(basis, products, name=name)


def tensor2(a: TableAlgebra, b: TableAlgebra) -> TableAlgebra:
    """Tensor product in the natural order, the second factor varying fastest.

    Elements are named by joining the factor names with ``_``, which the
    file format rejects, so this product is for in-memory use only;
    ``tensor`` renames before anything is serialized.
    """
    ka, kb = a.size, b.size
    k = ka * kb
    elements = []
    for i in range(ka):
        for j in range(kb):
            name = "1" if i == j == 0 else f"{a.basis.name(i)}_{b.basis.name(j)}"
            dual = a.basis.dual(i) * kb + b.basis.dual(j)
            elements.append(BasisElement(i * kb + j, name, a.basis.degree(i) * b.basis.degree(j), dual))
    basis = TableBasis(elements)
    products = {}
    for p in range(1, k):
        i, j = divmod(p, kb)
        for q in range(p, k):
            ip, jq = divmod(q, kb)
            row: dict[int, int] = {}
            for m, v in a.constants.row_items(i, ip):
                for n, w in b.constants.row_items(j, jq):
                    row[m * kb + n] = v * w
            products[(p, q)] = row
    return TableAlgebra.from_products(basis, products)


def check_rung(text: str, factors: list[TableAlgebra]) -> TableAlgebra:
    """Self-check of one generated file: it parses back to the same bytes
    and its degree multiset is the product of the factors' degrees."""
    algebra = parse(text)
    if serialize(algebra) != text:
        raise RuntimeError(f"{algebra.name} does not round-trip through serialize/parse")
    want = [1]
    for f in factors:
        want = [d * e.degree for d in want for e in f.basis]
    if sorted(e.degree for e in algebra.basis) != sorted(want):
        raise RuntimeError(f"{algebra.name}: degrees are not the products of the factor degrees")
    return algebra


# -- deduction seeds ----------------------------------------------------------


def partial_text(name: str, basis: TableBasis, products: dict[tuple[int, int], dict[int, int]]) -> str:
    """A partial ``.alg`` file listing the given products of a basis."""
    out = [f"algebra {name}"]
    out += [f"element {e.name} degree {e.degree} dual {basis.name(e.dual)}" for e in basis.elements[1:]]
    for (i, j), row in sorted(products.items()):
        rhs = " + ".join(basis.name(m) if c == 1 else f"{c} {basis.name(m)}" for m, c in sorted(row.items()))
        out.append(f"product {basis.name(i)} {basis.name(j)} = {rhs}")
    return "\n".join(out) + "\n"


def _rows(algebra: TableAlgebra, pairs) -> dict[tuple[int, int], dict[int, int]]:
    return {(i, j): dict(algebra.constants.row_items(i, j)) for i, j in pairs}


def lemma72_seed() -> str:
    """B32's D-subtable plus the three hypothesis products of Lemma 7.2."""
    b32 = load("B32")
    idx = b32.basis.index_of
    d = sorted(idx(n) for n in NAMED_SUBSETS["B32"]["D"])
    products = _rows(b32, [(i, j) for i in d for j in d if 0 < i <= j])
    products[(idx("b3"), idx("b3bar"))] = {0: 1, idx("b8"): 1}
    products[(idx("b3"), idx("b3"))] = {idx("c3"): 1, idx("b6"): 1}
    products[(idx("b3"), idx("c3bar"))] = {idx("b3bar"): 1, idx("x6bar"): 1}
    return partial_text("Lemma72", b32.basis, products)


def stall_seed() -> str:
    """Only b3*b3bar = 1 + b8 of B32: too little to decide anything."""
    b32 = load("B32")
    idx = b32.basis.index_of
    return partial_text("B32stall", b32.basis, {(idx("b3"), idx("b3bar")): {0: 1, idx("b8"): 1}})


def theorem41_seed() -> str:
    """The Theorem 4.1 hypotheses, which propagation refutes."""
    return (
        "algebra Theorem41\n"
        "element b3 degree 3 dual b3bar\n"
        "element b3bar degree 3 dual b3\n"
        "element b6 degree 6 dual b6bar\n"
        "element b6bar degree 6 dual b6\n"
        "element b8 degree 8 dual b8\n"
        "element b21 degree 21 dual b21\n"
        "product b3 b3bar = 1 + b8\n"
        "product b3 b8 = b3 + b21\n"
        "product b3 b3 = b3bar + b6\n"
    )


def third_subtable_seed(name: str, rng: random.Random) -> str:
    """A random third of the non-identity products of a bundled algebra."""
    algebra = load(name)
    k = algebra.size
    pairs = [(i, j) for i in range(1, k) for j in range(i, k)]
    return partial_text(f"{name}third", algebra.basis, _rows(algebra, rng.sample(pairs, len(pairs) // 3)))
