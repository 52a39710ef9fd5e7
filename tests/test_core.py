import ast
from collections import Counter
from itertools import combinations, permutations, product
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tabalg import (
    MalformedElementError,
    StructureConstants,
    TableAlgebra,
    TableAlgebraError,
    TableBasis,
    BasisElement,
    all_closed_subsets,
    closure,
    exact_isomorphic,
    load,
    parse,
    parse_element_expr,
    power_supports,
    quotient_by,
    restrict,
    serialize,
)
from tabalg import core
from tabalg.bundled import AUXILIARY, BUNDLED, data_text
from tabalg.core import _RANK_PRIME
from tabalg.deduction import PartialTable, propagate

import corpus
from conftest import subtable_seed
from oracles import (
    all_tables, class_algebra, class_algebra_tensor, classify, cyclic, psl27_fusion, shape_basis, symmetric3,
)


def elem(A, text):
    return parse_element_expr(text, A.basis)


def degree(A, x):
    return sum(c * A.basis.degree(i) for i, c in x.items())


class TestMultiply:
    def test_b3_times_b3bar_in_B32(self, B32):
        got = B32.multiply(elem(B32, "b3"), elem(B32, "b3bar"))
        assert got == elem(B32, "1 + b8")

    def test_identity_absorbs(self, B32):
        x = elem(B32, "2 b3 + x15 + 3 c5")
        assert B32.multiply(elem(B32, "1"), x) == x

    def test_b3_times_b6_in_B32(self, B32):
        got = B32.multiply(elem(B32, "b3"), elem(B32, "b6"))
        assert got == elem(B32, "r3 + t15")

    def test_cyclic_group_square(self):
        # brute-force oracle: in the Z3 class algebra g*g = g^2
        A = class_algebra(cyclic(3), ["1", "g", "g2"])
        assert A.multiply(elem(A, "g"), elem(A, "g")) == elem(A, "g2")

    def test_out_of_range_rejected(self, B32):
        with pytest.raises(MalformedElementError):
            B32.multiply({99: 1}, elem(B32, "b3"))

    def test_bilinear(self, B32):
        x = elem(B32, "2 b3 + c3")
        y = elem(B32, "b8 + 3 x10")
        direct = B32.multiply(x, y)
        split = Counter(B32.multiply(elem(B32, "2 b3"), y)) + Counter(B32.multiply(elem(B32, "c3"), y))
        assert direct == split


class TestInner:
    def test_main_theorem_value_B32(self, B32):
        x = B32.multiply(elem(B32, "b3"), elem(B32, "b8"))
        assert B32.inner(x, x) == 3

    def test_main_theorem_value_B22(self, B22):
        x = B22.multiply(elem(B22, "b3"), elem(B22, "b8"))
        assert B22.inner(x, x) == 3

    def test_identity(self, B32):
        assert B32.inner(elem(B32, "1"), elem(B32, "1")) == 1


class TestDegree:
    def test_multiplicative_on_example(self, B32):
        x = B32.multiply(elem(B32, "b3"), elem(B32, "b6"))
        assert degree(B32, x) == 18

    def test_identity(self, B32):
        assert degree(B32, elem(B32, "1")) == 1

    def test_y15_pair(self, B32):
        x = B32.multiply(elem(B32, "y15"), elem(B32, "y15bar"))
        assert degree(B32, x) == 225


def rows_of(A):
    """The structure rows of A on unordered pairs, as mutable dicts."""
    k = A.size
    return {(i, j): dict(A.constants.rows[i][j]) for i in range(k) for j in range(i, k)}


def perturbed_b32(B32):
    """B32 with one extra b_2 in b_1*b_1: fails degree and associativity."""
    products = {p: row for p, row in rows_of(B32).items() if p[0] > 0}
    products[(1, 1)][2] = products[(1, 1)].get(2, 0) + 1
    return TableAlgebra.from_products(B32.basis, products, name="broken")


def b32_as_printed(fixed, printed):
    text = data_text("B32")
    assert text.count(fixed + "\n") == 1
    return parse(text.replace(fixed + "\n", printed + "\n"))


def with_entry(A, pair, m, value):
    """A with one structure constant replaced; the constructor still checks
    the result, but nothing here requires it to be a table algebra."""
    rows = rows_of(A)
    rows[pair][m] = value
    return TableAlgebra(A.basis, StructureConstants(A.size, rows), name=f"{A.name}-edited")


def report_key(report):
    return (
        [(c.name, c.passed, c.witnesses) for c in report.checks],
        report.associativity_triples,
    )


def word_rank_mod_p(A, generators, p):
    """Rank mod p of the left-normed words ((1 g1) g2) ... in the generators,
    by breadth-first closure in Python integers."""
    k = A.size
    gens = [A.basis.index_of(g) for g in generators]
    rows = {}  # pivot -> row, each row zero at every other pivot

    def insert(v):
        for piv, row in rows.items():
            if v[piv]:
                c = v[piv]
                v = [(a - c * b) % p for a, b in zip(v, row)]
        piv = next((n for n in range(k) if v[n]), None)
        if piv is None:
            return False
        inv = pow(v[piv], -1, p)
        v = [a * inv % p for a in v]
        for q, row in rows.items():
            if row[piv]:
                c = row[piv]
                rows[q] = [(a - c * b) % p for a, b in zip(row, v)]
        rows[piv] = v
        return True

    queue = [[1] + [0] * (k - 1)]
    while queue:
        v = queue.pop()
        if insert(list(v)):
            for g in gens:
                w = [0] * k
                for i, c in enumerate(v):
                    if c:
                        for n, d in A.constants.rows[i][g].items():
                            w[n] = (w[n] + c * d) % p
                queue.append(w)
    return len(rows)


# the dense associativity reference costs k^5 products: up to D17 it is cheap
DENSE_ASSOCIATIVITY_K = 17


def dense_witnesses(A):
    """Each check's witnesses, straight from its definition over every
    position of the dense k*k*k tensor; independent of the verifier.
    Associativity is left out when k > DENSE_ASSOCIATIVITY_K."""
    k = A.size
    t = [[[A.constants.rows[i][j].get(m, 0) for m in range(k)] for j in range(k)] for i in range(k)]
    dual = [e.dual for e in A.basis]
    deg = [e.degree for e in A.basis]
    cells = [(i, j, m) for i in range(k) for j in range(k) for m in range(k)]
    witnesses = {
        # b_0 b_j = b_j: delta[0][j][m] is 1 at m = j and 0 elsewhere
        "identity": [(0, j, m) for j in range(k) for m in range(k) if t[0][j][m] != (m == j)],
        "involution": [(i, j, m) for i, j, m in cells if i <= j and t[i][j][m] != t[dual[i]][dual[j]][dual[m]]],
        "degree-homomorphism": [
            (i, j) for i in range(k) for j in range(i, k)
            if sum(t[i][j][m] * deg[m] for m in range(k)) != deg[i] * deg[j]
        ],
        "normalization-symmetry": [(i, j, m) for i, j, m in cells if t[i][j][m] != t[dual[j]][m][i]],
    }
    if k <= DENSE_ASSOCIATIVITY_K:
        # ((b_i b_j) b_l)_n = sum_m delta[i][j][m] delta[m][l][n] and
        # (b_i (b_j b_l))_n = sum_m delta[j][l][m] delta[i][m][n]
        by_left = [[[t[m][l][n] for m in range(k)] for n in range(k)] for l in range(k)]
        by_right = [[[t[i][m][n] for m in range(k)] for n in range(k)] for i in range(k)]
        witnesses["associativity"] = [
            (i, j, l, n)
            for i in range(k) for j in range(k) for l in range(k) for n in range(k)
            if sum(map(mul, t[i][j], by_left[l][n])) != sum(map(mul, t[j][l], by_right[i][n]))
        ]
    return witnesses


def lex_sweep(A):
    """Every associativity witness (i, j, l, n), lazily and in lexicographic
    order: both brackets of each ordered triple, evaluated one triple at a
    time; the independent reference for the verifier's multiset sweep."""
    k = A.size
    rows = [[list(r.items()) for r in row] for row in A.constants.rows]
    for i in range(k):
        row_i = rows[i]
        for j in range(k):
            row_ij, row_j = row_i[j], rows[j]
            for l in range(k):
                lhs = {}
                for m, v in row_ij:
                    for n, w in rows[m][l]:
                        lhs[n] = lhs.get(n, 0) + v * w
                rhs = {}
                for m, v in row_j[l]:
                    for n, w in row_i[m]:
                        rhs[n] = rhs.get(n, 0) + v * w
                if lhs != rhs:
                    for n in sorted(lhs.keys() | rhs.keys()):
                        if lhs.get(n, 0) != rhs.get(n, 0):
                            yield i, j, l, n


def sweep_evaluated(k, witnesses):
    """``associativity_evaluated`` after the exact sweep: the size of the
    lexicographic prefix of triples through the MAX_WITNESSES-th witness's,
    every one of which the sweep decided, or k^3 with fewer witnesses.  The
    sweep finishes the whole layer of that witness's first index, so it
    decides more triples than this; the count names only the prefix."""
    if len(witnesses) < core.VerificationReport.MAX_WITNESSES:
        return k**3
    i, j, l, _ = witnesses[-1]
    return (i * k + j) * k + l + 1


def assert_matches_dense(A, report):
    maxw = core.VerificationReport.MAX_WITNESSES
    for name, witnesses in dense_witnesses(A).items():
        check = report.check(name)
        assert check.passed == (not witnesses), (A.name, name)
        assert list(check.witnesses) == witnesses[:maxw], (A.name, name)


class TestVerify:
    def test_bundled_B32_passes(self, B32):
        report = B32.verify_axioms()
        assert report.ok
        assert report.associativity_triples == 32 ** 3

    def test_perturbation_caught(self, B32):
        report = perturbed_b32(B32).verify_axioms()
        assert not report.ok
        assert not report.check("associativity").passed
        assert not report.check("degree-homomorphism").passed
        assert report.check("associativity").witnesses  # (i, j, l, m) tuples
        with pytest.raises(KeyError):
            report.check("no-such-check")

    def test_group_class_algebra_passes(self):
        assert class_algebra(cyclic(4)).verify_axioms().ok

    def test_exact_sweep_agrees_with_vectorized(self, C7, D17, B22, B32):
        # whole reports, on passing and failing inputs, including k = 42
        # and 66: Light's test on the packed rows certifies exactly when
        # the exact sweep finds no witness
        cases = [C7, D17, B22, B32, load("S3"), class_algebra(cyclic(66)), corpus.tensor2(C7, load("Z6")), perturbed_b32(B32)]
        cases += [b32_as_printed(fixed, printed) for fixed, printed in corpus.B32_AS_PRINTED]
        failing = 0
        for A in cases:
            fast = A.verify_axioms()
            exact = A.verify_axioms(force_exact=True)
            assert report_key(fast) == report_key(exact), A.name
            assert fast == exact, A.name
            evaluated = sweep_evaluated(A.size, exact.check("associativity").witnesses)
            assert exact.associativity_evaluated == evaluated, A.name
            if not fast.check("associativity").passed:
                assert fast.associativity_evaluated == evaluated < A.size**3, A.name
            assert exact.generators == ()
            failing += not fast.ok
        assert failing == 5

    def test_printed_b32_lines_fail_symmetry_and_associativity(self):
        # the sweep stops in row i = 1, at the triple of the 20th witness
        evaluated = []
        for fixed, printed in corpus.B32_AS_PRINTED:
            report = b32_as_printed(fixed, printed).verify_axioms()
            bad = [c.name for c in report.checks if not c.passed]
            assert bad == ["normalization-symmetry", "associativity"], printed
            witnesses = report.check("associativity").witnesses
            assert report.associativity_evaluated == sweep_evaluated(32, witnesses), printed
            evaluated.append(report.associativity_evaluated)
        assert evaluated == [1194, 1723, 1688]

    def test_multiset_sweep_matches_lex_sweep_in_full(self, C7, D17, B32):
        cases = [b32_as_printed(fixed, printed) for fixed, printed in corpus.B32_AS_PRINTED]
        cases.append(perturbed_b32(B32))
        # diagonal pairs and identity rows: repeated indices and layer 0
        cases += [with_entry(C7, (2, 2), 4, 1), with_entry(D17, (5, 5), 0, 2),
                  with_entry(C7, (0, 3), 5, 1), with_entry(C7, (0, 3), 3, 0)]
        # one more b_4 in the last diagonal row of C7 (x) Z6 (k = 42): fewer
        # than 20 witnesses below layer 7 and half of its 520 in layer 41, so
        # the sweep is compared through every layer of a tensor product
        cases.append(with_entry(corpus.tensor2(C7, load("Z6")), (41, 41), 4, 2))
        counts, shapes = [], set()
        for A in cases:
            swept = list(A._exact_sweep())
            assert swept == list(lex_sweep(A)), A.name
            assert all(u < v for u, v in zip(swept, swept[1:])), A.name
            counts.append(len(swept))
            for i, j, l, _ in swept:
                # (x, x, z), (z, x, x), (x, y, y), (y, y, x) and layer 0
                shapes.update(s for s, hit in (("xxz", i == j < l), ("zxx", j == l < i), ("xyy", i < j == l),
                                               ("yyx", l < i == j), ("0", i == 0)) if hit)
        assert counts[:3] == [3004, 2904, 7232]
        assert counts[-1] == 520
        assert shapes == {"xxz", "zxx", "xyy", "yyx", "0"}

    def test_identity_witnesses_are_distinct_and_ordered(self, C7):
        # b_0 b_1 = 2 b_1 fails at one position, reported once
        A = with_entry(C7, (0, 1), 1, 2)
        # a stray b_5 in b_0 b_2 and an empty b_0 b_1, in (j, m) order
        rows = rows_of(C7)
        rows[(0, 2)][5] = 1
        rows[(0, 1)] = {}
        B = TableAlgebra(C7.basis, StructureConstants(C7.size, rows), name="C7-edited")
        for X, witnesses in ((A, ((0, 1, 1),)), (B, ((0, 1, 1), (0, 2, 5)))):
            report = X.verify_axioms()
            assert report.check("identity").witnesses == witnesses
            assert_matches_dense(X, report)

    def test_s3_fails_only_normalization(self):
        from tabalg import load

        S3 = load("S3")
        report = S3.verify_axioms()
        assert not report.check("normalization-symmetry").passed
        others = [c for c in report.checks if c.name != "normalization-symmetry"]
        assert all(c.passed for c in others)

    def test_row_checks_match_dense_reference(self, C7, D17, B22, B32):
        cases = [C7, D17, B22, B32, load("S3"), class_algebra(cyclic(66)), perturbed_b32(B32)]
        cases += [b32_as_printed(fixed, printed) for fixed, printed in corpus.B32_AS_PRINTED]
        for A in cases:
            assert_matches_dense(A, A.verify_axioms())

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_single_entry_perturbations_match_references(self, data):
        A = load(data.draw(st.sampled_from(["C7", "S3", "Z6", "D17"])))
        k = A.size
        i = data.draw(st.integers(0, k - 1))
        j = data.draw(st.integers(i, k - 1))
        m = data.draw(st.integers(0, k - 1))
        B = with_entry(A, (i, j), m, data.draw(st.integers(0, 3)))
        report = B.verify_axioms()
        assert_matches_dense(B, report)
        assert report_key(report) == report_key(B.verify_axioms(force_exact=True))
        assert list(B._exact_sweep()) == list(lex_sweep(B))


def products_of(A):
    """A's product lines, without the word product, joined by "; "."""
    return "; ".join(line.removeprefix("product ") for line in serialize(A).splitlines() if line.startswith("product"))


def closed_subsets_by_scan(A):
    """Every subset that holds 1, its duals and the support of each of its
    products, straight from the definition, by size then members."""
    k, rows = A.size, A.constants.rows
    found = []
    for r in range(k):
        for rest in combinations(range(1, k), r):
            s = (0, *rest)
            if all(A.basis.dual(i) in s for i in s) and all(
                m in s for i in s for j in s for m in range(k) if rows[i][j].get(m, 0)
            ):
                found.append(s)
    return found


def assert_structure_and_deduction(A):
    """The lattice equals the scan, and a seed missing any one product and
    its dual image completes to A without naming."""
    assert all_closed_subsets(A) == closed_subsets_by_scan(A), A.name
    k, dual = A.size, A.basis.dual
    pairs = [(i, j) for i in range(1, k) for j in range(i, k)]
    for i, j in pairs:
        dropped = {(i, j), tuple(sorted((dual(i), dual(j))))}
        table, trace = propagate(subtable_seed(A, [p for p in pairs if p not in dropped]))
        assert trace.status == "completed", (A.name, i, j)
        assert table.as_algebra().constants.rows == A.constants.rows, (A.name, i, j)


Z4 = "e1 e1 = e3; e1 e1bar = 1; e1 e3 = e1bar; e1bar e1bar = e3; e1bar e3 = e1; e3 e3 = 1"
CH_A4 = ("e1 e1 = e1bar; e1 e1bar = 1; e1 e3 = e3; e1bar e1bar = e1; e1bar e3 = e3; "
         "e3 e3 = 1 + e1 + e1bar + 2 e3")
Z5 = [
    "e1 e1 = e3bar; e1 e1bar = 1; e1 e3 = e1bar; e1 e3bar = e3; e1bar e1bar = e3; e1bar e3 = e3bar; "
    "e1bar e3bar = e1; e3 e3 = e1; e3 e3bar = 1; e3bar e3bar = e1bar",
    "e1 e1 = e3; e1 e1bar = 1; e1 e3 = e3bar; e1 e3bar = e1bar; e1bar e1bar = e3bar; e1bar e3 = e1; "
    "e1bar e3bar = e3; e3 e3 = e1bar; e3 e3bar = 1; e3bar e3bar = e1",
]
F21 = ("e1 e1 = e1bar; e1 e1bar = 1; e1 e3 = e3; e1 e3bar = e3bar; e1bar e1bar = e1; e1bar e3 = e3; "
       "e1bar e3bar = e3bar; e3 e3 = e3 + 2 e3bar; e3 e3bar = 1 + e1 + e1bar + e3 + e3bar; e3bar e3bar = 2 e3 + e3bar")
CH_D10 = "e1 e1 = 1; e1 e2 = e2; e1 e3 = e3; e2 e2 = 1 + e1 + e3; e2 e3 = e2 + e3; e3 e3 = 1 + e1 + e2"
# Z4 in degree 1 and e4 e4 = 1 + e1 + e2 + e2bar: D8 and Q8 have V4 in
# degree 1, so this is the character algebra of no group
Z4_AND_E4 = ("e1 e1 = 1; e1 e2 = e2bar; e1 e2bar = e2; e1 e4 = e4; e2 e2 = e1; e2 e2bar = 1; e2 e4 = e4; "
             "e2bar e2bar = e1; e2bar e4 = e4; e4 e4 = 1 + e1 + e2 + e2bar")
# V4 in degree 1 and e4 e4 = 1 + e1 + e2 + e3: Ch(D8) = Ch(Q8)
V4_AND_E4 = ("e1 e1 = 1; e1 e2 = e3; e1 e3 = e2; e1 e4 = e4; e2 e2 = 1; e2 e3 = e1; e2 e4 = e4; e3 e3 = 1; "
             "e3 e4 = e4; e4 e4 = 1 + e1 + e2 + e3")
# (degrees, duals, tables, passing tables, branch-and-propagate nodes) of
# every shape that gets the per-table checks; the 5,760 tables of F21's
# shape are only verified
SHAPES = [
    ((1, 1, 2, 2), (0, 1, 2, 3), 486, [CH_D10], 5),
    ((1, 2, 2, 3), (0, 1, 2, 3), 525, [], 1),
    ((1, 1, 1, 1), (0, 2, 1, 3), 9, [Z4], 1),
    ((1, 1, 1, 3), (0, 2, 1, 3), 20, [CH_A4], 1),
    ((1, 1, 1, 1, 1), (0, 2, 1, 4, 3), 256, Z5, 3),
    ((1, 1, 1, 1, 2), (0, 1, 3, 2, 4), 567, [Z4_AND_E4], 1),
    ((1, 2, 3, 3), (0, 1, 3, 2), 0, [], 3),
    ((1, 3, 3, 4), (0, 2, 1, 3), 0, [], 1),
]


def shape_id(shape):
    """``1122-real`` or ``1111-pairs``: the degrees, then whether all are real."""
    degrees, duals = shape[:2]
    return "".join(map(str, degrees)) + ("-real" if duals == tuple(range(len(duals))) else "-pairs")


def table_of_shape(degrees, duals, products):
    """The table of a shape of ``all_tables`` whose products are
    ``products``, as ``products_of`` writes them."""
    basis = shape_basis(degrees, duals)
    rows = {}
    for line in products.split("; "):
        lhs, rhs = line.split(" = ")
        rows[tuple(sorted(map(basis.index_of, lhs.split())))] = parse_element_expr(rhs, basis)
    return TableAlgebra.from_products(basis, rows)


def shape_permutations(A, B):
    """Every bijection of A's indices onto B's, of equal size, that fixes 1
    and carries degrees to degrees and duals to duals, as the tuple of
    images."""
    deg_a, deg_b = [e.degree for e in A.basis], [e.degree for e in B.basis]
    dual_a, dual_b = [e.dual for e in A.basis], [e.dual for e in B.basis]
    for rest in permutations(range(1, A.size)):
        psi = (0, *rest)
        if all(deg_b[psi[i]] == deg_a[i] and psi[dual_a[i]] == dual_b[psi[i]] for i in range(A.size)):
            yield psi


def relabeled(A, psi):
    """A with each index i renamed psi[i], for psi of ``shape_permutations(A,
    A)``: the basis is A's."""
    return TableAlgebra.from_products(A.basis, {
        tuple(sorted((psi[i], psi[j]))): {psi[m]: v for m, v in A.constants.rows[i][j].items()}
        for i in range(A.size) for j in range(i, A.size)
    })


def isomorphisms_by_brute_force(A, B):
    """Every bijection of ``shape_permutations`` that carries each product
    of A onto B's, written without ``iso``; none when the sizes differ."""
    if A.size != B.size:
        return []
    rows_a, rows_b = A.constants.rows, B.constants.rows
    return [
        psi for psi in shape_permutations(A, B)
        if all({psi[m]: v for m, v in rows_a[i][j].items()} == rows_b[psi[i]][psi[j]]
               for i in range(A.size) for j in range(i, A.size))
    ]


class TestBoundedExhaustive:
    """Every commutative table of small shapes, all real or with conjugate
    pairs: the verifier, the dense witnesses, the file format and a seed of
    all its products agree on each one, passing or failing, and on each
    passing table the lattice, the deduction engine and ``exact_isomorphic``
    agree with brute force.  (1, 2, 3, 3) and (1, 3, 3, 4) admit no table
    closed under the involution, by degree parity: e1 e1 = 1 + ... needs an
    odd degree from elements whose coefficients come in dual pairs of even
    total degree.  On every shape, ``classify``'s branch and propagate
    finds exactly the passing tables.  The all-real (1, 1, 1, 1, 2), the
    shape of D8 and Q8, stays out of brute force, as its 120,393 tables
    take 36 s to verify; only branch and propagate runs on it."""

    @pytest.mark.parametrize("degrees, duals, count, passing, nodes", SHAPES, ids=map(shape_id, SHAPES))
    def test_every_table_of_a_shape(self, degrees, duals, count, passing, nodes):
        tables = list(all_tables(degrees, duals))
        assert len(tables) == count
        k = len(degrees)
        pairs = [(i, j) for i in range(1, k) for j in range(i, k)]
        passed = []
        for A in tables:
            report = A.verify_axioms()
            assert report == A.verify_axioms(force_exact=True), A.name
            assert_matches_dense(A, report)
            again = parse(serialize(A))
            assert (again.basis, again.constants.rows) == (A.basis, A.constants.rows), A.name
            # a full seed has nothing to derive: every failing table breaks
            # the normalization symmetry, which R2 refutes at seed
            _, trace = propagate(subtable_seed(A, pairs))
            assert trace.status == ("completed" if report.ok else "contradiction"), A.name
            if report.ok:
                passed.append(A)
        # Ch(D10); Z4; Ch(A4); Z5 twice, one labelling carried to the other
        # by an exact isomorphism; and Z4_AND_E4
        assert [products_of(A) for A in passed] == passing
        assert all(exact_isomorphic(passed[0], A) is not None for A in passed)
        for A in passed:
            assert_structure_and_deduction(A)
        # branch and propagate finds the same tables, in its own order
        completions, searched = classify(degrees, duals)
        assert (sorted(map(products_of, completions)), searched) == (sorted(passing), nodes)

    @pytest.mark.parametrize("degrees, duals, seeds, completed", [
        ((1, 1, 1, 1), (0, 2, 1, 3), 32, 4),
        ((1, 1, 1, 3), (0, 2, 1, 3), 76, 6),
        ((1, 1, 1, 1, 1), (0, 2, 1, 4, 3), 1524, 24),
    ], ids=["1111-pairs", "1113-pairs", "11111-pairs"])
    def test_drop_one_seeds_of_failing_tables(self, degrees, duals, seeds, completed):
        """A failing table less one product and its dual image, one seed per
        dual orbit of pairs, propagated without naming, never stalls: it
        ends in a contradiction, or completes to a passing table of its
        shape, which the dropped product repairs.  The shapes (1, 1, 2, 2),
        (1, 2, 2, 3) and (1, 1, 1, 1, 2) have 2,910 to 3,962 such seeds
        each and would add about 1.5 s to tier-1, against 0.3 s for these
        three, so they stay out."""
        verified = [(A, A.verify_axioms().ok) for A in all_tables(degrees, duals)]
        failing = [A for A, ok in verified if not ok]
        passing = [A.constants.rows for A, ok in verified if ok]
        k = len(degrees)
        pairs = [(i, j) for i in range(1, k) for j in range(i, k)]
        image = {(i, j): tuple(sorted((duals[i], duals[j]))) for i, j in pairs}
        statuses = []
        for A in failing:
            for pair in (p for p in pairs if p <= image[p]):
                dropped = {pair, image[pair]}
                table, trace = propagate(subtable_seed(A, [p for p in pairs if p not in dropped]))
                statuses.append(trace.status)
                if trace.status == "completed":
                    assert table.as_algebra().constants.rows in passing, (A.name, pair)
        assert len(statuses) == seeds
        assert Counter(statuses) == {"completed": completed, "contradiction": seeds - completed}

    def test_exact_isomorphic_agrees_with_brute_force(self):
        """On every ordered pair of the passing tables, and from each one to
        each of its relabelings, ``exact_isomorphic`` finds a mapping exactly
        when brute force does, and one that brute force found."""
        tables = [table_of_shape(degrees, duals, products)
                  for degrees, duals, _, passing, _ in SHAPES for products in passing]
        tables.append(table_of_shape((1, 1, 1, 3, 3), (0, 2, 1, 4, 3), F21))
        assert len(tables) == 7

        def agreed(A, B):
            psi, found = exact_isomorphic(A, B), isomorphisms_by_brute_force(A, B)
            assert (psi is not None) == bool(found)
            assert psi is None or psi in found
            return found

        # each table with itself, and the two Z5 labellings with each other
        assert sum(bool(agreed(A, B)) for A, B in product(tables, repeat=2)) == 9
        for A in tables:
            for psi in shape_permutations(A, A):
                assert psi in agreed(A, relabeled(A, psi))

    def test_the_one_table_of_the_smallest_nita_of_the_papers_class(self):
        # F21 = C7:C3 has characters of degrees 1, 1, 1, 3, 3: the character
        # algebra is generated by the faithful non-real e3 of degree 3; the
        # 5,760 tables are only verified, the exact sweep would double the cost
        count, passed = 0, []
        for A in all_tables((1, 1, 1, 3, 3), (0, 2, 1, 4, 3)):
            count += 1
            if A.verify_axioms().ok:
                passed.append(A)
        assert (count, [products_of(A) for A in passed]) == (5760, [F21])
        A = passed[0]
        assert closure(A, ["e3"]) == tuple(range(5))
        assert_structure_and_deduction(A)
        completions, nodes = classify((1, 1, 1, 3, 3), (0, 2, 1, 4, 3))
        assert ([products_of(A) for A in completions], nodes) == ([F21], 6)

    def test_branch_and_propagate_beyond_brute_force(self):
        """Two shapes whose tables are too many to verify one by one: the
        all-real (1, 1, 1, 1, 2) of D8 and Q8, 120,393 tables, and PSL(2,7)'s
        degrees (1, 3, 3, 6, 7, 8), the two 3s a pair.  Each completes from
        the empty seed without a branch, to its one table."""
        completions, nodes = classify((1, 1, 1, 1, 2))
        assert ([products_of(A) for A in completions], nodes) == ([V4_AND_E4], 1)
        completions, nodes = classify((1, 3, 3, 6, 7, 8), (0, 2, 1, 3, 4, 5))
        assert (len(completions), nodes) == (1, 1)
        fusion = psl27_fusion()
        assert completions[0].constants.rows == tuple(
            tuple({m: v for m, v in enumerate(fusion[i][j]) if v} for j in range(6)) for i in range(6))


def refuse(*args):
    raise AssertionError("this path must not run")


class TestLightCertificate:
    def test_generators_are_pinned(self):
        pinned = {
            "C7": ("b8", "b5"), "D17": ("b3", "c5"), "B22": ("b8", "b5", "r3", "b3"),
            "B32": ("b8", "b5", "c3", "b3"), "Z2": ("g",), "Z3": ("g",), "Z4": ("g",),
            "Z6": ("g",), "S3": ("c", "t"),
        }
        assert {name: load(name).verify_axioms().generators for name in BUNDLED + AUXILIARY} == pinned

    def test_generators_span_every_bundled_algebra(self):
        for name in BUNDLED + AUXILIARY:
            A = load(name)
            k = A.size
            report = A.verify_axioms()
            assert report.check("associativity").passed, name
            gens = report.generators
            assert 0 < len(gens) < k, name
            assert report.associativity_evaluated == len(gens) * k * k, name
            assert word_rank_mod_p(A, gens, _RANK_PRIME) == k, name

    def test_broken_identity_row_goes_straight_to_the_sweep(self, C7, monkeypatch):
        # without the identity Light's lemma does not apply: no generating
        # set is sought and Light's test does not run
        A = with_entry(C7, (0, 1), 2, 1)
        monkeypatch.setattr(core, "_generating_set", refuse)
        monkeypatch.setattr(core, "_light_holds", refuse)
        report = A.verify_axioms()
        assert not report.check("identity").passed
        assert report.check("identity").witnesses == ((0, 1, 2),)
        assert report.generators == ()
        witnesses = report.check("associativity").witnesses
        assert report.associativity_evaluated == sweep_evaluated(C7.size, witnesses) == 12
        assert_matches_dense(A, report)

    def test_huge_entries_widen_fields_and_agree_with_exact_sweep(self, C7):
        # 2**40, 2**62 and 2**70 pass the limits of exact float64 sums, of
        # int64 degree sums and of int64 itself
        for value in (2**40, 2**62, 2**70):
            A = with_entry(C7, (1, 2), 3, value)
            rows = list(rows_of(A).values())
            top = max(sum(r.values()) for r in rows) * max(max(r.values()) for r in rows if r)
            _, width = core._packed_rows(A.constants)
            assert 256**width > top
            assert list(A._exact_sweep()) == list(lex_sweep(A)), value
            report = A.verify_axioms()
            assert not report.ok
            witnesses = report.check("associativity").witnesses
            assert report.associativity_evaluated == sweep_evaluated(C7.size, witnesses) == 68
            assert report.generators == ()
            assert report_key(report) == report_key(A.verify_axioms(force_exact=True)), value
            assert_matches_dense(A, report)

    def test_each_run_packs_the_rows_once(self, C7, B32, monkeypatch):
        # passing, Light failing, identity failing, and force_exact: the
        # sweep after a failed Light attempt reuses the rows it packed
        calls = []

        def packed_rows(constants):
            calls.append(constants)
            return pack(constants)

        pack = core._packed_rows
        monkeypatch.setattr(core, "_packed_rows", packed_rows)
        cases = [(B32, False), (perturbed_b32(B32), False), (with_entry(C7, (0, 1), 2, 1), False), (C7, True)]
        for A, force_exact in cases:
            calls.clear()
            A.verify_axioms(force_exact=force_exact)
            assert calls == [A.constants], A.name

    def test_evaluated_is_not_part_of_equality(self, B32):
        fast, exact = B32.verify_axioms(), B32.verify_axioms(force_exact=True)
        assert fast.associativity_evaluated < exact.associativity_evaluated == 32 ** 3
        assert fast.generators != exact.generators == ()
        assert fast == exact
        # each check's seconds are in the report, and left out of its ==
        assert list(fast.seconds) == [c.name for c in fast.checks]
        timed = core.VerificationReport(fast.checks, fast.associativity_triples)
        timed.seconds = dict.fromkeys(fast.seconds, -1.0)
        assert fast == timed
        first = fast.checks[0]
        assert first != core.CheckResult(first.name, not first.passed, first.witnesses)
        assert fast != core.VerificationReport(fast.checks[:-1], fast.associativity_triples)
        # a report equals only a report: == with anything else is NotImplemented
        assert core.VerificationReport() != 3


class TestStructureConstantsGuards:
    def test_rejects_bad_entries(self, C7):
        k = C7.size
        for bad in (-1, True, 1.0, "1"):
            rows = rows_of(C7)
            rows[(1, 2)][3] = bad
            with pytest.raises(TableAlgebraError):
                StructureConstants(k, rows)

    def test_rejects_out_of_range_index(self, C7):
        k = C7.size
        for m in (-1, k):
            rows = rows_of(C7)
            rows[(1, 2)][m] = 1
            with pytest.raises(TableAlgebraError):
                StructureConstants(k, rows)

    def test_names_the_first_bad_entry_in_row_order(self, C7):
        # rows are checked in index order, but a fault is named as the row lists it
        k = C7.size
        for row, message in [
            ({k: 1, 3: -1}, f"row (1,2) hits index {k} out of range"),
            ({3: -1, k: 1}, "row (1,2) has a non-integer or negative entry"),
            ({3: 1.0, "a": 1}, "row (1,2) has a non-integer or negative entry"),
            ({"a": 1, 3: 1}, "row (1,2) hits index a out of range"),
        ]:
            rows = rows_of(C7)
            rows[(1, 2)] = row
            with pytest.raises(TableAlgebraError) as err:
                StructureConstants(k, rows)
            assert str(err.value) == message

    @pytest.mark.parametrize("name", BUNDLED + AUXILIARY)
    def test_row_table_invariants(self, name):
        rows = load(name).constants.rows
        k = len(rows)
        assert all(len(row) == k for row in rows)
        for i in range(k):
            for j in range(k):
                row = rows[i][j]
                assert row is rows[j][i], (name, i, j)
                assert list(row) == sorted(row), (name, i, j)
                assert all(row.values()), (name, i, j)

    def test_rows_sparse_and_ascending(self, C7):
        rows = rows_of(C7)
        rows[(1, 2)] = {5: 1, 3: 0, 2: 4}
        sc = StructureConstants(C7.size, rows)
        assert list(sc.row_items(2, 1)) == [(2, 4), (5, 1)]
        assert sc.delta(2, 1, 3) == 0


@st.composite
def components(draw, k):
    items = draw(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=k - 1), st.integers(1, 4)),
            min_size=1,
            max_size=5,
        )
    )
    return dict(items)


class TestAlgebraProperties:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_form_associativity(self, B32, data):
        # (b_i x, y) = (x, b_ibar y) for random components x, y
        x = data.draw(components(B32.size))
        y = data.draw(components(B32.size))
        i = data.draw(st.integers(0, B32.size - 1))
        bi = {i: 1}
        bidual = {B32.basis.dual(i): 1}
        lhs = B32.inner(B32.multiply(bi, x), y)
        rhs = B32.inner(x, B32.multiply(bidual, y))
        assert lhs == rhs

    def test_inner_product_transfer(self, B32):
        # pairs with equal x*xbar give equal (x u, x u) for every basis u
        idx = B32.basis.index_of
        pairs = [("b3", "c3"), ("b3", "r3"), ("d3", "y3"), ("d3", "z3")]
        for a, b in pairs:
            ea, eb = elem(B32, a), elem(B32, b)
            prod_a = B32.multiply(ea, {B32.basis.dual(idx(a)): 1})
            prod_b = B32.multiply(eb, {B32.basis.dual(idx(b)): 1})
            assert prod_a == prod_b, (a, b)
            for u in range(B32.size):
                eu = {u: 1}
                xa = B32.multiply(ea, eu)
                xb = B32.multiply(eb, eu)
                assert B32.inner(xa, xa) == B32.inner(xb, xb)

    def test_oracle_tensor_equivalence(self):
        # the library's parsed group files equal the convolution oracle entrywise
        from tabalg import load

        for name, group in [
            ("Z2", cyclic(2)), ("Z3", cyclic(3)), ("Z4", cyclic(4)),
            ("Z6", cyclic(6)), ("S3", symmetric3()),
        ]:
            A = load(name)
            sizes, duals, tensor = class_algebra_tensor(group)
            assert [e.degree for e in A.basis] == sizes, name
            assert [e.dual for e in A.basis] == duals, name
            for i in range(A.size):
                for j in range(A.size):
                    for m in range(A.size):
                        assert A.constants.rows[i][j].get(m, 0) == tensor[i][j][m], (name, i, j, m)


class TestBasisInvariants:
    def test_identity_constraints(self):
        with pytest.raises(TableAlgebraError):
            TableBasis([BasisElement(0, "e", 1, 0)])  # wrong name
        with pytest.raises(TableAlgebraError):
            TableBasis([BasisElement(0, "1", 2, 0)])  # wrong degree

    def test_dual_involution_enforced(self):
        els = [BasisElement(0, "1", 1, 0), BasisElement(1, "a", 2, 1), BasisElement(2, "b", 2, 1)]
        with pytest.raises(TableAlgebraError):
            TableBasis(els)


E, ONE = BasisElement, BasisElement(0, "1", 1, 0)
Z2 = [ONE, E(1, "g", 1, 1)]


@pytest.mark.parametrize("build, message", [
    (lambda: TableBasis([]), "empty basis"),
    (lambda: TableBasis([ONE, E(2, "a", 1, 1)]), "element 'a' stored at wrong index"),
    (lambda: TableBasis([ONE, E(1, "a", 1, 1), E(2, "a", 1, 2)]), "duplicate element name 'a'"),
    (lambda: TableBasis([ONE, E(1, "a", 0, 1)]), "element 'a' has degree < 1"),
    (lambda: TableBasis([ONE, E(1, "a", 1, 2)]), "dual index of 'a' out of range"),
    (lambda: TableBasis([ONE, E(1, "a", 2, 2), E(2, "b", 3, 1)]), "'a' and its dual differ in degree"),
    (lambda: TableBasis([ONE, E(True, "g", 1, 1)]), "element 'g' has an index, degree or dual that is not an int"),
    (lambda: TableBasis([ONE, E(1, "g", 1.5, 1)]), "element 'g' has an index, degree or dual that is not an int"),
    (lambda: TableBasis([ONE, E(1, "g", 1, True)]), "element 'g' has an index, degree or dual that is not an int"),
    (lambda: StructureConstants(2, {(0, 0): {0: 1}, (0, 1): {1: 1}}), "missing structure row for pair (1,1)"),
    (lambda: TableAlgebra.from_products(TableBasis(Z2), {(1, 0): {0: 1}}), "identity row for g is not trivial"),
    (lambda: TableAlgebra(TableBasis(Z2), StructureConstants(1, {(0, 0): {0: 1}})),
     "basis size and structure-constant size disagree"),
    (lambda: PartialTable(load("C7").basis).set_product(1, 1, {0: 1}), "product b8*b8 violates the degree identity"),
    (lambda: PartialTable(load("C7").basis).as_algebra(), "table is not complete"),
    (lambda: closure(load("C7"), []), "closure of an empty seed"),
    (lambda: power_supports(load("C7"), "b8", 0), "max_n must be >= 1"),
])
def test_input_validation_messages(build, message):
    with pytest.raises(TableAlgebraError) as err:
        build()
    assert str(err.value) == message



def written(A, write):
    """The cells and rows of a fresh PartialTable on A's basis after ``write``."""
    table = PartialTable(A.basis)
    write(table)
    return table.cells, table.rows


def row_with_key(A, r):
    """The row of b_1 b_1 with its key 1 given as the reference r."""
    return {r if m == 1 else m: v for m, v in A.constants.rows[1][1].items()}


# every entry point that takes an element reference, called with a reference
# r to basis element 1 of A; each returns what it built
REFERENCE_ENTRY_POINTS = {
    "closure": lambda A, r: closure(A, [r]),
    "quotient_by": lambda A, r: quotient_by(A, [0, r, *range(2, A.size)]).classes,
    "restrict": lambda A, r: restrict(A, [0, r, *range(2, A.size)]).constants.rows,
    "power_supports": lambda A, r: power_supports(A, r, 3),
    "PartialTable": lambda A, r: PartialTable(A.basis, {(r, 1): A.constants.rows[1][1]}).rows,
    "set_product": lambda A, r: written(A, lambda t: t.set_product(1, 1, row_with_key(A, r))),
    "set_cell_pair": lambda A, r: written(A, lambda t: t.set_cell(r, 2, 0, 0)),
    "set_cell_m": lambda A, r: written(A, lambda t: t.set_cell(2, 2, r, A.constants.rows[2][2][1])),
    "multiply": lambda A, r: A.multiply({r: 1}, {1: 1}),
    "inner": lambda A, r: A.inner({r: 1}, {1: 1}),
}


class TestElementReferences:
    @pytest.mark.parametrize("entry", REFERENCE_ENTRY_POINTS)
    @pytest.mark.parametrize("ref", [-1, 7, True])  # 7 is k for C7
    def test_rejects_references_outside_the_basis(self, C7, entry, ref):
        with pytest.raises(MalformedElementError):
            REFERENCE_ENTRY_POINTS[entry](C7, ref)

    @pytest.mark.parametrize("entry", REFERENCE_ENTRY_POINTS)
    def test_name_and_index_agree(self, C7, entry):
        assert C7.basis.name(1) == "b8"
        call = REFERENCE_ENTRY_POINTS[entry]
        assert call(C7, "b8") == call(C7, 1)

    def test_set_product_rejects_an_element_named_twice(self, C7):
        row = row_with_key(C7, "b8")
        row[1] = row["b8"]
        with pytest.raises(MalformedElementError, match="names an element twice"):
            PartialTable(C7.basis).set_product(1, 1, row)


def with_identity_coefficient(A, c):
    """The row of b_1 b_1 with the coefficient of the identity set to c."""
    return {**A.constants.rows[1][1], 0: c}


# every entry point that takes a row, called with a row of A holding the
# coefficient c
COEFFICIENT_ENTRY_POINTS = {
    "multiply": lambda A, c: A.multiply({0: c, 1: 1}, {1: 1}),
    "inner": lambda A, c: A.inner({1: c}, {1: 1}),
    "PartialTable": lambda A, c: PartialTable(A.basis, {(1, 1): with_identity_coefficient(A, c)}),
    "set_product": lambda A, c: PartialTable(A.basis).set_product(1, 1, with_identity_coefficient(A, c)),
}


@pytest.mark.parametrize("entry", COEFFICIENT_ENTRY_POINTS)
@pytest.mark.parametrize("c", [True, 1.0, -1, "1"])
def test_rejects_coefficients_that_are_not_nonnegative_ints(C7, entry, c):
    with pytest.raises(MalformedElementError):
        COEFFICIENT_ENTRY_POINTS[entry](C7, c)


def test_basis_products_are_the_rows(B32):
    rows = B32.constants.rows
    for i in range(B32.size):
        for j in range(B32.size):
            got = B32.multiply({i: 1}, {j: 1})
            assert got == rows[i][j]
            assert list(got) == sorted(got)


def test_src_never_asks_isinstance_of_int():
    """``bool`` is an ``int`` subclass, so an index or coefficient check must
    read ``type(x) is int``; no module calls ``isinstance(x, int)``."""
    src = Path(core.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
                kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
                if any(getattr(kind, "id", None) == "int" for kind in kinds):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_src_never_reads_the_environment():
    """No setting comes from the environment: no module names ``environ``
    or ``getenv``, as an attribute, a name or an import."""
    src = Path(core.__file__).parent
    banned = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, "attr", None), getattr(node, "id", None)}
            names |= {alias.name for alias in getattr(node, "names", ()) if isinstance(alias, ast.alias)}
            if names & banned:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
