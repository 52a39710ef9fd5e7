"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.  Every
comparison is exact integer equality; the only tolerance anywhere is the
5-second wall-clock budget of criterion 1.
"""

import random
import time

import pytest

from tabalg import (
    all_closed_subsets,
    closure,
    exact_isomorphic,
    is_group_like,
    load,
    parse,
    parse_element_expr,
    power_supports,
    quotient_by,
    restrict,
    serialize,
)
from tabalg.bundled import BUNDLED, data_text
from tabalg.deduction import propagate

from conftest import bundled_seed
from oracles import class_algebra_tensor, cyclic, subgroup_class_unions, symmetric3
from test_deduction import LEMMA72_FIRST_BLOCK, product_row


def report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_axiom_suite():
    """All bundled algebras pass verify_axioms with zero violations in
    under five seconds total."""
    t0 = time.perf_counter()
    triples = {}
    for name in BUNDLED:
        algebra = load(name)
        rep = algebra.verify_axioms()
        assert rep.ok, f"{name}: {rep.summary()}"
        triples[name] = rep.associativity_triples
    elapsed = time.perf_counter() - t0
    ok = (
        triples == {"C7": 7**3, "D17": 17**3, "B22": 22**3, "B32": 32**3}
        and elapsed < 5.0
    )
    report(1, ok, f"axiom suite on C7/D17/B22/B32, {sum(triples.values())} triples in {elapsed:.2f}s")


def test_criterion_2_main_theorem_inner_products():
    values = {}
    for name in ("B32", "B22"):
        A = load(name)
        x = A.multiply(parse_element_expr("b3", A.basis), parse_element_expr("b8", A.basis))
        values[name] = A.inner(x, x)
    B32 = load("B32")
    b3c3 = B32.multiply(parse_element_expr("b3", B32.basis), parse_element_expr("c3", B32.basis))
    assert b3c3 == parse_element_expr("r3 + s6", B32.basis)
    inner_b3c3 = B32.inner(b3c3, b3c3)
    ok = values == {"B32": 3, "B22": 3} and inner_b3c3 == 2
    report(2, ok, f"(b3 b8, b3 b8) = {values}, (b3 c3, b3 c3) = {inner_b3c3}")


def test_criterion_3_subset_lattices():
    B32, B22 = load("B32"), load("B22")
    names32 = {len(s): {B32.basis.name(i) for i in s} for s in all_closed_subsets(B32)}
    names22 = {len(s): {B22.basis.name(i) for i in s} for s in all_closed_subsets(B22)}
    c = {"1", "b8", "x10", "b5", "c5", "c8", "x9"}
    e = c | {"r3", "s6", "t15", "d9", "y3"}
    d = c | {"c3", "c3bar", "d3", "d3bar", "c9", "c9bar", "b6", "b6bar", "y15", "y15bar"}
    ok = (
        sorted(names32) == [1, 7, 12, 17, 32]
        and names32[7] == c and names32[12] == e and names32[17] == d
        and sorted(names22) == [1, 7, 12, 22]
        and names22[7] == c and names22[12] == e
    )
    report(3, ok, "lattices {1} < C(7) < {E(12), D(17)} < B32 and {1} < C(7) < E(12) < B22")


def test_criterion_4_quotients_and_power_tables():
    B32, B22 = load("B32"), load("B22")
    q32 = is_group_like(quotient_by(B32, closure(B32, ["b8"])))
    q22 = is_group_like(quotient_by(B22, closure(B22, ["b8"])))
    ok = q32 is not None and q32.invariant_factors == (6,)
    ok = ok and q22 is not None and q22.invariant_factors == (4,)

    c = {"1", "b8", "x10", "b5", "c5", "c8", "x9"}
    table1 = {
        1: {"b3"},
        2: {"c3", "b6"},
        3: {"r3", "s6", "t15"},
        4: {"c3bar", "b6bar", "y15bar", "c9bar"},
        5: {"b3bar", "x6bar", "x15bar", "b9bar", "z3"},
        6: c,
        7: {"b3", "x6", "x15", "b9", "z3bar"},
        8: {"c3", "b6", "y15", "c9", "d3bar"},
        9: {"r3", "s6", "t15", "d9", "y3"},
        10: {"c3bar", "b6bar", "y15bar", "c9bar", "d3"},
    }
    pt32 = dict(enumerate(power_supports(B32, "b3", 10), 1))
    for n, want in table1.items():
        got = {B32.basis.name(i) for i in pt32[n]}
        ok = ok and got == want

    table2 = {
        1: {"b3"},
        2: {"r3", "s6"},
        3: {"b3bar", "t6", "b15bar"},
        4: c,
        5: {"b3", "t6bar", "b15", "y9", "x3"},
        6: {"r3", "s6", "t15", "d9", "y3"},
        7: {"b3bar", "t6", "b15bar", "y9bar", "x3bar"},
    }
    pt22 = dict(enumerate(power_supports(B22, "b3", 7), 1))
    for n, want in table2.items():
        got = {B22.basis.name(i) for i in pt22[n]}
        ok = ok and got == want
    report(4, ok, "B32/C cyclic(6), B22/C cyclic(4); power rows n=1..10 and n=1..7 match")


def test_criterion_5_isomorphisms():
    B32, B22, D17 = load("B32"), load("B22"), load("D17")
    d = next(s for s in all_closed_subsets(B32) if len(s) == 17)
    e32 = next(s for s in all_closed_subsets(B32) if len(s) == 12)
    e22 = next(s for s in all_closed_subsets(B22) if len(s) == 12)
    cert_d = exact_isomorphic(restrict(B32, d), D17)
    cert_e = exact_isomorphic(restrict(B32, e32), restrict(B22, e22))
    cert_none = exact_isomorphic(B32, B22)
    ok = (
        cert_d is not None
        and cert_e is not None
        and cert_none is None
    )
    report(5, ok, "B32|D = D17 and B32|E = B22|E certified; B32 != B22")


def test_criterion_6_oracle_equivalence():
    groups = {
        "Z2": cyclic(2), "Z3": cyclic(3), "Z4": cyclic(4),
        "Z6": cyclic(6), "S3": symmetric3(),
    }
    ok = True
    for name, group in groups.items():
        A = load(name)
        sizes, duals, tensor = class_algebra_tensor(group)
        ok = ok and [el.degree for el in A.basis] == sizes
        ok = ok and [el.dual for el in A.basis] == duals
        for i in range(A.size):
            for j in range(A.size):
                for m in range(A.size):
                    ok = ok and A.constants.rows[i][j].get(m, 0) == tensor[i][j][m]
        ours = {frozenset(s) for s in all_closed_subsets(A)}
        oracle = {frozenset(s) for s in subgroup_class_unions(group)}
        ok = ok and ours == oracle
    report(6, ok, "Z2/Z3/Z4/Z6/S3 class algebras equal the convolution oracle; lattices match subgroups")


def test_criterion_7_deduction(B32, lemma72_run):
    table, trace = lemma72_run
    idx = B32.basis.index_of
    ok = trace.status == "completed"
    for a, b, want in LEMMA72_FIRST_BLOCK:
        got = {B32.basis.name(m): v for m, v in product_row(table, idx(a), idx(b)).items()}
        ok = ok and got == want
    # every derived product equals bundled B32 exactly
    for (i, j) in table.rows:
        if i == 0:
            continue
        ok = ok and table.rows[(i, j)] == B32.constants.rows[i][j]
    refute = propagate(bundled_seed("Theorem41-seed"))[1]
    ok = ok and refute.status == "contradiction"
    report(
        7, ok,
        f"Lemma-7.2 seed derives the first display block (and in fact all {len(table.rows) - 32} "
        "products) exactly; the contradiction branch is refuted",
    )


def test_criterion_8_round_trip():
    ok = True
    for name in BUNDLED:
        first = parse(data_text(name))
        text1 = serialize(first)
        second = parse(text1)
        same = second.basis == first.basis
        for i in range(first.size):
            for j in range(i, first.size):
                for m in range(first.size):
                    same = same and (
                        first.constants.rows[i][j].get(m, 0) == second.constants.rows[i][j].get(m, 0)
                    )
        ok = ok and same and serialize(second) == text1
    report(8, ok, "parse . serialize . parse fixed point on all bundled files, byte-exact output")
