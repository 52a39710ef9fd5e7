import gc
import random
import re
import tracemalloc
import zlib
from itertools import islice, product

import pytest

from tabalg import (
    BasisElement,
    MalformedElementError,
    TableBasis,
    deduction,
    load,
    parse_partial,
    propagate,
)
from tabalg.bundled import data_text
from tabalg.core import CheckResult, TableAlgebra, VerificationReport
from tabalg.deduction import PartialTable

import corpus
from conftest import bundled_seed, subtable_seed
from oracles import psl27_fusion
from test_core import b32_as_printed

LEMMA72_FIRST_BLOCK = [
    ("b3", "b3bar", {"1": 1, "b8": 1}),
    ("b3", "b3", {"c3": 1, "b6": 1}),
    ("b3", "c3bar", {"b3bar": 1, "x6bar": 1}),
    ("b3", "x6", {"c3": 1, "y15": 1}),
    ("b3", "b8", {"b3": 1, "x6": 1, "x15": 1}),
    ("b3", "x6bar", {"b8": 1, "x10": 1}),
    ("b3", "b6bar", {"b3bar": 1, "x15bar": 1}),
    ("b3", "s6", {"c3bar": 1, "y15bar": 1}),
    ("b3", "c3", {"r3": 1, "s6": 1}),
    ("b3", "r3", {"c3bar": 1, "b6bar": 1}),
]


def d17_moved_coefficient(D17, rng):
    """A random sample of D17's products, a half, a third or all of them,
    with one coefficient of one sampled product moved to another element of
    equal degree."""
    k = D17.size
    deg = [e.degree for e in D17.basis]
    pairs = [(i, j) for i in range(1, k) for j in range(i, k)]

    def others(m):
        return [n for n in range(k) if n != m and deg[n] == deg[m]]

    sub = rng.sample(pairs, len(pairs) // rng.choice((1, 2, 3)))
    known = {(i, j): dict(D17.constants.rows[i][j]) for i, j in sub}
    pair = rng.choice([q for q in sub if any(others(m) for m in known[q])])
    m = rng.choice([m for m in sorted(known[pair]) if others(m)])
    n = rng.choice(others(m))
    row = known[pair]
    row[n] = row.get(n, 0) + row.pop(m)
    return PartialTable(D17.basis, known)


def steiner_loop_seed(extra_degree=None):
    """Every product of the Steiner loop of the affine plane of order 3: ten
    real elements of degree 1, x*x = 1 and x*y = z for each line {x, y, z}.
    It meets every axiom but associativity, so no rule refutes it.  With
    ``extra_degree`` the basis gains a real element z of that degree, none
    of whose products is known."""
    points = list(product(range(3), repeat=2))
    els = [BasisElement(0, "1", 1, 0)]
    els += [BasisElement(a, f"p{x}{y}", 1, a) for a, (x, y) in enumerate(points, 1)]
    if extra_degree:
        els.append(BasisElement(len(els), "z", extra_degree, len(els)))
    known = {}
    for a, u in enumerate(points, 1):
        known[(a, a)] = {0: 1}
        for b, v in enumerate(points[a:], a + 1):
            w = tuple((-x - y) % 3 for x, y in zip(u, v))
            known[(a, b)] = {points.index(w) + 1: 1}
    return PartialTable(TableBasis(els), known)


def product_row(table, i, j):
    """The frozen row of b_i b_j; KeyError while the product is pending."""
    return table.rows[(i, j) if i <= j else (j, i)]


THEOREM41_WITNESS = ("b3", "b3", "b3bar")
THEOREM41_MESSAGE = "forces a negative coefficient of b6bar in b3bar*b6"


class TestShippedSeeds:
    @pytest.mark.parametrize("name, build", [
        ("Lemma72-seed", corpus.lemma72_seed),
        ("Theorem41-seed", corpus.theorem41_seed),
        ("B32-stall", corpus.stall_seed),
    ])
    def test_benchmark_builder_writes_the_shipped_seed(self, name, build):
        assert parse_partial(data_text(name)) == parse_partial(build())

    @pytest.mark.parametrize("name", ["Lemma72-seed", "B32-stall"])
    def test_every_seeded_product_is_a_row_of_b32(self, B32, name):
        _, basis, products = parse_partial(data_text(name))
        assert basis == B32.basis
        for (i, j), row in products.items():
            assert row == B32.constants.rows[i][j], (basis.name(i), basis.name(j))


class TestPropagate:
    def test_lemma72_first_block(self, B32, lemma72_run):
        table, trace = lemma72_run
        idx = B32.basis.index_of
        for a, b, want in LEMMA72_FIRST_BLOCK:
            got = {B32.basis.name(m): v for m, v in product_row(table, idx(a), idx(b)).items()}
            assert got == want, (a, b)

    def test_lemma72_derives_b3b8_and_b3x6(self, B32, lemma72_run):
        table, _ = lemma72_run
        idx = B32.basis.index_of
        assert product_row(table, idx("b3"), idx("b8")) == {
            idx("b3"): 1, idx("x6"): 1, idx("x15"): 1,
        }
        assert product_row(table, idx("b3"), idx("x6")) == {idx("c3"): 1, idx("y15"): 1}

    def test_complete_table_is_noop(self, C7):
        k = C7.size
        seed = subtable_seed(C7, [(i, j) for i in range(1, k) for j in range(i, k)])
        _, trace = propagate(seed)
        assert trace.status == "completed"
        assert trace.steps == []

    def test_fixed_point_is_written_into_the_seed(self):
        seed = bundled_seed("PSL27-partial")
        table, trace = propagate(seed, introduce_names=True)
        assert table is seed
        assert trace.status == "completed"
        k = seed.k
        assert seed.rows.keys() == {(i, j) for i in range(k) for j in range(i, k)}

    def test_theorem41_contradiction(self):
        trace = propagate(bundled_seed("Theorem41-seed"))[1]
        assert trace.status == "contradiction"
        assert trace.witness == THEOREM41_WITNESS
        assert trace.message.endswith(THEOREM41_MESSAGE)

    def test_contradiction_even_with_naming(self):
        trace = propagate(bundled_seed("Theorem41-seed"), introduce_names=True)[1]
        assert trace.status == "contradiction"
        assert trace.witness == THEOREM41_WITNESS
        assert trace.message.endswith(THEOREM41_MESSAGE)

    def test_under_seeded_stalls(self):
        table, trace = propagate(bundled_seed("B32-stall"), introduce_names=True)
        assert trace.status == "stalled"
        assert table.pending_pairs()


class TestRefutations:
    @pytest.mark.parametrize("lines, witness", zip(corpus.B32_AS_PRINTED, [
        ("c8", "b6", "d3"), ("x6", "x15", "d3bar"), ("x6", "b9", "c9bar"),
    ]))
    def test_b32_as_printed(self, lines, witness):
        """Each of the three lines as printed in the paper breaks the
        normalization symmetry, which R2 finds before any step."""
        A = b32_as_printed(*lines)
        k = A.size
        seed = subtable_seed(A, [(i, j) for i in range(1, k) for j in range(i, k)])
        _, trace = propagate(seed)
        assert trace.status == "contradiction"
        assert trace.steps == []
        assert trace.witness == witness
        assert trace.message.startswith("conflicting values")

    @pytest.mark.parametrize("naming", [False, True])
    def test_negative_remainder(self, naming):
        """5 c3 in b3*b3 has degree 15 > 9."""
        seed = bundled_seed("B32-stall")
        seed.set_cell("b3", "b3", "c3", 5)
        _, trace = propagate(seed, introduce_names=naming)
        assert trace.status == "contradiction"
        assert trace.steps == []
        assert trace.witness[-1] == "degree"
        assert trace.message == "known part of b3*b3 already exceeds the degree identity"

    @pytest.mark.parametrize("naming", [False, True])
    def test_moved_coefficient_is_refuted_after_the_agenda(self, D17, naming):
        """b10*b10 with its b5 moved to c5, in a sample of D17.  An engine
        that checked every triple whose products were all known refuted
        this at step 78, on (b3, b6, b10); the agenda skips such triples, so
        propagation runs on until a completed product misses its degree."""
        _, trace = propagate(d17_moved_coefficient(D17, random.Random(95)), introduce_names=naming)
        assert trace.status == "contradiction"
        assert len(trace.steps) == 84
        assert trace.witness == ("b5", "b10", "degree")
        assert trace.message == "completed product b5*b10 misses the degree identity by 20"

    def test_negative_value_is_refused_at_once(self, B32):
        seed = PartialTable(B32.basis)
        with pytest.raises(deduction.Contradiction) as err:
            seed.set_cell(1, 1, 2, -1)
        assert err.value.witness[-1] == B32.basis.name(2)
        assert "negative coefficient" in str(err.value)

    @pytest.mark.parametrize("v", [True, 1.0, "1"])
    def test_a_value_that_is_not_an_int_is_malformed(self, B32, v):
        seed = PartialTable(B32.basis)
        with pytest.raises(MalformedElementError):
            seed.set_cell(1, 1, 0, v)
        assert seed.cells[(1, 1)][0] is None


class TestR4Contradictions:
    @pytest.mark.parametrize("naming", [False, True])
    def test_no_decomposition(self, naming):
        """Without b3*b3 and its dual image b3bar*b3bar, and with every
        degree-6 coefficient of b3*b3 zero, its remainder has no
        decomposition within the square budget."""
        seed = bundled_seed("Lemma72-seed", drop=[("b3", "b3"), ("b3bar", "b3bar")])
        for m, e in enumerate(seed.basis):
            if e.degree == 6:
                seed.set_cell("b3", "b3", m, 0)
        _, trace = propagate(seed, introduce_names=naming)
        assert trace.status == "contradiction"
        assert trace.steps == []
        assert trace.witness == ("b3", "b3", "no-decomposition")
        assert trace.message.startswith("no decomposition of the remainder of b3*b3 satisfies")

    @pytest.mark.parametrize("naming", [False, True])
    def test_no_constituent_fits(self, naming):
        """With every coefficient of degree at most 9 in b3*b3 zero, no
        constituent fits its remainder of 9: the search counts no
        decomposition."""
        seed = bundled_seed("B32-stall")
        for m, e in enumerate(seed.basis):
            if e.degree <= 9:
                seed.set_cell("b3", "b3", m, 0)
        _, trace = propagate(seed, introduce_names=naming)
        assert trace.status == "contradiction"
        assert trace.steps == []
        assert trace.witness == ("b3", "b3", "no-decomposition")
        assert "degree and inner-product constraints" in trace.message

    @pytest.mark.parametrize("naming", [False, True])
    def test_inner(self, naming):
        """(b3 b3, b3 b3) = (b3 b3bar, b3 b3bar) = 2, which a coefficient 2
        of c3 in b3*b3 already exceeds."""
        seed = bundled_seed("B32-stall")
        seed.set_cell("b3", "b3", "c3", 2)
        _, trace = propagate(seed, introduce_names=naming)
        assert trace.status == "contradiction"
        assert trace.steps == []
        assert trace.witness == ("b3", "b3", "inner")
        assert trace.message == "b3*b3 already exceeds its inner product 2"


class TestLemma22:
    def test_general_rules_derive_lemma22_on_the_lemma72_seed(self, B32, lemma72_run):
        """Lemma 2.2: b3 b3bar = 1 + b8 and (b3 t, b3 t) = 2 for t of degree
        3 give t tbar = 1 + b8.  R1-R4 derive it with no rule of its own."""
        table, trace = lemma72_run
        seed = bundled_seed("Lemma72-seed")
        idx, els = B32.basis.index_of, list(B32.basis)
        b3, b8 = idx("b3"), idx("b8")
        assert product_row(table, b3, idx("b3bar")) == {0: 1, b8: 1}
        set_by_trace = {s.entry for s in trace.steps}
        derived = []
        for t, e in enumerate(els):
            if e.degree != 3 or sum(c * c for c in B32.constants.rows[b3][t].values()) != 2:
                continue
            assert product_row(table, t, e.dual) == {0: 1, b8: 1}, e.name
            if tuple(sorted((t, e.dual))) not in seed.rows:
                names = (B32.basis.name(min(t, e.dual)), B32.basis.name(max(t, e.dual)))
                assert names in set_by_trace
                derived.append(e.name)
        assert derived == ["r3"]
        assert {s.rule for s in trace.steps} <= {"R1", "R2", "R3", "R4", "N"}


class TestSoundness:
    @pytest.mark.parametrize("name", ["B32", "B22", "D17"])
    def test_subtable_seeds_derive_only_truth(self, name, request):
        A = request.getfixturevalue(name)
        # crc32, not hash(): string hashes change with every process
        rng = random.Random(zlib.crc32(name.encode()))
        k = A.size
        pairs = [(i, j) for i in range(1, k) for j in range(i, k)]
        for trial in range(2):
            sub = rng.sample(pairs, len(pairs) // 3)
            out, trace = propagate(subtable_seed(A, sub))
            assert trace.status != "contradiction"
            for (i, j) in out.rows:
                if i == 0:
                    continue
                assert out.rows[(i, j)] == A.constants.rows[i][j]

    def test_monotone_knowledge(self, lemma72_run):
        table, _ = lemma72_run
        assert bundled_seed("Lemma72-seed").rows.keys() <= table.rows.keys()

    def test_no_contradiction_on_bundled_subtables(self, B22):
        rng = random.Random(5)
        k = B22.size
        pairs = [(i, j) for i in range(1, k) for j in range(i, k)]
        for trial in range(3):
            sub = rng.sample(pairs, rng.randrange(3, len(pairs)))
            trace = propagate(subtable_seed(B22, sub))[1]
            assert trace.status != "contradiction"


class TestConfluence:
    def test_seed_order_does_not_change_fixed_point(self, lemma72_run):
        table_a, _ = lemma72_run
        _, basis, products = parse_partial(data_text("Lemma72-seed"))
        items = list(products.items())
        random.Random(11).shuffle(items)
        table_b, trace_b = propagate(PartialTable(basis, dict(items)), introduce_names=True)
        assert trace_b.status == "completed"
        assert table_b.rows.keys() == table_a.rows.keys()
        for pair in table_a.rows:
            assert table_a.rows[pair] == table_b.rows[pair]


class TestTraceFormat:
    def test_line_grammar(self, lemma72_run):
        _, trace = lemma72_run
        pattern = re.compile(
            r"^STEP \d+ RULE (R[1-4]|N) TRIPLE [A-Za-z0-9]+,[A-Za-z0-9]+,(-|[A-Za-z0-9]+) "
            r"SET [A-Za-z0-9]+\*[A-Za-z0-9]+ = .+$"
        )
        text = trace.serialize()
        lines = text.strip().splitlines()
        assert lines[-1].startswith("STATUS ")
        for line in lines[:-1]:
            assert pattern.match(line), line

    def test_rules_used(self, lemma72_run):
        _, trace = lemma72_run
        rules = {s.rule for s in trace.steps}
        assert {"R1", "R2", "R3", "R4"} <= rules

    def test_steps_numbered_sequentially(self, lemma72_run):
        _, trace = lemma72_run
        assert [s.number for s in trace.steps] == list(range(1, len(trace.steps) + 1))


class TestPSL27:
    def test_partial_completes_and_matches_character_oracle(self):
        name, basis, products = parse_partial(data_text("PSL27-partial"))
        seed = PartialTable(basis, products)
        table, trace = propagate(seed, introduce_names=True)
        assert trace.status == "completed"
        algebra = table.as_algebra()
        assert algebra.verify_axioms().ok
        # characters ordered (1, 3a, 3b, 6, 7, 8) to match the file's basis
        fusion = psl27_fusion()
        order = ["1", "c3", "c3bar", "s6", "b7", "b8"]
        idx = [basis.index_of(n) for n in order]
        for i in range(6):
            for j in range(6):
                for m in range(6):
                    assert (
                        algebra.constants.rows[idx[i]][idx[j]].get(idx[m], 0) == fusion[i][j][m]
                    ), (order[i], order[j], order[m])


def complete_c7_seed():
    C7 = load("C7")
    return subtable_seed(C7, [(i, j) for i in range(1, C7.size) for j in range(i, C7.size)])


class TestCompletionRecheck:
    def test_completed_table_is_verified(self, monkeypatch):
        checked = []
        verify = TableAlgebra.verify_axioms
        monkeypatch.setattr(TableAlgebra, "verify_axioms", lambda A, **kw: checked.append(A.size) or verify(A, **kw))
        _, trace = propagate(complete_c7_seed())
        assert trace.status == "completed"
        assert checked == [7]
        assert "recheck" in trace.seconds

    def test_failed_recheck_is_a_contradiction(self, monkeypatch):
        failing = VerificationReport(
            [CheckResult("identity", True), CheckResult("associativity", False, ((1, 2, 3, 4), (1, 2, 4, 3)))], 7**3
        )
        monkeypatch.setattr(TableAlgebra, "verify_axioms", lambda A, **kw: failing)
        _, trace = propagate(complete_c7_seed())
        assert trace.status == "contradiction"
        assert trace.witness == ("b8", "x10", "b5", "c5")
        assert trace.message == "completed table fails the axiom re-check: FAIL (associativity)"
        assert trace.serialize().endswith("STATUS contradiction WITNESS b8,x10,b5,c5\n")


    def test_recheck_refutes_a_non_associative_table(self):
        """No rule checks a triple whose products are all known, so only the
        re-check refutes a complete table that fails associativity alone."""
        _, trace = propagate(steiner_loop_seed())
        assert trace.status == "contradiction"
        assert trace.steps == []
        assert trace.message == "completed table fails the axiom re-check: FAIL (associativity)"
        assert trace.witness == ("p00", "p01", "p10", "p11")
        assert trace.attempts["R3"] == 0


class TestFullCompletion:
    def test_lemma72_completes_all_of_B32(self, B32, lemma72_run):
        """The naming convention turns the Lemma-7.2 seed into the whole
        table: every one of the 496 nontrivial products matches B32."""
        table, trace = lemma72_run
        assert trace.status == "completed"
        for (i, j) in sorted(table.rows):
            if i == 0:
                continue
            assert table.rows[(i, j)] == B32.constants.rows[i][j]

    def test_frozen_rows_are_the_algebra_rows(self, lemma72_run):
        # frozen rows have the form of StructureConstants.rows, so as_algebra
        # keeps each of them as it is
        table, _ = lemma72_run
        rows = table.as_algebra().constants.rows
        assert len(table.rows) == 33 * 32 // 2
        for (i, j), row in table.rows.items():
            assert row == rows[i][j]
            assert list(row) == sorted(row) and all(row.values())

    def test_completion_set_example(self, B32, lemma72_run):
        table, _ = lemma72_run
        idx = B32.basis.index_of
        names = ["b3", "b3bar", "c3", "c3bar", "b6", "b6bar", "b8", "x6", "x6bar", "x10"]
        for ai, a in enumerate(names):
            for b in names[ai:]:
                assert tuple(sorted((idx(a), idx(b)))) in table.rows, (a, b)


def naive_r3_findings(table):
    """Test-only reference for the R3 agenda: expand every one of the k^3
    triples (i, j, l) whose factors (i, j) and (j, l) are known, with no
    symmetry reduction, and list those on which R3 would still fire (one
    unknown product of net coefficient +-1) or find a contradiction."""
    k = table.k
    rows = table.rows

    def row(a, b):
        return rows.get((a, b) if a <= b else (b, a))

    found = []
    for i in range(k):
        for j in range(k):
            ij = row(i, j)
            if ij is None:
                continue
            for l in range(k):
                jl = row(j, l)
                if jl is None:
                    continue
                known_part, unknown = {}, {}
                for factor, other, sign in ((ij, l, 1), (jl, i, -1)):
                    for m, c in factor.items():
                        q = (m, other) if m <= other else (other, m)
                        if q in rows:
                            for n, w in rows[q].items():
                                known_part[n] = known_part.get(n, 0) + sign * c * w
                        else:
                            unknown[q] = unknown.get(q, 0) + sign * c
                unknown = [c for c in unknown.values() if c]
                if not unknown and any(known_part.values()):
                    found.append(("contradiction", i, j, l))
                elif len(unknown) == 1 and abs(unknown[0]) == 1:
                    found.append(("fires", i, j, l))
    return found


def net_expansion(table, i, j, l):
    """The nonzero net expansion {product: coefficient} of (b_i b_j) b_l -
    b_i (b_j b_l), read from the frozen rows of (i, j) and (j, l)."""
    net = {}
    for m, c in product_row(table, i, j).items():
        q = (min(m, l), max(m, l))
        net[q] = net.get(q, 0) + c
    for m, c in product_row(table, j, l).items():
        q = (min(i, m), max(i, m))
        net[q] = net.get(q, 0) - c
    return {q: c for q, c in net.items() if c}


def representatives(table):
    """Every triple (i, j, l) of a completed table that the agenda takes as
    the representative of its symmetry class, mapped to its net expansion
    {product: coefficient}, empty ones included."""
    k, d = table.k, table.dual
    out = {}
    for i in range(1, k):
        for j in range(1, k):
            for l in range(i + 1, k):
                if (i, j, l) <= (min(d[i], d[l]), d[j], max(d[i], d[l])):
                    out[(i, j, l)] = net_expansion(table, i, j, l)
    return out


def nonzero_net_representatives(table):
    """The representatives of ``representatives`` whose net expansion is
    not empty."""
    return {key: net for key, net in representatives(table).items() if net}


def record_stored_triples(monkeypatch):
    """A dict that collects, by (i, j, l), each triple the engine stores:
    every ``_Triple`` is one activated with an unknown product, counted."""
    stored = {}

    class Recorded(deduction._Triple):
        __slots__ = ()

        def __init__(self, i, j, l, unknown):
            super().__init__(i, j, l, unknown)
            assert unknown >= 1
            assert (i, j, l) not in stored
            stored[(i, j, l)] = self

    monkeypatch.setattr(deduction, "_Triple", Recorded)
    return stored


def assert_representatives_hold(table, stored, expected):
    """Every nonzero-net representative satisfies associativity on the
    completed table: its net expansion sums to zero.  Some were never
    stored, because all their products were known at activation, so only
    the certificate checks them."""
    assert set(expected) - set(stored)
    for key, net in expected.items():
        total = {}
        for q, c in net.items():
            for m, v in table.rows[q].items():
                total[m] = total.get(m, 0) + c * v
        assert not any(total.values()), key


def _third(A, seed):
    """A random third of the products of an algebra, a bundled one given by
    name, as the deduce benchmark draws it; completed without naming."""
    A = load(A) if isinstance(A, str) else A
    k = A.size
    pairs = [(i, j) for i in range(1, k) for j in range(i, k)]
    return subtable_seed(A, random.Random(seed).sample(pairs, len(pairs) // 3)), False


def ch_s3_z2():
    """Ch(S3) (x) Z2.  Ch(S3) is {1, s, r}: s s = 1, s r = r and r r = 1 + s + r."""
    basis = TableBasis([BasisElement(0, "1", 1, 0), BasisElement(1, "s", 1, 1), BasisElement(2, "r", 2, 2)])
    ch_s3 = TableAlgebra.from_products(basis, {(1, 1): {0: 1}, (1, 2): {2: 1}, (2, 2): {0: 1, 1: 1, 2: 1}})
    return corpus.tensor2(ch_s3, load("Z2"))


# Status, total steps and known pairs at the fixed point, as computed by the
# engine that re-evaluated every affected triple after each change; "all"
# means every product is known.
PINNED = {
    "PSL27": (lambda: (bundled_seed("PSL27-partial"), True), "completed", 7, "all"),
    "B32stall": (lambda: (bundled_seed("B32-stall"), True), "stalled", 0, "identity+b3*b3bar"),
}
for _seed in (1, 2, 3):
    PINNED[f"B32third{_seed}"] = (lambda s=_seed: _third("B32", s), "completed", 331, "all")
    PINNED[f"B22third{_seed}"] = (lambda s=_seed: _third("B22", s), "completed", 154, "all")
    PINNED[f"D17third{_seed}"] = (lambda s=_seed: _third("D17", s), "completed", 91, "all")


TRACE_CRC32 = {
    "B22third1": 0x56E2902E,
    "B22third2": 0x1B99F9AE,
    "B22third3": 0x6C3553E6,
    "B32stall": 0x308137E0,
    "B32third1": 0xD830972C,
    "B32third2": 0x3314CFA2,
    "B32third3": 0xD5A6573E,
    "D17third1": 0x1C1AC2AB,
    "D17third2": 0x935FFBFE,
    "D17third3": 0xFAEAEAF7,
    "PSL27": 0xC5D6C193,
    "Lemma72": 0xE80F6C30,
    # stalled after 20 steps
    "Lemma72plain": 0xA0A0BDD2,
    # refuted after 0 steps, with naming and without
    "Theorem41": 0x20934E69,
    "Theorem41plain": 0x20934E69,
    "B32stallplain": 0x308137E0,
}

# the shipped seeds pinned beyond PINNED, as (file, naming)
SHIPPED = {
    "Lemma72": ("Lemma72-seed", True),
    "Lemma72plain": ("Lemma72-seed", False),
    "Theorem41": ("Theorem41-seed", True),
    "Theorem41plain": ("Theorem41-seed", False),
    "B32stallplain": ("B32-stall", False),
}


def _seed(name):
    """A seed of PINNED or SHIPPED, as (seed, naming)."""
    if name in SHIPPED:
        file, naming = SHIPPED[name]
        return bundled_seed(file), naming
    return PINNED[name][0]()


def traced_peak(name):
    """The traced peak of propagating a seed of ``_seed``, re-check included."""
    seed, naming = _seed(name)
    tracemalloc.start()
    try:
        propagate(seed, introduce_names=naming)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAgenda:
    def check(self, table, trace, status, steps, known):
        assert trace.status == status
        assert len(trace.steps) == steps
        k = table.k
        if known == "all":
            assert table.rows.keys() == {(i, j) for i in range(k) for j in range(i, k)}
        else:
            b3, b3bar = (table.basis.index_of(n) for n in ("b3", "b3bar"))
            assert table.rows.keys() == {(0, j) for j in range(k)} | {(b3, b3bar)}
        assert naive_r3_findings(table) == []
        assert trace.sweep_firings == 0
        if status == "stalled":
            # the sweep also enumerates the empty expansions activation skips
            assert trace.sweep_triples >= trace.r3_activated

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_fixed_point_is_pinned_and_r3_closed(self, name):
        make, status, steps, known = PINNED[name]
        seed, naming = make()
        table, trace = propagate(seed, introduce_names=naming)
        self.check(table, trace, status, steps, known)

    @pytest.mark.parametrize("name", ["PSL27", "D17third1", "B22third1", "B22third2"])
    def test_r3_is_closed_whenever_the_agenda_drains(self, name, monkeypatch):
        process = deduction._Engine.r3_process
        drained = []

        def checked(self):
            fired = process(self)
            assert naive_r3_findings(self.p) == []
            drained.append(fired)
            return fired

        monkeypatch.setattr(deduction._Engine, "r3_process", checked)
        make, status, _, _ = PINNED[name]
        seed, naming = make()
        _, trace = propagate(seed, introduce_names=naming)
        assert trace.status == status
        assert True in drained

    @pytest.mark.parametrize("make, zero_net", [(lambda: _third("B22", 1), 0), (lambda: _third(ch_s3_z2(), 2), 1)],
                             ids=["B22third1", "ChS3xZ2third2"])
    def test_activated_triples_are_one_per_symmetry_class(self, make, zero_net, monkeypatch):
        """Every triple of the k^3 with a nonzero net expansion is activated
        through exactly one representative of its class under (i, j, l) ->
        (l, j, i) and conjugation: it is counted when the later of its two
        factors is registered, and stored then when it has an unknown
        product, listed under exactly the unknown products of its net
        expansion.  Every representative holds on the completed table.  The
        third of Ch(S3) (x) Z2 has one representative whose net expansion
        is zero, which is not counted."""
        register = deduction._Engine._register_known
        stored = record_stored_triples(monkeypatch)
        # per registration: its pair, the number of rows known then, the
        # triples it counted, and those it stored with the products each
        # is listed under
        calls = []

        def registering(self, pair):
            counted, known, old = self.trace.r3_activated, len(self.p.rows), len(stored)
            register(self, pair)
            new = {id(stored[key]): key for key in list(stored)[old:]}
            listed = {key: [] for key in new.values()}
            for q, waiting in self._waiting.items():
                for t in waiting:
                    if id(t) in new:
                        listed[new[id(t)]].append(q)
            calls.append((pair, known, self.trace.r3_activated - counted, listed))

        monkeypatch.setattr(deduction._Engine, "_register_known", registering)
        seed, naming = make()
        engine = deduction._Engine(seed, introduce_names=naming)
        engine.run()
        p = engine.p
        assert engine.trace.status == "completed"
        nets = representatives(p)
        expected = {key: net for key, net in nets.items() if net}
        assert len(nets) - len(expected) == zero_net
        # each representative is activated by the later of its factors
        order = {pair: n for n, (pair, *_) in enumerate(calls)}
        assert len(order) == len(calls)
        activated_by = {}
        for i, j, l in expected:
            n = max(order[p.pair[i][j]], order[p.pair[j][l]])
            activated_by.setdefault(n, []).append((i, j, l))
        # rows only grow, in the order their products became known
        known_order = list(p.rows)
        for n, (pair, known, counted, listed) in enumerate(calls):
            group = activated_by.get(n, [])
            assert counted == len(group), p.label(pair)
            known_then = set(known_order[:known])
            unknown = {key: sorted(q for q in expected[key] if q not in known_then) for key in group}
            assert {key: sorted(qs) for key, qs in listed.items()} == {
                key: qs for key, qs in unknown.items() if qs}, p.label(pair)
        assert engine.trace.r3_activated == len(expected)
        assert set(stored) <= set(expected)
        assert 0 < len(stored) < len(expected)
        assert_representatives_hold(p, stored, expected)

    def test_sweep_recovers_from_a_broken_agenda(self, B22, monkeypatch):
        # the agenda is dropped unevaluated; R4 alone would complete this
        # seed without R3, so it is stubbed too
        monkeypatch.setattr(deduction._Engine, "r3_process", lambda self: self._agenda.clear())
        monkeypatch.setattr(deduction._Engine, "solver_scan", lambda self: False)
        seed, naming = _third("B22", 1)
        table, trace = propagate(seed, introduce_names=naming)
        assert trace.status == "completed"
        assert trace.attempts["R3"] == 0
        assert trace.sweep_firings > 0
        for i, j in table.rows:
            assert table.rows[(i, j)] == B22.constants.rows[i][j]

    def test_sweep_checks_the_triples_the_agenda_never_stored(self, monkeypatch):
        """A stall leaves the triples whose products were all known at
        activation to the sweep, which finds the failed associativity."""
        monkeypatch.setattr(deduction._Engine, "solver_scan", lambda self: False)
        _, trace = propagate(steiner_loop_seed(extra_degree=2))
        assert trace.status == "contradiction"
        assert trace.steps == []
        assert trace.witness == ("p01", "p00", "p10")
        assert trace.message == "associativity fails on triple (p01*p00)*p10 at p12, p21"
        assert trace.attempts["R3"] == 0
        assert trace.sweep_triples > 0

    def test_sweep_runs_on_the_lemma72_stall(self):
        """``deduce --no-names`` on the Lemma 7.2 seed stalls after 20 steps;
        the sweep evaluates every triple whose factors are known, those the
        agenda decided included, and none fires."""
        seed, naming = _seed("Lemma72plain")
        _, trace = propagate(seed, introduce_names=naming)
        assert (trace.status, len(trace.steps)) == ("stalled", 20)
        facts = dict(trace.facts())
        assert [facts[f"stats.{key}"] for key in ("r3.activated", "sweep.triples", "sweep.firings")] == [
            1162, 1162, 0]

    @pytest.mark.parametrize("name", sorted(TRACE_CRC32))
    def test_serialized_trace_is_pinned(self, name):
        """The zlib.crc32 of each serialized trace, as the engine that also
        checked every triple whose products were all known wrote it."""
        seed, naming = _seed(name)
        _, trace = propagate(seed, introduce_names=naming)
        assert zlib.crc32(trace.serialize().encode()) == TRACE_CRC32[name]

    @pytest.mark.parametrize("name", sorted(TRACE_CRC32))
    def test_r2_transports_each_position_once(self, name):
        """R2 transports each orbit once and counts its positions, so a
        completed run counts each of the k * k(k+1)/2 coefficient positions
        exactly once; a stall leaves some untransported."""
        seed, naming = _seed(name)
        k = seed.k
        _, trace = propagate(seed, introduce_names=naming)
        positions = k * k * (k + 1) // 2
        if trace.status == "completed":
            assert trace.attempts["R2"] == positions
        elif trace.status == "stalled":
            assert trace.attempts["R2"] < positions
        else:
            assert trace.attempts["R2"] <= positions

    @pytest.mark.parametrize("name", sorted(PINNED) + ["Lemma72"])
    def test_each_step_completes_a_distinct_pending_product(self, name):
        """Why a run needs no step budget: every step completes a product
        that was pending, so a run makes at most one step per product
        pending at seed."""
        seed, naming = _seed(name)
        pending = {seed.names(q) for q in seed.pending_pairs()}
        _, trace = propagate(seed, introduce_names=naming)
        entries = [step.entry for step in trace.steps]
        assert len(set(entries)) == len(entries)
        assert set(entries) <= pending
        assert len(entries) <= len(pending)

    @pytest.mark.parametrize("name", ["B32stall", "Lemma72"])
    def test_no_product_is_searched_twice_on_one_table(self, name, monkeypatch):
        """N searches nothing: it names from R4's latest scan, so between
        two steps, that is on one state of the table, each pending product
        is searched at most once."""
        solve = deduction._Engine._solve_entry
        searched = []

        def recorded(self, pair):
            searched.append((len(self.trace.steps), pair))
            return solve(self, pair)

        monkeypatch.setattr(deduction._Engine, "_solve_entry", recorded)
        seed, naming = _seed(name)
        _, trace = propagate(seed, introduce_names=naming)
        assert searched
        assert len(set(searched)) == len(searched)
        assert trace.attempts["R4"] == len(searched)

    @pytest.mark.parametrize("name", ["Lemma72", "B32third1", "D17third2"])
    def test_counter_invariant_holds_after_every_sync(self, name, monkeypatch):
        """After every sync each triple stored so far counts exactly its
        unknown products, and one that has a count of one and waits on a
        product of net coefficient +-1 is on the agenda.  At return every
        nonzero-net representative was activated and holds on the completed
        table."""
        sync = deduction._Engine.sync
        stored = record_stored_triples(monkeypatch)
        # a stored triple's factor rows are frozen, so its expansion is too
        nets = {}
        checked = []

        def checked_sync(self, logged):
            sync(self, logged)
            rows = self.p.rows
            on_agenda = set(map(id, self._agenda))
            for key, t in stored.items():
                if key not in nets:
                    nets[key] = net_expansion(self.p, *key)
                unknown = [c for q, c in nets[key].items() if q not in rows]
                assert t.unknown == len(unknown)
                if unknown in ([1], [-1]):
                    assert id(t) in on_agenda
            checked.append(len(stored))

        monkeypatch.setattr(deduction._Engine, "sync", checked_sync)
        seed, naming = _seed(name)
        table, trace = propagate(seed, introduce_names=naming)
        assert trace.status == "completed"
        # one sync at seed and one per step that is not R2
        assert len(checked) == 1 + sum(s.rule != "R2" for s in trace.steps)
        assert checked[-1] > 0
        expected = nonzero_net_representatives(table)
        assert trace.r3_activated == len(expected)
        assert_representatives_hold(table, stored, expected)

    def test_r1_attempts_only_products_whose_remainder_reached_zero(self, lemma72_run):
        # a scan of every pending product after each firing made 7,257
        _, trace = lemma72_run
        pending = len(bundled_seed("Lemma72-seed").pending_pairs())
        assert pending == 355
        assert trace.attempts["R1"] <= pending

    def test_lemma72_fixed_point(self, lemma72_run):
        table, trace = lemma72_run
        self.check(table, trace, "completed", 355, "all")

    def test_lemma72_evaluates_under_a_tenth_of_the_former_triples(self, lemma72_run):
        # the engine that also checked every triple whose products were all
        # known made 7,672 evaluations on this seed, and the sweep after it
        # 7,565 more
        _, trace = lemma72_run
        assert trace.attempts["R3"] < 767
        assert dict(trace.facts())["stats.R3.firings"] == sum(s.rule == "R3" for s in trace.steps)
        assert trace.sweep_triples == 0

    def test_stall_reports_the_solver_caps_it_hit(self):
        # the stall's fixed point caps 271 products: every one has more than
        # DECOMPOSITION_LIMIT decompositions
        seed, naming = _seed("B32stall")
        table, trace = propagate(seed, introduce_names=naming)
        assert trace.status == "stalled"
        assert len(trace.capped) == 271
        assert set(trace.capped) <= set(trace.overflow_pairs)
        assert set(trace.capped) <= set(map(table.label, table.pending_pairs()))
        tail = trace.serialize().splitlines()[-1]
        assert tail.startswith("STATUS stalled SOLVER-CAP ")
        listed = tail.split()[-1].split(",")
        assert listed == list(trace.capped)
        assert "c3*c3" in listed

    def test_completed_run_reports_no_cap(self, lemma72_run):
        _, trace = lemma72_run
        assert trace.capped == ()
        assert "SOLVER-CAP" not in trace.serialize()

    def test_decomposition_count_is_reported(self, lemma72_run):
        _, trace = lemma72_run
        facts = dict(trace.facts())
        assert facts["stats.solver.count_states"] > 0
        assert facts["stats.R4.attempts"] > 0
        assert not any("gated" in key or "nodes" in key for key in facts)

    def test_facts_come_from_the_trace_alone(self, lemma72_run):
        """The trace is the one result object: its counters are attributes,
        its firings are counted from its steps, and a stall's pending
        products are the table's."""
        _, trace = lemma72_run
        assert [key for key, _ in trace.facts()] == [
            f"stats.{rule}.{what}" for rule in ("R1", "R2", "R3", "R4", "N") for what in ("attempts", "firings")
        ] + [f"stats.{key}" for key in ("r3.activated", "solver.count_states", "solver.overflows",
                                        "solver.overflow_pairs", "sweep.triples", "sweep.firings")]
        assert not any(hasattr(trace, name) for name in ("stats", "firings", "unresolved"))

    def test_lemma72_peak_memory(self):
        """The engine caches no orbits, indexes no stored triples, keeps
        search answers for two scans only and stores a triple as its indices
        and a count: the run's traced peak, re-check included, was 8.5 MB
        with the first two, 4.9 MB without, 4.6 MB with one answer dict kept
        for the whole run, 4.2 MB with each stored triple's expansion, 2.7 MB
        while ``propagate`` copied its seed, and 2.4 MB while the count
        memoised states whose squares left cannot hold a decomposition; it
        is 1.8 MB."""
        assert traced_peak("Lemma72") < 3.2 * 10**6

    def test_b32_third_peak_memory(self):
        """Most of a random B32 third's peak was its stored expansions: 4.6 MB
        with them, 0.8 MB with a triple stored as its indices and a count,
        and 0.6 MB once ``propagate`` stopped copying its seed."""
        assert traced_peak("B32third1") < 1.2 * 10**6

    def test_stored_triples_are_freed_once_their_products_are_known(self, monkeypatch):
        """A stored triple is held only by the lists of its unknown products
        and by the agenda: a completed run leaves both empty and no triple
        alive, though the engine still exists."""

        def alive():
            return sum(type(o) is deduction._Triple for o in gc.get_objects())

        process = deduction._Engine.r3_process
        held = []

        def counted(self):
            if not held:
                held.append(alive())
            return process(self)

        monkeypatch.setattr(deduction._Engine, "r3_process", counted)
        seed, naming = _seed("B32third1")
        engine = deduction._Engine(seed, introduce_names=naming)
        engine.run()
        assert engine.trace.status == "completed"
        assert held[0] > 0
        assert not engine._waiting and not engine._agenda
        assert alive() == 0
        propagate(*_seed("B32third1"))
        gc.collect()
        assert alive() == 0


def seed_step(A, names, monkeypatch):
    """An engine on A's basis seeded with A's rows of b_i b_j and b_j b_l,
    for the triple ``names`` = (i, j, l), after its seed step alone; with
    the triples it stored, as ``record_stored_triples`` collects them, and
    the triple's indices."""
    i, j, l = map(A.basis.index_of, names)
    stored = record_stored_triples(monkeypatch)
    for phase in ("r1_process", "r3_process", "solver_scan", "r3_full_sweep"):
        monkeypatch.setattr(deduction._Engine, phase, lambda self: False)
    engine = deduction._Engine(subtable_seed(A, [(i, j), (j, l)]), introduce_names=False)
    engine.run()
    return engine, stored, (i, j, l)


class TestActivation:
    """Activation reads a triple (i, j, l), i < l, off its two factor rows:
    the products (m, l), m in b_i b_j, and (i, m), m in b_j b_l, are
    distinct but for (i, l), which is on both sides when b_i is in b_i b_j
    and b_l in b_j b_l.  Each seed here knows only the two factor products
    besides the identity rows, so it activates at most this one triple."""

    @pytest.mark.parametrize("names, coefficients", [
        (("b8", "b5", "c8"), (1, 1)),
        (("x10", "b5", "c8"), (2, 1)),
    ], ids=["equal", "unequal"])
    def test_shared_product_is_counted_by_its_net(self, C7, names, coefficients, monkeypatch):
        """Equal coefficients of (i, l) cancel and it drops out; unequal ones
        leave it, counted and listed once."""
        engine, stored, (i, j, l) = seed_step(C7, names, monkeypatch)
        p = engine.p
        assert (product_row(p, i, j)[i], product_row(p, j, l)[l]) == coefficients
        il = p.pair[i][l]
        assert il not in p.rows
        net = net_expansion(p, i, j, l)
        assert net.get(il, 0) == coefficients[0] - coefficients[1]
        assert engine.trace.r3_activated == 1
        assert list(stored) == [(i, j, l)]
        t = stored[(i, j, l)]
        listed = [q for q, waiting in engine._waiting.items() for u in waiting if u is t]
        assert sorted(listed) == sorted(q for q in net if q not in p.rows)
        assert t.unknown == len(listed)

    def test_single_cancelling_term_is_not_activated(self, monkeypatch):
        """In Ch(S3) (x) Z2, r_1 s_1 = r_1 and s_1 r_g = r_g: both sides are
        the one product r_1 r_g, which cancels, so the triple is neither
        stored nor counted."""
        engine, stored, (i, j, l) = seed_step(ch_s3_z2(), ("r_1", "s_1", "r_g"), monkeypatch)
        p = engine.p
        d = p.dual
        assert i < l and (i, j, l) <= (min(d[i], d[l]), d[j], max(d[i], d[l]))
        assert (product_row(p, i, j), product_row(p, j, l)) == ({i: 1}, {l: 1})
        assert net_expansion(p, i, j, l) == {}
        assert engine.trace.r3_activated == 0
        assert stored == {} and not engine._waiting and not engine._agenda


def plain_decompositions(deg, rem, candidates, budget2):
    """Every assignment of nonnegative coefficients to ``candidates`` whose
    degrees add up to ``rem`` and, when ``budget2`` is not None, whose
    squares add up to ``budget2``: a plain exhaustive enumeration with no
    memo and no limit, yielded lazily."""

    def walk(idx, deg_left, sq_left, assign):
        if deg_left == 0:
            if not sq_left:
                yield dict(assign)
            return
        if idx == len(candidates):
            return
        m = candidates[idx]
        for c in range(deg_left // deg[m], -1, -1):
            if sq_left is not None and c * c > sq_left:
                continue
            if c:
                assign[m] = c
            yield from walk(idx + 1, deg_left - c * deg[m], sq_left - c * c if sq_left is not None else None, assign)
            assign.pop(m, None)

    return walk(0, rem, budget2, {})


def with_reality_mass(dual, row, assignments, r_mass):
    """The assignments to the unknown cells of ``row`` whose full row has
    reality mass ``r_mass``, or all of them when that is None."""
    base = {m: v for m, v in enumerate(row) if v}
    kept = []
    for assign in assignments:
        full = {**base, **assign}
        if r_mass is None or sum(c * full.get(dual[m], 0) for m, c in full.items()) == r_mass:
            kept.append(assign)
    return kept


def canonical(assignments):
    return sorted(sorted(assign.items()) for assign in assignments)


class TestSolverFastPaths:
    @pytest.mark.parametrize("seed", ["Lemma72", "B32stall"])
    def test_search_matches_plain_enumeration(self, monkeypatch, seed):
        """Every search is capped exactly when plain enumeration finds more
        than DECOMPOSITION_LIMIT decompositions, and otherwise returns the
        ones of the right reality mass."""
        search = deduction._Engine._search
        limit = deduction.DECOMPOSITION_LIMIT
        outcomes = []

        def checked(self, row, rem, candidates, budget2, r_mass):
            got = search(self, row, rem, candidates, budget2, r_mass)
            found = list(islice(plain_decompositions(self.p.deg, rem, candidates, budget2), limit + 1))
            assert (got is None) == (len(found) > limit)
            if got is not None:
                assert canonical(got) == canonical(with_reality_mass(self.p.dual, row, found, r_mass))
            outcomes.append(got is None)
            return got

        monkeypatch.setattr(deduction._Engine, "_search", checked)
        propagate(_seed(seed)[0], introduce_names=True)
        # both answers occur: some searches are capped, some finish
        assert True in outcomes and False in outcomes

    @pytest.mark.parametrize("r_mass, kept", [(3, [{2: 1}]), (2, [{3: 1}]), (1, [])])
    def test_reality_mass_pairs_a_known_and_an_assigned_dual(self, r_mass, kept):
        """A known x and an assigned xbar each count the other, and the
        known real v counts itself: x + xbar + v has reality mass 3 and
        x + w + v has 2."""
        basis = TableBasis([BasisElement(0, "1", 1, 0), BasisElement(1, "x", 3, 2),
                            BasisElement(2, "xbar", 3, 1), BasisElement(3, "w", 3, 3),
                            BasisElement(4, "v", 3, 4)])
        engine = deduction._Engine(PartialTable(basis), introduce_names=False)
        row, candidates = [None, 1, None, None, 1], [2, 3]
        got = engine._search(row, 3, candidates, None, r_mass)
        plain = plain_decompositions(engine.p.deg, 3, candidates, None)
        assert canonical(got) == canonical(with_reality_mass(engine.p.dual, row, plain, r_mass))
        assert got == kept

    def test_limit_boundary(self, monkeypatch):
        """With the limit at a search's exact count the search finishes; one
        less and it is capped."""
        search = deduction._Engine._search
        default = deduction.DECOMPOSITION_LIMIT
        checked_counts = set()

        def checked(self, row, rem, candidates, budget2, r_mass):
            got = search(self, row, rem, candidates, budget2, r_mass)
            found = list(plain_decompositions(self.p.deg, rem, candidates, budget2)) \
                if got is not None else []
            if found:
                held = self._counts
                for limit, capped in ((len(found), False), (len(found) - 1, True)):
                    # saturated counts hold for one limit only
                    self._counts = {}
                    monkeypatch.setattr(deduction, "DECOMPOSITION_LIMIT", limit)
                    assert (search(self, row, rem, candidates, budget2, r_mass) is None) == capped
                self._counts = held
                monkeypatch.setattr(deduction, "DECOMPOSITION_LIMIT", default)
                checked_counts.add(len(found))
            return got

        monkeypatch.setattr(deduction._Engine, "_search", checked)
        _, trace = propagate(bundled_seed("Lemma72-seed"), introduce_names=True)
        assert trace.status == "completed"
        assert 1 in checked_counts and max(checked_counts) > 1

    @pytest.mark.parametrize("name", ["Lemma72", "B32stall"])
    def test_shared_count_does_not_change_the_trace(self, name, monkeypatch):
        """The only pinned seeds that run R4 searches, the stall's capped:
        with no shared count and no kept answer, the trace and every counter
        but the count's size are the same."""
        _, shared = propagate(*_seed(name))
        solve = deduction._Engine._solve_entry

        def fresh(self, pair):
            # every search asked runs afresh
            self._counts, self._suffixes = {}, {}
            self._answers, self._last_answers = {}, {}
            return solve(self, pair)

        monkeypatch.setattr(deduction._Engine, "_solve_entry", fresh)
        _, trace = propagate(*_seed(name))
        assert trace.serialize() == shared.serialize()

        def facts(t):
            return [(key, v) for key, v in t.facts() if key != "stats.solver.count_states"]

        assert facts(trace) == facts(shared)

    @pytest.mark.parametrize("name, asked, most", [("Lemma72", 988, 319), ("B32stall", 285, 44)])
    def test_repeated_inputs_are_answered_without_a_search(self, name, asked, most, monkeypatch):
        """A search is run only for inputs not seen in the current solver
        scan or the previous one: answers are keyed by the search's inputs
        and kept for those two scans.  Every search asked is still counted.
        Of Lemma 7.2's 988 searches, 310 have distinct inputs; the stall
        makes one scan of 285."""
        search = deduction._Engine._search
        run = []

        def counted(self, *args):
            run.append(args)
            return search(self, *args)

        monkeypatch.setattr(deduction._Engine, "_search", counted)
        seed, naming = _seed(name)
        _, trace = propagate(seed, introduce_names=naming)
        assert trace.attempts["R4"] == asked
        assert 0 < len(run) <= most

    @pytest.mark.parametrize("name", ["Lemma72", "B32stall", "B32third1"])
    def test_propagation_leaves_no_cyclic_garbage(self, name):
        """Everything a propagation drops is freed by reference counting:
        the search's recursive closures once formed a cycle per search,
        45,700 objects on Lemma 7.2."""
        seed, naming = _seed(name)
        gc.collect()
        gc.disable()
        try:
            propagate(seed, introduce_names=naming)
            assert gc.collect() == 0
        finally:
            gc.enable()


def orbit_by_search(dual, i, j, m):
    """The closure of the position (i, j, m) under (a, b, c) -> (b, a, c),
    (abar, bbar, cbar) and (bbar, c, a), by depth-first search, as sorted
    positions with a <= b."""
    seen, stack = set(), [(i, j, m)]
    while stack:
        t = stack.pop()
        if t not in seen:
            seen.add(t)
            a, b, c = t
            stack += [(b, a, c), (dual[a], dual[b], dual[c]), (dual[b], c, a)]
    return tuple(sorted({(min(a, b), max(a, b), c) for a, b, c in seen}))


def test_one_key_per_product(lemma72_run):
    # _open_products lists products by these keys, looked up in rows and
    # _waiting, where an identical key object is found without a compare;
    # it tells (i, l) from the other products by identity, and _evaluate
    # finds the factor terms of its one open product the same way
    table = bundled_seed("Lemma72-seed")
    pair, k = table.pair, table.k
    for a in range(k):
        for b in range(k):
            assert pair[a][b] is pair[b][a]
            assert pair[a][b] == (min(a, b), max(a, b))
    assert all(key is pair[key[0]][key[1]] for key in table.cells)
    # every rule, R2 included, completes a product under its key
    done, _ = lemma72_run
    assert all(key is done.pair[key[0]][key[1]] for key in done.rows)


class TestOrbit:
    @pytest.mark.parametrize("name", ["C7", "D17", "B22", "B32", "S3", "PSL27"])
    def test_closed_form_matches_the_search(self, name):
        basis = bundled_seed("PSL27-partial").basis if name == "PSL27" else load(name).basis
        table = PartialTable(basis)
        k, dual = table.k, table.dual
        for i in range(k):
            for j in range(k):
                for m in range(k):
                    assert table.orbit(i, j, m) == orbit_by_search(dual, i, j, m), (i, j, m)


def fixes_knowledge_by_full_scan(table, perm):
    """Whether ``perm`` maps every determined cell of the table to an equal
    determined cell, by a plain scan of all k^3 cells."""
    for (i, j), row in table.cells.items():
        image = table.cells[tuple(sorted((perm[i], perm[j])))]
        if any(v is not None and image[perm[m]] != v for m, v in enumerate(row)):
            return False
    return True


class TestCanonicalNaming:
    """Naming picks one of two solutions only when a relabeling that fixes
    everything known maps one to the other."""

    @pytest.fixture(autouse=True)
    def answers(self, monkeypatch):
        """Every ``_fixes_knowledge`` answer, each checked against the full
        scan."""
        fixes = deduction._fixes_knowledge
        answers = []

        def checked(table, perm):
            got = fixes(table, perm)
            assert got == fixes_knowledge_by_full_scan(table, perm)
            answers.append(got)
            return got

        monkeypatch.setattr(deduction, "_fixes_knowledge", checked)
        return answers

    def test_lemma72_namings_match_the_full_scan(self, lemma72_run, answers):
        _, trace = propagate(bundled_seed("Lemma72-seed"), introduce_names=True)
        assert trace.serialize() == lemma72_run[1].serialize()
        assert True in answers

    def table(self, known, extra=()):
        basis = TableBasis([
            BasisElement(0, "1", 1, 0),
            BasisElement(1, "x", 3, 1),
            BasisElement(2, "y", 3, 2),
            BasisElement(3, "z", 8, 3),
            *extra,
        ])
        return PartialTable(basis, known)

    def test_swap_of_indistinguishable_elements_names_the_first(self):
        assert deduction._canonical_naming(self.table({}), [{1: 1}, {2: 1}]) == {1: 1}

    def test_swap_that_moves_a_known_product_is_refused(self):
        # swapping x and y would move x*x = 1 + z onto the unknown y*y
        table = self.table({("x", "x"): {0: 1, 3: 1}})
        assert deduction._canonical_naming(table, [{1: 1}, {2: 1}]) is None

    def test_swap_that_moves_a_known_coefficient_of_a_fixed_element_is_refused(self):
        # only the coefficient of z in x*x is known: z is fixed, but swapping
        # x and y moves the cell onto y*y, where it is unknown
        table = self.table({})
        table.set_cell("x", "x", "z", 1)
        assert deduction._canonical_naming(table, [{1: 1}, {2: 1}]) is None

    def test_relabeling_that_is_no_involution_is_refused(self):
        # x + 2 y goes to y + 2 w only by the 3-cycle x -> y -> w: pairing x
        # with y and then y with w asks two images of y
        table = self.table({}, [BasisElement(4, "w", 3, 4)])
        assert deduction._relabeling(table, {1: 1, 2: 2}, {2: 1, 4: 2}) is None

    def test_dual_swap_that_moves_a_shared_coefficient_is_refused(self):
        # swapping pbar with q also swaps their duals p and qbar, which moves
        # the coefficient of p that both solutions share
        pairs = [BasisElement(4, "p", 3, 5), BasisElement(5, "pbar", 3, 4),
                 BasisElement(6, "q", 3, 7), BasisElement(7, "qbar", 3, 6)]
        table = self.table({}, pairs)
        assert deduction._relabeling(table, {4: 1, 5: 1}, {4: 1, 6: 1}) is None
        assert deduction._canonical_naming(table, [{4: 1, 5: 1}, {4: 1, 6: 1}]) is None


class TestNamingRule:
    """Naming is rule N: its own steps, counters and phase, and a choice that
    loses nothing up to isomorphism on the paper's main derivation."""

    @pytest.mark.parametrize("name", sorted(PINNED) + ["Lemma72"])
    def test_r1_fires_on_every_product_it_attempts(self, name):
        # naming steps logged under R1 made it 32 firings on 28 attempts
        seed, naming = _seed(name)
        facts = dict(propagate(seed, introduce_names=naming)[1].facts())
        assert facts["stats.R1.firings"] == facts["stats.R1.attempts"]

    def test_lemma72_names_four_products(self, lemma72_run):
        _, trace = lemma72_run
        named = [(s.number, "{}*{}".format(*s.entry)) for s in trace.steps if s.rule == "N"]
        assert named == [(21, "b8*b3"), (48, "x10*b3"), (105, "x9*b3"), (268, "c3*b3")]
        facts = dict(trace.facts())
        assert (facts["stats.N.attempts"], facts["stats.N.firings"]) == (4, 4)

    def test_stall_examines_its_ambiguous_products_and_names_none(self):
        seed, naming = _seed("B32stall")
        facts = dict(propagate(seed, introduce_names=naming)[1].facts())
        assert (facts["stats.N.attempts"], facts["stats.N.firings"]) == (14, 0)

    def test_no_naming_no_n_phase(self):
        _, trace = propagate(bundled_seed("Lemma72-seed"))
        assert "N" not in trace.seconds
        assert trace.attempts["N"] == 0
        assert not any(s.rule == "N" for s in trace.steps)

    def test_every_naming_choice_on_lemma72_gives_b32(self, B32, monkeypatch):
        """Take each alternative at each of the 4 N steps of Lemma 7.2: the
        16 leaves are distinct tables, each completed in 355 steps and
        exactly isomorphic to B32, and the canonical choice everywhere
        gives B32 itself."""
        from tabalg.iso import exact_isomorphic
        canonical = deduction._canonical_naming
        leaves = set()
        for mask in range(16):
            alternatives = []

            def choose(table, solutions):
                best = canonical(table, solutions)
                if best is None:
                    return None
                ordered = [best] + [s for s in solutions if s != best]
                alternatives.append(len(ordered))
                return ordered[mask >> (len(alternatives) - 1) & 1]

            monkeypatch.setattr(deduction, "_canonical_naming", choose)
            table, trace = propagate(bundled_seed("Lemma72-seed"), introduce_names=True)
            assert (trace.status, len(trace.steps)) == ("completed", 355), mask
            assert sum(s.rule == "N" for s in trace.steps) == 4
            assert alternatives == [2, 2, 2, 2]
            algebra = table.as_algebra()
            assert exact_isomorphic(algebra, B32) is not None, mask
            if mask == 0:
                assert algebra.constants.rows == B32.constants.rows
            leaves.add(repr(sorted(table.rows.items())))
        assert len(leaves) == 16


# A minimal premise set of each of the paper's two arguments, found by
# dropping seeded products one at a time in file order and keeping each
# drop after which the argument still held.  Minimal, not minimum: another
# order may leave another set.
LEMMA72_PREMISES = [
    "b3*b3bar", "b3bar*b3bar", "c3*b3bar", "b6*b6bar", "b6bar*b6bar", "b6bar*y15",
    "b6bar*y15bar", "c9bar*b6", "c9bar*y15", "d3bar*b6bar", "y15*y15bar", "y15bar*y15bar",
]


def lemma72_premise_seed(drop=None):
    """The Lemma 7.2 seed cut to LEMMA72_PREMISES, less the product ``drop``."""
    _, basis, products = parse_partial(data_text("Lemma72-seed"))
    table = PartialTable(basis)
    keep = {pair: row for pair, row in products.items()
            if table.label(pair) in LEMMA72_PREMISES and table.label(pair) != drop}
    return PartialTable(basis, keep)


class TestPremises:
    """The basis degrees already carry the hypotheses' content: these
    premises suffice, but the hypotheses are not shown idle."""

    def test_lemma72_premises_give_b32(self, B32):
        seed = lemma72_premise_seed()
        assert len(seed.rows) == B32.size + len(LEMMA72_PREMISES)
        table, trace = propagate(seed, introduce_names=True)
        assert (trace.status, len(trace.steps)) == ("completed", 484)
        assert sum(s.rule == "N" for s in trace.steps) == 4
        assert table.as_algebra().constants.rows == B32.constants.rows

    @pytest.mark.parametrize("drop", LEMMA72_PREMISES)
    def test_each_lemma72_premise_is_needed(self, drop):
        assert propagate(lemma72_premise_seed(drop), introduce_names=True)[1].status == "stalled"

    def test_theorem41_basis_alone_is_refuted_with_naming(self):
        _, basis, _ = parse_partial(data_text("Theorem41-seed"))
        _, trace = propagate(PartialTable(basis), introduce_names=True)
        assert trace.status == "contradiction"
        assert [s.rule for s in trace.steps] == ["R4", "N", "R2"]
        assert trace.witness == ("b3", "b6bar", "no-decomposition")

    def test_theorem41_one_product_refutes_without_naming(self):
        _, basis, products = parse_partial(data_text("Theorem41-seed"))
        b3bar = basis.index_of("b3bar")
        _, trace = propagate(PartialTable(basis, {(b3bar, b3bar): products[(b3bar, b3bar)]}))
        assert (trace.status, len(trace.steps)) == ("contradiction", 2)
        assert trace.witness == ("b3", "b6bar", "no-decomposition")
