from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from tabalg import (
    BasisElement,
    MalformedElementError,
    TableAlgebra,
    TableAlgebraError,
    TableBasis,
    all_closed_subsets,
    closure,
    is_closed,
    is_group_like,
    load,
    power_supports,
    quotient_by,
    restrict,
)
from tabalg import structure

from oracles import class_algebra, cyclic, direct_product, klein_four, subgroup_class_unions, symmetric3

C_NAMES = {"1", "b8", "x10", "b5", "c5", "c8", "x9"}
E_NAMES = C_NAMES | {"r3", "s6", "t15", "d9", "y3"}
D_NAMES = C_NAMES | {"c3", "c3bar", "d3", "d3bar", "c9", "c9bar", "b6", "b6bar", "y15", "y15bar"}


ORACLE_GROUPS = (cyclic(4), cyclic(5), cyclic(6), klein_four(), symmetric3())


def names(A, indices):
    return {A.basis.name(i) for i in indices}


class TestClosure:
    def test_b8_generates_C(self, B32):
        s = closure(B32, ["b8"])
        assert names(B32, s) == C_NAMES

    def test_identity_generates_itself(self, B32):
        assert closure(B32, ["1"]) == (0,)

    def test_b3_is_faithful(self, B32):
        assert len(closure(B32, ["b3"])) == 32

    def test_members_recheck(self, B32):
        assert is_closed(B32, closure(B32, ["c3"]))
        assert not is_closed(B32, (0, 1))

    @pytest.mark.parametrize("members", [(0, 40), (0, -32), (0, -1), (0, 32)])
    def test_members_outside_the_basis_are_not_closed(self, B32, members):
        assert not is_closed(B32, members)

    def test_bool_member_is_not_closed(self):
        # taken as index 1, True would make {0, True} pass as {1, g} of Z2
        Z2 = load("Z2")
        assert is_closed(Z2, (0, 1))
        assert not is_closed(Z2, (0, True))
        # entry points resolve members through index_of, which refuses a bool
        with pytest.raises(MalformedElementError):
            quotient_by(Z2, (0, True))
        with pytest.raises(MalformedElementError):
            restrict(Z2, (0, True))

    def test_repeated_members_count_once(self, C7):
        assert restrict(C7, (0, 0)).size == 1
        assert quotient_by(C7, (0, 0)).size == C7.size

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_monotone_and_idempotent(self, B32, data):
        seed_s = data.draw(st.sets(st.integers(0, 31), min_size=1, max_size=3))
        seed_t = seed_s | data.draw(st.sets(st.integers(0, 31), max_size=2))
        cs = closure(B32, seed_s)
        ct = closure(B32, seed_t)
        assert set(cs) <= set(ct)
        assert closure(B32, cs) == cs


class TestLattice:
    def test_B32_lattice(self, B32):
        subsets = all_closed_subsets(B32)
        by_size = {len(s): names(B32, s) for s in subsets}
        assert sorted(by_size) == [1, 7, 12, 17, 32]
        assert by_size[7] == C_NAMES
        assert by_size[12] == E_NAMES
        assert by_size[17] == D_NAMES

    def test_B22_lattice(self, B22):
        subsets = all_closed_subsets(B22)
        assert [len(s) for s in subsets] == [1, 7, 12, 22]

    def test_D_and_E_are_maximal_with_intersection_C(self, B32):
        subsets = all_closed_subsets(B32)
        d = next(s for s in subsets if len(s) == 17)
        e = next(s for s in subsets if len(s) == 12)
        # nothing strictly between D (or E) and the whole basis
        for s in subsets:
            assert not (17 < len(s) < 32)
            assert not (12 < len(s) < 32 and set(s) > set(e))
        assert set(d) & set(e) == set(closure(B32, ["b8"]))

    def test_trivial_algebra(self):
        basis = TableBasis([BasisElement(0, "1", 1, 0)])
        A = TableAlgebra.from_products(basis, {}, name="unit")
        assert all_closed_subsets(A) == [(0,)]

    def test_group_lattice_matches_subgroup_oracle(self):
        for group in (cyclic(6), symmetric3()):
            A = class_algebra(group)
            ours = {frozenset(s) for s in all_closed_subsets(A)}
            oracle = {frozenset(s) for s in subgroup_class_unions(group)}
            assert ours == oracle, group.name

    @pytest.mark.parametrize(
        "algebra",
        [load(n) for n in ("C7", "Z2", "Z3", "Z4", "Z6", "S3")]
        + [class_algebra(g) for g in ORACLE_GROUPS],
        ids=lambda a: a.name,
    )
    def test_lattice_is_every_subset_that_verifies(self, algebra):
        # brute force over all 2^k subsets, k <= 12
        k = algebra.size
        brute = {
            members
            for r in range(1, k + 1)
            for members in combinations(range(k), r)
            if is_closed(algebra, members)
        }
        assert all_closed_subsets(algebra) == sorted(
            brute, key=lambda m: (len(m), m)
        )

    def test_z6_lattice_is_divisor_lattice(self):
        A = class_algebra(cyclic(6))
        assert sorted(len(s) for s in all_closed_subsets(A)) == [1, 2, 3, 6]

    def test_z66_lattice_is_divisor_lattice(self):
        # k = 66: the lattice is bounded by its node count, not by k
        A = class_algebra(cyclic(66))
        assert A.size == 66
        assert sorted(len(s) for s in all_closed_subsets(A)) == [1, 2, 3, 6, 11, 22, 33, 66]

    def test_node_cap(self, B32, monkeypatch):
        monkeypatch.setattr(structure, "LATTICE_NODE_CAP", 3)
        with pytest.raises(TableAlgebraError, match="exceeded 3 nodes"):
            all_closed_subsets(B32)


class TestPowers:
    def test_table1_rows(self, B32):
        rows = dict(enumerate(power_supports(B32, "b3", 10), 1))
        power = lambda n: names(B32, rows[n])
        assert power(2) == {"c3", "b6"}
        assert power(3) == {"r3", "s6", "t15"}
        assert power(4) == {"c3bar", "b6bar", "y15bar", "c9bar"}
        assert power(5) == {"b3bar", "x6bar", "x15bar", "b9bar", "z3"}
        assert power(6) == C_NAMES
        assert power(7) == {"b3", "x6", "x15", "b9", "z3bar"}
        assert power(8) == {"c3", "b6", "y15", "c9", "d3bar"}
        assert power(9) == {"r3", "s6", "t15", "d9", "y3"}
        assert power(10) == {"c3bar", "b6bar", "y15bar", "c9bar", "d3"}

    def test_table2_rows(self, B22):
        rows = dict(enumerate(power_supports(B22, "b3", 7), 1))
        power = lambda n: names(B22, rows[n])
        assert power(1) == {"b3"}
        assert power(2) == {"r3", "s6"}
        assert power(3) == {"b3bar", "t6", "b15bar"}
        assert power(4) == C_NAMES
        assert power(5) == {"b3", "t6bar", "b15", "y9", "x3"}
        assert power(6) == {"r3", "s6", "t15", "d9", "y3"}
        assert power(7) == {"b3bar", "t6", "b15bar", "y9bar", "x3bar"}

    def test_identity_powers(self, B32):
        assert power_supports(B32, "1", 4) == (frozenset({0}),) * 4


class TestQuotient:
    def test_B32_mod_C_is_Z6(self, B32):
        q = quotient_by(B32, closure(B32, ["b8"]))
        assert q.size == 6
        g = is_group_like(q)
        assert g is not None and g.invariant_factors == (6,)
        assert g.description == "cyclic(6)"

    def test_B22_mod_C_is_Z4(self, B22):
        q = quotient_by(B22, closure(B22, ["b8"]))
        assert q.size == 4
        g = is_group_like(q)
        assert g is not None and g.invariant_factors == (4,)

    def test_quotient_by_trivial(self, B32):
        q = quotient_by(B32, (0,))
        assert q.size == 32
        # composition = support products
        idx = B32.basis.index_of
        p = q.class_of[idx("b3")]
        r = q.class_of[idx("b3bar")]
        got = {q.classes[c][0] for c in q.composition[(p, r)]}
        assert got == set(B32.constants.rows[idx("b3")][idx("b3bar")])

    def test_not_closed_rejected(self, B32):
        with pytest.raises(TableAlgebraError, match="verified closed subset"):
            quotient_by(B32, ["1", "b3"])

    def test_quotient_by_everything(self, B32):
        q = quotient_by(B32, closure(B32, ["b3"]))
        assert q.size == 1

    def test_klein_four_quotient(self):
        A = class_algebra(klein_four())
        q = quotient_by(A, (0,))
        g = is_group_like(q)
        assert g is not None and g.invariant_factors == (2, 2)
        assert g.description == "cyclic(2) x cyclic(2)"

    @pytest.mark.parametrize(
        "group, factors",
        [
            (direct_product(cyclic(4), cyclic(4)), (4, 4)),
            (direct_product(cyclic(2), cyclic(2), cyclic(4)), (4, 2, 2)),
            (direct_product(cyclic(3), cyclic(6)), (6, 3)),
            (cyclic(42), (42,)),
        ],
        ids=lambda v: v.name if hasattr(v, "name") else None,
    )
    def test_group_of_any_order_gets_its_invariant_factors(self, group, factors):
        g = is_group_like(quotient_by(class_algebra(group), (0,)))
        assert g is not None and g.order == len(group.elements)
        assert g.invariant_factors == factors
        assert g.description == " x ".join(f"cyclic({d})" for d in factors)

    def test_orders_of_no_abelian_group(self):
        # S3's element orders: an abelian group of order 6 is cyclic, with one involution
        assert structure._invariant_factors(6, (1, 2, 2, 2, 3, 3)) is None
        assert structure.GroupTable(6, None).description == "group of order 6"

    def test_not_group_like(self, B32):
        # modding by the trivial subset leaves multi-valued composition
        q = quotient_by(B32, (0,))
        assert is_group_like(q) is None

    @pytest.mark.parametrize(
        "products, message",
        [
            # C y C = {y, z} but C z C = {z}
            ({"xx": "1", "xy": "z", "xz": "z", "yy": "1", "yz": "1", "zz": "1"},
             "class of z depends on the representative"),
            # classes {1, x} and {y, z}: y*y = 1 but z*z = y
            ({"xx": "1", "xy": "z", "xz": "y", "yy": "1", "yz": "1", "zz": "y"},
             "class composition depends on representatives: classes y, y"),
            # C y C = {1, x, y} overlaps the identity class {1, x}
            ({pair: "1" for pair in ("xx", "xy", "xz", "yy", "yz", "zz")},
             "class of 1 depends on the representative"),
        ],
        ids=["class", "composition", "overlap"],
    )
    def test_inconsistent_table_is_rejected(self, products, message):
        # tables that fail verify reach the quotient's own checks
        basis = TableBasis([BasisElement(i, name, 1, i) for i, name in enumerate("1xyz")])
        idx = basis.index_of
        A = TableAlgebra.from_products(
            basis, {(idx(p[0]), idx(p[1])): {idx(m): 1} for p, m in products.items()}
        )
        with pytest.raises(TableAlgebraError, match=f"^{message}$"):
            quotient_by(A, ["1", "x"])

    def test_class_labels_lex_least(self, B32):
        q = quotient_by(B32, closure(B32, ["b8"]))
        assert q.labels[0] == "1"
        for label, members in zip(q.labels, q.classes):
            assert label == min(B32.basis.name(m) for m in members)


def element_sandwich(algebra, subset, b):
    """Supp(e_C b e_C) through exact element arithmetic."""
    e_c = {i: 1 for i in subset}
    return algebra.multiply(algebra.multiply(e_c, {b: 1}), e_c).keys()


def element_powers(algebra, b, max_n):
    """Supp(b^n) at index n - 1, n = 1..max_n, by exact repeated multiplication."""
    power = base = {b: 1}
    supports = [power.keys()]
    for _ in range(1, max_n):
        power = algebra.multiply(power, base)
        supports.append(power.keys())
    return tuple(supports)


class TestSupportsAgainstElementArithmetic:
    """The support-level quotients and powers equal the supports of the
    exact products they stand for."""

    @pytest.mark.parametrize("name", ["B32", "B22", "D17"])
    def test_quotients(self, name):
        A = load(name)
        for subset in all_closed_subsets(A):
            q = quotient_by(A, subset)
            for b in range(A.size):
                assert set(q.classes[q.class_of[b]]) == element_sandwich(A, subset, b)
            class_sums = [{m: 1 for m in members} for members in q.classes]
            for p in range(q.size):
                for r in range(q.size):
                    support = A.multiply(class_sums[p], class_sums[r]).keys()
                    assert q.composition[(p, r)] == {q.class_of[m] for m in support}

    @pytest.mark.parametrize("name", ["B32", "B22", "D17"])
    def test_powers(self, name):
        A = load(name)
        for b in range(A.size):
            assert power_supports(A, b, 6) == element_powers(A, b, 6)

    @pytest.mark.parametrize("b", [-1, 32, 40])
    def test_power_of_an_index_outside_the_basis(self, B32, b):
        with pytest.raises(MalformedElementError):
            power_supports(B32, b, 1)
