"""Independent brute-force oracles.

Everything here recomputes expected values from first principles (group
element convolution, exhaustive subgroup enumeration, character tables)
without touching the library's own multiplication or closure code.  The
one exception is ``classify``, a search driven by the deduction engine,
which the tests check against the brute-force enumeration ``all_tables``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product

from tabalg import BasisElement, TableAlgebra, TableBasis
from tabalg.deduction import PartialTable, propagate


class FiniteGroup:
    def __init__(self, elements, mult, name):
        self.elements = list(elements)
        self.mult = mult
        self.name = name
        self.identity = next(
            e for e in self.elements
            if all(mult(e, x) == x == mult(x, e) for x in self.elements)
        )

    def inverse(self, a):
        return next(b for b in self.elements if self.mult(a, b) == self.identity)

    def conjugacy_classes(self):
        remaining = set(self.elements)
        classes = []
        for e in self.elements:
            if e not in remaining:
                continue
            cls = {self.mult(self.mult(g, e), self.inverse(g)) for g in self.elements}
            classes.append(tuple(sorted(cls, key=self.elements.index)))
            remaining -= cls
        identity_first = sorted(
            classes, key=lambda c: (self.identity not in c, len(c), self.elements.index(c[0]))
        )
        return identity_first

    def subgroups(self):
        """All subgroups by exhaustive closure over subsets of generators."""
        found = {frozenset([self.identity])}
        frontier = [frozenset([self.identity])]
        while frontier:
            h = frontier.pop()
            for g in self.elements:
                gen = self._closure(h | {g})
                if gen not in found:
                    found.add(gen)
                    frontier.append(gen)
        return sorted(found, key=lambda h: (len(h), sorted(self.elements.index(x) for x in h)))

    def _closure(self, seed):
        cur = set(seed)
        while True:
            new = {self.mult(a, b) for a in cur for b in cur} | {self.inverse(a) for a in cur}
            if new <= cur:
                return frozenset(cur)
            cur |= new

    def normal_subgroups(self):
        out = []
        for h in self.subgroups():
            if all(
                self.mult(self.mult(g, x), self.inverse(g)) in h
                for g in self.elements
                for x in h
            ):
                out.append(h)
        return out


def cyclic(n: int) -> FiniteGroup:
    return FiniteGroup(range(n), lambda a, b: (a + b) % n, f"Z{n}")


def symmetric3() -> FiniteGroup:
    elems = list(permutations(range(3)))

    def mult(a, b):  # (a*b)(x) = a(b(x))
        return tuple(a[b[i]] for i in range(3))

    return FiniteGroup(elems, mult, "S3")


def klein_four() -> FiniteGroup:
    elems = [(0, 0), (0, 1), (1, 0), (1, 1)]
    return FiniteGroup(elems, lambda a, b: ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2), "V4")


def direct_product(*groups: FiniteGroup) -> FiniteGroup:
    """The groups' direct product, multiplied coordinate by coordinate."""

    def mult(a, b):
        return tuple(g.mult(x, y) for g, x, y in zip(groups, a, b))

    return FiniteGroup(product(*(g.elements for g in groups)), mult, "x".join(g.name for g in groups))


def class_algebra_tensor(group: FiniteGroup):
    """Class-sum structure constants by explicit convolution.

    Returns (class sizes, dual pairing, tensor) with classes ordered
    identity first, then by (size, first element).
    """
    classes = group.conjugacy_classes()
    index_of = {}
    for ci, cls in enumerate(classes):
        for e in cls:
            index_of[e] = ci
    k = len(classes)
    reps = [cls[0] for cls in classes]
    tensor = [[[0] * k for _ in range(k)] for _ in range(k)]
    for i, j in product(range(k), repeat=2):
        for m in range(k):
            z0 = reps[m]
            count = sum(
                1
                for x in classes[i]
                for y in classes[j]
                if group.mult(x, y) == z0
            )
            tensor[i][j][m] = count
    sizes = [len(c) for c in classes]
    duals = [index_of[group.inverse(reps[i])] for i in range(k)]
    return sizes, duals, tensor


def class_algebra(group: FiniteGroup, names=None) -> TableAlgebra:
    """The class algebra of ``group`` from the convolution tensor, its basis
    named ``names`` or ``1, c1, c2, ...``."""
    sizes, duals, tensor = class_algebra_tensor(group)
    k = len(sizes)
    names = names or ["1"] + [f"c{i}" for i in range(1, k)]
    # class sums commute: each class is closed under conjugation
    assert all(tensor[i][j] == tensor[j][i] for i in range(k) for j in range(i, k)), group.name
    basis = TableBasis([BasisElement(i, n, s, d) for i, (n, s, d) in enumerate(zip(names, sizes, duals))])
    products = {(i, j): {m: v for m, v in enumerate(tensor[i][j]) if v} for i in range(k) for j in range(i, k)}
    return TableAlgebra.from_products(basis, products, name=f"{group.name}-oracle")


def subgroup_class_unions(group: FiniteGroup):
    """Normal subgroups expressed as sets of conjugacy-class indices; these
    are exactly the closed subsets of the class algebra."""
    classes = group.conjugacy_classes()
    index_of = {}
    for ci, cls in enumerate(classes):
        for e in cls:
            index_of[e] = ci
    out = set()
    for h in group.normal_subgroups():
        out.add(frozenset(index_of[e] for e in h))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


# --- bounded-exhaustive tables -------------------------------------------


def _degree_rows(degrees, target, indices):
    """Every row {index: coefficient} on ``indices``, a sequence, whose
    degree sum, coefficient times degree, is ``target``."""
    if not indices:
        if target == 0:
            yield {}
        return
    m = indices[0]
    for c in range(target // degrees[m] + 1):
        for rest in _degree_rows(degrees, target - c * degrees[m], indices[1:]):
            yield {m: c, **rest} if c else rest


def shape_basis(degrees, duals):
    """The basis of the shape of ``all_tables``: the identity 1, then e1,
    e2, ..., the second of a pair eNbar after its first eN."""
    return TableBasis([
        BasisElement(i, "1" if i == 0 else f"e{duals[i]}bar" if duals[i] < i else f"e{i}", d, duals[i])
        for i, d in enumerate(degrees)
    ])


def all_tables(degrees, duals=None):
    """Every commutative table of one shape: ``degrees`` lists the degree of
    each basis element, the identity's 1 first, and ``duals`` the index of
    each element's dual, all real (i itself) when omitted; a pair has one
    degree.  The identity row is trivial, the coefficient of 1 in b_i b_j
    is 1 when j is the dual of i and 0 otherwise, and every row has degree
    deg(b_i) deg(b_j).  The involution (i, j) -> (ibar, jbar) is kept: one
    product of each orbit of pairs is enumerated and its image is its dual
    image, and a product that is its own image is dual-symmetric.  Nothing
    else is required, so the tables parse and build, and most fail
    ``verify``.  Elements are named as in ``shape_basis``; tables come in
    a fixed order."""
    k = len(degrees)
    duals = duals or range(k)
    basis = shape_basis(degrees, duals)
    pairs = [(i, j) for i in range(1, k) for j in range(i, k)]
    image = {(i, j): tuple(sorted((duals[i], duals[j]))) for i, j in pairs}
    firsts = [pair for pair in pairs if pair <= image[pair]]
    choices = []
    for i, j in firsts:
        one = int(j == duals[i])
        rows = [{0: 1, **row} if one else row for row in _degree_rows(degrees, degrees[i] * degrees[j] - one, range(1, k))]
        if image[(i, j)] == (i, j):
            rows = [row for row in rows if all(row.get(duals[m], 0) == v for m, v in row.items())]
        choices.append(rows)
    for n, rows in enumerate(product(*choices)):
        products = dict(zip(firsts, rows))
        for pair, row in zip(firsts, rows):
            products[image[pair]] = {duals[m]: v for m, v in row.items()}
        yield TableAlgebra.from_products(basis, products, name=f"enum{n}")


def _fitting_rows(table, pair):
    """Every full row of the pending product ``pair`` of a ``PartialTable``
    that keeps its known cells and fills its unknown ones to its degree."""
    i, j = pair
    cells, deg = table.cells[pair], table.deg
    known = {m: v for m, v in enumerate(cells) if v}
    unknown = [m for m, v in enumerate(cells) if v is None]
    rem = deg[i] * deg[j] - sum(v * deg[m] for m, v in known.items())
    return [{**known, **rest} for rest in _degree_rows(deg, rem, unknown)]


def classify(degrees, duals=None):
    """The passing tables of a shape of ``all_tables`` by branch and
    propagate, the DPLL scheme (Davis, Logemann and Loveland, 1962), as
    ``(completions, nodes)``.  The root seeds no product; each node runs
    ``propagate`` without naming, so every value it writes is forced.  A
    contradiction is pruned, a completion is kept (``propagate`` has
    re-verified it), and a stall branches on each row of the pending
    product with the fewest rows that fit its known cells and its degree,
    depth first.  ``nodes`` counts the propagations."""
    basis = shape_basis(degrees, duals or range(len(degrees)))
    completions, nodes, stack = [], 0, [{}]
    while stack:
        nodes += 1
        table, trace = propagate(PartialTable(basis, stack.pop()))
        if trace.status == "completed":
            completions.append(table.as_algebra())
        elif trace.status == "stalled":
            pair, rows = min(((p, _fitting_rows(table, p)) for p in table.pending_pairs()),
                             key=lambda entry: len(entry[1]))
            stack += [{**table.rows, pair: row} for row in reversed(rows)]
    return completions, nodes


# --- exact arithmetic in Q(sqrt(-7)) for the PSL(2,7) character table -----


class Q7:
    """a + b*sqrt(-7) with rational a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    def __add__(self, o):
        o = o if isinstance(o, Q7) else Q7(o)
        return Q7(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __mul__(self, o):
        o = o if isinstance(o, Q7) else Q7(o)
        return Q7(self.a * o.a - 7 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def conj(self):
        return Q7(self.a, -self.b)

    def __eq__(self, o):
        o = o if isinstance(o, Q7) else Q7(o)
        return self.a == o.a and self.b == o.b

    def __repr__(self):
        return f"Q7({self.a},{self.b})"


def psl27_fusion():
    """Decomposition multiplicities of products of the six irreducible
    characters of PSL(2,7), computed from its character table.

    Characters ordered (1, 3a, 3b, 6, 7, 8); classes 1A 2A 4A 3A 7A 7B with
    sizes 1, 21, 42, 56, 24, 24; alpha = (-1 + sqrt(-7))/2.
    """
    al = Q7(Fraction(-1, 2), Fraction(1, 2))
    ab = al.conj()
    sizes = [1, 21, 42, 56, 24, 24]
    chars = [
        [Q7(1)] * 6,
        [Q7(3), Q7(-1), Q7(1), Q7(0), al, ab],
        [Q7(3), Q7(-1), Q7(1), Q7(0), ab, al],
        [Q7(6), Q7(2), Q7(0), Q7(0), Q7(-1), Q7(-1)],
        [Q7(7), Q7(-1), Q7(-1), Q7(1), Q7(0), Q7(0)],
        [Q7(8), Q7(0), Q7(0), Q7(-1), Q7(1), Q7(1)],
    ]
    order = 168
    k = 6
    fusion = [[[0] * k for _ in range(k)] for _ in range(k)]
    for i in range(k):
        for j in range(k):
            for m in range(k):
                total = Q7(0)
                for c in range(6):
                    total = total + sizes[c] * (chars[i][c] * chars[j][c] * chars[m][c].conj())
                assert total.b == 0 and Fraction(total.a, order).denominator == 1
                fusion[i][j][m] = int(Fraction(total.a, order))
    return fusion
