"""Closed subsets, power supports, and support-level quotients.

A closed subset (table subset) contains the identity, is closed under the
involution and under supports of products.  It is a sorted tuple of basis
indices; entry points take members as names or indices and resolve them
through ``TableBasis.index_of``.  Quotients are taken at support
level only: classes are the double cosets through a closed subset and the
class composition records which classes meet each product support.

Everything here works on supports alone.  Structure constants are
nonnegative, so for elements x, y with nonnegative coefficients nothing in
``x y`` cancels and ``Supp(x y)`` is the union of ``Supp(b_i b_j)`` over
``i`` in ``Supp(x)`` and ``j`` in ``Supp(y)``: it depends on the supports
of the factors, not on their coefficients.  Hence ``Supp(b^n)`` is the
support of ``Supp(b^(n-1)) b``, and the class of ``b`` modulo a closed
subset C, ``Supp(e_C b e_C)`` with ``e_C`` the sum of the members of C,
is the support of ``C b C``.  Both are read off the rows of the
structure constants; no coefficient is ever carried.
"""

from __future__ import annotations

from math import prod
from typing import Collection, Iterable, NamedTuple, Optional, Sequence

from .core import StructureConstants, TableAlgebra, TableAlgebraError

__all__ = [
    "is_closed",
    "QuotientClassTable",
    "GroupTable",
    "closure",
    "all_closed_subsets",
    "power_supports",
    "quotient_by",
    "is_group_like",
]

LATTICE_NODE_CAP = 4096


def _support_product(constants: StructureConstants, xs: Iterable[int], ys: Collection[int]) -> set[int]:
    """``Supp(x y)`` for any x, y of nonnegative coefficients with supports xs, ys."""
    rows = constants.rows
    return {m for i in xs for j in ys for m in rows[i][j]}


def is_closed(algebra: TableAlgebra, members: Iterable[int]) -> bool:
    """Independent membership re-check of basis indices: each member an
    ``int`` index in range (``bool`` excluded), identity, duals, all pair
    supports."""
    s = set(members)
    if 0 not in s or not all(type(i) is int and 0 <= i < algebra.size for i in s):
        return False
    if any(algebra.basis.dual(i) not in s for i in s):
        return False
    rows = algebra.constants.rows
    return all(s.issuperset(rows[i][j]) for i in s for j in s)


def _closed(algebra: TableAlgebra, current: set[int], frontier: set[int]) -> tuple[int, ...]:
    """The closed subset that ``current``, which holds 0 and its duals, grows
    into by fixed-point iteration, as a sorted tuple.  The supports of the
    products of two members outside ``frontier`` must already lie in
    ``current``: only products with a frontier member are taken."""
    while frontier:
        new = _support_product(algebra.constants, frontier, current) - current
        new |= {algebra.basis.dual(m) for m in new}
        current |= new
        frontier = new
    return tuple(sorted(current))


def closure(algebra: TableAlgebra, seed: Iterable[int | str]) -> tuple[int, ...]:
    """Smallest closed subset containing the seed, a collection of element
    names or indices resolved through ``index_of``, as a sorted tuple of
    indices."""
    current = set(map(algebra.basis.index_of, seed))
    if not current:
        raise TableAlgebraError("closure of an empty seed")
    current.add(0)
    current |= {algebra.basis.dual(i) for i in current}
    return _closed(algebra, current, set(current))


def all_closed_subsets(algebra: TableAlgebra) -> list[tuple[int, ...]]:
    """Complete lattice of closed subsets.

    Every closed subset is the join of the closures of its members, so a
    worklist that joins each subset found with each distinct singleton
    closure reaches all of them.  A join of closed s and a starts from the
    frontier ``a - s``: a product inside s or inside a already lies in it.
    Sorted by size, then lexicographically by member indices.  Capped at
    ``LATTICE_NODE_CAP`` lattice nodes.
    """
    found: dict[frozenset[int], tuple[int, ...]] = {}
    worklist: list[frozenset[int]] = []

    def add(s: tuple[int, ...]):
        key = frozenset(s)
        if key not in found:
            if len(found) >= LATTICE_NODE_CAP:
                raise TableAlgebraError(f"subset lattice exceeded {LATTICE_NODE_CAP} nodes")
            found[key] = s
            worklist.append(key)

    add((0,))
    for i in range(algebra.size):
        add(closure(algebra, [i]))
    atoms = list(found)
    while worklist:
        s = worklist.pop()
        for atom in atoms:
            if not atom <= s:
                add(_closed(algebra, set(s | atom), atom - s))
    return sorted(found.values(), key=lambda s: (len(s), s))


def power_supports(algebra: TableAlgebra, b: int | str, max_n: int) -> tuple[frozenset[int], ...]:
    """Supports of b, b^2, ..., b^max_n, ``Supp(b^n)`` at index n - 1;
    ``Supp(b^n)`` is the support of ``Supp(b^(n-1)) b``."""
    if max_n < 1:
        raise TableAlgebraError("max_n must be >= 1")
    i = algebra.basis.index_of(b)
    supports = [frozenset((i,))]
    for _ in range(1, max_n):
        supports.append(frozenset(_support_product(algebra.constants, supports[-1], (i,))))
    return tuple(supports)


class GroupTable(NamedTuple):
    order: int
    invariant_factors: Optional[tuple[int, ...]]

    @property
    def description(self) -> str:
        if self.invariant_factors is None:
            return f"group of order {self.order}"
        return " x ".join(f"cyclic({d})" for d in self.invariant_factors)


class QuotientClassTable:
    """Support-level quotient by a closed subset.

    Classes are the distinct sandwiches Supp(C*b*C) in order of first
    appearance.  The first is b_0's, the defining subset itself, so the
    class of the identity is class 0.
    Each member's own sandwich is checked to equal its class, which proves
    the classes partition the basis, as b lies in Supp(C*b*C).
    ``composition[(P, Q)]`` is the set of classes meeting Supp(p*q), checked
    to be the same for every pair of representatives; it is the one table
    of the class products, and ``is_group_like`` reads it directly.
    """

    def __init__(self, algebra: TableAlgebra, by: tuple[int, ...]):
        if not is_closed(algebra, by):
            raise TableAlgebraError("quotient requires a verified closed subset")
        constants = algebra.constants
        sandwich = [
            tuple(sorted(_support_product(constants, _support_product(constants, by, (b,)), by)))
            for b in range(algebra.size)
        ]
        self.classes = classes = tuple(dict.fromkeys(sandwich))
        for members in classes:
            for b in members:
                if sandwich[b] != members:
                    raise TableAlgebraError(
                        f"class of {algebra.basis.name(b)} depends on the representative"
                    )
        self.class_of = class_of = {m: ci for ci, members in enumerate(classes) for m in members}
        self.labels = tuple(min(algebra.basis.name(m) for m in members) for members in classes)
        n = len(classes)
        compose: dict[tuple[int, int], frozenset[int]] = {}
        for p in range(n):
            for q in range(p, n):
                values = {
                    frozenset(class_of[m] for m in constants.rows[bp][bq])
                    for bp in classes[p]
                    for bq in classes[q]
                }
                if len(values) != 1:
                    raise TableAlgebraError(
                        "class composition depends on representatives: "
                        f"classes {self.labels[p]}, {self.labels[q]}"
                    )
                compose[(p, q)] = compose[(q, p)] = values.pop()
        self.composition = compose

    @property
    def size(self) -> int:
        return len(self.classes)


def quotient_by(algebra: TableAlgebra, by: Iterable[int | str]) -> QuotientClassTable:
    """Quotient by the closed subset ``by``, members given as names or
    indices and resolved through ``index_of``."""
    return QuotientClassTable(algebra, tuple(sorted(set(map(algebra.basis.index_of, by)))))


def _invariant_factors(order: int, element_orders: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Invariant factors, largest first, of an abelian group from the
    orders of its elements; None if the orders fit no abelian group.

    For each prime p, write the p-part as the product of cyclic groups of
    orders p^e_1 >= p^e_2 >= ....  The elements of order dividing p^j
    number p^(sum_t min(j, e_t)), so the exponent gained from j - 1 to j
    is the number r_j of e_t that are at least j.  Each factor t is
    multiplied by p once for every j with r_j > t.
    """
    factors: list[int] = []
    n, p = order, 2
    while n > 1:
        if n % p:
            p += 1
            continue
        while n % p == 0:
            n //= p
        q, exponent = p, 0
        while True:
            count, e = sum(1 for o in element_orders if q % o == 0), 0
            while count % p == 0:
                count //= p
                e += 1
            if e == exponent:
                break
            factors.extend([1] * (e - exponent - len(factors)))
            for t in range(e - exponent):
                factors[t] *= p
            q, exponent = q * p, e
    factors = factors or [1]
    return tuple(factors) if prod(factors) == order else None


def is_group_like(q: QuotientClassTable) -> Optional[GroupTable]:
    """Group table when every composition is a single class and some power
    of every class is the identity class, class 0, else None."""
    n = q.size
    table: dict[tuple[int, int], int] = {}
    for key, value in q.composition.items():
        if len(value) != 1:
            return None
        (table[key],) = value
    orders = []
    for p in range(n):
        x, o = p, 1
        while x != 0:
            if o == n:
                return None  # no power reaches the identity class: not a group
            x = table[(x, p)]
            o += 1
        orders.append(o)
    return GroupTable(n, _invariant_factors(n, orders))
