"""Exact isomorphism testing and sub-table-algebra restriction.

An exact isomorphism is a basis bijection carrying structure constants
identically.  The search is a backtracking assignment over degree-
compatible elements, pruned by invariant fingerprints; any mapping found
is re-verified constant by constant before it is returned.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .core import BasisElement, TableAlgebra, TableBasis, TableAlgebraError

__all__ = ["NotClosedError", "UnverifiedAlgebraError", "restrict", "exact_isomorphic"]


class NotClosedError(TableAlgebraError):
    """The requested subset is not closed under products or duals."""


class UnverifiedAlgebraError(TableAlgebraError):
    """Isomorphism testing requires inputs that pass the axiom verifier."""


def restrict(algebra: TableAlgebra, subset: Iterable[int | str]) -> TableAlgebra:
    """Sub-table-algebra on a closed subset, members given as names or
    indices and resolved through ``index_of``, reindexed in index order."""
    from .structure import is_closed  # here, so exact_isomorphic runs without the structure layer

    members = sorted(set(map(algebra.basis.index_of, subset)))
    if not is_closed(algebra, members):
        names = ", ".join(map(algebra.basis.name, members))
        raise NotClosedError(f"subset {{{names}}} is not closed in {algebra.name or 'algebra'}")
    old_to_new = {old: new for new, old in enumerate(members)}
    basis = TableBasis(
        [
            BasisElement(
                old_to_new[old],
                algebra.basis.name(old),
                algebra.basis.degree(old),
                old_to_new[algebra.basis.dual(old)],
            )
            for old in members
        ]
    )
    rows = algebra.constants.rows
    products = {}
    for ni, oi in enumerate(members):
        for nj, oj in enumerate(members[ni:], start=ni):
            products[(ni, nj)] = {old_to_new[m]: v for m, v in rows[oi][oj].items()}
    name = f"{algebra.name}|{len(members)}" if algebra.name else f"restriction({len(members)})"
    return TableAlgebra.from_products(basis, products, name=name)


def _fingerprints(a: TableAlgebra) -> list:
    """Per-element invariants: degree, self-duality, dual-product row and
    the sorted profile of (b_i b_j, b_i b_j), the sum of a row's squared
    constants.  A round over each element's k product rows would cost k^2
    and split nothing on abelian class algebras (every product is one element)."""
    rows = a.constants.rows
    base = []
    for i in range(a.size):
        di = a.basis.dual(i)
        profile = tuple(sorted(sum(v * v for v in row.values()) for row in rows[i]))
        base.append((a.basis.degree(i), i == di, tuple(sorted(rows[i][di].values())), profile))
    return base


def _compatible(
    a: TableAlgebra, b: TableAlgebra, mapping: dict[int, int], used: set[int], i: int, ii: int
) -> bool:
    """Check all constraints among already-assigned elements after i -> ii:
    each row (i, j) with j assigned, mapped through the partial mapping
    (unassigned elements to -1), equals the row (ii, mapping[j]).  ``used``
    is the image of ``mapping``."""
    rows_i, rows_ii = a.constants.rows[i], b.constants.rows[ii]
    for j, jj in mapping.items():
        row_a = sorted((mapping.get(m, -1), v) for m, v in rows_i[j].items())
        row_b = sorted((mm if mm in used else -1, v) for mm, v in rows_ii[jj].items())
        if row_a != row_b:
            return False
    return True


def exact_isomorphic(a: TableAlgebra, b: TableAlgebra) -> Optional[tuple[int, ...]]:
    """The mapping of an exact isomorphism a -> b, the image of each index
    of a in index order, or None.

    Both inputs must pass verify_axioms.  The identity maps to the
    identity and dual pairs are assigned together; candidates are limited
    to equal fingerprints and the most constrained free element is
    assigned first.  A found bijection is independently re-verified on
    every row of constants.
    """
    for alg in (a, b):
        if not alg.verified().ok:
            raise UnverifiedAlgebraError(
                f"{alg.name or 'algebra'} fails verify_axioms: {alg.verified().summary()}"
            )
    if a.size != b.size:
        return None
    fa, fb = _fingerprints(a), _fingerprints(b)
    if sorted(fa) != sorted(fb):
        return None
    candidates = {
        i: [ii for ii in range(b.size) if fb[ii] == fa[i]] for i in range(a.size)
    }

    mapping: dict[int, int] = {}
    used: set[int] = set()

    def undo(made: list[int]) -> None:
        for x in made:
            used.discard(mapping.pop(x))

    def assign(i: int, ii: int) -> list[int]:
        """Assign the free element i -> ii and its dual; returns the
        elements assigned, or [] (and nothing assigned) on a conflict.
        Fingerprints record self-duality, so ii is self-dual when i is."""
        pairs = [(i, ii)]
        if a.basis.dual(i) != i:
            pairs.append((a.basis.dual(i), b.basis.dual(ii)))
        made: list[int] = []
        for x, xx in pairs:
            if xx in used or not _compatible(a, b, mapping, used, x, xx):
                undo(made)
                return []
            mapping[x] = xx
            used.add(xx)
            made.append(x)
        return made

    def search() -> bool:
        free = [i for i in range(a.size) if i not in mapping]
        if not free:
            return True
        # first-fail: fewest live candidates, ties by index
        i = min(free, key=lambda i: (sum(1 for ii in candidates[i] if ii not in used), i))
        for ii in candidates[i]:
            made = assign(i, ii)
            if made and search():
                return True
            undo(made)
        return False

    try:
        if not assign(0, 0) or not search():
            return None
    finally:
        # search holds itself through its cell; emptying it frees the closure
        del search
    psi = tuple(mapping[i] for i in range(a.size))

    # full re-verification, independent of the search bookkeeping
    if sorted(psi) != list(range(b.size)):
        return None
    rows_a, rows_b = a.constants.rows, b.constants.rows
    for i in range(a.size):
        if a.basis.degree(i) != b.basis.degree(psi[i]) or psi[a.basis.dual(i)] != b.basis.dual(psi[i]):
            return None
        for j in range(i, a.size):
            if {psi[m]: v for m, v in rows_a[i][j].items()} != rows_b[psi[i]][psi[j]]:
                return None
    return psi
