"""Exact representation of table algebras over a distinguished integer basis.

A table algebra is stored as an ordered basis (index 0 is the identity,
every element carries a positive integer degree and a dual partner) plus
the nonnegative integer structure constants ``delta[i][j][m]``, the
coefficient of ``b_m`` in ``b_i * b_j``.  All arithmetic is exact;
scalars are Python integers.

One store.  ``StructureConstants`` keeps one sparse row of
``(m, delta[i][j][m])`` pairs, ``m`` ascending, per unordered pair
``i <= j``, for every k.  Multiplication, closure, isomorphism and
deduction read these rows.  The verifier alone needs the dense ``k*k*k``
array, which is scattered from the rows the first time it is asked for;
numpy is imported only there and in the verifier, so parsing, arithmetic
and deduction never load it.

The verifier.  Every axiom check except associativity is one comparison
of the dense array with a permuted copy of itself.  Associativity is
decided in one of three ways:

* Light's test, in float64.  Let M be the largest structure constant.
  A coefficient of ``(b_x b_g) b_y`` or ``b_x (b_g b_y)`` is a sum of k
  products of two constants, so every partial sum of it is a nonnegative
  integer at most ``k * M**2``.  Below ``2**53`` each such integer is a
  float64, so a BLAS matmul returns it exactly in any summation order.
  Light's lemma (Clifford & Preston, *The Algebraic Theory of Semigroups*
  I, 1.2): the set ``S`` of ``a`` with ``(x a) y = x (a y)`` for all x, y
  is a subspace closed under products, since for ``a, b`` in ``S``::

      (x (ab)) y = ((x a) b) y      a in S
                 = (x a)(b y)       b in S
                 = x (a (b y))      a in S
                 = x ((ab) y)       b in S

  When the identity check passes, ``1`` lies in ``S``, so if a set ``G``
  of basis elements lies in ``S`` then so does every left-normed word
  ``((1 g1) g2) ... gr`` and their span.  ``G`` is grown greedily until
  those words have rank k modulo a prime p.  Rank k mod p means some k
  word vectors have a k*k integer minor that is nonzero mod p, hence
  nonzero, so they span the algebra over Q.  Then ``|G| k^2`` triples
  ``(x, g, y)`` certify all ``k^3``.
* The full sweep, in float64 under the same bound.  It runs when the
  identity check fails or Light's test finds an unequal coefficient, one
  ``i`` at a time with two matmuls, and yields every failing
  ``(i, j, l, n)`` in lexicographic order, exactly the exact path's
  witnesses.
* The exact sweep: all ``k^3`` triples in Python integers over rows
  fetched once, with no Light shortcut.  ``force_exact`` and inputs with
  ``k * M**2 >= 2**53`` use it; it is the independent reference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "TableAlgebraError",
    "MalformedElementError",
    "BasisElement",
    "TableBasis",
    "Element",
    "format_element",
    "StructureConstants",
    "TableAlgebra",
    "CheckResult",
    "VerificationReport",
]


class TableAlgebraError(Exception):
    """Base error for structurally invalid table-algebra data."""


class MalformedElementError(TableAlgebraError):
    """An element refers to basis indices outside the algebra."""


@dataclass(frozen=True)
class BasisElement:
    index: int
    name: str
    degree: int
    dual: int

    @property
    def is_real(self) -> bool:
        return self.dual == self.index


class TableBasis:
    """Ordered basis with degrees and the involution pairing.

    The identity sits at index 0, is named ``"1"``, has degree 1 and is
    self-dual.  Optional flags record the standing hypotheses that the
    basis has no nonidentity element of degree 1 (``no_degree_one``) and
    no element of degree 2 (``no_degree_two``); when claimed they are
    enforced here.
    """

    __slots__ = ("elements", "no_degree_one", "no_degree_two", "_by_name")

    def __init__(
        self,
        elements: Sequence[BasisElement],
        *,
        no_degree_one: bool = False,
        no_degree_two: bool = False,
    ):
        elements = tuple(elements)
        if not elements:
            raise TableAlgebraError("empty basis")
        e0 = elements[0]
        if e0.index != 0 or e0.name != "1" or e0.degree != 1 or e0.dual != 0:
            raise TableAlgebraError("index 0 must be the identity '1' of degree 1, self-dual")
        names = set()
        for i, e in enumerate(elements):
            if e.index != i:
                raise TableAlgebraError(f"element {e.name!r} stored at wrong index")
            if e.name in names:
                raise TableAlgebraError(f"duplicate element name {e.name!r}")
            names.add(e.name)
            if e.degree < 1:
                raise TableAlgebraError(f"element {e.name!r} has degree < 1")
            if not (0 <= e.dual < len(elements)):
                raise TableAlgebraError(f"dual index of {e.name!r} out of range")
        for e in elements:
            d = elements[e.dual]
            if d.dual != e.index:
                raise TableAlgebraError(f"dual pairing of {e.name!r} is not an involution")
            if d.degree != e.degree:
                raise TableAlgebraError(f"{e.name!r} and its dual differ in degree")
        if no_degree_one and any(e.degree == 1 for e in elements[1:]):
            raise TableAlgebraError("basis claims no nonidentity degree-1 element but has one")
        if no_degree_two and any(e.degree == 2 for e in elements):
            raise TableAlgebraError("basis claims no degree-2 element but has one")
        self.elements = elements
        self.no_degree_one = no_degree_one
        self.no_degree_two = no_degree_two
        self._by_name = {e.name: e.index for e in elements}

    @property
    def size(self) -> int:
        return len(self.elements)

    def index_of(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise MalformedElementError(f"unknown element name {name!r}") from None

    def name(self, i: int) -> str:
        return self.elements[i].name

    def degree(self, i: int) -> int:
        return self.elements[i].degree

    def dual(self, i: int) -> int:
        return self.elements[i].dual

    def __iter__(self) -> Iterator[BasisElement]:
        return iter(self.elements)

    def __eq__(self, other) -> bool:
        return isinstance(other, TableBasis) and self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)


class Element:
    """A component: formal nonnegative integer combination of basis elements."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        clean: dict[int, int] = {}
        for i, c in items:
            if not isinstance(c, int) or isinstance(c, bool):
                raise MalformedElementError(f"coefficient of index {i} is not an integer")
            if c < 0:
                raise MalformedElementError(f"negative coefficient at index {i}")
            if c:
                clean[i] = clean.get(i, 0) + c
        self.coeffs = clean

    @classmethod
    def basis(cls, i: int) -> "Element":
        return cls({i: 1})

    @classmethod
    def zero(cls) -> "Element":
        return cls()

    def support(self) -> frozenset[int]:
        return frozenset(self.coeffs)

    def __getitem__(self, i: int) -> int:
        return self.coeffs.get(i, 0)

    def __add__(self, other: "Element") -> "Element":
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out.get(i, 0) + c
        return Element(out)

    def scaled(self, c: int) -> "Element":
        if c < 0:
            raise MalformedElementError("negative scalar")
        return Element({i: c * v for i, v in self.coeffs.items()})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Element) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def items(self):
        return self.coeffs.items()

    def __repr__(self):
        return f"Element({self.coeffs!r})"


def format_element(basis: TableBasis, terms: Iterable[tuple[int, int]]) -> str:
    """``2 b3 + x6`` form of the (index, coefficient) pairs ``terms``, by
    ascending index, with a coefficient 1 left out; ``0`` when empty.

    The one text form of an element: CLI output, deduction traces and
    ``.alg`` product lines all use it."""
    parts = []
    for m, c in sorted(terms):
        name = basis.name(m)
        parts.append(name if c == 1 else f"{c} {name}")
    return " + ".join(parts) if parts else "0"


class StructureConstants:
    """The structure constants ``delta[i][j][m]`` of a commutative algebra.

    One store serves every k: each unordered pair ``i <= j`` keeps a sparse
    row ``{m: delta[i][j][m]}`` with ``m`` ascending and zeros dropped, and
    lookups symmetrize.  ``delta()`` and ``row_items()`` read these rows.
    The constructor rejects a missing row, an index outside ``range(k)``
    and any entry that is not a nonnegative ``int`` (``bool`` included), so
    a stored table is nonnegative, integral and commutative by construction.
    ``as_numpy()`` scatters the rows into a dense array on its first call
    and caches it; building a table never pays for it.
    """

    __slots__ = ("k", "_rows", "_array")

    def __init__(self, k: int, rows: Mapping[tuple[int, int], Mapping[int, int]]):
        self.k = k
        store: dict[tuple[int, int], dict[int, int]] = {}
        for i in range(k):
            for j in range(i, k):
                row = rows.get((i, j))
                if row is None:
                    raise TableAlgebraError(f"missing structure row for pair ({i},{j})")
                for m, v in row.items():
                    # type() rather than isinstance(): bool is an int subclass
                    if type(m) is not int or not 0 <= m < k:
                        raise TableAlgebraError(f"row ({i},{j}) hits index {m} out of range")
                    if type(v) is not int or v < 0:
                        raise TableAlgebraError(f"row ({i},{j}) has a non-integer or negative entry")
                store[(i, j)] = {m: row[m] for m in sorted(row) if row[m]}
        self._rows = store
        self._array: np.ndarray | None = None

    def delta(self, i: int, j: int, m: int) -> int:
        if i > j:
            i, j = j, i
        return self._rows[(i, j)].get(m, 0)

    def row_items(self, i: int, j: int) -> Iterable[tuple[int, int]]:
        """Nonzero (m, delta[i][j][m]) pairs, m ascending."""
        if i > j:
            i, j = j, i
        return self._rows[(i, j)].items()

    def as_numpy(self) -> np.ndarray:
        """Read-only dense array ``t[i, j, m] = delta[i][j][m]``: int64, or
        dtype object (Python ints) when an entry does not fit in int64."""
        if self._array is None:
            import numpy as np

            k = self.k
            ii: list[int] = []
            jj: list[int] = []
            mm: list[int] = []
            vv: list[int] = []
            for (i, j), row in self._rows.items():
                ii += [i] * len(row)
                jj += [j] * len(row)
                mm += row.keys()
                vv += row.values()
            dtype = np.int64 if max(vv, default=0) < 2**63 else object
            t = np.zeros((k, k, k), dtype=dtype)
            v = np.array(vv, dtype=dtype)
            t[ii, jj, mm] = v
            t[jj, ii, mm] = v
            t.flags.writeable = False
            self._array = t
        return self._array

    def max_value(self) -> int:
        return max((max(row.values()) for row in self._rows.values() if row), default=0)


@dataclass
class CheckResult:
    name: str
    passed: bool
    witnesses: tuple = ()
    checked: int = 0
    seconds: float = field(default=0.0, compare=False, repr=False)

    def __str__(self):
        tag = "PASS" if self.passed else "FAIL"
        extra = "" if self.passed else f" witnesses={list(self.witnesses)!r}"
        return f"{tag} {self.name}{extra}"


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)
    # k^3: the triples whose associativity the report certifies or refutes
    associativity_triples: int = 0
    # distinct triples actually evaluated: |G| k^2 when Light's test
    # certified associativity, k^3 after a full sweep
    associativity_evaluated: int = field(default=0, compare=False)
    # names of the generating set G that certified associativity, or ()
    generators: tuple[str, ...] = field(default=(), compare=False)

    MAX_WITNESSES = 20

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> str:
        if self.ok:
            return f"PASS ({len(self.checks)} axiom classes, {self.associativity_triples} associativity triples)"
        bad = ", ".join(c.name for c in self.checks if not c.passed)
        return f"FAIL ({bad})"

    def lines(self) -> list[str]:
        return [str(c) for c in self.checks]


def _witnesses(mask: np.ndarray, limit: int | None = None) -> list[tuple[int, ...]]:
    """The true positions of ``mask`` in lexicographic order, at most ``limit``."""
    import numpy as np

    return [tuple(map(int, w)) for w in np.argwhere(mask)[:limit]]


# Modulus of the rank certificate; k * p^2 stays far below 2^63, so the
# int64 products and sums below never wrap.
_RANK_PRIME = 1_000_003


class _SpanModP:
    """Reduced row-echelon basis of a subspace of F_p^k, p = _RANK_PRIME."""

    def __init__(self, k: int):
        import numpy as np

        self.rows = np.zeros((0, k), dtype=np.int64)
        self.pivots: list[int] = []

    def insert(self, vectors: np.ndarray) -> np.ndarray:
        """Add ``vectors`` to the span; return the basis rows this added."""
        import numpy as np

        p = _RANK_PRIME
        c = vectors % p
        if self.pivots:
            c = (c - c[:, self.pivots] @ self.rows) % p
        added = []
        while True:
            nonzero = np.argwhere(c)
            if not len(nonzero):
                return np.array(added, dtype=np.int64).reshape(-1, c.shape[1])
            r, col = nonzero[0]
            row = c[r] * pow(int(c[r, col]), -1, p) % p
            c = (c - np.outer(c[:, col], row)) % p
            self.rows = np.vstack([(self.rows - np.outer(self.rows[:, col], row)) % p, row])
            self.pivots.append(int(col))
            added.append(row)


def _generating_set(t: np.ndarray) -> list[int]:
    """Basis indices G whose left-normed words ``((1 g1) g2) ... gr`` span
    the algebra modulo _RANK_PRIME, grown greedily: each new generator is
    the lowest basis index outside the current span."""
    import numpy as np

    k = t.shape[0]
    tp = t % _RANK_PRIME
    span = _SpanModP(k)
    fresh = span.insert(np.eye(1, k, dtype=np.int64))
    gens: list[int] = []
    while len(span.pivots) < k:
        if gens and len(fresh):
            # right-multiply what the last round added by every generator
            fresh = span.insert(np.concatenate([fresh @ tp[:, g, :] for g in gens]))
            continue
        g = min(set(range(k)) - set(span.pivots))
        gens.append(g)
        fresh = span.insert(span.rows @ tp[:, g, :])
    return gens


def _light_holds(tf: np.ndarray, gens: Sequence[int]) -> bool:
    """Light's test: (b_x b_g) b_y == b_x (b_g b_y) for every g in gens and
    all basis x, y, on the float64 array ``tf``."""
    import numpy as np

    k = tf.shape[0]
    # right[m, (y, n)] = t[m, y, n], which is also t[y, m, n]: the store
    # keeps one row per unordered pair, so t is symmetric in its first two axes
    right = tf.reshape(k, k * k)
    for g in gens:
        xg_y = tf[:, g, :] @ right  # [x, (y, n)]
        x_gy = (tf[g] @ right).reshape(k, k, k).transpose(1, 0, 2)  # [x, y, n]
        if not np.array_equal(xg_y.reshape(k, k, k), x_gy):
            return False
    return True


def _float_sweep(tf: np.ndarray) -> list[tuple[int, int, int, int]]:
    """Every (i, j, l, n) with ((b_i b_j) b_l)_n != (b_i (b_j b_l))_n, one
    i at a time, on the float64 array ``tf``."""
    k = tf.shape[0]
    right = tf.reshape(k, k * k)  # right[m, (l, n)] = t[m, l, n]
    pairs = tf.reshape(k * k, k)  # pairs[(j, l), m] = t[j, l, m]
    found = []
    for i in range(k):
        ij_l = (tf[i] @ right).reshape(k, k, k)  # [j, l, n]
        i_jl = (pairs @ tf[i]).reshape(k, k, k)  # [(j, l), n]
        found += [(i, *w) for w in _witnesses(ij_l != i_jl)]
    return found


class TableAlgebra:
    """Immutable table algebra: basis plus verified-on-demand structure constants."""

    def __init__(
        self,
        basis: TableBasis,
        constants: StructureConstants,
        name: str = "",
        notes: str = "",
    ):
        if constants.k != basis.size:
            raise TableAlgebraError("basis size and tensor size disagree")
        self.basis = basis
        self.constants = constants
        self.name = name
        self.notes = notes
        self._report: VerificationReport | None = None

    @property
    def size(self) -> int:
        return self.basis.size

    # -- constructors --------------------------------------------------

    @classmethod
    def from_products(
        cls,
        basis: TableBasis,
        products: Mapping[tuple[int, int], Mapping[int, int]],
        name: str = "",
        notes: str = "",
    ) -> "TableAlgebra":
        """Build from products on unordered pairs; identity rows are implied."""
        k = basis.size
        rows: dict[tuple[int, int], dict[int, int]] = {}
        for j in range(k):
            rows[(0, j)] = {j: 1}
        for (i, j), row in products.items():
            if i > j:
                i, j = j, i
            if i == 0:
                if dict(row) != {j: 1}:
                    raise TableAlgebraError(f"identity row for {basis.name(j)} is not trivial")
                continue
            rows[(i, j)] = dict(row)
        return cls(basis, StructureConstants(k, rows), name=name, notes=notes)

    @classmethod
    def from_tensor(
        cls, basis: TableBasis, tensor: Sequence[Sequence[Sequence[int]]], name: str = ""
    ) -> "TableAlgebra":
        """Build from a full k*k*k tensor, checking commutativity on the way."""
        k = basis.size
        rows: dict[tuple[int, int], dict[int, int]] = {}
        for i in range(k):
            for j in range(i, k):
                row_ij = tensor[i][j]
                row_ji = tensor[j][i]
                if list(row_ij) != list(row_ji):
                    raise TableAlgebraError(f"tensor not commutative at pair ({i},{j})")
                rows[(i, j)] = {m: v for m, v in enumerate(row_ij) if v}
        return cls(basis, StructureConstants(k, rows), name=name)

    # -- element helpers -----------------------------------------------

    def element(self, spec: Mapping[str, int] | str) -> Element:
        """Element from a name->coefficient map or a single basis name."""
        if isinstance(spec, str):
            return Element.basis(self.basis.index_of(spec))
        return Element({self.basis.index_of(n): c for n, c in spec.items()})

    def _check_element(self, x: Element) -> None:
        for i in x.coeffs:
            if not (0 <= i < self.size):
                raise MalformedElementError(f"index {i} out of range for {self.name or 'algebra'}")

    # -- the four arithmetic operations ---------------------------------

    def basis_product(self, i: int, j: int) -> Element:
        return Element(dict(self.constants.row_items(i, j)))

    def multiply(self, x: Element, y: Element) -> Element:
        """Bilinear extension of the basis products; exact and nonnegative."""
        self._check_element(x)
        self._check_element(y)
        out: dict[int, int] = {}
        for i, a in x.coeffs.items():
            for j, b in y.coeffs.items():
                ab = a * b
                for m, v in self.constants.row_items(i, j):
                    out[m] = out.get(m, 0) + ab * v
        return Element(out)

    def conjugate(self, x: Element) -> Element:
        self._check_element(x)
        return Element({self.basis.dual(i): c for i, c in x.coeffs.items()})

    def inner(self, x: Element, y: Element) -> int:
        """Hermitian form with the basis orthonormal: sum of coefficient products."""
        self._check_element(x)
        self._check_element(y)
        if len(y.coeffs) < len(x.coeffs):
            x, y = y, x
        return sum(c * y.coeffs.get(i, 0) for i, c in x.coeffs.items())

    def degree_of(self, x: Element) -> int:
        self._check_element(x)
        return sum(c * self.basis.degree(i) for i, c in x.coeffs.items())

    # -- verification ----------------------------------------------------

    def verify_axioms(self, *, force_exact: bool = False) -> VerificationReport:
        """Run every axiom class and certify associativity on all k^3 triples.

        Failures become report entries with witnesses, never exceptions;
        each check keeps its first ``MAX_WITNESSES`` witnesses in
        lexicographic order.  Nonnegativity, integrality and commutativity
        hold by construction of ``StructureConstants`` and are reported
        without a rescan.  Identity, involution, degree-homomorphism and
        normalization-symmetry compare the dense array with a permuted copy
        of itself.  Associativity is certified by Light's test on a
        generating set when the float64 bound k*max^2 < 2^53 holds and the
        identity check passed; a failing Light test runs the full k^3 sweep
        in float64 matmuls.  ``force_exact`` and inputs outside the bound
        run the pure-Python sweep instead (see the module docstring).
        """
        import numpy as np

        basis, k = self.basis, self.size
        rep = VerificationReport()
        maxw = VerificationReport.MAX_WITNESSES
        t = self.constants.as_numpy()
        top_entry = self.constants.max_value()
        duals = np.array([e.dual for e in basis])
        upper = np.triu(np.ones((k, k), dtype=bool))

        lap = time.perf_counter()

        def record(name, witnesses, checked=0):
            # a check's time runs from the previous record to this one
            nonlocal lap
            now = time.perf_counter()
            rep.checks.append(
                CheckResult(name, not witnesses, tuple(witnesses[:maxw]), checked, seconds=now - lap)
            )
            lap = now

        record("nonnegativity", [])
        record("integrality", [])

        row0 = t[0]
        eye = np.eye(k, dtype=bool)
        bad = [(0, j, m) for j, m in _witnesses((row0 != 0) & ~(eye & (row0 == 1)), maxw)]
        bad += [(0, j, j) for (j,) in _witnesses(np.diagonal(row0) != 1, maxw)]
        record("identity", bad)

        record("commutativity", [])

        mask = (t != t[np.ix_(duals, duals, duals)]) & upper[:, :, None]
        record("involution", _witnesses(mask, maxw))

        degs = [e.degree for e in basis]
        top = max(degs)
        # Python ints wherever an int64 degree sum could wrap
        dtype = np.int64 if max(k * top_entry * top, top * top) < 2**63 else object
        dv = np.array(degs, dtype=dtype)
        mask = ((t.astype(dtype, copy=False) @ dv) != np.outer(dv, dv)) & upper
        record("degree-homomorphism", _witnesses(mask, maxw))

        record("normalization-symmetry", _witnesses(t != t[duals].transpose(2, 0, 1), maxw))

        triples = k**3
        gens: list[int] = []
        if force_exact or k * top_entry**2 >= 2**53:
            witnesses = self._exact_sweep()
        else:
            tf = t.astype(np.float64)
            if rep.check("identity").passed:
                gens = _generating_set(t)
            if gens and _light_holds(tf, gens):
                witnesses = []
            else:
                gens = []
                witnesses = _float_sweep(tf)
        rep.associativity_triples = triples
        rep.associativity_evaluated = len(gens) * k * k if gens else triples
        rep.generators = tuple(basis.name(g) for g in gens)
        record("associativity", witnesses, checked=triples)
        return rep

    def _exact_sweep(self) -> list[tuple[int, int, int, int]]:
        """Every (i, j, l, n) with ((b_i b_j) b_l)_n != (b_i (b_j b_l))_n,
        in Python integers over rows fetched once."""
        k = self.size
        rows = [[list(self.constants.row_items(i, j)) for j in range(k)] for i in range(k)]
        found = []
        for i in range(k):
            row_i = rows[i]
            for j in range(k):
                row_ij, row_j = row_i[j], rows[j]
                for l in range(k):
                    lhs: dict[int, int] = {}
                    for m, v in row_ij:
                        for n, w in rows[m][l]:
                            lhs[n] = lhs.get(n, 0) + v * w
                    rhs: dict[int, int] = {}
                    for m, v in row_j[l]:
                        for n, w in row_i[m]:
                            rhs[n] = rhs.get(n, 0) + v * w
                    if lhs != rhs:
                        found.extend(
                            (i, j, l, n)
                            for n in sorted(lhs.keys() | rhs.keys())
                            if lhs.get(n, 0) != rhs.get(n, 0)
                        )
        return found

    def verified(self) -> VerificationReport:
        """Cached verification report (immutable algebra, computed once)."""
        if self._report is None:
            self._report = self.verify_axioms()
        return self._report

    def __repr__(self):
        return f"TableAlgebra({self.name or '?'}, k={self.size})"
