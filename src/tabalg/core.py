"""Exact representation of table algebras over a distinguished integer basis.

A table algebra is stored as an ordered basis (index 0 is the identity,
every element carries a positive integer degree and a dual partner) plus
the nonnegative integer structure constants ``delta[i][j][m]``, the
coefficient of ``b_m`` in ``b_i * b_j``.  All arithmetic is exact;
scalars are Python integers.

One table.  ``StructureConstants.rows`` is the k x k table of product
rows: ``rows[i][j]`` is the sparse row ``{m: delta[i][j][m]}``, ``m``
ascending and zeros dropped, and ``rows[i][j] is rows[j][i]``.  It is built
and validated once and never mutated.  Multiplication, closure,
isomorphism, serialization and the verifier all index it; the deduction
engine freezes its completed products into rows of the same form, and an
element is a row of that form too, checked by ``TableBasis.row``.  Nothing
builds a dense array.

The verifier.  Identity, involution, degree-homomorphism and
normalization-symmetry walk the rows.  A symmetry check compares each
nonzero entry with its image, ``(ibar, jbar, mbar)`` or ``(jbar, m, i)`` for
``(i, j, m)``, read in place.  A symmetry permutes the positions, so the
cycle of a zero entry with a nonzero image reaches a nonzero entry whose
image differs: that one side proves a pass, and only a failure reads the
positions whose image is nonzero too, to list every witness.
Associativity is certified by Light's test and refuted by the exact sweep,
both summing the same packed rows in exact integers:

* Packing.  Kronecker substitution packs each row ``rows[i][j]`` into one
  Python int, ``delta[i][j][n]`` in w bytes at field n.  Both tests sum
  packed rows ``packed[a][m]`` scaled by the constants ``c_m`` of one
  row; field n of such a sum is a sum of nonnegative terms at most
  (largest row sum) * (largest entry).  w is chosen so a field holds that
  bound; as no term is negative, no partial sum exceeds it either, so no
  field ever carries into the next and the big-integer sum is exact.
  ``verify_axioms`` packs at most once: the sweep after a failed Light
  attempt reuses the rows it packed.
* Light's test.  ``T_m`` joins the packed rows ``packed[m][a]`` into the
  k x k matrix ``delta[m][a][n]``.  For a basis element g, ``W_z = sum_m
  delta[g][z][m] T_m`` holds in its field ``(a, n)`` the coefficient of
  ``b_n`` in ``(b_z b_g) b_a``.  By commutativity block y of ``W_x`` is
  ``(b_x b_g) b_y`` and block x of ``W_y`` is ``b_x (b_g b_y)``, so one
  byte comparison of the blocks after x in ``W_x`` with block x of every
  later ``W_y`` decides the triples ``(x, g, y)``, ``(y, g, x)`` for
  every y > x.  The ``W_z`` are made from the last z down, each keeping
  only its blocks below z, which are all that smaller x still compare.
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
* The exact sweep runs when the identity check fails or Light's test finds
  an unequal block; Light's attempt then leaves only its packed rows.  The
  table is commutative by construction, so with ``R(x, {y, z}) = b_x (b_y
  b_z) = sum_m delta[y][z][m] b_x b_m``, ``(b_i b_j) b_l = R(l, {i, j})``
  and ``b_i (b_j b_l) = R(i, {j, l})``.  Each R is the sum of the packed
  rows ``packed[x][m]`` scaled by ``delta[y][z][m]``, within the bound
  above, and the fields where two unequal sums differ are read from their
  bytes.  On a multiset ``x <= y <= z`` the values A, B, C of R at x, y, z
  decide every ordering: A != C fails (x, y, z) and (z, y, x), A != B (x,
  z, y) and (y, z, x), B != C (y, x, z) and (z, x, y); with a repeated
  index only A != C is left, and i = l associates.  That is about k^2 (k +
  1) / 2 row sums, against 2 k^3 for ordered triples one at a time.
  Failures wait under their first index until layer x (the multisets of
  least index x) is done; then first index x is complete and is yielded in
  lexicographic order, so the verifier can stop the sweep at the
  ``MAX_WITNESSES``-th witness.  When every ``b_0 b_j`` row is exactly
  ``b_j``, layer 0 is skipped: each triple holding index 0 then
  associates.

The sweep's cost.  A triple whose first factor lies in the left nucleus
(the ``a`` with ``(a x) y = a (x y)`` for all x, y) always associates, so
the first layer to yield is the lowest index outside the nucleus.  A
stopped sweep finishes the whole layer of its ``MAX_WITNESSES``-th
witness: layer 1 on the printed B32 and its tensor products.  An input
with fewer witnesses, or whose failures all have a high first index,
pays the full sweep: 0.11 to 0.22 s for Z2 x B32 (k = 64) on a shared
2-CPU Xeon.

``force_exact`` runs the exact sweep on every input, passing or failing:
all ``k^3`` triples when associativity holds, on the packed rows but with
no Light shortcut.
"""

from __future__ import annotations

import sys
import time
from itertools import islice
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

__all__ = [
    "TableAlgebraError",
    "MalformedElementError",
    "BasisElement",
    "TableBasis",
    "format_element",
    "StructureConstants",
    "TableAlgebra",
    "CheckResult",
    "VerificationReport",
]


class TableAlgebraError(Exception):
    """Base error for structurally invalid table-algebra data."""


class MalformedElementError(TableAlgebraError):
    """A reference outside the basis, or a coefficient not a nonnegative int."""


class BasisElement(NamedTuple):
    index: int
    name: str
    degree: int
    dual: int


class TableBasis:
    """Ordered basis with degrees and the involution pairing.

    The identity sits at index 0, is named ``"1"``, has degree 1 and is
    self-dual.  Degrees are read from the elements; a hypothesis on them,
    such as the paper's "no nonidentity element of degree 1 or 2", is a
    property of the listed degrees, not a setting of the basis.
    """

    __slots__ = ("elements", "_by_name")

    def __init__(self, elements: Sequence[BasisElement]):
        elements = tuple(elements)
        if not elements:
            raise TableAlgebraError("empty basis")
        e0 = elements[0]
        if e0.index != 0 or e0.name != "1" or e0.degree != 1 or e0.dual != 0:
            raise TableAlgebraError("index 0 must be the identity '1' of degree 1, self-dual")
        by_name: dict[str, int] = {}
        for i, e in enumerate(elements):
            # type() rather than isinstance(): bool is an int subclass
            if type(e.index) is not int or type(e.degree) is not int or type(e.dual) is not int:
                raise TableAlgebraError(f"element {e.name!r} has an index, degree or dual that is not an int")
            if e.index != i:
                raise TableAlgebraError(f"element {e.name!r} stored at wrong index")
            if e.name in by_name:
                raise TableAlgebraError(f"duplicate element name {e.name!r}")
            by_name[e.name] = i
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
        self.elements = elements
        self._by_name = by_name

    @property
    def size(self) -> int:
        return len(self.elements)

    def index_of(self, ref: str | int) -> int:
        """The index of a basis element given by its name or by its index, an
        ``int`` in ``range(size)``: the one resolver of element references.
        Anything else, ``bool`` included, raises MalformedElementError."""
        if type(ref) is int and 0 <= ref < len(self.elements):
            return ref
        if isinstance(ref, str) and ref in self._by_name:
            return self._by_name[ref]
        raise MalformedElementError(f"unknown element {'name' if isinstance(ref, str) else 'index'} {ref!r}")

    def row(self, coeffs: Mapping[str | int, int]) -> dict[int, int]:
        """The checked row of ``coeffs``: keys resolved by ``index_of``, ascending, zeros dropped.
        An element given twice or a coefficient not a nonnegative ``int`` is malformed."""
        out: dict[int, int] = {}
        for ref, v in coeffs.items():
            i = self.index_of(ref)
            if i in out:
                raise MalformedElementError(f"row names an element twice: {self.name(i)}")
            # type() rather than isinstance(): bool is an int subclass
            if type(v) is not int or v < 0:
                raise MalformedElementError(f"coefficient {v!r} of {self.name(i)} is not a nonnegative int")
            out[i] = v
        return {i: out[i] for i in sorted(out) if out[i]}

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


# rows[i][j] is the {m: delta[i][j][m]} row of the ordered pair (i, j)
_Rows = Sequence[Sequence[dict[int, int]]]


def _row_fault(i: int, j: int, row: Mapping[int, int], k: int) -> str:
    """What is wrong with the first bad entry of ``row``, in the row's own order."""
    for m, v in row.items():
        if type(m) is not int or not 0 <= m < k:
            return f"row ({i},{j}) hits index {m} out of range"
        if type(v) is not int or v < 0:
            return f"row ({i},{j}) has a non-integer or negative entry"
    raise AssertionError("row has no bad entry")


class StructureConstants:
    """The structure constants ``delta[i][j][m]`` of a commutative algebra.

    ``rows[i][j]`` is the row ``{m: delta[i][j][m]}`` of the ordered pair
    ``(i, j)``, ``m`` ascending and zeros dropped, and ``rows[i][j] is
    rows[j][i]``.  The constructor reads the row of each unordered pair
    ``i <= j`` from ``rows`` and copies it in a single checking pass: it
    sorts the row's keys once, then checks each key and its value and
    keeps the nonzero ones.  It rejects a missing row, an index outside
    ``range(k)`` and any entry that is not a nonnegative ``int`` (``bool``
    included), naming the first bad entry in the row's own order, so the
    table is nonnegative, integral and commutative by construction.  No
    caller may mutate it.
    """

    __slots__ = ("k", "rows")

    def __init__(self, k: int, rows: Mapping[tuple[int, int], Mapping[int, int]]):
        self.k = k
        table: list[list] = [[None] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                row = rows.get((i, j))
                if row is None:
                    raise TableAlgebraError(f"missing structure row for pair ({i},{j})")
                try:
                    keys = sorted(row)
                except TypeError:  # keys that do not compare: some key is not an int
                    raise TableAlgebraError(_row_fault(i, j, row, k)) from None
                copy = {}
                for m in keys:
                    v = row[m]
                    # type() rather than isinstance(): bool is an int subclass
                    if type(m) is not int or not 0 <= m < k or type(v) is not int or v < 0:
                        raise TableAlgebraError(_row_fault(i, j, row, k))
                    if v:
                        copy[m] = v
                table[i][j] = table[j][i] = copy
        self.rows: tuple[tuple[dict[int, int], ...], ...] = tuple(map(tuple, table))

    def delta(self, i: int, j: int, m: int) -> int:
        """``rows[i][j].get(m, 0)``; ``perfbench/`` is its last caller."""
        return self.rows[i][j].get(m, 0)

    def row_items(self, i: int, j: int) -> Iterable[tuple[int, int]]:
        """Nonzero (m, delta[i][j][m]) pairs, m ascending:
        ``rows[i][j].items()``; ``perfbench/`` is its last caller."""
        return self.rows[i][j].items()


class CheckResult(NamedTuple):
    """One axiom class: pass or fail and its first witnesses.

    A witness is a tuple of basis indices, and ``delta[i][j][m]`` is the
    coefficient of ``b_m`` in ``b_i b_j``:

    * identity ``(0, j, m)``: ``delta[0][j][m]`` is not 1 at ``m = j``
      and 0 elsewhere;
    * involution ``(i, j, m)``, ``i <= j``: ``delta[i][j][m] !=
      delta[ibar][jbar][mbar]``;
    * degree-homomorphism ``(i, j)``, ``i <= j``: the degree of
      ``b_i b_j``, ``sum_m delta[i][j][m] deg(b_m)``, is not
      ``deg(b_i) deg(b_j)``;
    * normalization-symmetry ``(i, j, m)``: ``delta[i][j][m] !=
      delta[jbar][m][i]``;
    * associativity ``(i, j, l, n)``: the coefficient of ``b_n`` in
      ``(b_i b_j) b_l`` and in ``b_i (b_j b_l)`` differ.

    Nonnegativity, integrality and commutativity hold by construction of
    ``StructureConstants`` and have no witnesses.
    """

    name: str
    passed: bool
    witnesses: tuple = ()

    def __str__(self):
        tag = "PASS" if self.passed else "FAIL"
        extra = "" if self.passed else f" witnesses={list(self.witnesses)!r}"
        return f"{tag} {self.name}{extra}"


class VerificationReport:
    """The checks of one ``verify_axioms`` run.  ``==`` compares the checks
    and ``associativity_triples`` only: how associativity was certified
    (``associativity_evaluated``, ``generators``) and how long each check
    took (``seconds``) are left out."""

    def __init__(self, checks: list[CheckResult] | None = None, associativity_triples: int = 0,
                 associativity_evaluated: int = 0, generators: tuple[str, ...] = ()):
        self.checks = [] if checks is None else checks
        # k^3: the triples whose associativity the report certifies or refutes
        self.associativity_triples = associativity_triples
        # distinct triples actually evaluated: |G| k^2 when Light's test
        # certified associativity; after the exact sweep, the lexicographic
        # rank of the triple of its MAX_WITNESSES-th witness plus 1, or k^3
        # when it found fewer.  A discarded Light attempt is not counted.
        self.associativity_evaluated = associativity_evaluated
        # names of the generating set G that certified associativity, or ()
        self.generators = generators
        # check name -> seconds it took
        self.seconds: dict[str, float] = {}

    def __eq__(self, other):
        if type(other) is not VerificationReport:
            return NotImplemented
        return (self.checks, self.associativity_triples) == (other.checks, other.associativity_triples)

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


# Modulus of the rank certificate.  Span vectors are packed 64 bits per
# coordinate: a coordinate starts below k p^2 (a product of a reduced row by
# a reduced structure row) and reduction adds below k p^2 more, so no field
# carries while 2 k p^2 < 2^64, that is for k below eight million.
_RANK_PRIME = 1_000_003
_FIELD64 = (1 << 64) - 1


def _fields64(x: int, k: int) -> Sequence[int]:
    """The k 64-bit fields of x, lowest first."""
    fields = memoryview(x.to_bytes(8 * k, sys.byteorder)).cast("Q")
    return fields if sys.byteorder == "little" else fields[::-1]


class _SpanModP:
    """Echelon basis of a subspace of F_p^k, p = _RANK_PRIME.

    Each row is 1 at its pivot and 0 at the pivot of every earlier row, so
    reducing a vector against the rows in order clears every pivot.  A new
    pivot is the first nonzero coordinate of a reduced vector.  Any such
    coordinate is the leading position of some vector of the span, so the
    pivot set of a span is the same whatever order its vectors arrive in.
    """

    def __init__(self, k: int):
        self.k = k
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        self._negated: list[tuple[int, int]] = []  # (64 * pivot, packed -row mod p)

    def insert(self, vectors: Iterable[int]) -> list[list[int]]:
        """Add the packed ``vectors`` to the span; return the rows this added."""
        p, k = _RANK_PRIME, self.k
        added = []
        for acc in vectors:
            if len(self.pivots) == k:
                break
            for shift, negated in self._negated:
                c = (acc >> shift & _FIELD64) % p
                if c:
                    acc += c * negated
            v = [x % p for x in _fields64(acc, k)]
            lead = next((n for n, x in enumerate(v) if x), None)
            if lead is None:
                continue
            inv = pow(v[lead], -1, p)
            row = [x * inv % p for x in v]
            self.rows.append(row)
            self.pivots.append(lead)
            self._negated.append((64 * lead, sum(-x % p << 64 * n for n, x in enumerate(row))))
            added.append(row)
        return added


def _generating_set(rows: _Rows) -> list[int]:
    """Basis indices G whose left-normed words ``((1 g1) g2) ... gr`` span
    the algebra modulo _RANK_PRIME, grown greedily: each new generator is
    the lowest basis index outside the current span.

    Call it only when the identity check passed: then ``1 b_g = b_g``
    adds g as a pivot, so every generator grows the span and the loop
    ends."""
    p, k = _RANK_PRIME, len(rows)
    span = _SpanModP(k)
    packed: dict[int, list[int]] = {}  # g -> rows (a, g) reduced mod p, packed

    def times(v: list[int], g: int) -> int:
        right = packed[g]
        return sum(c * right[a] for a, c in enumerate(v) if c)

    fresh = span.insert([1])  # the word 1, packed
    gens: list[int] = []
    while len(span.pivots) < k:
        # products are made lazily: insert stops once the span is full
        if gens and fresh:
            # right-multiply what the last round added by every generator
            fresh = span.insert(times(v, g) for g in gens for v in fresh)
            continue
        g = min(set(range(k)) - set(span.pivots))
        gens.append(g)
        packed[g] = [sum(x % p << 64 * n for n, x in r[g].items()) for r in rows]
        fresh = span.insert(times(v, g) for v in span.rows[:])
    return gens


def _packed_rows(constants: StructureConstants) -> tuple[list[list[int]], int]:
    """Every row packed into one int, and the field width w in bytes.

    ``packed[i][j]`` holds ``delta[i][j][n]`` in its bytes ``[n w, (n + 1)
    w)``, and ``packed[i][j] is packed[j][i]``.  Light's test and the exact
    sweep both sum ``sum_m c_m packed[a][m]`` with ``c`` a row of the
    table: its field n is a sum of nonnegative terms at most (largest row
    sum) * (largest entry), and w bytes hold that, so no sum carries from
    one field into the next."""
    k, rows = constants.k, constants.rows
    halves = [rows[i][i:] for i in range(k)]
    values = [row.values() for half in halves for row in half]
    top_entry = max(map(max, filter(None, values)), default=0)
    width = max(1, ((max(map(sum, values)) * top_entry).bit_length() + 7) // 8)
    bits = 8 * width
    packed = [[0] * k for _ in range(k)]
    for i, half in enumerate(halves):
        for j, row in enumerate(half, i):
            p = 0
            for n, v in row.items():
                p |= v << bits * n  # each v fits its field, so | adds
            packed[i][j] = packed[j][i] = p
    return packed, width


def _right_product(store: list[int], row: dict[int, int], size: int) -> bytes:
    """``W = sum_m row[m] T_m`` as ``size`` bytes; for ``row = rows[g][z]``
    block a of ``W`` is ``(b_z b_g) b_a``, field n its coefficient of ``b_n``."""
    # most constants are 1, and 1 * T_m would copy T_m for nothing
    return sum(store[m] if v == 1 else v * store[m] for m, v in row.items()).to_bytes(size, "little")


def _light_holds(packed: list[list[int]], width: int, rows: _Rows, gens: Sequence[int]) -> bool:
    """Light's test on the packed rows: (b_x b_g) b_y == b_x (b_g b_y) for
    every g in gens and all basis x, y.  False at the first unequal block."""
    k = len(rows)
    stride = k * width
    # T_m packs the k x k matrix delta[m][a][n]: block a is the row packed[m][a]
    store = [int.from_bytes(b"".join(p.to_bytes(stride, "little") for p in row), "little") for row in packed]
    for g in gens:
        lower = [b""] * k  # lower[y]: the blocks below y of W_y
        for x in range(k - 1, -1, -1):
            wx = _right_product(store, rows[g][x], k * stride)
            lo = x * stride
            # block y of W_x is (b_x b_g) b_y, block x of W_y is b_x (b_g b_y):
            # one comparison covers every y > x
            if wx[lo + stride :] != b"".join(wy[lo : lo + stride] for wy in lower[x + 1 :]):
                return False
            lower[x] = wx[:lo]
    return True


class TableAlgebra:
    """Immutable table algebra: basis plus verified-on-demand structure
    constants.  Arithmetic is ``multiply`` and ``inner`` on rows, checked by
    ``TableBasis.row``; the product of basis elements i and j is the row
    ``constants.rows[i][j]``."""

    def __init__(
        self,
        basis: TableBasis,
        constants: StructureConstants,
        name: str = "",
    ):
        if constants.k != basis.size:
            raise TableAlgebraError("basis size and structure-constant size disagree")
        self.basis = basis
        self.constants = constants
        self.name = name
        self._report: VerificationReport | None = None

    @property
    def size(self) -> int:
        return self.basis.size

    # -- constructor -----------------------------------------------------

    @classmethod
    def from_products(
        cls,
        basis: TableBasis,
        products: Mapping[tuple[int, int], Mapping[int, int]],
        name: str = "",
    ) -> "TableAlgebra":
        """Build from products on unordered pairs; identity rows are implied."""
        k = basis.size
        rows = {(0, j): {j: 1} for j in range(k)}
        for (i, j), row in products.items():
            if i > j:
                i, j = j, i
            if i:
                rows[(i, j)] = row
            elif row != {j: 1}:
                raise TableAlgebraError(f"identity row for {basis.name(j)} is not trivial")
        return cls(basis, StructureConstants(k, rows), name=name)

    # -- arithmetic: product and inner product ---------------------------

    def multiply(self, x: Mapping[str | int, int], y: Mapping[str | int, int]) -> dict[int, int]:
        """Bilinear extension of the basis products, as a row; exact and nonnegative."""
        x, y = self.basis.row(x), self.basis.row(y)
        rows = self.constants.rows
        out: dict[int, int] = {}
        for i, a in x.items():
            for j, b in y.items():
                ab = a * b
                for m, v in rows[i][j].items():
                    out[m] = out.get(m, 0) + ab * v
        return {m: out[m] for m in sorted(out)}

    def inner(self, x: Mapping[str | int, int], y: Mapping[str | int, int]) -> int:
        """Hermitian form with the basis orthonormal: sum of coefficient products."""
        x, y = self.basis.row(x), self.basis.row(y)
        if len(y) < len(x):
            x, y = y, x
        return sum(c * y.get(i, 0) for i, c in x.items())

    # -- verification ----------------------------------------------------

    def verify_axioms(self, *, force_exact: bool = False) -> VerificationReport:
        """Run every axiom class and certify associativity on all k^3 triples.

        Failures become report entries with witnesses, never exceptions;
        each check keeps its first ``MAX_WITNESSES`` witnesses in
        lexicographic order.  Nonnegativity, integrality and commutativity
        hold by construction of ``StructureConstants`` and are reported
        without a rescan.  Identity, involution, degree-homomorphism and
        normalization-symmetry walk the sparse rows; a symmetry check reads
        only the images of the nonzero entries to prove a pass (the module
        docstring says why) and the other side to list a failure's witnesses.
        Associativity has one source of witnesses, the exact sweep, stopped
        at the ``MAX_WITNESSES``-th.  When the identity check passed and
        ``force_exact`` is off, Light's test on the packed rows is tried
        first; if it certifies associativity there are no witnesses and no
        sweep, and if not the sweep reuses its rows.  ``force_exact``
        always runs the sweep.  After a sweep,
        ``associativity_evaluated`` counts the lexicographic prefix of
        triples through the ``MAX_WITNESSES``-th witness's, each of them
        decided, or k^3.  The module docstring states the sweep's worst case.
        """
        basis, k = self.basis, self.size
        rep = VerificationReport()
        maxw = VerificationReport.MAX_WITNESSES
        rows = self.constants.rows
        dual = [e.dual for e in basis]
        deg = [e.degree for e in basis]

        lap = time.perf_counter()

        def record(name, witnesses):
            # a check's time runs from the previous record to this one
            nonlocal lap
            witnesses = list(islice(witnesses, maxw))
            now = time.perf_counter()
            rep.checks.append(CheckResult(name, not witnesses, tuple(witnesses)))
            rep.seconds[name] = now - lap
            lap = now
            return witnesses

        record("nonnegativity", ())
        record("integrality", ())

        # b_0 b_j = b_j: delta[0][j][m] is 1 at m = j and 0 elsewhere
        row0 = rows[0]
        record(
            "identity",
            ((0, j, m) for j in range(k) for m in sorted({j, *row0[j]}) if row0[j].get(m, 0) != (m == j)),
        )

        record("commutativity", ())

        def unequal(nonzero, image_nonzero):
            # the positions whose nonzero entry differs from its image prove a
            # pass alone; a failure adds those whose nonzero image differs
            bad = set(nonzero)
            if bad:
                bad.update(image_nonzero())
            return sorted(bad)

        # delta[i][j][m] = delta[ibar][jbar][mbar], i <= j
        record("involution", unequal(
            ((i, j, m) for i in range(k) for j in range(i, k)
             for m, v in rows[i][j].items() if rows[dual[i]][dual[j]].get(dual[m], 0) != v),
            lambda: ((i, j, dual[m]) for i in range(k) for j in range(i, k)
                     for m, v in rows[dual[i]][dual[j]].items() if rows[i][j].get(dual[m], 0) != v),
        ))

        record(
            "degree-homomorphism",
            (
                (i, j)
                for i in range(k)
                for j in range(i, k)
                if sum(v * deg[m] for m, v in rows[i][j].items()) != deg[i] * deg[j]
            ),
        )

        # delta[i][j][m] = delta[jbar][m][i]: delta[a][m][i] is the image of (i, abar, m)
        record("normalization-symmetry", unequal(
            ((i, j, m) for i in range(k) for j in range(k)
             for m, v in rows[i][j].items() if rows[dual[j]][m].get(i, 0) != v),
            lambda: ((i, dual[a], m) for a in range(k) for m in range(k)
                     for i, v in rows[a][m].items() if rows[i][dual[a]].get(m, 0) != v),
        ))

        triples = k**3
        gens: list[int] = []
        packing = None
        if not force_exact and rep.check("identity").passed:
            gens = _generating_set(rows)
            if gens:
                packing = _packed_rows(self.constants)
                if not _light_holds(*packing, rows, gens):
                    gens = []
        witnesses = record("associativity", () if gens else self._exact_sweep(packing))
        rep.associativity_triples = triples
        if gens:
            rep.associativity_evaluated = len(gens) * k * k
        elif len(witnesses) == maxw:
            i, j, l, _ = witnesses[-1]
            rep.associativity_evaluated = (i * k + j) * k + l + 1
        else:
            rep.associativity_evaluated = triples
        rep.generators = tuple(basis.name(g) for g in gens)
        return rep

    def _exact_sweep(self, packing: tuple[list[list[int]], int] | None = None) -> Iterator[tuple[int, int, int, int]]:
        """Every (i, j, l, n) with ((b_i b_j) b_l)_n != (b_i (b_j b_l))_n,
        lazily and in lexicographic order, layer by layer over the multisets
        ``x <= y <= z`` as the module docstring derives.  Each R is an exact
        sum of the rows ``packing`` (``_packed_rows``, built here when None)
        scaled by a row's dict; an unequal pair's fields are compared in its
        bytes.  The caller stops it at enough witnesses."""
        k, rows = self.size, self.constants.rows
        packed, width = _packed_rows(self.constants) if packing is None else packing
        size = k * width
        # an exact identity row makes every multiset holding 0 associate
        start = int(all(r == {j: 1} for j, r in enumerate(rows[0])))
        pending: dict[int, list[tuple[int, int, int]]] = {}  # first index -> (j, l, n)

        def fail(p: int, q: int, i: int, j: int, l: int) -> None:
            # p != q: (i, j, l) and (l, j, i) fail at each field n where they differ
            diff = (p ^ q).to_bytes(size, "little")
            ns = {b // width for b, d in enumerate(diff) if d}
            pending.setdefault(i, []).extend((j, l, n) for n in ns)
            pending.setdefault(l, []).extend((j, i, n) for n in ns)

        for x in range(start, k):
            packed_x, row_x = packed[x], rows[x]
            for y in range(x, k):
                packed_y, row_y, pair_xy = packed[y], rows[y], row_x[y]
                for z in range(y + (x == y), k):
                    # A = R(x, {y, z}), B = R(y, {x, z}), C = R(z, {x, y}); as
                    # in Light's test, a constant 1 costs no multiplication
                    packed_z = packed[z]
                    a = sum([packed_x[m] if v == 1 else v * packed_x[m] for m, v in row_y[z].items()])
                    c = sum([packed_z[m] if v == 1 else v * packed_z[m] for m, v in pair_xy.items()])
                    if a != c:
                        fail(a, c, x, y, z)
                    if x < y < z:
                        b = sum([packed_y[m] if v == 1 else v * packed_y[m] for m, v in row_x[z].items()])
                        if a != b:
                            fail(a, b, x, z, y)
                        if b != c:
                            fail(b, c, y, x, z)
            for j, l, n in sorted(pending.pop(x, ())):
                yield x, j, l, n

    def verified(self) -> VerificationReport:
        """Cached verification report (immutable algebra, computed once)."""
        if self._report is None:
            self._report = self.verify_axioms()
        return self._report

    def __repr__(self):
        return f"TableAlgebra({self.name or '?'}, k={self.size})"
