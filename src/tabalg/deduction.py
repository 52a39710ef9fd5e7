"""Product-table completion over a fixed basis.

A partial table holds exact per-coefficient knowledge for every unordered
pair of basis elements.  Propagation closes it under four rule families,
mirroring the lemma calculus used to pin down such algebras by hand:

  R1  degree bookkeeping: a product whose remainder reaches degree zero
      has zeros in every unknown cell.
  R2  the normalized-basis symmetry (b_m, b_i b_j) = (b_i, b_jbar b_m):
      every known coefficient transports around its symmetry orbit, which
      also keeps commutativity and the involution closure maintained.
      Each orbit is transported once: a bitmask per pair marks the
      positions of the orbits transported, and a queued coefficient whose
      position is marked is skipped before its orbit is computed.
  R3  associativity: a triple whose two bracketings expand with exactly
      one unknown product of unit coefficient solves that product as an
      exact difference; a negative difference is a contradiction.
  R4  inner products: the square budget (xy, xy) = (x xbar, y ybar) and the
      reality mass (xy, xbar ybar) = (y y, xbar xbar) of a pending product xy
      are read from known products via (ab, cd) = (b dbar, abar c); a
      remainder whose constraints force a single decomposition resolves.

Every firing completes one pending product, so a run makes at most one
step per product pending at seed and needs no step budget.

Propagation itself only ever writes forced values.  The optional rule N,
naming, additionally models the working convention of christening a new
constituent ("let x be such that ..."): when the candidate decompositions
of a remainder differ only by a degree- and duality-respecting relabeling
of the basis that fixes every already-determined coefficient, the
least-indexed assignment is chosen, newest products first.  Conclusions
about already-distinguished elements are unaffected; only the naming of
so-far-indistinguishable ones is convention: the relabeling is a symmetry
of the current knowledge, and N breaks it.  N runs only when R4 fires on
no product, and only on the products R4's latest scan found ambiguous, so
it searches nothing itself.  ``_canonical_naming(table, solutions)`` is
its policy, a module function over the table alone.

Frozen rows.  A product never changes once all its coefficients are
known, so at that moment it is frozen into a row ``{m: v}``, ``m``
ascending and zeros dropped (``PartialTable.rows``): the form of the rows
of ``StructureConstants.rows``, so a completed table becomes an algebra
without a conversion.  The rules, the inner products and the trace read
these rows, and nothing mutates one once frozen.

The R3 agenda.  A triple T = (i, j, l) says (b_i b_j) b_l = b_i (b_j b_l);
expanding both sides writes it over the products (m, l) for m in b_i b_j
and (i, m) for m in b_j b_l.  T is *activated* when (i, j) and (j, l) are
both known; from then on the net coefficient of every product in its
expansion is fixed.  A product whose contributions cancel to a net
coefficient 0 drops out of T at activation: R3 ignores it.  R3 can fire
only on a T with exactly one unknown product, of net coefficient +-1, and
solves that product as an exact difference.  A T activated with every
product known can never fire: it is counted but not stored, and its
associativity is left to the certificate.  Every other activated T is
stored as its indices and the count of its unknown products, and listed
under each of them; after every sync the count is exact.  A product
becoming known lowers the count of every triple listed under it, and T
goes on the agenda when its count is one at activation or falls to one.
So every triple is evaluated once, as soon as it has one unknown product;
one whose count reaches zero before it is taken up is skipped.  T keeps no
expansion, and none is built as a table of net coefficients: one rule,
``_open_products``, reads T's open products, the unknown ones of nonzero
net coefficient, off the two factor rows.  For i < l, the products (m, l)
for m in b_i b_j and (i, m) for m in b_j b_l are all distinct but for
(i, l), which is on both sides exactly when b_i is in b_i b_j and b_l is
in b_j b_l.  Its net coefficient is the difference of those two
coefficients: it drops out when they are equal and is listed once when
they differ.  So the expansion is empty only when both factor rows are
that one term, with equal coefficients, and the rule returns None.
Activation counts what the rule returns; ``_evaluate(i, j, l)``, which the
agenda and the sweep both call, applies it again to the rows frozen at
activation, so it sees the products the count was made from.  With one
open product, evaluation reads its net coefficient off the factor rows,
its coefficients on the left less those on the right, and solves it only
on +-1.  The known part is summed straight from the known products of both
rows, with their signs, so a known (i, l) cancels itself.  A solution with
a negative coefficient is a contradiction that names the least-indexed
one, as an associativity failure lists its coefficients in index order.
The products are the table's own pair keys, ``PartialTable.pair``, so
activating T allocates no tuple per term.  Those lists and the agenda
alone hold a T, so it is freed once its last listed product is known.
Propagation never retracts a fact, so a count only falls and watched
pairs, which pay only when backtracking must undo work, are not needed.
Triples are taken up to two symmetries of the rule: (l, j, i) negates
every net coefficient, and the involution maps T to (ibar, jbar, lbar),
under which R2 keeps the known products closed.  So only T with
0 < i < l and T no larger than its conjugate is activated; a triple with
the identity as a factor or i = l expands to nothing.

The R4 search.  The decompositions of a pending product's remainder are
the assignments to its unknown coefficients that meet the degree and, when
the exact inner product ``s_exact`` is known, the square budget.  One
exact count at the root decides the search: the number of decompositions,
memoised on (candidate-degree suffix, degree left, squares left) and
shared by every search of a propagation, saturating at
``DECOMPOSITION_LIMIT + 1``.  A state whose squares left cannot hold a
decomposition counts 0 at once and is not memoised: nonnegative integers
c have sum(c) <= sum(c^2) <= sum(c)^2, and d_min sum(c) <= D <= d_max
sum(c) for the degree D left over candidate degrees from d_min to d_max,
so the squares left lie in [ceil(D / d_max), floor(D / d_min)^2].  Both
degrees are ends of the suffix the memo key names, so memoised counts stay
shared.  A count of zero is a ``no-decomposition`` contradiction.  A
product with more decompositions than the limit is capped and its search
returns nothing; otherwise the search walks only states that count a
decomposition and keeps those of the right reality mass.  The limit is
the only budget R4 has: it is counted in the trace's counters, and a
stall lists every product its final fixed point capped.  One scan
searches each pending product once and fires the first with exactly one
decomposition; when there is none, it leaves the ambiguous products it
found to N.  A search is run only for inputs not seen in the current scan
or the previous one: answers are keyed by the search's inputs alone, the
product's cells, remainder, square budget and reality mass, and each scan
keeps the answers it used, so one unused for a whole scan is dropped.

The certificate.  The agenda checks no triple whose products are all
known; the certificate does.  A table that completes is re-verified by
``verify_axioms``, which certifies every axiom, associativity included; if
any check fails, the status is ``contradiction`` and the message names the
failed checks.  When no rule fires and products are still pending,
``r3_full_sweep`` enumerates every triple whose factors are known, once,
and evaluates each one afresh.  That re-checks the triples the agenda
decided, which is safe: each was decided on frozen rows, so it still
holds.  A firing in the sweep would mean the agenda missed a triple; it is
counted in the trace's ``sweep_firings``.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from math import isqrt
from typing import Mapping, NamedTuple, Optional

from .core import MalformedElementError, TableAlgebra, TableBasis, TableAlgebraError, format_element

__all__ = [
    "PartialTable",
    "DeductionStep",
    "DeductionTrace",
    "propagate",
]

# the most decompositions R4 enumerates for one product; a product with
# more is capped, and a stall lists it
DECOMPOSITION_LIMIT = 256
RULES = ("R1", "R2", "R3", "R4", "N")


class Contradiction(TableAlgebraError):
    def __init__(self, witness, message):
        self.witness = witness
        super().__init__(message)


class DeductionStep(NamedTuple):
    number: int
    rule: str
    triple: tuple[str, str, str]
    entry: tuple[str, str]
    value: str

    def line(self) -> str:
        return "STEP {} RULE {} TRIPLE {},{},{} SET {}*{} = {}".format(
            self.number, self.rule, *self.triple, *self.entry, self.value)


class DeductionTrace:
    """What one propagation did: its steps, its outcome and its counters.

    ``steps`` holds one step per completed product, naming steps under N;
    ``status`` is ``completed``, ``stalled`` or ``contradiction``, the last
    with a ``witness`` and a ``message``.  ``capped`` lists, as ``a*b``
    labels, the products with more than DECOMPOSITION_LIMIT decompositions
    at the final fixed point of a stall: with a larger limit they might
    resolve.  The pending products of a stall are the table's own
    ``pending_pairs()``.

    ``attempts`` per rule: R1 counts pending products whose remainder
    reached zero, R2 the coefficient positions transported, each once, so
    a completed table counts all k * k(k+1)/2 of them, R3
    agenda evaluations of a triple with exactly one unknown product, R4
    searches asked, those answered from the cache included, N ambiguous
    products examined for a canonical naming.
    ``r3_activated`` counts the triples activated with a nonzero net
    expansion, stored as indices and a count or, all products known, not
    stored.  ``solver_count_states`` counts the states of the shared
    decomposition count, each computed once; ``solver_overflows`` counts
    the capped searches and ``overflow_pairs`` holds their products as
    ``a*b`` labels, in an insertion-ordered set.  The sweep runs only on a
    stall, when no rule fires and products are still pending;
    ``sweep_triples`` counts the triples it enumerated and
    ``sweep_firings`` those that fired.  ``seconds`` is the time of each
    phase of the main loop, its syncs' R2 transport excepted, of that
    transport under ``R2``, and of the ``recheck`` of a completed table;
    ``N`` is a phase only when naming is on.
    """

    def __init__(self):
        self.steps: list[DeductionStep] = []
        self.status = "stalled"
        self.witness: Optional[tuple] = None
        self.message = ""
        self.capped: tuple[str, ...] = ()
        self.attempts = dict.fromkeys(RULES, 0)
        self.r3_activated = 0
        self.solver_count_states = 0
        self.solver_overflows = 0
        self.overflow_pairs: dict[str, None] = {}
        self.sweep_triples = 0
        self.sweep_firings = 0
        self.seconds: dict[str, float] = {}

    def facts(self) -> list[tuple[str, object]]:
        """The counters as ``(key, value)`` pairs, in a fixed order; the
        firings of each rule are counted from ``steps``."""
        firings = Counter(s.rule for s in self.steps)
        out: list[tuple[str, object]] = []
        for rule in RULES:
            out.append((f"stats.{rule}.attempts", self.attempts[rule]))
            out.append((f"stats.{rule}.firings", firings[rule]))
        out += [
            ("stats.r3.activated", self.r3_activated),
            ("stats.solver.count_states", self.solver_count_states),
            ("stats.solver.overflows", self.solver_overflows),
            ("stats.solver.overflow_pairs", " ".join(self.overflow_pairs) or "-"),
            ("stats.sweep.triples", self.sweep_triples),
            ("stats.sweep.firings", self.sweep_firings),
        ]
        return out

    def serialize(self) -> str:
        lines = [s.line() for s in self.steps]
        tail = f"STATUS {self.status}"
        if self.witness:
            tail += " WITNESS " + ",".join(str(w) for w in self.witness)
        if self.capped:
            tail += " SOLVER-CAP " + ",".join(self.capped)
        lines.append(tail)
        return "\n".join(lines) + "\n"


def _inner(table: PartialTable, *products) -> Optional[int]:
    """The inner product (b_a b_b, b_c b_d) of the first listed
    ``((a, b), (c, d))`` whose two products are known in ``table``, or None."""
    rows, at = table.rows, table.pair
    for (a, b), (c, d) in products:
        u, w = rows.get(at[a][b]), rows.get(at[c][d])
        if u is not None and w is not None:
            return sum(x * w.get(m, 0) for m, x in u.items())
    return None


class PartialTable:
    """Exact partial knowledge of every unordered basis-pair product.

    ``cells[(i, j)][m]`` is the proven coefficient of ``b_m`` in
    ``b_i b_j``, or None while undetermined; entries are canonicalized to
    i <= j and identity rows are filled at construction.  ``pair[a][b]`` is
    the key of the product b_a b_b: ``pair[a][b] is pair[b][a]``, the tuple
    ``(min(a, b), max(a, b))`` that keys ``cells``.  ``rows[(i, j)]`` is
    the frozen ``{m: v}`` row of a known product.  A seed maps pairs to
    rows, checked like those of ``set_product`` by ``TableBasis.row``;
    elsewhere an element is a name or an index, resolved by ``index_of``.
    Seeded products must satisfy the degree identity.
    """

    def __init__(self, basis: TableBasis, known: Mapping[tuple, Mapping] | None = None):
        self.basis = basis
        k = basis.size
        self.k = k
        self.deg = [e.degree for e in basis]
        self.dual = [e.dual for e in basis]
        self.cells: dict[tuple[int, int], list[Optional[int]]] = {}
        # degree still unaccounted for, and count of unknown cells, per pair
        self._rem: dict[tuple[int, int], int] = {}
        self._open: dict[tuple[int, int], int] = {}
        pair: list[list] = [[None] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                key = pair[i][j] = pair[j][i] = (i, j)
                self.cells[key] = [None] * k
                self._rem[key] = self.deg[i] * self.deg[j]
                self._open[key] = k
        self.pair: tuple[tuple[tuple[int, int], ...], ...] = tuple(map(tuple, pair))
        self.rows: dict[tuple[int, int], dict[int, int]] = {}
        # per pair, bit m set once the orbit of (pair, m) has been transported
        self._transported = dict.fromkeys(self.cells, 0)
        self.newly_known: list[tuple[int, int]] = []
        # pending products a write left with a remainder of zero or below
        self.spent: deque[tuple[int, int]] = deque()
        self._queue: deque[tuple[tuple[int, int], int, int]] = deque()
        for j in range(k):
            self.set_product(0, j, {j: 1})
        if known:
            for (i, j), row in known.items():
                self.set_product(i, j, row)

    # -- accessors --------------------------------------------------------

    def pending_pairs(self) -> list[tuple[int, int]]:
        return sorted(p for p in self.cells if p not in self.rows)

    def names(self, pair: tuple[int, int]) -> tuple[str, str]:
        return (self.basis.name(pair[0]), self.basis.name(pair[1]))

    def label(self, pair: tuple[int, int]) -> str:
        """The product of ``pair`` as ``a*b``."""
        return "{}*{}".format(*self.names(pair))

    def as_algebra(self) -> TableAlgebra:
        """Completed table as a TableAlgebra (fails if anything is pending)."""
        if len(self.rows) != len(self.cells):
            raise TableAlgebraError("table is not complete")
        return TableAlgebra.from_products(self.basis, self.rows)

    # -- writing facts ----------------------------------------------------

    def set_product(self, i: int | str, j: int | str, coeffs: Mapping[int | str, int]) -> None:
        """Record the whole product b_i b_j, coefficient ``coeffs[m]`` of
        b_m and 0 off its keys, and queue the transports."""
        i, j = self.basis.index_of(i), self.basis.index_of(j)
        row = self.basis.row(coeffs)
        if sum(v * self.deg[m] for m, v in row.items()) != self.deg[i] * self.deg[j]:
            raise TableAlgebraError(f"product {self.label((i, j))} violates the degree identity")
        pair = self.pair[i][j]
        cells = self.cells[pair]
        for m in range(self.k):
            v = row.get(m, 0)
            # a known cell equal to v has nothing to write or transport
            if cells[m] != v and self._write(pair, m, v):
                self._queue.append((pair, m, v))

    def set_cell(self, i: int | str, j: int | str, m: int | str, v: int) -> None:
        """Record a coefficient and queue its transport around its orbit; a
        value not an ``int`` is malformed, a negative one a Contradiction."""
        index_of = self.basis.index_of
        pair, m = self.pair[index_of(i)][index_of(j)], index_of(m)
        if type(v) is not int:
            raise MalformedElementError(f"coefficient {v!r} of {self.basis.name(m)} is not an int")
        if self._write(pair, m, v):
            self._queue.append((pair, m, v))

    def _write(self, pair: tuple[int, int], m: int, v: int) -> bool:
        """Record coefficient v of b_m in the product of ``pair``; True when
        it was unknown.  Completing a row freezes it and marks it known; a
        nonzero write that leaves a pending product a remainder of zero or
        below lists it in ``spent`` for R1."""
        if v < 0:
            raise Contradiction(
                self.names(pair) + (self.basis.name(m),),
                f"negative coefficient of {self.basis.name(m)} in {self.label(pair)}",
            )
        row = self.cells[pair]
        old = row[m]
        if old is not None:
            if old != v:
                raise Contradiction(
                    self.names(pair) + (self.basis.name(m),),
                    f"conflicting values {old} and {v} for coefficient of "
                    f"{self.basis.name(m)} in {self.label(pair)}",
                )
            return False
        row[m] = v
        rem = self._rem[pair] = self._rem[pair] - v * self.deg[m]
        unknown = self._open[pair] = self._open[pair] - 1
        if not unknown:
            if rem != 0:
                raise Contradiction(
                    self.names(pair) + ("degree",),
                    f"completed product {self.label(pair)} misses the degree identity by {rem}",
                )
            self.rows[pair] = {n: w for n, w in enumerate(row) if w}
            self.newly_known.append(pair)
        elif v and rem <= 0:
            self.spent.append(pair)
        return True

    def orbit(self, i: int, j: int, m: int) -> tuple[tuple[int, int, int], ...]:
        """Closure of the coefficient position (i, j, m) under commutativity,
        the involution and the normalization symmetry (a, b, c) -> (bbar, c, a),
        as positions (a, b, c) with a <= b.  That symmetry has order six, its
        cube is the involution, and commutativity inverts it; so the closure
        is the canonical forms of its six powers: (a, b, c), (abar, bbar,
        cbar), (bbar, c, a), (b, cbar, abar), (abar, c, b), (a, cbar, bbar).
        The start (j, i, m) has the same closure, so it need not be
        canonical.  Sorted, because R2 writes in this order."""
        d = self.dual
        di, dj, dm = d[i], d[j], d[m]
        return tuple(sorted({
            (i, j, m) if i <= j else (j, i, m),
            (di, dj, dm) if di <= dj else (dj, di, dm),
            (dj, m, i) if dj <= m else (m, dj, i),
            (j, dm, di) if j <= dm else (dm, j, di),
            (di, m, j) if di <= m else (m, di, j),
            (i, dm, dj) if i <= dm else (dm, i, dj),
        }))


def _canonical_naming(table: PartialTable, solutions: list[dict[int, int]]) -> Optional[dict[int, int]]:
    """N: the least-indexed assignment, when every other solution is its
    image under a basis relabeling that fixes all knowledge in ``table``;
    else None.

    Choosing among such solutions is the usual "name the new constituent"
    convention: the alternatives describe the same table up to renaming
    elements the current state cannot tell apart."""
    best = min(solutions, key=lambda s: tuple(sorted(s.items())))
    for other in solutions:
        if other == best:
            continue
        perm = _relabeling(table, best, other)
        if perm is None or not _fixes_knowledge(table, perm):
            return None
    return best


def _relabeling(table: PartialTable, a: dict[int, int], b: dict[int, int]) -> Optional[dict[int, int]]:
    """Degree- and duality-respecting involution mapping solution a to b,
    identity outside the differing elements; None if the shapes differ.
    Consistent swaps within a degree group, closed under duals, are such a map."""
    deg, dual = table.deg, table.dual
    # each solution's differing elements sorted by (degree, self-duality,
    # value, index): the shapes agree when the keys agree but for the index
    ka = sorted((deg[m], m == dual[m], v, m) for m, v in a.items() if b.get(m) != v)
    kb = sorted((deg[m], m == dual[m], v, m) for m, v in b.items() if a.get(m) != v)
    if [key[:3] for key in ka] != [key[:3] for key in kb]:
        return None
    swaps: dict[int, int] = {}
    for (*_, x), (*_, y) in zip(ka, kb):
        for s, t in ((x, y), (y, x), (dual[x], dual[y]), (dual[y], dual[x])):
            if s in swaps and swaps[s] != t:
                return None
            swaps[s] = t
    perm = {m: m for m in range(table.k)}
    perm.update(swaps)
    if {perm[m]: c for m, c in a.items()} != b:
        return None
    return perm


def _fixes_knowledge(table: PartialTable, perm: dict[int, int]) -> bool:
    """True when every determined cell maps to an equal determined cell.
    A cell none of whose indices ``perm`` moves maps to itself, so in a
    product that maps to itself only the moved ``m`` are checked."""
    k, cells = table.k, table.cells
    moved = [m for m in range(k) if perm[m] != m]
    for (i, j), row in cells.items():
        image_row = cells[table.pair[perm[i]][perm[j]]]
        for m in moved if image_row is row else range(k):
            v = row[m]
            if v is not None and image_row[perm[m]] != v:
                return False
    return True


def _open_products(rows, at, i: int, j: int, l: int) -> Optional[list]:
    """The unknown products of nonzero net coefficient in (b_i b_j) b_l -
    b_i (b_j b_l), for i < l with (i, j) and (j, l) known, as the table's
    own pair keys; None when the expansion is empty."""
    # the products (m, l), m in b_i b_j, and (i, m), m in b_j b_l, are
    # distinct but for (i, l), whose net is its coefficient on the left less
    # that on the right
    at_i, at_l = at[i], at[l]
    ij, jl, il = rows[at_i[j]], rows[at[j][l]], at_i[l]
    net_il = ij.get(i, 0) - jl.get(l, 0)
    # empty: both rows are that one term, and it cancels
    if not net_il and len(ij) == len(jl) == 1 and i in ij:
        return None
    unknown = [q for q in map(at_l.__getitem__, ij) if q is not il and q not in rows]
    unknown += [q for q in map(at_i.__getitem__, jl) if q is not il and q not in rows]
    if net_il and il not in rows:
        unknown.append(il)
    return unknown


class _Triple:
    """A stored R3 triple: its indices and the count of its open products,
    which ``_open_products`` reads again off the frozen factor rows."""

    __slots__ = ("i", "j", "l", "unknown")

    def __init__(self, i: int, j: int, l: int, unknown: int):
        self.i, self.j, self.l, self.unknown = i, j, l, unknown


class _Engine:
    def __init__(self, table: PartialTable, introduce_names: bool):
        self.p = table
        k = table.k
        self.naming = introduce_names
        self.trace = DeductionTrace()
        self._partners: list[set[int]] = [set() for _ in range(k)]
        # activated triples listed under each unknown product of their expansion
        self._waiting: dict[tuple[int, int], list[_Triple]] = {}
        self._agenda: deque[_Triple] = deque()
        # the decomposition count shared by every search: states keyed by
        # (suffix id, degree left, squares left), suffix ids keyed by
        # (first degree, id of the rest)
        self._counts: dict[tuple[int, int, Optional[int]], int] = {}
        self._suffixes: dict[tuple[int, int], int] = {}
        # search answers keyed by (cells, remainder, square budget, reality
        # mass): those of the current solver scan and of the previous one
        self._answers: dict[tuple, Optional[list]] = {}
        self._last_answers: dict[tuple, Optional[list]] = {}
        # pairs whose search was capped during the latest solver scan, and
        # the products it found ambiguous, with their decompositions
        self._overflowed: list[tuple[int, int]] = []
        self._ambiguous: list[tuple[tuple[int, int], list]] = []
        self._by_degree = sorted(range(k), key=lambda m: table.deg[m])

    # -- bookkeeping -------------------------------------------------------

    def log(self, rule: str, triple, pair) -> None:
        n = len(self.trace.steps) + 1
        names = self.p.names(pair)
        t = tuple(triple) if triple else (names[0], names[1], "-")
        value = format_element(self.p.basis, self.p.rows[pair].items())
        self.trace.steps.append(DeductionStep(n, rule, t, names, value))

    def _resolve(self, rule: str, triple, pair: tuple[int, int], coeffs: Mapping[int, int]) -> None:
        """Fire a rule: write the product of ``pair``, log the step and
        sync.  R1, R3, R4 and N write through here; R2 is the sync."""
        self.p.set_product(pair[0], pair[1], coeffs)
        self.log(rule, triple, pair)
        self.sync((pair,))

    def _complete(self, rule: str, pair: tuple[int, int], assign: Mapping[int, int]) -> None:
        """R1, R4 and N: resolve ``pair`` as its known cells plus ``assign``."""
        row = {m: v for m, v in enumerate(self.p.cells[pair]) if v}
        row.update(assign)
        self._resolve(rule, None, pair, row)

    # -- R2 transport plus trigger maintenance -----------------------------

    def sync(self, logged) -> None:
        """Drain coefficient transports, timed as R2, and register newly
        known entries; each one not in ``logged``, the pairs the caller
        logs itself, is logged as an R2 step."""
        p = self.p
        queue, cells, at, done = p._queue, p.cells, p.pair, p._transported
        attempts, seconds = self.trace.attempts, self.trace.seconds
        t0 = time.perf_counter()
        while queue:
            pair, m, v = queue.popleft()
            # an orbit already transported holds v at every position
            if done[pair] >> m & 1:
                continue
            orbit = p.orbit(pair[0], pair[1], m)
            for (a, b, c) in orbit:
                if cells[at[a][b]][c] != v:
                    p._write(at[a][b], c, v)
            for (a, b, c) in orbit:
                done[at[a][b]] |= 1 << c
            attempts["R2"] += len(orbit)
        seconds["R2"] = seconds.get("R2", 0.0) + time.perf_counter() - t0
        # one drain is enough: registering and logging write no cell, so
        # they queue no transport and complete no product
        batch, p.newly_known = p.newly_known, []
        for pair in batch:
            if pair not in logged:
                self.log("R2", None, pair)
            self._register_known(pair)

    def _register_known(self, pair: tuple[int, int]) -> None:
        """Activate the triples with factor ``pair``; count down its waiters."""
        a, b = pair
        self._partners[a].add(b)
        self._partners[b].add(a)
        if a:
            rows, d, at = self.p.rows, self.p.dual, self.p.pair
            # triples with this pair as a factor: it is (other, j) or (j, other)
            for j, other in ((a, b), (b, a)) if a != b else ((a, a),):
                dj = d[j]
                for x in self._partners[j]:
                    if not x or x == other:
                        continue
                    i, l = (other, x) if other < x else (x, other)
                    ci, cl = d[i], d[l]
                    # only representatives: T no larger than its conjugate
                    if (i, j, l) > ((ci, dj, cl) if ci < cl else (cl, dj, ci)):
                        continue
                    unknown = _open_products(rows, at, i, j, l)
                    if unknown is None:
                        continue
                    self.trace.r3_activated += 1
                    if not unknown:
                        continue
                    t = _Triple(i, j, l, len(unknown))
                    for q in unknown:
                        self._waiting.setdefault(q, []).append(t)
                    if t.unknown == 1:
                        self._agenda.append(t)
        for t in self._waiting.pop(pair, ()):
            t.unknown -= 1
            if t.unknown == 1:
                self._agenda.append(t)

    # -- R1: pure degree rule ------------------------------------------------

    def r1_process(self) -> bool:
        """Fill with zeros every product a write left with no remainder; a
        product whose known part exceeds its degree is a contradiction."""
        p = self.p
        spent = p.spent
        fired = False
        while spent:
            pair = spent.popleft()
            if pair in p.rows:
                continue
            self.trace.attempts["R1"] += 1
            if p._rem[pair] < 0:
                raise Contradiction(
                    p.names(pair) + ("degree",),
                    f"known part of {p.label(pair)} already exceeds the degree identity",
                )
            self._complete("R1", pair, {})
            fired = True
        return fired

    # -- R3: associativity -----------------------------------------------------

    def r3_process(self) -> bool:
        fired = False
        agenda = self._agenda
        while agenda:
            t = agenda.popleft()
            if not t.unknown:
                continue
            self.trace.attempts["R3"] += 1
            if self._evaluate(t.i, t.j, t.l):
                fired = True
        return fired

    def r3_full_sweep(self) -> bool:
        """Stall certificate: evaluate every triple whose factors are known,
        built afresh from the frozen rows.  One the agenda decided still
        holds, since its products were frozen when it was decided, so
        checking it again repeats the answer.  With nothing pending there is
        no stall, and the re-check of the completed table certifies
        associativity."""
        p, d = self.p, self.p.dual
        if len(p.rows) == len(p.cells):
            return False
        fired = False
        for j in range(1, p.k):
            partners = sorted(x for x in self._partners[j] if x)
            for a, i in enumerate(partners):
                for l in partners[a + 1:]:
                    ci, cl = d[i], d[l]
                    if (i, j, l) > ((ci, d[j], cl) if ci < cl else (cl, d[j], ci)):
                        continue
                    self.trace.sweep_triples += 1
                    if self._evaluate(i, j, l):
                        self.trace.sweep_firings += 1
                        fired = True
        return fired

    def _evaluate(self, i: int, j: int, l: int) -> bool:
        """Decide the triple (i, j, l), i < l, on the frozen rows of (i, j)
        and (j, l): True when it solved its one open product; False when it
        had none and was checked, or cannot solve one (two or more open, or
        a net coefficient not +-1).  An empty expansion has neither, so it
        holds.  Raises Contradiction when associativity fails."""
        p = self.p
        rows, at = p.rows, p.pair
        unknown = _open_products(rows, at, i, j, l)
        if unknown is None or len(unknown) > 1:
            return False
        at_i, at_l = at[i], at[l]
        ij, jl = rows[at_i[j]], rows[at[j][l]]
        if unknown:
            pair = unknown[0]
            net = sum(c for m, c in ij.items() if at_l[m] is pair) - sum(c for m, c in jl.items() if at_i[m] is pair)
            if abs(net) != 1:
                return False
        # the known products of both sides, with their signs: a known (i, l)
        # on both sides cancels itself
        known_part: dict[int, int] = {}
        get = known_part.get
        for factor, at_x, sign in ((ij, at_l, 1), (jl, at_i, -1)):
            for m, c in factor.items():
                row = rows.get(at_x[m])
                if row is not None:
                    for n, w in row.items():
                        known_part[n] = get(n, 0) + sign * c * w
        names3 = (p.basis.name(i), p.basis.name(j), p.basis.name(l))
        if not unknown:
            bad = sorted(m for m, c in known_part.items() if c)
            if bad:
                raise Contradiction(
                    names3,
                    "associativity fails on triple ({}*{})*{} at ".format(*names3)
                    + ", ".join(p.basis.name(m) for m in bad),
                )
            return False
        solved = {m: -c * net for m, c in known_part.items() if c}
        negative = [m for m, v in solved.items() if v < 0]
        if negative:
            raise Contradiction(
                names3,
                "triple ({}*{})*{} forces a negative coefficient of {} in {}".format(
                    *names3, p.basis.name(min(negative)), p.label(pair)
                ),
            )
        self._resolve("R3", names3, pair, solved)
        return True

    # -- R4: inner-product constrained resolution --------------------------------

    def solver_scan(self) -> bool:
        """R4: search each pending product once and resolve the first with
        exactly one decomposition; the ambiguous ones are kept for N."""
        self._overflowed, self._ambiguous = [], []
        self._last_answers, self._answers = self._answers, {}
        dual, at = self.p.dual, self.p.pair
        for pair in self.p.pending_pairs():
            # the involution maps the product to its conjugate: search one of the two
            if at[dual[pair[0]]][dual[pair[1]]] < pair:
                continue
            solutions = self._solve_entry(pair)
            if solutions is None:
                continue
            if len(solutions) == 1:
                self._complete("R4", pair, solutions[0])
                return True
            self._ambiguous.append((pair, solutions))
        return False

    # -- N: naming ----------------------------------------------------------------

    def n_process(self) -> bool:
        """Name the first ambiguous product of the latest R4 scan that
        admits a canonical naming.  New names are christened on the newest
        element's products first, mirroring the order in which generators
        introduce constituents."""
        for pair, solutions in sorted(self._ambiguous, key=lambda entry: entry[0][::-1]):
            self.trace.attempts["N"] += 1
            best = _canonical_naming(self.p, solutions)
            if best is not None:
                self._complete("N", pair, best)
                return True
        return False

    def _solve_entry(self, pair: tuple[int, int]) -> Optional[list]:
        """The decompositions of the remainder of ``pair`` that meet its
        inner products, as ``_search`` returns them, or those the current or
        the previous scan found for equal inputs; None when they were
        capped.  R1 has drained every product with no remainder."""
        p = self.p
        i, j = pair
        di, dj = p.dual[i], p.dual[j]
        row = p.cells[pair]
        rem = p._rem[pair]
        # the square budget (xy, xy) = (x xbar, y ybar)
        s_exact = _inner(p, ((i, di), (j, dj)))
        budget2 = None
        if s_exact is not None:
            budget2 = s_exact - sum(v * v for v in row if v)
            if budget2 < 0:
                raise Contradiction(
                    p.names(pair) + ("inner",),
                    f"{p.label(pair)} already exceeds its inner product {s_exact}",
                )
        # the reality mass (xy, xbar ybar) = (y y, xbar xbar) = (ybar ybar, x x)
        r_mass = _inner(p, ((j, j), (di, di)), ((dj, dj), (i, i)))
        self.trace.attempts["R4"] += 1
        key = (tuple(row), rem, budget2, r_mass)
        answers = self._answers
        if key in answers:
            solutions = answers[key]
        elif key in self._last_answers:
            solutions = answers[key] = self._last_answers[key]
        else:
            candidates = [m for m in self._by_degree if row[m] is None and p.deg[m] <= rem]
            solutions = answers[key] = self._search(row, rem, candidates, budget2, r_mass)
        if solutions is None:
            self._overflowed.append(pair)
            self.trace.solver_overflows += 1
            self.trace.overflow_pairs[p.label(pair)] = None
            return None
        if not solutions:
            raise Contradiction(
                p.names(pair) + ("no-decomposition",),
                f"no decomposition of the remainder of {p.label(pair)} satisfies its "
                "degree and inner-product constraints",
            )
        return solutions

    def _search(self, row, rem, candidates, budget2, r_mass) -> Optional[list]:
        """Every decomposition of the remainder ``rem`` over ``candidates``,
        whose squares add up to ``budget2`` when that is known and whose
        full row has reality mass ``r_mass`` when that is known, as
        assignments ``{m: c}`` to the unknown cells of ``row``; None when
        more than DECOMPOSITION_LIMIT decompositions meet the degree and
        square budgets.  ``candidates`` ascend by degree and follow from
        ``row`` and ``rem``, so the other four inputs decide the answer."""
        limit = DECOMPOSITION_LIMIT
        deg, dual = self.p.deg, self.p.dual
        degrees = [deg[m] for m in candidates]
        n = len(candidates)
        # ids[idx] names the degree sequence degrees[idx:], so that searches
        # over equal suffixes share their counts
        suffixes, counts = self._suffixes, self._counts
        ids = [0] * (n + 1)
        for idx in range(n - 1, -1, -1):
            ids[idx] = suffixes.setdefault((degrees[idx], ids[idx + 1]), len(suffixes) + 1)
        base = {m: v for m, v in enumerate(row) if v}
        if r_mass is not None:
            # mass(base + assign) = mass(base) + sum over assign of c (2 base[mbar] + assign[mbar])
            r_mass -= sum(c * base.get(dual[m], 0) for m, c in base.items())
        solutions: list[dict[int, int]] = []
        assign: dict[int, int] = {}

        def most(dm: int, deg_left: int, sq_left: Optional[int]) -> int:
            return deg_left // dm if sq_left is None else min(deg_left // dm, isqrt(sq_left))

        top = degrees[-1] if degrees else 0  # the largest candidate degree

        def count(idx: int, deg_left: int, sq_left: Optional[int]) -> int:
            # decompositions of deg_left over candidates[idx:] that use up
            # sq_left exactly (no square budget when None), saturated at
            # limit + 1
            if deg_left == 0:
                return 1 if not sq_left else 0
            if idx == n or deg_left < degrees[idx]:
                return 0
            # the coefficients c left have sum(c) <= sum(c^2) <= sum(c)^2 and
            # degrees[idx] * sum(c) <= deg_left <= top * sum(c)
            if sq_left is not None and not (-(-deg_left // top) <= sq_left <= (deg_left // degrees[idx]) ** 2):
                return 0
            key = (ids[idx], deg_left, sq_left)
            total = counts.get(key)
            if total is None:
                dm, nxt = degrees[idx], idx + 1
                # the checks above, made on each child here so that a child
                # that ends at once or is counted already costs no call; past
                # the last candidate only a child with no degree left counts
                d_next, id_next = (degrees[nxt], ids[nxt]) if nxt < n else (deg_left + 1, 0)
                total = 0
                for c in range(most(dm, deg_left, sq_left) + 1):
                    left, sq = deg_left - c * dm, None if sq_left is None else sq_left - c * c
                    if left == 0:
                        total += not sq
                    elif left >= d_next and (sq is None or -(-left // top) <= sq <= (left // d_next) ** 2):
                        known = counts.get((id_next, left, sq))
                        total += count(nxt, left, sq) if known is None else known
                    if total > limit:
                        total = limit + 1
                        break
                counts[key] = total
            return total

        def walk(idx: int, deg_left: int, sq_left: Optional[int]) -> None:
            # enters only states that count at least one decomposition
            if deg_left == 0:
                if r_mass is None or r_mass == sum(
                    c * (2 * base.get(dual[m], 0) + assign.get(dual[m], 0)) for m, c in assign.items()
                ):
                    solutions.append(dict(assign))
                return
            m, dm = candidates[idx], degrees[idx]
            for c in range(most(dm, deg_left, sq_left), -1, -1):
                nsq = None if sq_left is None else sq_left - c * c
                if count(idx + 1, deg_left - c * dm, nsq):
                    if c:
                        assign[m] = c
                    walk(idx + 1, deg_left - c * dm, nsq)
                    assign.pop(m, None)

        try:
            total = count(0, rem, budget2)
            self.trace.solver_count_states = len(counts)
            if total > limit:
                return None
            if total:
                walk(0, rem, budget2)
            return solutions
        finally:
            # each closure holds itself through its cell; emptying it frees both
            del count, walk

    # -- main loop -----------------------------------------------------------

    def _timed(self, phase: str, step) -> bool:
        """Run a phase; its time, less R2's in its syncs, adds to ``seconds``."""
        seconds = self.trace.seconds
        seconds.setdefault(phase, 0.0)
        r2 = seconds.get("R2", 0.0)
        t0 = time.perf_counter()
        try:
            return step()
        finally:
            seconds[phase] += time.perf_counter() - t0 - (seconds.get("R2", 0.0) - r2)

    def run(self) -> None:
        p = self.p
        try:
            # everything known at seed time triggers the initial agenda, unlogged
            p.newly_known = sorted(p.rows)
            self._timed("seed", lambda: self.sync(set(p.rows)))
            phases = [("R1", self.r1_process), ("R3", self.r3_process), ("R4", self.solver_scan)]
            if self.naming:
                phases.append(("N", self.n_process))
            phases.append(("sweep", self.r3_full_sweep))
            # each firing restarts from R1; the loop ends when no phase fires
            while any(self._timed(phase, step) for phase, step in phases):
                pass
        except Contradiction as c:
            self.trace.status = "contradiction"
            self.trace.witness = c.witness
            self.trace.message = str(c)
            return
        if p.pending_pairs():
            self.trace.status = "stalled"
            self.trace.capped = tuple(map(p.label, self._overflowed))
        else:
            self.trace.status = "completed"


def _recheck(table: PartialTable, trace: DeductionTrace) -> None:
    """Re-verify a completed table with the axiom verifier, independently
    of the rules that filled it; a failed check makes it a contradiction."""
    t0 = time.perf_counter()
    report = table.as_algebra().verify_axioms()
    trace.seconds["recheck"] = time.perf_counter() - t0
    if not report.ok:
        failed = next(c for c in report.checks if not c.passed)
        trace.status = "contradiction"
        trace.witness = tuple(table.basis.name(m) for m in failed.witnesses[0])
        trace.message = f"completed table fails the axiom re-check: {report.summary()}"


def propagate(
    table: PartialTable, introduce_names: bool = False
) -> tuple[PartialTable, DeductionTrace]:
    """Fixed point of R1-R4, and of N when ``introduce_names`` is True,
    written into ``table``, which is returned with the trace.

    With ``introduce_names`` False every written entry is forced, so a
    seed drawn from a consistent algebra only ever derives that algebra's
    values.  The trace records one step per completed entry and what each
    rule attempted; a stall leaves its pending products in the table.  A
    table that completes is re-verified with ``verify_axioms`` before it is
    reported completed.
    """
    engine = _Engine(table, introduce_names=introduce_names)
    engine.run()
    trace = engine.trace
    # drop the rule state first, so the re-check does not add to peak memory
    del engine
    if trace.status == "completed":
        _recheck(table, trace)
    return table, trace
