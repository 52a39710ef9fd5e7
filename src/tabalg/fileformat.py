"""Line-oriented file format for table algebras.

Grammar (UTF-8, ``#`` starts a comment, blank lines ignored)::

    algebra <name>
    element <name> degree <int> dual <name>
    product <name> <name> = <int>? <name> (+ <int>? <name>)*

The identity is implicit: it is index 0, named ``1``, and may appear on
product right-hand sides.  Its rows are implied, never stored; a listed
identity line is only checked.  An ``<int>`` is ASCII digits ``[0-9]+``;
an omitted coefficient means 1.  Element names match
``[A-Za-z][A-Za-z0-9]*``; by convention the dual of ``x6`` is written
``x6bar``.  Only unordered pairs need product lines: ``(j,i)`` and the
dual-image pair ``(ibar,jbar)`` are filled in by symmetry, and a line
that conflicts with an earlier line or with the dual image of one is
rejected.

``parse_partial`` is the reader: it returns the name, the basis and the
listed products with their dual images.  ``parse`` builds on it, requiring
every product to be determined and building the algebra.

The reader makes four passes, and a file with several faults reports the
first fault of the earliest pass:

1. Line structure, over every line: the directive, its tokens, an element
   name's spelling and a degree's digits.  A product line keeps its
   right-hand side as one string, split in pass 3, so each token is read
   once and no line's token list outlives its pass.
2. Element semantics: duplicate names and degrees below 1, then unknown
   duals, pairings that are not an involution and duals of unequal degree.
3. Product semantics, in line order: the factor names, the right-hand side
   term by term from the left, then the degree sum of a new pair or the
   agreement of a repeated one.
4. Dual images, in line order.

So a malformed product line is reported before a duplicate element on an
earlier line, and an unknown dual name before an unknown name on the
right-hand side of an earlier product line.
"""

from __future__ import annotations

import re

from .core import BasisElement, TableAlgebra, TableBasis, TableAlgebraError, format_element

__all__ = ["ParseError", "parse", "parse_partial", "serialize", "parse_element_expr"]

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*$")


class ParseError(TableAlgebraError):
    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        where = f"line {line_no}: " if line_no else ""
        super().__init__(f"{where}{message}")


def _number(token: str, what: str, line_no: int) -> int:
    """The value of ``token``, which must be ASCII digits: ``int`` alone would
    also read signs, ``_`` separators and other scripts' digits."""
    if token.isascii() and token.isdigit():
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    raise ParseError(f"bad {what} {token!r}", line_no)


def _parse_rhs(expr: str, index: dict[str, int], degs: list[int], line_no: int,
               side: str = " on right-hand side") -> tuple[dict[int, int], int]:
    """Right-hand side and its degree sum: terms separated by '+', each an
    optional count then a name.  Read left to right, so a line's leftmost
    fault is reported; ``side`` says where an empty term or a trailing '+'
    is."""
    tokens = expr.split()
    if not tokens:
        raise ParseError("no terms", line_no)
    last = len(tokens)
    tokens.append("+")  # closes the last term
    out: dict[int, int] = {}
    total = 0
    start = 0
    while start <= last:
        end = tokens.index("+", start)
        if end == start + 1:
            coeff, name = 1, tokens[start]
        elif end == start + 2:
            coeff, name = _number(tokens[start], "coefficient", line_no), tokens[start + 1]
            if not coeff:
                raise ParseError("coefficient must be positive, got 0", line_no)
        elif end == start:
            raise ParseError(("empty term" if end < last else "trailing '+'") + side, line_no)
        else:
            raise ParseError(f"malformed term {' '.join(tokens[start:end])!r}", line_no)
        idx = index.get(name)
        if idx is None:
            raise ParseError(f"unknown element name {name!r}", line_no)
        out[idx] = out.get(idx, 0) + coeff
        total += coeff * degs[idx]
        start = end + 1
    return out, total


def parse_element_expr(text: str, basis: TableBasis) -> dict[int, int]:
    """Parse an element expression such as ``1 + 3 b5 + x9`` against a basis
    into its row ``{index: coefficient}`` (see ``TableBasis.row``); names are
    looked up in the basis, and an unknown one raises ParseError.  Every
    ParseError quotes the expression."""
    degs = [e.degree for e in basis]
    try:
        row, _ = _parse_rhs(text.replace("+", " + "), basis._by_name, degs, 0, "")
    except ParseError as e:
        raise ParseError(f"{e} in element expression {text!r}") from None
    return basis.row(row)


def parse_partial(text: str):
    """Parse a partial table: returns (name, basis, known non-identity
    products), the listed rows completed under the involution, without
    requiring completeness.  Used to seed the deduction engine."""
    name = None
    raw_elements: list[tuple[int, str, int, str]] = []  # line, name, degree, dual
    raw_products: list[tuple[int, str, str, str]] = []  # line, factors, right-hand side
    # lines end only at "\n": files are read with universal newlines, split
    # drops a trailing "\r", and str.splitlines would also split a comment
    # at a form feed, U+0085 or U+2028
    for line_no, line in enumerate(text.split("\n"), start=1):
        if "#" in line:
            line = line[: line.index("#")]
        # at most five: a product line's right-hand side stays one string
        tokens = line.split(None, 4)
        if not tokens:
            continue
        head = tokens[0]
        if head == "product":
            if len(tokens) < 5 or tokens[3] != "=":
                raise ParseError("expected: product <name> <name> = <expr>", line_no)
            raw_products.append((line_no, tokens[1], tokens[2], tokens[4]))
        elif head == "element":
            tokens = line.split()
            if len(tokens) != 6 or tokens[2] != "degree" or tokens[4] != "dual":
                raise ParseError("expected: element <name> degree <int> dual <name>", line_no)
            if not NAME_RE.match(tokens[1]):
                raise ParseError(f"bad element name {tokens[1]!r}", line_no)
            raw_elements.append((line_no, tokens[1], _number(tokens[3], "degree", line_no), tokens[5]))
        elif head == "algebra":
            if name is not None:
                raise ParseError("duplicate algebra header", line_no)
            if len(tokens) != 2:
                raise ParseError("expected: algebra <name>", line_no)
            name = tokens[1]
        else:
            raise ParseError(f"unknown directive {head!r}", line_no)
    if name is None:
        raise ParseError("missing 'algebra <name>' header")

    declared = {"1": (1, "1")}  # name -> (degree, dual name)
    for line_no, ename, deg, dual_name in raw_elements:
        if ename in declared:
            raise ParseError(f"duplicate element {ename!r}", line_no)
        if deg < 1:
            raise ParseError(f"element {ename!r} has degree {deg}", line_no)
        declared[ename] = (deg, dual_name)
    index = {ename: i for i, ename in enumerate(declared)}
    # what TableBasis would reject is reported at the element's line
    elements = [BasisElement(0, "1", 1, 0)]
    for line_no, ename, deg, dual_name in raw_elements:
        if dual_name not in declared:
            raise ParseError(f"unknown dual name {dual_name!r}", line_no)
        dual_deg, dual_dual = declared[dual_name]
        if dual_dual != ename:
            raise ParseError(f"dual pairing of {ename!r} is not an involution", line_no)
        if dual_deg != deg:
            raise ParseError(f"{ename!r} and its dual differ in degree", line_no)
        elements.append(BasisElement(len(elements), ename, deg, index[dual_name]))
    basis = TableBasis(elements)

    products: dict[tuple[int, int], dict[int, int]] = {}
    origins: dict[tuple[int, int], int] = {}
    degs = [e.degree for e in basis]

    def conflict(key: tuple[int, int], line_no: int) -> ParseError:
        return ParseError(
            f"conflicting value for product {basis.name(key[0])} {basis.name(key[1])}"
            f" (also given at line {origins[key]})",
            line_no,
        )

    for line_no, a, b, rhs in raw_products:
        ia = index.get(a)
        if ia is None:
            raise ParseError(f"unknown element name {a!r}", line_no)
        ib = index.get(b)
        if ib is None:
            raise ParseError(f"unknown element name {b!r}", line_no)
        row, total = _parse_rhs(rhs, index, degs, line_no)
        if not (ia and ib):
            if row != {ia or ib: 1}:
                raise ParseError("identity product must reproduce the other factor", line_no)
            continue
        key = (ia, ib) if ia <= ib else (ib, ia)
        old = products.get(key)
        if old is None:
            if total != degs[ia] * degs[ib]:
                raise ParseError(
                    f"degree sum {total} does not match {degs[ia]}*{degs[ib]}={degs[ia]*degs[ib]}", line_no
                )
            products[key] = row
            origins[key] = line_no
        elif old != row:
            raise conflict(key, line_no)

    # put the dual image of every listed line, except where that image is a
    # line listed earlier, which already compared its own image with this
    # one; an image has its line's degree sum, as duals share degrees
    dual = [e.dual for e in basis]
    for (i, j), row in list(products.items()):
        line_no = origins[(i, j)]
        di, dj = dual[i], dual[j]
        key = (di, dj) if di <= dj else (dj, di)
        if origins.get(key, line_no) < line_no:
            continue
        image = {dual[m]: c for m, c in row.items()}
        old = products.get(key)
        if old is None:
            products[key] = image
            origins[key] = line_no
        elif old != image:
            if key == (i, j):  # the line is its own dual image, so no other line clashes
                raise ParseError(f"product {basis.name(i)} {basis.name(j)} differs from its own dual image "
                                 + format_element(basis, image.items()), line_no)
            raise conflict(key, line_no)
    return name, basis, products


def parse(text: str) -> TableAlgebra:
    """Parse a complete algebra file; every non-identity pair must be determined."""
    name, basis, products = parse_partial(text)
    k = basis.size
    # the keys are pairs 1 <= i <= j < k, so a full count means none is missing
    if len(products) < k * (k - 1) // 2:
        missing = [
            (basis.name(i), basis.name(j))
            for i in range(1, k)
            for j in range(i, k)
            if (i, j) not in products
        ]
        shown = ", ".join(f"{a}*{b}" for a, b in missing[:8])
        more = "" if len(missing) <= 8 else f" (+{len(missing) - 8} more)"
        raise ParseError(f"incomplete table, missing products: {shown}{more}")
    return TableAlgebra.from_products(basis, products, name=name)


def serialize(algebra: TableAlgebra) -> str:
    """Canonical text form: declaration order, products sorted by (i, j).

    Identity rows and anything derivable from a listed pair by
    commutativity are omitted; dual-image pairs are written out so the
    file reads without symmetry chasing.  Output is deterministic.
    """
    basis = algebra.basis
    out = [f"algebra {algebra.name or 'unnamed'}"]
    for e in basis.elements[1:]:
        out.append(f"element {e.name} degree {e.degree} dual {basis.name(e.dual)}")
    k, rows = basis.size, algebra.constants.rows
    for i in range(1, k):
        for j in range(i, k):
            row = format_element(basis, rows[i][j].items())
            out.append(f"product {basis.name(i)} {basis.name(j)} = {row}")
    return "\n".join(out) + "\n"
