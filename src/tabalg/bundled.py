"""Bundled verified datasets and data-file lookup.

Four fully verified algebras ship with the package: C7, D17, B22 and B32.
Five small group class algebras (Z2, Z3, Z4, Z6, S3) are included as
auxiliary data, and four partial tables seed the deduction engine:
PSL27-partial, the Lemma 7.2 seed (Lemma72-seed), which completes to B32,
the Theorem 4.1 seed (Theorem41-seed), which is refuted, and the
under-seeded B32-stall, which stalls.  A ``bundled:NAME`` URI
names one of these shipped files, the package's own ``data/NAME.alg``, and
no other: any other name is not found.  Every command that takes a URI
also takes a file path, which reads any other file.
"""

from __future__ import annotations

import os
from functools import cache

from .core import TableAlgebra
from .fileformat import ParseError, parse, parse_partial

__all__ = ["BUNDLED", "AUXILIARY", "PARTIAL", "NAMED_SUBSETS", "data_text", "load", "resolve"]

BUNDLED = ("C7", "D17", "B22", "B32")
AUXILIARY = ("Z2", "Z3", "Z4", "Z6", "S3")
PARTIAL = ("PSL27-partial", "Lemma72-seed", "Theorem41-seed", "B32-stall")

# conventional names for the closed subsets of the bundled algebras; B32
# and B22 share C and E, and B32's D is C plus ten more
_C = ("1", "b8", "x10", "b5", "c5", "c8", "x9")
_E = _C + ("r3", "s6", "t15", "d9", "y3")
NAMED_SUBSETS = {
    "B32": {"C": _C, "D": _C + ("c3", "c3bar", "d3", "d3bar", "c9", "c9bar", "b6", "b6bar", "y15", "y15bar"),
            "E": _E},
    "B22": {"C": _C, "E": _E},
}

_PACKAGE_DATA = os.path.join(os.path.dirname(__file__), "data")


def data_text(name: str) -> str:
    """Raw text of the shipped ``data/NAME.alg``, NAME one of the listed names."""
    if name not in BUNDLED + AUXILIARY + PARTIAL:
        raise FileNotFoundError(f"no bundled data file {name}.alg")
    with open(os.path.join(_PACKAGE_DATA, f"{name}.alg"), encoding="utf-8") as fh:
        return fh.read()


def _read(uri: str) -> str:
    """Raw text of a ``bundled:NAME`` URI or of a file path, which must be
    UTF-8; one leading byte-order mark, which some editors write, is dropped."""
    if uri.startswith("bundled:"):
        return data_text(uri[len("bundled:"):])
    try:
        with open(uri, encoding="utf-8") as fh:
            return fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        raise ParseError(f"{uri} is not UTF-8: {e.reason} at byte {e.start}") from None


@cache
def load(name: str) -> TableAlgebra:
    """Parse a bundled algebra by name, cached per process: every call
    with one name returns the same object, and so its cached report."""
    return parse(data_text(name))


def resolve(uri: str) -> TableAlgebra:
    """``bundled:NAME`` or a filesystem path to an algebra file, parsed
    afresh on every call, with no cache: two calls share no object."""
    return parse(_read(uri))


def resolve_partial(uri: str):
    """Like resolve but without the completeness requirement; returns
    (name, basis, products)."""
    return parse_partial(_read(uri))
