"""Bundled verified datasets and data-file lookup.

Four fully verified algebras ship with the package: C7, D17, B22 and B32.
Five small group class algebras (Z2, Z3, Z4, Z6, S3) and one partial table
(PSL27-partial) are included as auxiliary data.  A ``bundled:NAME`` URI
reads ``NAME.alg`` from the first of two folders that has it: the folder
named by the environment variable TABALG_DATA_DIR, when set, so user
corpora can shadow or extend the bundled set; then the package's own
``data/`` folder.
"""

from __future__ import annotations

import os

from .core import TableAlgebra
from .fileformat import parse, parse_partial

__all__ = ["BUNDLED", "AUXILIARY", "PARTIAL", "NAMED_SUBSETS", "data_text", "load", "resolve"]

BUNDLED = ("C7", "D17", "B22", "B32")
AUXILIARY = ("Z2", "Z3", "Z4", "Z6", "S3")
PARTIAL = ("PSL27-partial",)

# conventional names for the closed subsets of the bundled algebras
NAMED_SUBSETS = {
    "B32": {
        "C": ("1", "b8", "x10", "b5", "c5", "c8", "x9"),
        "D": (
            "1", "b8", "x10", "b5", "c5", "c8", "x9",
            "c3", "c3bar", "d3", "d3bar", "c9", "c9bar", "b6", "b6bar", "y15", "y15bar",
        ),
        "E": ("1", "b8", "x10", "b5", "c5", "c8", "x9", "r3", "s6", "t15", "d9", "y3"),
    },
    "B22": {
        "C": ("1", "b8", "x10", "b5", "c5", "c8", "x9"),
        "E": ("1", "b8", "x10", "b5", "c5", "c8", "x9", "r3", "s6", "t15", "d9", "y3"),
    },
}

_cache: dict[tuple[str | None, str], TableAlgebra] = {}
_PACKAGE_DATA = os.path.join(os.path.dirname(__file__), "data")


def data_text(name: str) -> str:
    """Raw text of ``NAME.alg``, from TABALG_DATA_DIR or else the package."""
    fname = f"{name}.alg"
    for folder in filter(None, (os.environ.get("TABALG_DATA_DIR"), _PACKAGE_DATA)):
        path = os.path.join(folder, fname)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read()
    raise FileNotFoundError(f"no bundled data file {fname}")


def _read(uri: str) -> str:
    """Raw text of a ``bundled:NAME`` URI or of a file path."""
    if uri.startswith("bundled:"):
        return data_text(uri[len("bundled:"):])
    with open(uri, encoding="utf-8") as fh:
        return fh.read()


def load(name: str) -> TableAlgebra:
    """Parse a bundled or data-dir algebra by name (cached per process and
    per TABALG_DATA_DIR)."""
    key = (os.environ.get("TABALG_DATA_DIR"), name)
    if key not in _cache:
        _cache[key] = parse(data_text(name))
    return _cache[key]


def resolve(uri: str) -> TableAlgebra:
    """``bundled:NAME`` or a filesystem path to an algebra file."""
    if uri.startswith("bundled:"):
        return load(uri[len("bundled:"):])
    return parse(_read(uri))


def resolve_partial(uri: str):
    """Like resolve but without the completeness requirement; returns
    (name, basis, products)."""
    return parse_partial(_read(uri))
