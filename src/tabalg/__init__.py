"""Exact arithmetic for normalized integral table algebras.

Distinguished bases with nonnegative integer structure constants: axiom
verification, closed-subset and quotient analysis, exact isomorphism
testing, a file format with bundled verified datasets, and a deduction
engine that completes partially specified product tables.

Every public name loads on first use (PEP 562): ``import tabalg`` imports
no submodule, and ``tabalg.propagate``, say, imports ``tabalg.deduction``
only when it is first read.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> submodule that defines it
_SOURCES = {
    **dict.fromkeys(
        (
            "BasisElement",
            "TableBasis",
            "StructureConstants",
            "TableAlgebra",
            "VerificationReport",
            "TableAlgebraError",
            "MalformedElementError",
        ),
        "core",
    ),
    **dict.fromkeys(("ParseError", "parse", "parse_partial", "parse_element_expr", "serialize"), "fileformat"),
    **dict.fromkeys(
        (
            "is_closed",
            "QuotientClassTable",
            "GroupTable",
            "closure",
            "all_closed_subsets",
            "power_supports",
            "quotient_by",
            "is_group_like",
        ),
        "structure",
    ),
    **dict.fromkeys(("NotClosedError", "UnverifiedAlgebraError", "restrict", "exact_isomorphic"), "iso"),
    **dict.fromkeys(("PartialTable", "DeductionTrace", "propagate"), "deduction"),
    **dict.fromkeys(("load", "resolve"), "bundled"),
}

__all__ = list(_SOURCES)


def __getattr__(name):
    source = _SOURCES.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{source}", __name__), name)
    globals()[name] = value
    return value
