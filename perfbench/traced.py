"""Traced replay of one ``tabalg`` command.

Usage: ``python perfbench/traced.py SPANS.json ARG...`` runs
``tabalg.cli.run([ARG...])`` in this fresh interpreter with the public
entry points of each ``tabalg`` module wrapped in spans, then writes the
spans to SPANS.json and exits with the command's exit code.  The command's
standard output is the same as ``python -m tabalg.cli ARG...``.

``python perfbench/traced.py --peak URI`` instead loads URI (a path or
``bundled:NAME``) and prints
the tracemalloc peak, in bytes, of one ``verify_axioms`` call on it.

A span is ``[name, start, end, parent, info]``: ``parent`` is the index of
the enclosing span or -1, ``info`` a small dict describing the result.
Spans are kept in memory and written once, when the command has ended.
"""

from __future__ import annotations

import functools
import json
import sys
import time

SPANS: list[list] = []
_stack: list[int] = []


def _verify_info(args, kwargs, report):
    exact = kwargs.get("force_exact", args[2] if len(args) > 2 else False)
    kind = "exact" if exact else ("pass" if report.ok else "fail")
    return {"kind": kind, "triples": report.associativity_triples}


def _propagate_info(args, kwargs, result):
    rules: dict[str, int] = {}
    for step in result[1].steps:
        rules[step.rule] = rules.get(step.rule, 0) + 1
    return {"status": result[1].status, "rules": rules}


def _span(name, fn, info=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = len(SPANS)
        record = [name, time.perf_counter(), None, _stack[-1] if _stack else -1, None]
        SPANS.append(record)
        _stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            _stack.pop()
        if info is not None:
            record[4] = info(args, kwargs, result)
        return result

    return wrapper


def install() -> None:
    """Wrap the traced entry points wherever a ``tabalg`` module binds them."""
    from tabalg import core, deduction, fileformat, iso, structure

    functions = {
        (fileformat, "parse"): ("fileformat.parse", None),
        (fileformat, "parse_partial"): ("fileformat.parse_partial", None),
        (structure, "closure"): ("structure.closure", None),
        (structure, "all_closed_subsets"): ("structure.all_closed_subsets", lambda a, k, r: {"nodes": len(r)}),
        (structure, "quotient_by"): ("structure.quotient_by", None),
        (structure, "is_group_like"): ("structure.is_group_like", None),
        (structure, "power_supports"): ("structure.power_supports", None),
        (iso, "restrict"): ("iso.restrict", None),
        (iso, "exact_isomorphic"): ("iso.exact_isomorphic", lambda a, k, r: {"match": r is not None}),
        (deduction, "propagate"): ("deduction.propagate", _propagate_info),
    }
    modules = [m for n, m in list(sys.modules.items()) if n == "tabalg" or n.startswith("tabalg.")]
    for (owner, attr), (name, info) in functions.items():
        original = getattr(owner, attr)
        wrapped = _span(name, original, info)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

    table = core.TableAlgebra
    table.from_products = classmethod(_span("core.build", table.__dict__["from_products"].__func__))
    table.verify_axioms = _span("core.verify", table.verify_axioms, _verify_info)
    table.multiply = _span("core.multiply", table.multiply)


def peak(uri: str) -> int:
    import tracemalloc

    from tabalg.bundled import resolve

    algebra = resolve(uri)
    tracemalloc.start()
    try:
        algebra.verify_axioms()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv: list[str]) -> int:
    if argv[0] == "--peak":
        print(peak(argv[1]))
        return 0
    out_path, cli_argv = argv[0], argv[1:]
    t0 = time.perf_counter()
    import tabalg.cli

    import_s = time.perf_counter() - t0
    install()
    rc = _span("cli.run", tabalg.cli.run)(cli_argv)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "spans": SPANS}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
