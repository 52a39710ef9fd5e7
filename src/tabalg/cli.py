"""Command-line front end.

Subcommands map one-to-one onto library operations.  ``_EPILOG``, the end
of ``tabalg --help``, lists the exit codes; on 141 nothing more is
printed.  Output is deterministic, and every argument has a help text.
``run()`` reads every input, through the argparse ``type`` of each input
positional, so a command gets its algebra or partial table already read.
The ``algebra`` positional that most commands take is declared once, in a
shared parent parser, as are the elements ``x`` and ``y`` of ``mult`` and
``inner``; ``iso`` declares its two algebras.
``run()`` also prints the --timing block of ``verify`` and ``deduce`` to
stderr: the load time, the phases the command left in ``out.seconds``, and
the total.  Each subcommand imports its own layer (structure, iso or
deduction) when it runs, so start-up pays only for the command in hand.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .bundled import AUXILIARY, BUNDLED, NAMED_SUBSETS, PARTIAL, data_text, load, resolve, resolve_partial
from .core import TableAlgebra, TableAlgebraError, format_element
from .fileformat import parse_element_expr, serialize


class _Out:
    def __init__(self, machine: bool):
        self.machine = machine
        self.seconds: dict[str, float] = {}  # phase -> seconds, for --timing

    def text(self, line: str):
        if not self.machine:
            print(line)

    def fact(self, key: str, value):
        if self.machine:
            print(f"{key}\t{value}")


def _subset_from_spec(algebra: TableAlgebra, spec: str) -> tuple[int, ...]:
    """A named subset (C/D/E of a bundled algebra), a comma list of element
    names, or a single element name; closure is always taken."""
    from .structure import closure
    named = NAMED_SUBSETS.get(algebra.name, {})
    return closure(algebra, named[spec] if spec in named else [s for s in spec.split(",") if s])


def _fmt_members(algebra: TableAlgebra, members) -> str:
    return " ".join(algebra.basis.name(i) for i in sorted(members))


def _emit(out: _Out, text: str, path: str | None, what: str) -> None:
    """Write text to path, or print it when no path is given."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out.text(f"wrote {what} to {path}")
    else:
        print(text, end="")


def _print_timing(seconds: dict[str, float], total: float) -> None:
    """The ``--timing`` block on stderr: one line per phase, then the total."""
    for phase, s in seconds.items():
        print(f"timing: {phase} {s:.3f}s", file=sys.stderr)
    print(f"timing: {total:.3f}s", file=sys.stderr)


def cmd_verify(args, out: _Out) -> int:
    report = args.algebra.verify_axioms(force_exact=args.exact)
    out.seconds = report.seconds
    for check in report.checks:
        out.fact(f"check.{check.name}", "pass" if check.passed else "fail")
        if not check.passed:
            out.text(str(check))
    out.fact("triples", report.associativity_triples)
    out.fact("evaluated", report.associativity_evaluated)
    out.fact("generators", " ".join(report.generators) or "-")
    out.fact("result", "pass" if report.ok else "fail")
    out.text(report.summary())
    return 0 if report.ok else 1


def cmd_mult(args, out: _Out) -> int:
    x = parse_element_expr(args.x, args.algebra.basis)
    y = parse_element_expr(args.y, args.algebra.basis)
    result = format_element(args.algebra.basis, args.algebra.multiply(x, y).items())
    out.fact("product", result)
    out.text(result)
    return 0


def cmd_inner(args, out: _Out) -> int:
    x = parse_element_expr(args.x, args.algebra.basis)
    y = parse_element_expr(args.y, args.algebra.basis)
    value = args.algebra.inner(x, y)
    out.fact("inner", value)
    out.text(str(value))
    return 0


def cmd_subsets(args, out: _Out) -> int:
    from .structure import all_closed_subsets
    lattice = all_closed_subsets(args.algebra)
    out.fact("count", len(lattice))
    for s in lattice:
        out.fact(f"subset.{len(s)}", _fmt_members(args.algebra, s))
        out.text(f"size {len(s):>3}: {_fmt_members(args.algebra, s)}")
    return 0


def cmd_closure(args, out: _Out) -> int:
    from .structure import closure
    s = closure(args.algebra, args.names)
    out.fact("closure", _fmt_members(args.algebra, s))
    out.text(f"size {len(s)}: {_fmt_members(args.algebra, s)}")
    return 0


def cmd_powers(args, out: _Out) -> int:
    from .structure import power_supports
    for n, supp in enumerate(power_supports(args.algebra, args.name, args.max), 1):
        out.fact(f"power.{n}", _fmt_members(args.algebra, supp))
        out.text(f"{args.name}^{n}: {_fmt_members(args.algebra, supp)}")
    return 0


def cmd_quotient(args, out: _Out) -> int:
    from .structure import is_group_like, quotient_by
    q = quotient_by(args.algebra, _subset_from_spec(args.algebra, args.by))
    g = is_group_like(q)
    desc = g.description if g else "none"
    out.fact("classes", q.size)
    out.fact("group-like", desc)
    out.text(f"{q.size} classes; group-like: {desc}")
    for label, members in zip(q.labels, q.classes):
        shown = _fmt_members(args.algebra, members)
        out.fact(f"class.{label}", shown)
        out.text(f"  [{label}] {shown}")
    return 0


def cmd_iso(args, out: _Out) -> int:
    from .iso import exact_isomorphic
    psi = exact_isomorphic(args.algebra_a, args.algebra_b)
    if psi is None:
        out.fact("isomorphic", "no")
        out.text("not exactly isomorphic")
        return 1
    out.fact("isomorphic", "yes")
    a, b = args.algebra_a.basis, args.algebra_b.basis
    mapping = ", ".join(f"{a.name(i)}->{b.name(ii)}" for i, ii in enumerate(psi))
    out.fact("mapping", mapping)
    out.text("exactly isomorphic")
    out.text("  " + mapping)
    return 0


def cmd_restrict(args, out: _Out) -> int:
    from .iso import restrict
    sub = restrict(args.algebra, _subset_from_spec(args.algebra, args.to))
    _emit(out, serialize(sub), args.output, f"{sub.name} (k={sub.size})")
    out.fact("size", sub.size)
    return 0


def cmd_deduce(args, out: _Out) -> int:
    from .deduction import PartialTable, propagate
    name, basis, products = args.table
    table, trace = propagate(PartialTable(basis, products), introduce_names=not args.no_names)
    out.seconds = trace.seconds
    if args.trace:  # before any output, so that an unwritable path prints nothing
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(trace.serialize())
    out.fact("status", trace.status)
    out.fact("steps", len(trace.steps))
    out.text(f"{name}: {trace.status} after {len(trace.steps)} steps")
    if trace.status == "contradiction":
        out.fact("witness", ",".join(map(str, trace.witness)))
        out.text(f"  witness: {trace.message}")
    elif trace.status == "stalled":
        pending, capped = table.pending_pairs(), " ".join(trace.capped)
        out.fact("unresolved", len(pending))
        out.fact("capped", capped or "-")
        out.text(f"  unresolved products: {len(pending)}")
        for pair in pending[:10]:
            out.text(f"    {table.label(pair)}")
        if capped:
            out.text(f"  (solver cap hit on {len(trace.capped)} products: {capped})")
    else:
        for pair, row in sorted(table.rows.items()):
            if pair[0]:
                out.text(f"  {table.label(pair)} = {format_element(basis, row.items())}")
    for key, value in trace.facts():
        out.fact(key, value)
    if args.trace:
        out.text(f"trace written to {args.trace}")
    return 0 if trace.status == "completed" else 1


def cmd_bundled(args, out: _Out) -> int:
    if args.output and not args.export:
        print("error: bundled -o/--output needs --export NAME", file=sys.stderr)
        return 2
    if args.export:
        _emit(out, data_text(args.export), args.output, args.export)
        return 0
    described = {"bundled": "verified table algebra", "aux": "group class algebra",
                 "partial": "partial table (deduction seed)"}
    listed = [(name, "bundled") for name in BUNDLED] + [(name, "aux") for name in AUXILIARY]
    listed += [(name, "partial") for name in PARTIAL]
    width = max(len(name) for name, _ in listed)
    for name, kind in listed:
        # a partial table is no algebra and has no size
        size = "-" if kind == "partial" else load(name).size
        out.fact(f"{kind}.{name}", size)
        out.text(f"{name:<{width}} " + ("" if kind == "partial" else f"k={size:<3} ") + described[kind])
    return 0


_WITNESS_HELP = """\
A failing check lists its first witnesses, tuples of basis indices; d[i][j][m]
is the coefficient of b_m in b_i b_j:
  identity                (0, j, m): d[0][j][m] is not 1 at m = j and 0 elsewhere
  involution              (i, j, m), i <= j: d[i][j][m] != d[ibar][jbar][mbar]
  degree-homomorphism     (i, j), i <= j: sum_m d[i][j][m] deg(b_m) != deg(b_i) deg(b_j)
  normalization-symmetry  (i, j, m): d[i][j][m] != d[jbar][m][i]
  associativity           (i, j, l, n): the coefficients of b_n in (b_i b_j) b_l
                          and in b_i (b_j b_l) differ"""


_EPILOG = """\
An algebra or table argument is a file path, or bundled:NAME for a file
shipped with tabalg (`tabalg bundled` lists them).  Exit codes: 0 success or a
positive answer; 1 a failed check or a negative answer; 2 a usage or input
error; 141 (128 + SIGPIPE) when the reader of stdout has gone."""


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tabalg", description="Exact arithmetic for normalized integral table algebras.",
                                 epilog=_EPILOG, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--format", choices=("text", "machine"), default="text",
                    help="text for reading, or machine: one key<TAB>value fact a line")
    sub = ap.add_subparsers(dest="command", required=True, help="the command; COMMAND --help says what it takes")
    timed = argparse.ArgumentParser(add_help=False)
    timed.add_argument("--timing", action="store_true",
                       help="print to stderr the time of loading the input, of each phase, and in total")
    one = argparse.ArgumentParser(add_help=False)  # the one algebra most commands read
    one.add_argument("algebra", type=resolve, help="an algebra: a file path or bundled:NAME")
    two = argparse.ArgumentParser(add_help=False)  # the two elements mult and inner read
    for arg in ("x", "y"):
        two.add_argument(arg, help="an element expression such as '2 b3 + x6'")

    p = sub.add_parser("verify", help="run the axiom verifier", epilog=_WITNESS_HELP, parents=[one, timed],
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--exact", action="store_true", help="pure-Python k³ sweep, no Light shortcut")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("mult", help="multiply two elements", parents=[one, two])
    p.set_defaults(func=cmd_mult)

    p = sub.add_parser("inner", help="inner product of two element expressions", parents=[one, two])
    p.set_defaults(func=cmd_inner)

    p = sub.add_parser("subsets", help="lattice of closed subsets", parents=[one])
    p.set_defaults(func=cmd_subsets)

    p = sub.add_parser("closure", help="closed subset generated by elements", parents=[one])
    p.add_argument("names", nargs="+", help="the generating element names, such as b3 b8")
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("powers", help="supports of powers of an element", parents=[one])
    p.add_argument("name", help="an element name, such as b3")
    p.add_argument("--max", type=int, default=6, help="the highest power shown (default 6)")
    p.set_defaults(func=cmd_powers)

    p = sub.add_parser("quotient", help="support-level quotient by a closed subset", parents=[one])
    p.add_argument("--by", required=True, help="subset name (C/D/E) or comma list of elements")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("iso", help="test exact isomorphism")
    p.add_argument("algebra_a", type=resolve, help="the first algebra: a file path or bundled:NAME")
    p.add_argument("algebra_b", type=resolve, help="the second algebra: a file path or bundled:NAME")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("restrict", help="restrict to a closed subset", parents=[one])
    p.add_argument("--to", required=True, help="subset name (C/D/E) or comma list of elements")
    p.add_argument("-o", "--output", help="write the restricted algebra to this file, not to stdout")
    p.set_defaults(func=cmd_restrict)

    p = sub.add_parser("deduce", help="complete a partial product table", parents=[timed])
    p.add_argument("table", type=resolve_partial, help="a partial table: a file path or bundled:NAME")
    p.add_argument("--trace", help="write the trace, one line per step, to this file")
    p.add_argument("--no-names", action="store_true",
                   help="disable the fresh-constituent naming convention (rule N)")
    p.set_defaults(func=cmd_deduce)

    p = sub.add_parser("bundled", help="list or export bundled data")
    p.add_argument("--export", metavar="NAME", help="print the shipped file NAME, such as B32 or Lemma72-seed")
    p.add_argument("-o", "--output", help="with --export, write the file here, not to stdout")
    p.set_defaults(func=cmd_bundled)
    return ap


def run(argv=None) -> int:
    t0 = time.perf_counter()
    try:
        # argparse reads the input files, so their errors are caught here too
        args = build_parser().parse_args(argv)
        loaded = time.perf_counter()
        out = _Out(machine=args.format == "machine")
        code = args.func(args, out)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    except BrokenPipeError:
        # as in the signal module's docs: stdout goes to devnull so that
        # the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (TableAlgebraError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if getattr(args, "timing", False):
        _print_timing({"load": loaded - t0, **out.seconds}, time.perf_counter() - t0)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
