import argparse
import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

import tabalg
from tabalg import load, parse, parse_element_expr, parse_partial, serialize
from tabalg.bundled import PARTIAL, data_text, resolve
from tabalg.cli import build_parser, run

import corpus


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestHelp:
    def test_every_argument_says_what_it_takes(self):
        parsers, missing = [build_parser()], []
        while parsers:
            parser = parsers.pop()
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    parsers += action.choices.values()
                if not isinstance(action, argparse._HelpAction) and not action.help:
                    missing.append((parser.prog, action.dest))
        assert missing == []

    def test_help_lists_exit_codes_and_bundled_names(self, capsys):
        code, out, _ = invoke(capsys, "--help")
        assert code == 0
        epilog = " ".join(out.split())
        assert "or bundled:NAME for a file shipped with tabalg" in epilog
        for text in ("0 success", "1 a failed check", "2 a usage", "141 (128 + SIGPIPE)"):
            assert text in epilog


class TestVerify:
    def test_help_says_what_each_witness_holds(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--help")
        assert code == 0
        shapes = dict(re.findall(r"^  ([a-z-]+) +(\(.*?\)(?:, i <= j)?):", out, re.M))
        assert shapes == {
            "identity": "(0, j, m)",
            "involution": "(i, j, m), i <= j",
            "degree-homomorphism": "(i, j), i <= j",
            "normalization-symmetry": "(i, j, m)",
            "associativity": "(i, j, l, n)",
        }

    def test_pass_line_and_exit_zero(self, capsys):
        code, out, _ = invoke(capsys, "verify", "bundled:B32")
        assert code == 0
        assert out.strip() == "PASS (8 axiom classes, 32768 associativity triples)"

    def test_failing_file_exits_one(self, capsys, tmp_path):
        A = load("S3")
        path = tmp_path / "s3.alg"
        path.write_text(serialize(A))
        code, out, _ = invoke(capsys, "verify", str(path))
        assert code == 1
        assert "FAIL" in out

    def test_machine_format(self, capsys):
        code, out, _ = invoke(capsys, "--format", "machine", "verify", "bundled:C7")
        assert code == 0
        facts = dict(line.split("\t") for line in out.strip().splitlines())
        assert facts["result"] == "pass"
        assert facts["triples"] == "343"
        assert facts["check.associativity"] == "pass"

    def test_machine_format_counts_evaluated_triples(self, capsys):
        code, out, _ = invoke(capsys, "--format", "machine", "verify", "bundled:B32")
        assert code == 0
        facts = dict(line.split("\t") for line in out.strip().splitlines())
        generators = facts["generators"].split()
        assert facts["triples"] == "32768"
        assert facts["evaluated"] == str(len(generators) * 32 * 32)
        code, out, _ = invoke(capsys, "--format", "machine", "verify", "--exact", "bundled:B32")
        facts = dict(line.split("\t") for line in out.strip().splitlines())
        assert (facts["evaluated"], facts["generators"]) == ("32768", "-")

    def test_printed_b32_fails_alike_with_and_without_exact(self, capsys, tmp_path):
        # the paper prints b6 in d3*c8 where the table needs b6bar
        fixed, printed = next(lines for lines in corpus.B32_AS_PRINTED if lines[0].startswith("product d3 c8 "))
        path = tmp_path / "b32printed.alg"
        path.write_text(data_text("B32").replace(fixed + "\n", printed + "\n"))
        code, out, _ = invoke(capsys, "verify", str(path))
        assert (code, out) == invoke(capsys, "verify", "--exact", str(path))[:2]
        assert code == 1
        assert out.splitlines()[-1] == "FAIL (normalization-symmetry, associativity)"
        prefix = "FAIL associativity witnesses="
        line = next(line for line in out.splitlines() if line.startswith(prefix))
        witnesses = ast.literal_eval(line[len(prefix):])
        assert len(witnesses) == 20
        # evaluated counts the triples through the 20th witness's, in lexicographic order
        i, j, l, _ = witnesses[-1]
        code, out, _ = invoke(capsys, "--format", "machine", "verify", str(path))
        facts = dict(line.split("\t") for line in out.strip().splitlines())
        assert code == 1
        assert (facts["triples"], facts["generators"]) == ("32768", "-")
        assert int(facts["evaluated"]) == (i * 32 + j) * 32 + l + 1 < 32768

    def test_timing_per_check_on_stderr(self, capsys):
        plain = invoke(capsys, "verify", "bundled:C7")[1]
        code, out, err = invoke(capsys, "verify", "--timing", "bundled:C7")
        assert code == 0
        assert out == plain
        lines = err.strip().splitlines()
        checks = [line.split()[1] for line in lines[:-1]]
        assert checks == [
            "load", "nonnegativity", "integrality", "identity", "commutativity", "involution",
            "degree-homomorphism", "normalization-symmetry", "associativity",
        ]
        assert all(re.fullmatch(r"timing: \S+ \d+\.\d{3}s", line) for line in lines[:-1])
        assert re.fullmatch(r"timing: \d+\.\d{3}s", lines[-1])
        # the total covers load and every check; each printed figure is rounded to the millisecond
        phases = [float(line.split()[2][:-1]) for line in lines[:-1]]
        assert sum(phases) <= float(lines[-1].split()[1][:-1]) + 0.0005 * (len(phases) + 1)
        assert invoke(capsys, "--timing", "verify", "bundled:C7")[0] == 2

    @pytest.mark.parametrize("argv", [
        ["mult", "bundled:C7", "b5", "b5"], ["inner", "bundled:C7", "b5", "b5"], ["subsets", "bundled:C7"],
        ["closure", "bundled:C7", "b5"], ["powers", "bundled:C7", "b5"], ["quotient", "bundled:B22", "--by", "C"],
        ["iso", "bundled:C7", "bundled:C7"], ["restrict", "bundled:B22", "--to", "C"], ["bundled"],
    ])
    def test_timing_is_taken_only_by_verify_and_deduce(self, capsys, argv):
        assert invoke(capsys, *argv)[0] == 0
        code, out, err = invoke(capsys, *argv, "--timing")
        assert (code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: --timing\n")

    def test_no_timestamps_in_output(self, capsys):
        code, out, _ = invoke(capsys, "verify", "bundled:B22")
        again = invoke(capsys, "verify", "bundled:B22")[1]
        assert out == again


class TestMult:
    def test_paper_example(self, capsys):
        code, out, _ = invoke(capsys, "mult", "bundled:B32", "b3", "b3bar")
        assert code == 0
        assert out.strip() == "1 + b8"

    def test_expression_arguments(self, capsys):
        code, out, _ = invoke(capsys, "inner", "bundled:B32", "b3 + x6", "b3 + 2 x6")
        assert code == 0
        assert out.strip() == "3"

    def test_unknown_name_exit_two(self, capsys):
        code, _, err = invoke(capsys, "mult", "bundled:B32", "nope", "b3")
        assert code == 2
        assert "error" in err

    def test_empty_expression_exit_two(self, capsys):
        code, _, err = invoke(capsys, "mult", "bundled:C7", "", "b8")
        assert code == 2
        assert err == "error: no terms in element expression ''\n"

    def test_coefficient_of_ascii_digits_only(self, capsys):
        code, out, err = invoke(capsys, "mult", "bundled:C7", "1_0 b8", "1")
        assert (code, out) == (2, "")
        assert err == "error: bad coefficient '1_0' in element expression '1_0 b8'\n"

    @pytest.mark.parametrize("command", ["mult", "inner"])
    @pytest.mark.parametrize("expr, fault", [("b3 +", "trailing '+'"), ("+ b3", "empty term")])
    def test_expression_errors_quote_the_expression(self, capsys, command, expr, fault):
        """An argument has no right-hand side: the error names the element
        expression, which it quotes, in either position."""
        for args in ((expr, "b8"), ("b8", expr)):
            code, out, err = invoke(capsys, command, "bundled:B32", *args)
            assert (code, out) == (2, "")
            assert err == f"error: {fault} in element expression {expr!r}\n"


class TestStructureCommands:
    def test_quotient_line(self, capsys):
        code, out, _ = invoke(capsys, "quotient", "bundled:B32", "--by", "C")
        assert code == 0
        assert out.splitlines()[0] == "6 classes; group-like: cyclic(6)"

    def test_quotient_by_element_list(self, capsys):
        code, out, _ = invoke(capsys, "quotient", "bundled:B22", "--by", "b8,x10")
        assert code == 0
        assert out.splitlines()[0] == "4 classes; group-like: cyclic(4)"

    def test_subsets(self, capsys):
        code, out, _ = invoke(capsys, "subsets", "bundled:B22")
        assert code == 0
        sizes = [int(line.split()[1].rstrip(":")) for line in out.strip().splitlines()]
        assert sizes == [1, 7, 12, 22]

    def test_closure(self, capsys):
        code, out, _ = invoke(capsys, "closure", "bundled:B32", "b8")
        assert code == 0
        assert out.startswith("size 7:")

    def test_powers(self, capsys):
        code, out, _ = invoke(capsys, "powers", "bundled:B32", "b3", "--max", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].startswith("b3^2:")
        assert set(lines[2].split(":")[1].split()) == {"r3", "s6", "t15"}


class TestIsoRestrict:
    def test_iso_yes(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "restrict", "bundled:B32", "--to", "D",
                              "-o", str(tmp_path / "d.alg"))
        assert code == 0
        code, out, _ = invoke(capsys, "iso", str(tmp_path / "d.alg"), "bundled:D17")
        assert code == 0
        assert out.splitlines()[0] == "exactly isomorphic"

    def test_iso_no_exit_one(self, capsys):
        code, out, _ = invoke(capsys, "iso", "bundled:B32", "bundled:B22")
        assert code == 1
        assert "not exactly isomorphic" in out

    def test_restrict_stdout(self, capsys):
        code, out, _ = invoke(capsys, "restrict", "bundled:B32", "--to", "C")
        assert code == 0
        assert parse(out).size == 7


class TestDeduce:
    def test_partial_file_completes(self, capsys, tmp_path):
        code, out, _ = invoke(
            capsys, "deduce", "bundled:PSL27-partial",
            "--trace", str(tmp_path / "trace.log"),
        )
        assert code == 0
        assert "completed" in out
        text = (tmp_path / "trace.log").read_text()
        assert text.strip().endswith("STATUS completed")
        assert "RULE" in text

    def test_stalled_exit_one(self, capsys):
        # B32's basis with only b3*b3bar known: far too little to propagate
        code, out, _ = invoke(capsys, "deduce", "bundled:B32-stall")
        assert code == 1
        assert "stalled" in out

    def test_refuted_seed_reports_contradiction(self, capsys, tmp_path):
        # on this four-element basis no value for b3*b3 can exist at all
        path = tmp_path / "refuted.alg"
        path.write_text(
            "algebra refuted\n"
            "element b3 degree 3 dual b3bar\n"
            "element b3bar degree 3 dual b3\n"
            "element b8 degree 8 dual b8\n"
            "product b3 b3bar = 1 + b8\n"
        )
        code, out, _ = invoke(capsys, "deduce", str(path))
        assert code == 1
        assert "contradiction" in out

    def test_identity_transport_refutes_a_missing_one(self, capsys, tmp_path):
        # c3*c3bar has degree 9 either way, but 1 = c3 * (1 * c3bar) puts 1
        # in c3*c3bar: the identity rows' transport writes it against the 0
        original = "product c3 c3bar = 1 + b8\n"
        text = data_text("Lemma72-seed")
        assert original in text
        path = tmp_path / "Lemma72.alg"
        path.write_text(text.replace(original, "product c3 c3bar = c3 + c3bar + r3\n"))
        code, out, _ = invoke(capsys, "deduce", str(path))
        assert code == 1
        assert out.splitlines() == [
            "Lemma72: contradiction after 0 steps",
            "  witness: conflicting values 0 and 1 for coefficient of 1 in c3*c3bar",
        ]

    @pytest.mark.parametrize("name, code, head", [
        ("Lemma72-seed", 0, "Lemma72: completed after 355 steps"),
        ("Theorem41-seed", 1, "Theorem41: contradiction after 0 steps"),
        ("B32-stall", 1, "B32stall: stalled after 0 steps"),
    ])
    def test_shipped_paper_seeds(self, capsys, B32, name, code, head):
        got, out, _ = invoke(capsys, "deduce", f"bundled:{name}")
        lines = out.splitlines()
        assert (got, lines[0]) == (code, head)
        if name == "Lemma72-seed":
            # every product, each equal to bundled B32's
            assert len(lines) == 1 + 31 * 32 // 2
            for line in lines[1:]:
                lhs, rhs = line.strip().split(" = ")
                i, j = map(B32.basis.index_of, lhs.split("*"))
                assert parse_element_expr(rhs, B32.basis) == B32.constants.rows[i][j], lhs
        elif name == "Theorem41-seed":
            assert lines[1] == "  witness: triple (b3*b3)*b3bar forces a negative coefficient of b6bar in b3bar*b6"
        else:
            prefix = "  (solver cap hit on 271 products: "
            assert lines[-1].startswith(prefix)
            assert len(lines[-1][len(prefix):-1].split()) == 271

    def test_clashing_dual_image_lines_are_an_input_error(self, capsys, tmp_path):
        # the dual image of b3*b3 = c3 + b6 is b3bar*b3bar = c3bar + b6bar
        lines = [l for l in serialize(load("B32")).splitlines() if not l.startswith("product")]
        path = tmp_path / "clash.alg"
        path.write_text("\n".join(lines + ["product b3 b3 = c3 + b6", "product b3bar b3bar = c3 + b6"]) + "\n")
        code, out, err = invoke(capsys, "deduce", str(path))
        assert code == 2
        assert out == ""
        assert "conflicting value for product b3bar b3bar" in err

    def test_machine_format_reports_stats(self, capsys, tmp_path):
        trace = tmp_path / "trace.log"
        code, out, _ = invoke(capsys, "--format", "machine", "deduce", "bundled:PSL27-partial",
                              "--trace", str(trace))
        assert code == 0
        facts = dict(line.split("\t") for line in out.strip().splitlines())
        steps = trace.read_text().splitlines()[:-1]
        for rule in ("R1", "R2", "R3", "R4", "N"):
            assert int(facts[f"stats.{rule}.firings"]) == sum(f" RULE {rule} " in s for s in steps)
        assert int(facts["stats.R3.attempts"]) >= int(facts["stats.R3.firings"]) > 0
        assert facts["stats.sweep.firings"] == "0"
        assert facts["stats.solver.overflow_pairs"] == "-"
        assert int(facts["stats.solver.count_states"]) >= 0
        assert not any("gated" in key or "nodes" in key for key in facts)

    def test_timing_per_phase_on_stderr(self, capsys):
        code, out, err = invoke(capsys, "deduce", "bundled:PSL27-partial", "--timing")
        assert code == 0
        lines = err.strip().splitlines()
        assert re.fullmatch(r"timing: \d+\.\d{3}s", lines[-1])
        for line in lines[:-1]:
            assert re.fullmatch(r"timing: \S+ \d+\.\d{3}s", line), line
        assert {"seed", "R1", "R3", "R4", "sweep"} <= {line.split()[1] for line in lines[:-1]}
        assert "timing" not in out

    def test_timing_splits_out_r2_transport(self, capsys):
        """R2 transport has its own line, taken out of the phases whose
        syncs ran it, so the phase lines still add up to no more than the
        total; stdout is that of a run without --timing."""
        plain = invoke(capsys, "deduce", "bundled:Lemma72-seed")[1]
        code, out, err = invoke(capsys, "deduce", "bundled:Lemma72-seed", "--timing")
        assert code == 0
        assert out == plain
        lines = err.strip().splitlines()
        phases = {line.split()[1]: float(line.split()[2][:-1]) for line in lines[:-1]}
        assert list(phases)[:4] == ["load", "seed", "R2", "R1"]
        total = float(lines[-1].split()[1][:-1])
        # each printed figure is rounded to the millisecond
        assert sum(phases.values()) <= total + 0.0005 * (len(phases) + 1)

    @pytest.mark.parametrize("flags, named", [((), True), (("--no-names",), False)])
    def test_naming_is_timed_as_its_own_phase(self, capsys, flags, named):
        code, _, err = invoke(capsys, "deduce", "bundled:Lemma72-seed", "--timing", *flags)
        phases = [line.split()[1] for line in err.strip().splitlines()[:-1]]
        assert ("N" in phases) == named
        if named:
            assert phases.index("N") == phases.index("R4") + 1

    def test_unwritable_trace_path_prints_nothing_but_the_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "trace.log"
        code, out, err = invoke(capsys, "deduce", "--trace", str(path), "bundled:PSL27-partial")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "trace.log" in err

    def test_trace_line_is_the_last_text_line(self, capsys, tmp_path):
        trace = tmp_path / "trace.log"
        plain = invoke(capsys, "deduce", "bundled:PSL27-partial")[1]
        code, out, _ = invoke(capsys, "deduce", "bundled:PSL27-partial", "--trace", str(trace))
        assert code == 0
        assert out == plain + f"trace written to {trace}\n"
        assert trace.read_text().endswith("STATUS completed\n")

    def test_stall_names_the_solver_caps_it_hit(self, capsys, tmp_path):
        trace = tmp_path / "trace.log"
        code, out, _ = invoke(capsys, "deduce", "bundled:B32-stall", "--trace", str(trace))
        assert code == 1
        assert out.splitlines()[0] == "B32stall: stalled after 0 steps"
        assert "  (solver cap hit on 271 products: b8*b8 " in out
        tail = trace.read_text().splitlines()[-1]
        assert tail.startswith("STATUS stalled SOLVER-CAP b8*b8,")
        assert "c3*c3" in tail.split()[-1].split(",")
        code, out, _ = invoke(capsys, "--format", "machine", "deduce", "bundled:B32-stall")
        facts = dict(line.split("\t") for line in out.strip().splitlines())
        assert len(facts["capped"].split()) == 271
        assert facts["capped"].split() == tail.split()[-1].split(",")
        assert set(facts["capped"].split()) <= set(facts["stats.solver.overflow_pairs"].split())
        assert "gated" not in facts


def subprocess_env():
    """The environment with this checkout's tabalg first on PYTHONPATH."""
    src = str(pathlib.Path(tabalg.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_script(script, timeout=120, flags=()):
    return subprocess.run(
        [sys.executable, *flags, "-c", script], env=subprocess_env(), capture_output=True, text=True, timeout=timeout
    )


def test_no_command_imports_numpy():
    script = (
        "import sys, tabalg.cli\n"
        "assert 'numpy' not in sys.modules, 'import'\n"
        "tabalg.cli.run(['deduce', 'bundled:PSL27-partial'])\n"
        "assert 'numpy' not in sys.modules, 'deduce'\n"
        "tabalg.cli.run(['verify', 'bundled:C7'])\n"
        "assert 'numpy' not in sys.modules, 'verify'\n"
    )
    done = run_script(script)
    assert done.returncode == 0, done.stderr


def test_commands_run_with_numpy_blocked():
    # a None entry in sys.modules makes any `import numpy` raise ImportError
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from tabalg.cli import run\n"
        "codes = [\n"
        "    run(['verify', 'bundled:B32']),\n"
        "    run(['verify', '--exact', 'bundled:C7']),\n"
        "    run(['iso', 'bundled:B32', 'bundled:B22']),\n"
        "    run(['subsets', 'bundled:B22']),\n"
        "    run(['deduce', 'bundled:PSL27-partial']),\n"
        "]\n"
        "assert codes == [0, 0, 1, 0, 0], codes\n"
    )
    done = run_script(script)
    assert done.returncode == 0, done.stderr


def test_quotient_of_an_idempotent_class_table_returns(tmp_path):
    # a single-valued class table that is not a group: a*a = a never
    # reaches the identity class; a hang fails here through the timeout
    path = tmp_path / "idem.alg"
    path.write_text("algebra Idem\nelement a degree 1 dual a\nproduct a a = a\n")
    script = (
        "import sys\n"
        "from tabalg.cli import run\n"
        f"assert run(['verify', {str(path)!r}]) == 1\n"
        f"sys.exit(run(['quotient', {str(path)!r}, '--by', '1']))\n"
    )
    done = run_script(script, timeout=30)
    assert done.returncode == 0, done.stderr
    assert "2 classes; group-like: none" in done.stdout


def test_closed_stdout_exits_141_in_silence():
    # the reader of stdout is gone before the command writes
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "tabalg.cli", "bundled", "--export", "B32"],
            stdout=write_end, stderr=subprocess.PIPE, env=subprocess_env(), timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


def test_import_tabalg_loads_no_submodule():
    script = (
        "import sys, tabalg\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('tabalg.'))\n"
        "assert not loaded, loaded\n"
    )
    done = run_script(script)
    assert done.returncode == 0, done.stderr


BASE_MODULES = {"tabalg", "tabalg.cli", "tabalg.core", "tabalg.fileformat", "tabalg.bundled"}


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["verify", "bundled:C7"], set()),
        (["verify", "--exact", "bundled:C7"], set()),
        (["mult", "bundled:B32", "b3", "b8"], set()),
        (["inner", "bundled:B32", "b3", "b3"], set()),
        (["bundled"], set()),
        (["bundled", "--export", "C7"], set()),
        (["subsets", "bundled:C7"], {"structure"}),
        (["closure", "bundled:B32", "b8"], {"structure"}),
        (["powers", "bundled:B32", "b3"], {"structure"}),
        (["quotient", "bundled:B32", "--by", "C"], {"structure"}),
        (["iso", "bundled:C7", "bundled:C7"], {"iso"}),
        (["restrict", "bundled:B32", "--to", "C"], {"structure", "iso"}),
        (["deduce", "bundled:PSL27-partial"], {"deduction"}),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_each_command_imports_only_its_layer(argv, layers):
    # no command pays for dataclasses, nor for the inspect, ast and dis it
    # imports, nor for importlib.resources; -S keeps out what site imports
    script = (
        "import contextlib, io, sys, tabalg.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = tabalg.cli.run({argv!r})\n"
        "heavy = [m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'importlib.resources') if m in sys.modules]\n"
        "print(code, ','.join(heavy) or '-', *sorted(m for m in sys.modules if m.startswith('tabalg')))\n"
    )
    done = run_script(script, flags=("-S",))
    assert done.returncode == 0, done.stderr
    code, heavy, *modules = done.stdout.split()
    assert code == "0"
    assert set(modules) == BASE_MODULES | {f"tabalg.{layer}" for layer in layers}
    assert heavy == "-"


def test_star_import_binds_the_defining_objects():
    script = (
        "import sys, tabalg.cli, tabalg\n"
        "from tabalg import *\n"
        "for name in tabalg.__all__:\n"
        "    value = globals()[name]\n"
        "    assert value.__module__.startswith('tabalg.'), name\n"
        "    assert value is getattr(sys.modules[value.__module__], name), name\n"
        "    assert getattr(tabalg, name) is value, name\n"
        "try:\n"
        "    tabalg.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('unknown attribute resolved')\n"
    )
    done = run_script(script)
    assert done.returncode == 0, done.stderr


class TestBundled:
    def test_list(self, capsys):
        code, out, _ = invoke(capsys, "bundled")
        assert code == 0
        names = [line.split()[0] for line in out.splitlines()]
        assert {"B32", "PSL27-partial", "Lemma72-seed", "Theorem41-seed", "B32-stall"} <= set(names)

    def test_list_lines_up_the_descriptions(self, capsys):
        _, out, _ = invoke(capsys, "bundled")
        # the column where each line's description starts, after its name
        columns = {re.match(r"\S+ +", line).end() for line in out.splitlines()}
        assert len(columns) == 1, out

    def test_export_round_trip(self, capsys, tmp_path):
        target = tmp_path / "exported.alg"
        code, _, _ = invoke(capsys, "bundled", "--export", "D17", "-o", str(target))
        assert code == 0
        assert parse(target.read_text()).size == 17

    def test_output_without_export_is_refused(self, capsys, tmp_path):
        target = tmp_path / "listing.txt"
        code, out, err = invoke(capsys, "bundled", "-o", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "--export" in err
        assert not target.exists()

    @pytest.mark.parametrize("name", PARTIAL)
    def test_export_of_a_partial_table(self, capsys, tmp_path, name):
        # a listed name exports although it is no complete algebra
        target = tmp_path / "exported.alg"
        code, _, _ = invoke(capsys, "bundled", "--export", name, "-o", str(target))
        assert code == 0
        assert parse_partial(target.read_text()) == parse_partial(data_text(name))

    def test_resolve_shares_nothing(self):
        # each read parses afresh, so no two inputs in one process share an
        # algebra or its cached report; only load keeps a cache
        a, b = resolve("bundled:C7"), resolve("bundled:C7")
        assert a is not b and a is not load("C7")
        assert (a.basis, a.constants.rows) == (load("C7").basis, load("C7").constants.rows)
        assert load("C7") is load("C7")

    def test_unknown_bundled_name_exit_two(self, capsys):
        code, _, err = invoke(capsys, "verify", "bundled:NoSuch")
        assert code == 2
        assert err == "error: no bundled data file NoSuch.alg\n"

    def test_bundled_name_reads_no_file_outside_the_listed_names(self, capsys):
        # the path exists from the package's data folder, but names no listed file
        code, out, err = invoke(capsys, "verify", "bundled:../data/C7")
        assert (code, out) == (2, "")
        assert err == "error: no bundled data file ../data/C7.alg\n"

    @pytest.mark.parametrize("command", ["verify", "deduce"])
    def test_file_not_utf8_exit_two(self, capsys, tmp_path, command):
        path = tmp_path / "binary.alg"
        path.write_bytes(b"\xff\xfe")
        code, out, err = invoke(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path} is not UTF-8: invalid start byte at byte 0\n"

    @pytest.mark.parametrize("command", ["verify", "deduce"])
    def test_byte_order_mark_is_dropped(self, capsys, tmp_path, command):
        path = tmp_path / "bom.alg"
        path.write_bytes(b"\xef\xbb\xbf" + data_text("C7").encode())
        assert invoke(capsys, command, str(path)) == invoke(capsys, command, "bundled:C7")

    def test_directory_path_exit_two(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "verify", str(tmp_path))
        assert code == 2
        assert err.startswith("error: ") and "Is a directory" in err

    def test_usage_error_exit_two(self, capsys):
        assert invoke(capsys, "powers", "bundled:B32")[0] == 2
