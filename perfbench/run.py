"""Benchmark of the ``tabalg`` command-line tool, end to end and per layer.

    python3 perfbench/run.py --workload paper|deduce|scale --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout; it needs ``src/tabalg``.  The workload
and its inputs are built from the seed (see ``workloads.py``) before any
timing starts.  Then, as one client in a closed loop, the workload's
commands run one after another, each as ``python -m tabalg.cli ...`` in a
fresh interpreter, so every command pays start-up, import and parse as a
user does and no in-process cache survives from one command to the next.

The number of passes is fixed by ``--seconds`` alone (``PASS_SECONDS``),
never by how fast the code runs, so every commit is timed on the same
number of samples.  A calibration probe (``calibrate.py``, which runs no
``tabalg`` code) is spawned after every command (every second command of
``paper``, whose commands are short) and every set-up probe.  A process
counts at its wall time times ``CAL_REF_S`` over the median time of the
calibration probes nearest to it: a shared host that slows everything down
for a while slows both alike.  Each command counts at its fastest
calibrated latency over the passes.
With ``--trace 1`` plain passes alternate with replays of the script
through ``traced.py``, which records a span around every public entry point
of each ``tabalg`` module, and the run reports per-layer self times and
counts.  Every answer is checked in both modes.

Human-readable results go to standard output; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 2  # per round: before the first pass and after each pass
# A run makes one pass per PASS_SECONDS of --seconds, and at least two: the
# count never depends on how fast the code under test is.
PASS_SECONDS = 15
MIN_PASSES = 2
# A timed process's calibrated time is its wall time times CAL_REF_S over
# the median wall time of the CAL_WINDOW calibration probes spawned last
# before it and the CAL_WINDOW spawned first after it: seconds of a host on
# which calibrate.py takes CAL_REF_S.
CAL_REF_S = 0.2
CAL_WINDOW = 2
COMMAND_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "verify_s": "s",
    "verify_fail_s": "s",
    "lattice_s": "s",
    "quotient_s": "s",
    "iso_s": "s",
    "deduce_s": "s",
    "peak_rss_mb": "MB",
    "error_rate": "fraction",
}
# The end-to-end metrics every workload has, and so the ones the result
# line carries; the per-group sums exist only where a workload runs that
# group and are printed in the summary.
RESULT_METRICS = ("setup_s", "wall_s", "peak_rss_mb")

LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "fileformat.parse_s": "s",
    "core.build_s": "s",
    "core.verify_s": "s",
    "core.verify_fail_s": "s",
    "core.verify_exact_s": "s",
    "core.triples_per_s": "1/s",
    "core.verify_peak_mb": "MB",
    "core.multiply_calls": "count",
    "core.multiply_s": "s",
    "structure.closure_calls": "count",
    "structure.closure_s": "s",
    "structure.lattice_s": "s",
    "structure.lattice_nodes": "count",
    "structure.quotient_s": "s",
    "structure.powers_s": "s",
    "iso.restrict_s": "s",
    "iso.match_s": "s",
    "iso.reject_s": "s",
    "deduction.complete_s": "s",
    "deduction.stall_s": "s",
    "deduction.refute_s": "s",
    "deduction.steps": "count",
    "deduction.steps_R1": "count",
    "deduction.steps_R2": "count",
    "deduction.steps_R3": "count",
    "deduction.steps_R4": "count",
    "deduction.steps_per_s": "1/s",
    "trace.overhead_s": "s",
}
LAYERS = ("startup", "cli", "fileformat", "core", "structure", "iso", "deduction")

# span name -> the layer metric its self time adds to
SELF_TIME = {
    "cli.run": "cli.self_s",
    "fileformat.parse": "fileformat.parse_s",
    "fileformat.parse_partial": "fileformat.parse_s",
    "core.build": "core.build_s",
    "core.multiply": "core.multiply_s",
    "structure.closure": "structure.closure_s",
    "structure.all_closed_subsets": "structure.lattice_s",
    "structure.quotient_by": "structure.quotient_s",
    "structure.is_group_like": "structure.quotient_s",
    "structure.power_supports": "structure.powers_s",
    "iso.restrict": "iso.restrict_s",
}
CALL_COUNT = {"core.multiply": "core.multiply_calls", "structure.closure": "structure.closure_calls"}
VERIFY_KIND = {"pass": "core.verify_s", "fail": "core.verify_fail_s", "exact": "core.verify_exact_s"}
DEDUCE_STATUS = {
    "completed": "deduction.complete_s",
    "stalled": "deduction.stall_s",
    "contradiction": "deduction.refute_s",
}


class ProbeFailed(Exception):
    pass


class Runner:
    """Spawns commands one at a time and keeps what they printed."""

    def __init__(self, work: Path):
        self.work = work
        path = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        # One client on one core: numpy's BLAS thread pool, which tabalg never
        # uses, would otherwise spin up on a second core at every import and
        # make start-up times unsteady.
        threads = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), **threads)
        self.spawned = 0
        self.calibrations: list[float] = []  # wall times of the calibration probes, in order

    def spawn(self, argv: list[str]) -> dict:
        """Run one process to its end; wall time, max RSS, exit code, output."""
        self.spawned += 1
        out_path = self.work / f"cmd{self.spawned}.out"
        with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
            killed = threading.Event()
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=self.env, cwd=ROOT)

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(COMMAND_TIMEOUT_S, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            except ChildProcessError:  # reaped by the timer's kill()
                usage = None
                proc.wait()
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        return {
            "wall": wall,
            "calibrations_before": len(self.calibrations),
            "rss_mb": usage.ru_maxrss / 1024 if usage else 0.0,
            "rc": proc.returncode,
            "timed_out": killed.is_set(),
            "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
            "stderr": out_path.with_suffix(".err").read_text(encoding="utf-8", errors="replace"),
        }

    def calibrate(self) -> None:
        res = self.spawn([str(HERE / "calibrate.py")])
        if res["rc"] != 0:
            raise ProbeFailed(f"calibration: {res['stderr'].strip()[-500:]}")
        self.calibrations.append(res["wall"])

    def set_scale(self, res: dict) -> None:
        """Give a spawned process, once the run is over, the factor ``scale``
        from measured to calibrated seconds and its calibrated time ``ref``."""
        i = res["calibrations_before"]
        res["scale"] = CAL_REF_S / statistics.median(self.calibrations[max(0, i - CAL_WINDOW):i + CAL_WINDOW])
        res["ref"] = res["wall"] * res["scale"]


def run_pass(runner: Runner, wl, traced: bool) -> dict:
    """One sequential pass over the workload's commands; answers are checked
    after the pass so that checking is not timed."""
    results = []
    for n, cmd in enumerate(wl.commands, start=1):
        if traced:
            spans = runner.work / f"spans{runner.spawned + 1}.json"
            res = runner.spawn([str(HERE / "traced.py"), str(spans), *cmd.argv])
            res["spans"] = spans
        else:
            res = runner.spawn(["-m", "tabalg.cli", *cmd.argv])
        results.append(res)
        if n % wl.calibrate_every == 0:
            runner.calibrate()

    errors = {}
    for n, (cmd, res) in enumerate(zip(wl.commands, results)):
        if res["timed_out"]:
            errors[n] = f"timed out after {COMMAND_TIMEOUT_S} s"
        elif res["rc"] != cmd.exit_code:
            errors[n] = f"exit code {res['rc']}, expected {cmd.exit_code}: {res['stderr'].strip()[-300:]}"
        else:
            try:
                cmd.check(res["stdout"])
            except Exception as e:  # a malformed output is a wrong answer too
                errors[n] = f"{type(e).__name__}: {e}"

    return {
        "wall_s": sum(r["wall"] for r in results),
        "peak_rss_mb": max(r["rss_mb"] for r in results),
        "results": results,
        "errors": {" ".join(wl.commands[n].argv): e for n, e in errors.items()},
    }


def layer_metrics(pass_: dict) -> tuple[dict, dict]:
    """Per-layer calibrated self times and counts of one traced pass, and
    each layer's share of the pass's summed command time."""
    m = defaultdict(float)
    layer_time = defaultdict(float)
    steps = 0
    for res in pass_["results"]:
        trace = json.loads(res["spans"].read_text(encoding="utf-8"))
        spans = trace["spans"]
        scale = res["scale"]
        m["cli.import_s"] += trace["import_s"] * scale
        children = [0.0] * len(spans)
        for name, start, end, parent, info in spans:
            if parent >= 0:
                children[parent] += end - start
        for i, (name, start, end, parent, info) in enumerate(spans):
            self_s = (end - start - children[i]) * scale
            layer_time[name.split(".")[0]] += self_s
            if name == "cli.run":
                layer_time["startup"] += res["ref"] - (end - start) * scale
            if name in SELF_TIME:
                m[SELF_TIME[name]] += self_s
            if name in CALL_COUNT:
                m[CALL_COUNT[name]] += 1
            if info is None:  # no result to classify, or the call raised
                continue
            if name == "core.verify":
                m[VERIFY_KIND[info["kind"]]] += self_s
                if info["kind"] == "pass":
                    m["core.triples"] += info["triples"]
            elif name == "structure.all_closed_subsets":
                m["structure.lattice_nodes"] += info["nodes"]
            elif name == "iso.exact_isomorphic":
                m["iso.match_s" if info["match"] else "iso.reject_s"] += self_s
            elif name == "deduction.propagate":
                m[DEDUCE_STATUS[info["status"]]] += self_s
                for rule, count in info["rules"].items():
                    m[f"deduction.steps_{rule}"] += count
                    steps += count
    m["deduction.steps"] = steps
    verify_s = m["core.verify_s"]
    m["core.triples_per_s"] = m.pop("core.triples", 0) / verify_s if verify_s else 0.0
    deduce_s = sum(m[k] for k in DEDUCE_STATUS.values())
    m["deduction.steps_per_s"] = steps / deduce_s if deduce_s else 0.0
    total = sum(r["ref"] for r in pass_["results"])
    shares = {layer: layer_time[layer] / total for layer in LAYERS}
    return m, shares


def fastest(passes: list[dict]) -> list[float]:
    """Each command's lowest calibrated latency over the passes."""
    return [min(times) for times in zip(*([r["ref"] for r in p["results"]] for p in passes))]


def well_sampled(values: list[float]) -> str:
    """Median, the highest percentile with at least ten samples above it,
    and the sample count."""
    n = len(values)
    text = f"median {statistics.median(values):.4f}"
    if n >= 20:
        text += f", p{100 * (n - 10) // n} {sorted(values)[n - 11]:.4f}"
    return f"{text}, n={n}"


def passes_for(seconds: float, trace: bool) -> int:
    passes = max(MIN_PASSES, int(seconds // PASS_SECONDS))
    return passes + passes % 2 if trace else passes


def bench(args, workloads, runner: Runner) -> int:
    wl = workloads.WORKLOADS[args.workload](random.Random(args.seed), runner.work)
    passes = passes_for(args.seconds, bool(args.trace))
    print(f"workload {args.workload}, seed {args.seed}: {len(wl.commands)} commands per pass, "
          f"{len(wl.inputs)} input files, {passes} passes")

    probe = [str(HERE / "setup_probe.py"), *(f"{kind}:{uri}" for kind, uri in wl.inputs)]
    setups = []

    def set_up() -> None:
        """Time a round of set-up probes; spreading the rounds over the run
        keeps a short slow spell from deciding setup_s."""
        for _ in range(SETUP_PROBES):
            res = runner.spawn(probe)
            if res["rc"] != 0:
                raise ProbeFailed(res["stderr"].strip()[-500:])
            runner.calibrate()
            setups.append(res)

    set_up()
    plain, traced = [], []
    for n in range(passes):
        # with --trace 1, traced and plain passes alternate, so that the
        # overhead compares equal numbers of passes made in the same spell
        is_traced = bool(args.trace) and n % 2 == 1
        (traced if is_traced else plain).append(run_pass(runner, wl, is_traced))
        set_up()

    for res in setups + [r for p in plain + traced for r in p["results"]]:
        runner.set_scale(res)
    attempted = sum(len(p["results"]) for p in plain + traced)
    errors = [e for p in plain + traced for e in p["errors"].items()]
    for argv, error in errors:
        print(f"FAILED tabalg {argv}: {error}", file=sys.stderr)

    best = fastest(plain)
    e2e = {
        "setup_s": statistics.median(r["ref"] for r in setups),
        "wall_s": sum(best),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "error_rate": len(errors) / attempted,
    }
    for cmd, latency in zip(wl.commands, best):
        if f"{cmd.group}_s" in END_TO_END_UNITS:
            e2e[f"{cmd.group}_s"] = e2e.get(f"{cmd.group}_s", 0.0) + latency
    print(f"end to end (plain passes: {len(plain)}; setup_s is the median of {len(setups)} probes, the")
    print("other timings sum each command's fastest latency over the passes; all times are")
    print(f"calibrated, in seconds of a host on which calibrate.py takes {CAL_REF_S} s):")
    for name, value in e2e.items():
        print(f"  {name:<16} {value:12.4f} {END_TO_END_UNITS[name]}")
    print("measured, not calibrated:")
    print(f"  calibration      {well_sampled(runner.calibrations)} s")
    print(f"  setup probes     {well_sampled([r['wall'] for r in setups])} s")
    print(f"  pass wall        {well_sampled([p['wall_s'] for p in plain])} s:",
          " ".join(f"{p['wall_s']:.3f}" for p in plain))
    print(f"  command latency  {well_sampled([r['wall'] for p in plain for r in p['results']])} s")

    if not args.trace:
        metrics = {name: {"value": e2e[name], "unit": END_TO_END_UNITS[name]} for name in RESULT_METRICS}
    else:
        per_pass = [layer_metrics(p) for p in traced]
        layers = {name: statistics.median(m.get(name, 0.0) for m, _ in per_pass) for name in LAYER_UNITS}
        layers["trace.overhead_s"] = sum(fastest(traced)) - sum(best)
        if wl.peak_input:
            res = runner.spawn([str(HERE / "traced.py"), "--peak", wl.peak_input])
            if res["rc"] == 0:
                layers["core.verify_peak_mb"] = int(res["stdout"]) / 2**20
            else:
                errors.append((f"(peak probe) verify {wl.peak_input}", res["stderr"].strip()[-300:]))
                print(f"FAILED peak probe: {errors[-1][1]}", file=sys.stderr)
        shares = {layer: statistics.median(s[layer] for _, s in per_pass) for layer in LAYERS}
        print(f"per layer (traced passes: {len(traced)}; medians over passes; times calibrated):")
        for name, value in layers.items():
            print(f"  {name:<26} {value:14.6f} {LAYER_UNITS[name]}")
        print("share of summed command wall time by layer (self time; startup = interpreter start,")
        print("import and everything outside tabalg.cli.run):")
        for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<12} {share:7.1%}")
        metrics = {name: {"value": layers[name], "unit": LAYER_UNITS[name]} for name in LAYER_UNITS}

    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": len(errors), "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("paper", "deduce", "scale"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tabalg" / "cli.py").is_file():
        print(f"error: {ROOT} has no src/tabalg; run from the root of a tabalg checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    base = ROOT / ".perfbench_work"
    work = base / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return bench(args, workloads, Runner(work))
    except ProbeFailed as e:
        print(f"error: set-up probe failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
