"""hopfgalois benchmark: CLI workloads timed end to end, and a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every CLI invocation is a fresh child
process (``bench/child.py``), started one at a time from this process: a
closed loop with one client.  The program is imported from ``src/`` of the
checkout and receives only the config generated for the seed.

``--trace 0`` runs a warm-up and a few set-up-only probes, then rounds of
the workload's invocations while another round fits in ``S`` seconds (at
least one round).  It reports the end-to-end metrics: the median round's
wall time, set-up time and peak RSS.  ``--trace 1`` runs one untraced round
and one traced round and reports the per-layer metrics.  Every invocation
is classified; failures (timeout, crash, wrong exit code, wrong verdict,
counterexample, nondeterministic report) are counted in ``failed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from spans import LAYERS
from workloads import WORKLOADS, load_expected, make_config

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
WORK_DIR = ROOT / ".bench_work"

RUN_LIMIT_S = 170.0       # every run ends inside the 180 s a run may take
INVOCATION_CAP_S = 150.0  # an invocation past this is a "timeout"
SETUP_PROBES = 5          # set-up-only rounds per untraced run
TRACEBACK = b"Traceback (most recent call last):"

OK = "ok"
TIMEOUT = "timeout"
CRASH = "crash"
WRONG_EXIT = "wrong-exit"
WRONG_VERDICT = "wrong-verdict"
COUNTEREXAMPLE = "counterexample"
NONDETERMINISTIC = "nondeterministic"
# outcomes that say the program's output is wrong, not just late
INCORRECT = frozenset((CRASH, WRONG_EXIT, WRONG_VERDICT, COUNTEREXAMPLE,
                       NONDETERMINISTIC))


@dataclass
class Result:
    """One child process: how long it ran and how it ended."""

    wall_s: float
    setup_s: float
    rss_mb: float | None  # None when the child was killed
    exit_code: int | None
    outcome: str
    report: bytes | None = None


# -- one child process --------------------------------------------------------


def spawn(argv, cap, stderr_path):
    """Run argv to completion or until ``cap`` seconds, then kill it.

    Returns (spawn time, wall seconds, exit code or None).  The exit code
    is None when the cap was hit.
    """
    with open(stderr_path, "wb") as err:
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err,
                                cwd=ROOT, start_new_session=True)
    pidfd = os.pidfd_open(proc.pid)
    ready = []
    try:
        # the pidfd turns readable at exit; the child stays unreaped until
        # waitpid, so its pid cannot be reused before the kill
        ready, _, _ = select.select([pidfd], [], [], max(cap, 0.0))
    finally:
        # also reached when this process is interrupted or terminated
        if not ready:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        _, status = os.waitpid(proc.pid, 0)
        wall = time.clock_gettime(time.CLOCK_MONOTONIC) - start
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, wall, (proc.returncode if ready else None)


def verdict(report):
    """The parts of a report that the expected files pin down."""
    out = {}
    if "checks" in report:
        out["checks"] = [[c["check"], c["status"]] for c in report["checks"]]
    if "module" in report:
        out["module-dimension"] = report["module"]["dimension"]
        out["weight-block-dims"] = report["module"]["weight-block-dims"]
        out["simple-quotient-dimension"] = report["simple-quotient-dimension"]
    if "stabilizer" in report:
        out["stabilizer"] = report["stabilizer"]
        out["reductors"] = [[r["grouplike"], r["status"]]
                            for r in report["reductors"]]
        out["finite"] = report["finiteness"]["finite"]
    return out


def expected_verdict(expected_inv, seed):
    """The expected verdict of one invocation for this seed."""
    want = copy.deepcopy(expected_inv["verdict"])
    extra = expected_inv.get("seeded_extra_check")
    if seed != 0 and extra is not None:
        checks = want["checks"]
        last = max(i for i, c in enumerate(checks) if c[0] == extra[0])
        checks.insert(last + 1, list(extra))
    return want


def classify(exit_code, stderr, report, expected_inv, seed):
    """Name the outcome of a finished invocation; a crash is never a verdict."""
    if exit_code is None:
        return TIMEOUT
    if TRACEBACK in stderr or exit_code < 0:
        return CRASH
    if expected_inv is None:  # a set-up-only probe writes no report
        return OK if exit_code == 0 else WRONG_EXIT
    got = None
    if report is not None:
        try:
            got = verdict(json.loads(report))
        except (ValueError, KeyError, TypeError):
            return WRONG_VERDICT
    if got is not None and any(status == COUNTEREXAMPLE
                               for _, status in got.get("checks", [])):
        return COUNTEREXAMPLE
    if exit_code != expected_inv["exit_code"]:
        return WRONG_EXIT
    if got != expected_verdict(expected_inv, seed):
        return WRONG_VERDICT
    return OK


def invoke(cli_args, out_path, stamp_path, cap, expected_inv, seed,
           setup_only=False, trace_path=None):
    """One CLI invocation through the child entry point, classified."""
    argv = [sys.executable, str(CHILD), "--stamp", str(stamp_path)]
    if setup_only:
        argv.append("--setup-only")
    if trace_path is not None:
        argv += ["--trace", str(trace_path)]
    argv += ["--"] + list(cli_args) + ["--out", str(out_path)]
    for p in (out_path, stamp_path):
        if p.exists():
            p.unlink()
    stderr_path = stamp_path.with_name(stamp_path.name + ".stderr")
    start, wall, code = spawn(argv, cap, stderr_path)
    stderr = stderr_path.read_bytes()
    stamp = json.loads(stamp_path.read_text()) if stamp_path.exists() else {}
    # a child that exits before its set-up returns spent all its life there
    setup = stamp["setup_done"] - start if "setup_done" in stamp else wall
    rss = stamp["peak_rss_kb"] / 1024 if "peak_rss_kb" in stamp else None
    report = out_path.read_bytes() if out_path.exists() else None
    outcome = classify(code, stderr, report,
                       None if setup_only else expected_inv, seed)
    if outcome != OK:
        sys.stderr.write("invocation %s: %s (exit %s)\n%s"
                         % (" ".join(cli_args[:1]), outcome, code,
                            stderr.decode(errors="replace")[-2000:]))
    return Result(wall, setup, rss, code, outcome, report)


# -- one workload ---------------------------------------------------------------


class Run:
    """A workload's runs for one seed: config, expectations and results."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.expected = load_expected(workload)["invocations"]
        self.config_path = work / "config.json"
        with open(self.config_path, "w") as fh:
            json.dump(make_config(workload, seed), fh, indent=2, sort_keys=True)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.results = []       # every child process, probes included
        self.first_reports = {}

    def cap(self):
        return min(INVOCATION_CAP_S, self.deadline - time.monotonic())

    def args(self, index):
        inv = self.workload.invocations[index]
        return [inv[0], str(self.config_path)] + list(inv[1:])

    def round(self, setup_only=False, trace=False, counted=True):
        """Each invocation once; returns their results in order."""
        out = []
        for i, exp in enumerate(self.expected):
            trace_path = self.work / ("trace.%d.json" % i) if trace else None
            r = invoke(self.args(i), self.work / ("report.%d.json" % i),
                       self.work / ("stamp.%d" % i), self.cap(), exp,
                       self.seed, setup_only=setup_only, trace_path=trace_path)
            if r.report is not None:
                first = self.first_reports.setdefault(i, r.report)
                if r.outcome == OK and r.report != first:
                    r.outcome = NONDETERMINISTIC
                    sys.stderr.write("invocation %d: report differs from the "
                                     "first report of this seed\n" % i)
            if counted:
                self.results.append(r)
            out.append(r)
        return out

    def tally(self):
        failed = sum(r.outcome != OK for r in self.results)
        correct = not any(r.outcome in INCORRECT for r in self.results)
        return correct, len(self.results), failed

    def golden_match(self):
        """1 if every report equals the committed seed-0 golden, 0 if one
        drifted, -1 when this seed has no golden report."""
        if self.seed != 0:
            return -1
        for i, report in self.first_reports.items():
            golden = self.workload.golden_path(i)
            if not golden.exists() or golden.read_bytes() != report:
                sys.stderr.write("report %d drifted from %s\n" % (i, golden.name))
                return 0
        return 1


def run_untraced(run, seconds):
    """End-to-end metrics: a closed loop of rounds for ``seconds``."""
    start = time.monotonic()
    run.round(setup_only=True, counted=False)  # warm-up: bytecode caches
    setups = []
    for _ in range(SETUP_PROBES):
        setups.append(sum(r.setup_s for r in run.round(setup_only=True)))
    walls, rss = [], []
    while True:
        round_start = time.monotonic()
        results = run.round()
        round_s = time.monotonic() - round_start
        walls.append(sum(r.wall_s for r in results))
        if all(r.rss_mb is not None for r in results):
            rss.append(sum(r.rss_mb for r in results))
        setups.append(sum(r.setup_s for r in results))
        # another round only if one as long as this one still fits
        if time.monotonic() - start + round_s > seconds or run.cap() <= 0:
            break
    report_match = run.golden_match()
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss) if rss else 0.0, "MB"),
    }
    notes = {"rounds": len(walls), "setups": len(setups),
             "golden_match": report_match,
             "wall_tail": tail_percentile(walls)}
    return metrics, notes


def tail_percentile(values):
    """The highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def run_traced(run):
    """Per-layer metrics: one untraced round, then one traced round."""
    plain = run.round()
    traced = run.round(trace=True)
    traces = []
    for i in range(len(traced)):
        path = run.work / ("trace.%d.json" % i)
        if path.exists():
            with open(path) as fh:
                traces.append(json.load(fh))
            keep = WORK_DIR / "traces"
            keep.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(path, keep / ("%s.%d.json" % (run.workload.name, i)))
    metrics = layer_metrics(traces)
    reports = [r.report or b"" for r in traced]
    metrics["cli.report_bytes"] = (sum(len(r) for r in reports), "bytes")
    metrics["cli.report_digest_match"] = (run.golden_match(), "bool")
    plain_wall = sum(r.wall_s for r in plain)
    traced_wall = sum(r.wall_s for r in traced)
    metrics["trace.overhead"] = (traced_wall / plain_wall, "ratio")
    return metrics, {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall}


# -- per-layer metrics from traces ---------------------------------------------

# metric name -> traced function whose inclusive time it sums
SPAN_METRICS = {
    "verify.preserves_lattice_s": ("verify.preserves_lattice",),
    "verify.maxcomm_s": ("verify.max_commutative_probe",),
    "verify.fo_certificate_s": ("verify.fo_certificate",),
    "verify.left_rank_s": ("verify.left_rank_oracle",),
    "verify.generation_s": ("verify.generation_witness",),
    "cli.identities_s": ("cli.identity_suite",),
    "cli.representation_s": ("cli.representation_consistency",),
    "spherical.morita_s": ("spherical.morita_witness",),
    "spherical.axiom_s": ("spherical.spherical_axiom_check",),
    "spherical.psi_s": ("spherical.psi",),
    "hcmod.cyclic_module_s": ("hcmod.cyclic_module",),
    "hcmod.simple_quotient_s": ("hcmod.simple_quotient",),
    "stabilizer.reductor_s": ("stabilizer.find_reductor",
                              "stabilizer.verify_reductor"),
    "stabilizer.finiteness_s": ("stabilizer.finiteness_predicate",),
    "catalog.build_s": ("catalog.build_setting",),
    "smash.validate_s": ("smash.Setting.validate",),
}
# metric name -> traced function whose call count it is
CALL_METRICS = {
    "params.eq_calls": "params.ParamElem.__eq__",
    "polyring.substitute_calls": "polyring.Poly.substitute",
    "polyring.try_divide_calls": "polyring.try_divide",
    "polyring.jet_calls": "polyring.taylor_jet",
    "hcmod.distribution_action_calls": "hcmod.distribution_action",
    "smash.mul_calls": "smash.SmashElement.__mul__",
    "smash.apply_calls": "smash.SmashElement.apply",
    "smash.gp_act_calls": "smash.Setting.gp_act",
    "smash.act_calls": "smash.InfGenerator.act",
}
SUMMED_COUNTERS = {"numberfield.ext_calls": "count",
                   "polyring.ratfunc_new": "count", "linalg.cells": "cells",
                   "spherical.morita_products": "count",
                   "hcmod.module_dim": "dim"}
PEAK_COUNTERS = {"params.peak_terms": "terms", "polyring.peak_terms": "terms",
                 "smash.peak_terms": "terms", "linalg.max_rows": "rows",
                 "linalg.max_cols": "cols"}


def function_totals(traces):
    """Traced function name -> [calls, inclusive s, child s], all traces."""
    totals = {}
    for trace in traces:
        rows = [(name, count, incl, child)
                for name, _parent, count, incl, child in trace["records"]]
        rows += [(name, 1, end - start, child)
                 for _id, name, _parent, start, end, child in trace["spans"]]
        for name, count, incl, child in rows:
            t = totals.setdefault(name, [0, 0.0, 0.0])
            t[0] += count
            t[1] += incl
            t[2] += child
    return totals


def layer_metrics(traces):
    """Every per-layer metric, summed (or maximised) over the traces."""
    totals = function_totals(traces)
    m = {}
    for layer in LAYERS:
        own = [t for name, t in totals.items()
               if name.split(".", 1)[0] == layer]
        m[layer + ".calls"] = (sum(t[0] for t in own), "count")
        m[layer + ".self_s"] = (sum(t[1] - t[2] for t in own), "s")
    for metric, fn in CALL_METRICS.items():
        m[metric] = (totals.get(fn, [0])[0], "count")
    for metric, fns in SPAN_METRICS.items():
        m[metric] = (sum(totals.get(fn, [0, 0.0])[1] for fn in fns), "s")
    for key, unit in SUMMED_COUNTERS.items():
        m[key] = (sum(t["counters"][key] for t in traces), unit)
    for key, unit in PEAK_COUNTERS.items():
        m[key] = (max((t["counters"][key] for t in traces), default=0), unit)
    found = sum(t["counters"]["polyring.try_divide_found"] for t in traces)
    tries = m["polyring.try_divide_calls"][0]
    m["polyring.try_divide_hit"] = (found / tries if tries else 0.0, "ratio")
    for layer in ("linalg", "smash"):
        m[layer + ".incl_s"] = (sum(t["outer_incl"][layer] for t in traces), "s")
    return m


# -- entry point -----------------------------------------------------------------


def run_workload(name, seed, seconds, trace):
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        run = Run(WORKLOADS[name], seed, work)
        metrics, notes = run_traced(run) if trace else run_untraced(run, seconds)
        correct, attempted, failed = run.tally()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return metrics, notes, correct, attempted, failed


def print_table(name, metrics, notes, attempted, failed):
    print("== %s" % name)
    for key, (value, unit) in metrics.items():
        print("  %-34s %14.6g %s" % (key, value, unit))
    print("  %-34s %14.6g ratio  (%d failed / %d attempted)"
          % ("fail_frac", failed / attempted, failed, attempted))
    for key, value in notes.items():
        print("  %-34s %s" % (key, value))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into an exception, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "hopfgalois" / "cli.py").is_file():
        print("error: %s has no src/hopfgalois to benchmark" % ROOT,
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    all_metrics = {}
    ok, attempted, failed = True, 0, 0
    for name in names:
        metrics, notes, c, a, f = run_workload(name, args.seed, args.seconds,
                                               bool(args.trace))
        print_table(name, metrics, notes, a, f)
        prefix = name + "." if args.workload == "all" else ""
        for key, (value, unit) in metrics.items():
            all_metrics[prefix + key] = {"value": value, "unit": unit}
        ok, attempted, failed = ok and c, attempted + a, failed + f
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
