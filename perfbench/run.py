"""stacky benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload census_stream --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off: the workload's passes repeat until ``--seconds`` have gone by.  With
``--trace 1`` it runs each of the workload's distinct passes untraced and
traced in turn and reports the per-layer metrics from the spans.  Either
way every output is checked after the timed region, and the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs each workload in a
fresh process and prints one table.

The program under test is ``src/stacky`` of the checkout this file sits in;
the Kummer checks use the oracles in ``tests/oracles.py``.  Results are
appended to ``.perfbench_out/results.jsonl`` and the spans of the last
traced run of each workload go to ``.perfbench_out/spans-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ORACLES = os.path.join(ROOT, "tests")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("census_stream", "census_fast", "kummer_queries", "malle_groups")

SETUP_PROBES = 9  # set-up is timed this many times; setup_s is the median
MAX_TRACE_ROUNDS = 6  # bounds the spans kept in memory
CHILD_TIMEOUT_S = 170
# Every time is reported at a reference speed: scaled by CALIBRATION_REF_S
# over the time the calibration loop took around it (see Clock).  Operations
# are calibrated in chunks of at least CALIBRATION_CHUNK_S.
CALIBRATION_REF_S = 0.014
CALIBRATION_CHUNK_S = 0.2
# Set-up is timed against a reference process started before and after each
# probe: a fresh interpreter that imports numpy and nothing of stacky.
# Start-up and imports follow the machine's file and loader speed, which the
# calibration loop does not, and which moved set-up times by 40% between
# runs; set-up seconds are reported scaled to the speed at which the
# reference takes SETUP_REF_S.
SETUP_REFERENCE = (sys.executable, "-c", "import numpy; print('ready', flush=True)")
SETUP_REF_S = 0.15

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "classes_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Raised:
    """Stands in for the output of an operation that raised."""

    error: str


class Clock:
    """Times a block of work and the machine's speed around it.

    The host's speed drifts by tens of percent over tens of seconds, which
    no run length here averages away, so each timed block is bracketed by
    runs of a fixed calibration loop, and its seconds are reported scaled to
    the speed at which that loop takes CALIBRATION_REF_S.  The loop runs in
    a helper process (calibrate.py), so the workload's heap cannot slow it.
    """

    def __init__(self):
        self._helper = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "calibrate.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._before = self._calibrate()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._helper.stdin.close()
        self._helper.wait(timeout=CHILD_TIMEOUT_S)
        self._helper.stdout.close()

    def _calibrate(self) -> float:
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        return float(self._helper.stdout.readline())

    def scale(self) -> float:
        """Calibrate again; the factor that takes the seconds of the work
        done since the previous calibration to the reference speed."""
        after = self._calibrate()
        calib = (self._before + after) / 2
        self._before = after
        return CALIBRATION_REF_S / calib


def run_pass(wl, ops, clock: Clock, tracer=None, op_base=0):
    """Run one pass; return its outputs, the seconds of each operation at
    reference speed, and the raw seconds of the pass."""
    outs, lat, chunk = [], [], []
    raw = 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = op_base + i
        t0 = time.perf_counter()
        try:
            out = wl.run_op(op)
        except Exception as exc:  # counted as a failed operation
            out = Raised(repr(exc))
        chunk.append(time.perf_counter() - t0)
        outs.append(out)
        if sum(chunk) >= CALIBRATION_CHUNK_S or i == len(ops) - 1:
            scale = clock.scale()
            lat.extend(x * scale for x in chunk)
            raw += sum(chunk)
            chunk = []
    return outs, lat, raw


class Ledger:
    """First outputs of each distinct pass, and every later execution's
    differences from them, so failures can be counted per execution."""

    def __init__(self, passes):
        self.passes = passes
        self.first: dict[int, list] = {}
        self.executions: list[tuple[int, set[int]]] = []

    def record(self, p: int, outs: list) -> None:
        if p not in self.first:
            self.first[p] = outs
            self.executions.append((p, set()))
        else:
            ref = self.first[p]
            self.executions.append((p, {j for j, o in enumerate(outs) if o != ref[j]}))

    def tally(self, wl) -> tuple[int, int, list[str]]:
        """(attempted, failed, messages) after checking each first output."""
        bad: dict[int, set[int]] = {}
        messages = []
        for p, outs in sorted(self.first.items()):
            bad[p] = set()
            for j, (op, out) in enumerate(zip(self.passes[p], outs)):
                if isinstance(out, Raised):
                    why = f"raised {out.error}"
                else:
                    try:
                        why = wl.check(op, out)
                    except Exception as exc:  # a check that cannot run is a failure
                        why = f"check raised {exc!r}"
                if why is not None:
                    bad[p].add(j)
                    messages.append(f"{op}: {why}")
        attempted = failed = 0
        for p, diff in self.executions:
            attempted += len(self.passes[p])
            failed += len(bad[p] | diff)
            if diff:
                messages.append(f"pass {p}: outputs {sorted(diff)} differ between executions")
        return attempted, failed, messages


def _timed_start(cmd) -> tuple[subprocess.Popen, str, float]:
    """Start ``cmd``; return it, its first output line and the seconds from
    start to that line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, ready, time.perf_counter() - t0


def _finish(proc: subprocess.Popen, ready: str) -> list[str]:
    """Wait for a started process; the words it printed after its ready line."""
    with proc:
        rest = proc.stdout.read().split()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if code != 0 or not ready.startswith("ready"):
        raise RuntimeError(f"set-up probe exited with {code}")
    return rest


def _reference_seconds() -> float:
    proc, ready, seconds = _timed_start(SETUP_REFERENCE)
    _finish(proc, ready)
    return seconds


def measure_setup(workload: str, seed: int, want_digest: str, with_pass: bool):
    """Run SETUP_PROBES fresh processes that set up and report ready; with
    ``with_pass`` the last one also runs the first pass and reports its
    peak RSS.

    Returns the median seconds from process start to ready at the reference
    speed, that peak RSS in MB, and whether every probe drew byte-identical
    inputs."""
    probe = os.path.join(HERE, "probe.py")
    times, same, rss = [], True, None
    before = _reference_seconds()
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, probe, workload, str(seed)]
        if with_pass and i == SETUP_PROBES - 1:
            cmd.append("--pass")
        proc, ready, seconds = _timed_start(cmd)
        rest = _finish(proc, ready)
        after = _reference_seconds()
        times.append(seconds * SETUP_REF_S / ((before + after) / 2))
        before = after
        same = same and ready.split()[1:] == [want_digest]
        if rest[:1] == ["peak_rss_mb"]:
            rss = float(rest[1])
    return statistics.median(times), rss, same


def tail_quantile(samples: int) -> float:
    """The highest quantile, at most 0.99, with at least ten samples beyond
    it; the median when there are too few samples for one."""
    return min(0.99, max(0.5, 1 - 10 / samples))


def measure(clock: Clock, wl, passes, seconds: float):
    """Tracing off: repeat the passes until ``seconds`` have gone by."""
    ledger = Ledger(passes)
    walls, raw_walls, rates, lats = [], [], [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        p = k % len(passes)
        outs, lat, raw = run_pass(wl, passes[p], clock)
        ledger.record(p, outs)
        wall = sum(lat)
        walls.append(wall)
        raw_walls.append(raw)
        lats.extend(lat)
        delivered = sum(wl.classes(op, o) for op, o in zip(passes[p], outs)
                        if not isinstance(o, Raised))
        rates.append(delivered / wall)
        k += 1
    tail_q = tail_quantile(len(lats))
    metrics = {
        "wall_s": statistics.median(walls),
        "classes_per_s": statistics.median(rates),
        "op_p50_ms": float(np.percentile(lats, 50)) * 1e3,
        "op_tail_ms": float(np.percentile(lats, 100 * tail_q)) * 1e3,
    }
    info = {"passes": k, "op_samples": len(lats), "op_tail_quantile": tail_q,
            "raw_wall_s": statistics.median(raw_walls)}
    return metrics, ledger, info


def measure_traced(clock: Clock, wl, passes, seconds: float):
    """Run rounds over the distinct passes, each pass once untraced and once
    traced, in alternating order so that neither side always runs first.
    The per-layer metrics are per round; the tracing overhead is the median,
    over those pairs, of traced minus untraced seconds of a pass."""
    from tracing import Tracer

    tracer = Tracer()
    ledger = Ledger(passes)
    overheads = []
    traced = raw_traced = 0.0
    base = 0
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds == 0 or (time.perf_counter() < deadline and rounds < MAX_TRACE_ROUNDS):
        for p, ops in enumerate(passes):
            pair = {}
            for trace_on in (False, True) if (rounds + p) % 2 == 0 else (True, False):
                if trace_on:
                    tracer.install()
                try:
                    outs, lat, raw = run_pass(wl, ops, clock, tracer if trace_on else None,
                                              base)
                finally:
                    tracer.uninstall()
                ledger.record(p, outs)
                pair[trace_on] = sum(lat)
                if trace_on:
                    traced += pair[True]
                    raw_traced += raw
                    base += len(ops)
            overheads.append(pair[True] - pair[False])
        rounds += 1
    metrics = layer_metrics(tracer, rounds, statistics.median(overheads),
                            traced / raw_traced)
    return metrics, ledger, tracer, {"rounds": rounds, "spans": len(tracer.start)}


def layer_metrics(tracer, rounds, overhead_s,
                  scale) -> dict[str, tuple[float, str]]:
    """Per-round counts and, at reference speed, per-round or per-call self
    times; the tracing overhead is per pass."""
    own = {q: t * scale for q, t in tracer.self_seconds().items()}
    calls = tracer.calls

    def per_call(q: str, scale: float) -> float:
        return own[q] / calls[q] * scale if calls[q] else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    classes = tracer.yields["census.enumerate_mu"]
    out = {
        "census.candidates_per_class": (ratio(tracer.child_calls(
            "census.enumerate_mu", "kummer.discriminant"), classes), "calls/class"),
        "census.enumerate_mu.classes": (classes / rounds, "count"),
        "census.enumerate_mu.s": (own["census.enumerate_mu"] / rounds, "s"),
        "kummer.discriminant.calls": (calls["kummer.discriminant"] / rounds, "count"),
        "kummer.discriminant.us": (per_call("kummer.discriminant", 1e6), "us"),
        "arith.factor.calls": (calls["arith.factor"] / rounds, "count"),
        "census.count.s": (own["census.count"] / rounds, "s"),
        "census.enumerate_cyclic.s": (own["census.enumerate_cyclic"] / rounds, "s"),
        "census.fit.s": (own["census.fit"] / rounds, "s"),
        "arith.primes_up_to.s": (own["arith.primes_up_to"] / rounds, "s"),
        "arith.factor.us": (per_call("arith.factor", 1e6), "us"),
        "kummer.canonical.us": (per_call("kummer.canonical", 1e6), "us"),
        "kummer.is_irreducible.us": (per_call("kummer.is_irreducible", 1e6), "us"),
        "heights.darda_global.us": (per_call("heights.darda_global", 1e6), "us"),
        "heights.eszb_height.us": (per_call("heights.eszb_height", 1e6), "us"),
        "heights.D_aprime.us": (per_call("heights.D_aprime", 1e6), "us"),
        "cli.main.ms": (per_call("cli.main", 1e3), "ms"),
        "permgrp.closure.s": (own["permgrp.closure"] / rounds, "s"),
        "permgrp.conjugacy_classes.s": (own["permgrp.conjugacy_classes"] / rounds, "s"),
        "permgrp.conjugacy_classes.calls_per_invariant": (ratio(
            calls["permgrp.conjugacy_classes"], calls["malle.malle_invariants"]), "calls/inv"),
        "permgrp.gamma_orbits.s": (own["permgrp.gamma_orbits"] / rounds, "s"),
        "malle.malle_invariants.s": (own["malle.malle_invariants"] / rounds, "s"),
        "malle.malle_invariants.calls": (calls["malle.malle_invariants"] / rounds, "count"),
        "trace.spans": (len(tracer.start) / rounds, "count"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return out


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (the
    benchmark reads nothing outside its checkout); "unknown" without one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    import stacky

    if os.path.dirname(os.path.abspath(stacky.__file__)) != os.path.join(SRC, "stacky"):
        print(f"error: imported stacky from {stacky.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[name]
    passes = wl.make_inputs(seed)
    # Pin this process, and so every process it starts, to one CPU, so that
    # the calibration loop and the set-up reference run on the CPU the work
    # runs on: on a shared host the speeds of two CPUs differed by up to 13%
    # over 10 s windows.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_s, peak_rss_mb, same_inputs = measure_setup(
        name, seed, workloads.digest(passes), with_pass=not trace)
    with Clock() as clock:
        if trace:
            layers, ledger, tracer, info = measure_traced(clock, wl, passes, seconds)
        else:
            e2e, ledger, info = measure(clock, wl, passes, seconds)
    attempted, failed, messages = ledger.tally(wl)
    if not same_inputs:
        messages.append("set-up probes drew different inputs from the same seed")
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        e2e["setup_s"] = setup_s
        e2e["peak_rss_mb"] = peak_rss_mb
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    correct = failed == 0 and same_inputs
    record = {
        "workload": name, "trace": int(trace), "seconds": seconds, **environment(seed),
        **info, "fail_frac": failed / attempted, "correct": correct,
        "attempted": attempted, "failed": failed, "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")
    if trace:
        tracer.save(os.path.join(OUT_DIR, f"spans-{name}.npz"))
    for msg in messages[:20]:
        print(f"FAIL {msg}")
    print("# " + json.dumps({k: record[k] for k in record if k != "metrics"}))
    for key, m in metrics.items():
        print(f"{name} {key} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own fresh process (peak RSS is per process)."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S + 60)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
            print("\n".join(line for line in lines if line.startswith("FAIL ")))
        fail_frac = result["failed"] / result["attempted"]
        rows.append((name, "fail_frac", fail_frac, "1"))
        rows += [(name, k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
    for name, key, value, unit in rows:
        print(f"{name:15} {key:46} {value:14.6g} {unit}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    missing = [p for p in (os.path.join(SRC, "stacky", "__init__.py"),
                           os.path.join(ORACLES, "oracles.py")) if not os.path.isfile(p)]
    if missing:
        print(f"error: program files not found: {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    sys.path[1:1] = [SRC, ORACLES]
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
