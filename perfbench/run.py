"""Benchmark of the flowrefine CLI: how long a user waits for a verdict.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The loop is closed, with one client: each
operation runs the workload's CLI commands in a fresh child interpreter
(perfbench/child.py), and the next starts only after the previous one ended,
so at most two processes run at once.  A run starts no operation that would
likely end after S seconds, except the first MIN_OPS, and in a traced run
the first of each mode.  Child k of a run gets
PYTHONHASHSEED = N + k.  Before the operations the run starts one warm-up
child, which also compiles the bytecode, and several set-up-only children.

The host's cores run at a speed that changes by up to a factor of two over
seconds to minutes, whatever the benchmark does.  So the harness and every
child are pinned to one core, and while a child runs, the harness times a
short fixed pure-Python task (``reference_task``) on that same core every
``SAMPLE_S``.  Each time metric is the measured time scaled by
``REF_TASK_S`` over the reference task's mean time during the same
interval: seconds at a fixed reference speed.  A slow period slows the
reference task as much as the program and cancels out; a slower program
does not slow the reference task, so it still shows in full.

Every operation's output is checked by the workload's oracle
(perfbench/workloads.py), and every operation's stdout must be byte-identical
to the first one's, whatever its hash seed.  A wrong output, a crash, an
unexpected exit code or a timeout counts as a failed operation.

With --trace 0 the run reports the end-to-end metrics, each the median over
the run's children; with --trace 1 it alternates untraced and traced
operations and reports per-layer metrics measured by perfbench/tracer.py,
plus the tracing overhead.  Medians and quartiles are printed first; the
last line of stdout is one JSON object.  Spans of the last traced operation
are written to .perfbench/trace-NAME.json.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, setup_inputs

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
OUT = ROOT / ".perfbench"

SETUP_PROBES = 20
MIN_OPS = 2  # children that run operations, however long they take
HARD_LIMIT_S = 160.0  # a run must end within 180 s, oracles included
SAMPLE_S = 0.02  # interval between two runs of the reference task
# The reference task's time on an uncontended core of the 2-core Xeon VM
# the first baseline was taken on: the speed every time metric is scaled to.
REF_TASK_S = 0.0005

END_TO_END = (
    ("verdict_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
)

# Per-layer metrics: tracer totals, then the two trace.* figures run.py adds.
PER_LAYER = tuple(
    (name, "count" if name.endswith(("_calls", "_misses", "_entries", "_yielded", "steps"))
     else "s")
    for name in (
        "rules.premise.included_under_invariant_s",
        "rules.premise.invariant_valid_s",
        "rules.premise.env_compatible_s",
        "rules.premise.input_independent_s",
        "rules.system_refinement_s",
        "rules.step_s",
        "rules.steps",
        "rules.refine-invariant_s",
        "rules.refine-behavior_s",
        "rules.remove-input_s",
        "rules.fold_s",
        "behaviors.refines_behavior_s",
        "behaviors.refines_behavior_calls",
        "behaviors.run_output_words_s",
        "behaviors.run_output_words_calls",
        "behaviors.emit_calls",
        "behaviors.advance_calls",
        "behaviors.emit_misses",
        "behaviors.advance_misses",
        "behaviors.cache_entries",
        "streams.tuples_yielded",
        "system.black_box_s",
        "system.validate_system_s",
        "archfile.parse_s",
        "archfile.elaborate_s",
        "archfile.render_s",
        "trace.verdict_s",
        "trace.overhead_s",
    )
)


def reference_task() -> int:
    """A fixed piece of interpreter-bound work, about 0.5 ms: tuple keys,
    dictionary updates and integer arithmetic, like the checker's searches,
    on a working set small enough to stay in the core's caches."""
    counts = {}
    total = 0
    for i in range(2000):
        key = (i & 127, i & 7)
        counts[key] = counts.get(key, 0) + i
        total += len(key)
    return total


def pin_to_one_core() -> None:
    """Run this process, and every child it starts, on one core, so that the
    reference task samples the core the child runs on."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def scale(seconds: float, samples, begin: float, end: float) -> float:
    """``seconds`` measured over ``[begin, end]``, at the reference speed.

    ``samples`` are ``(monotonic start, duration)`` pairs of the reference
    task.  The ones that started inside the interval give the core's speed
    during it; an interval too short to hold one uses all of them."""
    inside = [d for t, d in samples if begin <= t <= end] or [d for _, d in samples]
    return seconds * REF_TASK_S / statistics.fmean(inside)


@dataclass
class Child:
    """What one child process did, as the parent observed it.  Times are
    scaled to the reference speed; ``wall_verdict_s`` is the raw one."""

    mode: str
    hash_seed: int
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None = None
    verdict_s: float | None = None
    wall_verdict_s: float | None = None
    outputs: tuple | None = None
    trace: dict | None = None
    error: str | None = None


def spawn(argv, env, timeout_s, log_path):
    """Run ``argv`` until it exits or ``timeout_s`` passes, then kill it,
    running the reference task every ``SAMPLE_S`` meanwhile.

    Returns ``(exit code or None on timeout, rusage, monotonic start,
    monotonic end, reference samples)``.
    """
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
    timed_out = False
    samples = []
    while True:
        began, tick = time.monotonic(), time.perf_counter()
        reference_task()
        samples.append((began, time.perf_counter() - tick))
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() - start > timeout_s:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            timed_out = True
            break
        time.sleep(SAMPLE_S)
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (None if timed_out else proc.returncode), usage, start, end, samples


def run_child(workload, mode, hash_seed, timeout_s, tmp: Path, argv=None) -> Child:
    """Start one child in ``mode`` (warmup, setup, op or traced) and read its
    report.  ``argv`` replaces the child command line, for the self-tests."""
    report = tmp / ("child-%d-%s.json" % (hash_seed, mode))
    log = tmp / ("child-%d-%s.log" % (hash_seed, mode))
    if argv is None:
        argv = [sys.executable, str(CHILD), workload.name, str(report),
                "setup" if mode == "warmup" else mode]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    code, usage, start, end, samples = spawn(argv, env, timeout_s, log)
    child = Child(mode, hash_seed, scale(usage.ru_utime + usage.ru_stime, samples, start, end),
                  usage.ru_maxrss / 1024)
    if code is None:
        child.error = "timed out after %.0f s" % timeout_s
        return child
    if code != 0:
        tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
        child.error = "child exited with %d: %s" % (code, " ".join(tail))
        return child
    try:
        data = json.loads(report.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        child.error = "no report: %s" % exc
        return child
    child.setup_s = scale(data["setup_end"] - start, samples, start, data["setup_end"])
    child.trace = data.get("trace")
    if mode in ("op", "traced"):
        child.wall_verdict_s = data["verdict_end"] - data["setup_end"]
        child.verdict_s = scale(child.wall_verdict_s, samples, data["setup_end"],
                                data["verdict_end"])
        child.outputs = tuple(map(tuple, data["outputs"]))
        got = [exit_code for exit_code, _ in child.outputs]
        want = [command.code for command in workload.commands]
        if got != want:
            child.error = "exit codes %s, expected %s" % (got, want)
    return child


def verify(workload, children) -> None:
    """Check every operation's output with the workload's oracle and against
    the first correct output of the run; mark mismatches as failures."""
    problems_of = {}
    reference = None
    for child in children:
        if child.error is not None or child.outputs is None:
            continue
        if child.outputs not in problems_of:
            try:
                problems_of[child.outputs] = workload.check(ROOT, child.outputs)
            except Exception as exc:  # an oracle crash must fail the op, not the run
                problems_of[child.outputs] = ["oracle raised %r" % exc]
        problems = problems_of[child.outputs]
        if problems:
            child.error = "; ".join(problems)
        elif reference is None:
            reference = child
        elif child.outputs != reference.outputs:
            child.error = "stdout differs between PYTHONHASHSEED=%d and %d" % (
                reference.hash_seed, child.hash_seed)


def measure(workload, seed: int, seconds: float, trace: bool, tmp: Path) -> list:
    """The closed loop: a warm-up child, set-up-only children (untraced
    runs), then operations while the longest one so far still fits in
    ``seconds``; the first ``MIN_OPS`` operations, and the first of each
    mode, always run."""
    start = time.monotonic()
    children = []

    def start_child(mode):
        timeout_s = max(1.0, start + HARD_LIMIT_S - time.monotonic())
        children.append(
            run_child(workload, mode, (seed + len(children)) % 2**32, timeout_s, tmp))

    start_child("warmup")
    for _ in range(0 if trace else SETUP_PROBES):
        start_child("setup")
    cycle = ("op", "traced") if trace else ("op",)
    longest = 0.0  # wall time of the longest operation so far
    for k in itertools.count():
        elapsed = time.monotonic() - start
        if elapsed >= HARD_LIMIT_S or (
                k >= max(MIN_OPS, len(cycle)) and elapsed + longest > seconds):
            break
        began = time.monotonic()
        start_child(cycle[k % len(cycle)])
        longest = max(longest, time.monotonic() - began)
    verify(workload, children)
    return children


def summary(values):
    """(median, first quartile, third quartile, count)."""
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, len(values)


def collect(children, trace: bool) -> dict:
    """Metric name -> list of samples."""
    ops = [c for c in children if c.mode == "op" and c.verdict_s is not None]
    if not trace:
        return {
            "verdict_s": [c.verdict_s for c in ops],
            "setup_s": [c.setup_s for c in children
                        if c.mode in ("setup", "op") and c.setup_s is not None],
            "cpu_s": [c.cpu_s for c in ops],
            "peak_rss_mb": [c.peak_rss_mb for c in ops],
        }
    traced = [c for c in children if c.mode == "traced" and c.trace is not None]
    # Layer times are measured inside the child; scale them like its verdict.
    samples = {name: [c.trace["metrics"].get(name, 0)
                      * (c.verdict_s / c.wall_verdict_s if unit == "s" else 1)
                      for c in traced]
               for name, unit in PER_LAYER[:-2]}
    samples["trace.verdict_s"] = [c.verdict_s for c in traced]
    if ops and traced:
        samples["trace.overhead_s"] = [
            statistics.median(samples["trace.verdict_s"])
            - statistics.median(c.verdict_s for c in ops)]
    return samples


def write_trace(workload, seed, children) -> Path | None:
    traced = [c for c in children if c.mode == "traced" and c.trace is not None]
    if not traced:
        return None
    last = traced[-1].trace
    path = OUT / ("trace-%s.json" % workload.name)
    spans = [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in last["spans"]]
    path.write_text(json.dumps({"workload": workload.name, "seed": seed,
                                "absent": last["absent"], "metrics": last["metrics"],
                                "spans": spans}, indent=1), encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    needed = dict.fromkeys(["src/flowrefine/cli.py"] + [
        path for command in workload.commands for group in setup_inputs(command.argv)[:2]
        for path in group])
    missing = [path for path in needed if not (ROOT / path).is_file()]
    if missing:
        print("error: not a flowrefine checkout, missing %s" % ", ".join(missing),
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))  # the oracles replay through flowrefine
    OUT.mkdir(exist_ok=True)
    pin_to_one_core()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        children = measure(workload, args.seed, args.seconds, bool(args.trace), Path(tmp))
    trace_path = write_trace(workload, args.seed, children) if args.trace else None

    failed = [c for c in children if c.error is not None]
    ops = [c for c in children if c.mode in ("op", "traced")]
    print("workload %s, seed %d, closed loop with 1 client: %d operations, "
          "%d children, %d failed" % (workload.name, args.seed, len(ops), len(children),
                                      len(failed)))
    for child in failed:
        print("  FAILED %s (PYTHONHASHSEED=%d): %s" % (child.mode, child.hash_seed,
                                                     child.error))
    walls = [c.wall_verdict_s for c in children if c.mode == "op" and c.wall_verdict_s]
    if walls:
        print("  unscaled verdict wall time: median %.6g s over %d operations"
              % (statistics.median(walls), len(walls)))
    samples = collect(children, bool(args.trace))
    wanted = PER_LAYER if args.trace else END_TO_END
    empty = [name for name, _ in wanted if not samples.get(name)]
    if empty:
        print("error: no samples for %s" % ", ".join(empty), file=sys.stderr)
        return 1
    metrics = {}
    for name, unit in wanted:
        median, q1, q3, n = summary(samples[name])
        metrics[name] = {"value": median, "unit": unit}
        line = "  %-44s %12.6g %-5s q1 %.6g  q3 %.6g  n=%d" % (name, median, unit, q1, q3, n)
        if args.trace and unit == "s" and name != "trace.verdict_s":
            line += "  (%.0f%% of traced verdict)" % (
                100 * median / statistics.median(samples["trace.verdict_s"]))
        print(line)
    if args.trace:
        absent = sorted({name for c in children if c.trace for name in c.trace["absent"]})
        if absent:
            print("  absent from this version: %s" % ", ".join(absent))
        if trace_path is not None:
            print("  spans: %s" % trace_path.relative_to(ROOT))
    print(json.dumps({"correct": not failed, "attempted": len(children),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
