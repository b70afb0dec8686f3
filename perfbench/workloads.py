"""The benchmark's workloads and the oracles that check their outputs.

Each workload is a fixed list of ``flowrefine`` CLI invocations over the
shipped ``cases/`` corpus, with the exit code each one must give.  An oracle
receives every invocation's ``(exit code, stdout)`` and returns a list of
problems; an empty list means the outputs are correct.  The oracles do not
trust the search that produced a verdict: they compare against golden bytes,
replay counterexamples through a different code path, or re-check the
reported run in plain Python.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Command:
    argv: tuple
    code: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple
    check: Callable


def setup_inputs(argv):
    """The architecture files, script files and ``--horizon`` of one CLI
    invocation: what set-up parses and elaborates before the verdict."""
    archs = tuple(a for a in argv if a.endswith(".arch"))
    scripts = tuple(a for a in argv if a.endswith(".script"))
    horizon = None
    if "--horizon" in argv:
        horizon = int(argv[argv.index("--horizon") + 1])
    return archs, scripts, horizon


_STEP_LINE = re.compile(r"^step (\d+) \(line \d+\): (\S+) (ok|FAILED)$", re.M)
_FAIL_LINE = re.compile(r"^\s*\[FAIL\] ([^:]+):", re.M)
_INTERVAL = re.compile(r"\[([^\]]*)\]")


def parse_streams(text: str, section: str) -> dict:
    """Read the ``CHANNEL [..] [..]`` lines that follow a ``section:`` line
    of a rendered counterexample, as channel -> tuple of token tuples."""
    lines = text.splitlines()
    heads = [i for i, line in enumerate(lines) if line.strip() == section + ":"]
    if not heads:
        return {}
    indent = len(lines[heads[0]]) - len(lines[heads[0]].lstrip())
    streams = {}
    for line in lines[heads[0] + 1:]:
        if len(line) - len(line.lstrip()) <= indent:
            break
        channel, _, rest = line.strip().partition(" ")
        streams[channel] = tuple(
            tuple(tok for tok in body.split(",") if tok)
            for body in _INTERVAL.findall(rest)
        )
    return streams


def lags(source, target) -> bool:
    """Plain restatement of the lag-prefix invariant: at every step the
    tokens seen so far on ``target`` are a prefix of those on ``source``."""
    for step in range(1, len(source) + 1):
        want = [tok for iv in source[:step] for tok in iv]
        got = [tok for iv in target[:step] for tok in iv]
        if got != want[: len(got)]:
            return False
    return True


def load_system(root: Path, path: str, horizon):
    from flowrefine import archfile

    doc = archfile.parse_architecture((root / path).read_text(encoding="utf-8"))
    built = archfile.elaborate_architecture(doc, horizon=horizon, burst=None)
    return built[0] if isinstance(built, tuple) else built


def _stream_tuple(system, streams: dict):
    """Turn rendered tokens back into the system's own message values."""
    from flowrefine import StreamTuple, TimedStream

    bindings = {}
    for channel, intervals in streams.items():
        lookup = {str(m): m for m in system.bounds.alphabet(channel)}
        bindings[channel] = TimedStream(
            tuple(tuple(lookup[tok] for tok in iv) for iv in intervals)
        )
    return StreamTuple(bindings)


def observed_outputs(system, env, channels) -> set:
    """Every output history the architecture admits on one environment,
    enumerated run by run through ``system_runs``."""
    from flowrefine import system_runs

    return {
        tuple(run[ch].intervals for ch in channels) for run in system_runs(system, env)
    }


def check_refine_h4(root: Path, outputs) -> list:
    (_, applied), (_, verdict) = outputs
    problems = []
    head, sep, rendered = applied.partition("script: ok\n\n")
    if not sep:
        problems.append("apply-script did not print 'script: ok' and an architecture")
    elif rendered.encode("utf-8") != (root / "cases/final.arch").read_bytes():
        problems.append("rendered architecture differs from cases/final.arch")
    steps = _STEP_LINE.findall(head)
    if len(steps) != 13 or any(status != "ok" for _, _, status in steps):
        problems.append("expected 13 accepted steps, got %r" % (steps,))
    if verdict != "refines: yes\n":
        problems.append("check-refine printed %r, expected 'refines: yes'" % verdict)
    return problems


def check_refute_h6(root: Path, outputs) -> list:
    ((_, text),) = outputs
    problems = []
    if not text.startswith("refines: NO\n"):
        problems.append("verdict is not 'refines: NO'")
    if "divergence first possible in interval 5" not in text:
        problems.append("counterexample does not diverge at interval 5")
    inputs = parse_streams(text, "inputs")
    output = parse_streams(text, "output")
    if not inputs or not output:
        return problems + ["no counterexample inputs/output printed"]
    abstract = load_system(root, "cases/small_original.arch", 6)
    concrete = load_system(root, "cases/small_broken_final.arch", 6)
    if set(inputs) != set(concrete.inputs) or set(output) != set(concrete.outputs):
        return problems + ["counterexample does not bind the system interface"]
    try:
        env = _stream_tuple(concrete, inputs)
        channels = tuple(sorted(output))
        want = tuple(_stream_tuple(concrete, output)[ch].intervals for ch in channels)
    except (KeyError, ValueError) as exc:
        return problems + ["counterexample is out of bounds: %s" % exc]
    if want not in observed_outputs(concrete, env, channels):
        problems.append("the concrete system cannot produce the reported output")
    if want in observed_outputs(abstract, env, channels):
        problems.append("the abstract system admits the reported output")
    return problems


def check_reject_h5(root: Path, outputs) -> list:
    ((_, text),) = outputs
    problems = []
    steps = _STEP_LINE.findall(text)
    expected = [("10", "refine-invariant", "FAILED")]
    if steps[-1:] != expected or any(s[2] != "ok" for s in steps[:-1]) or len(steps) != 10:
        problems.append("expected steps 1-9 ok and step 10 refine-invariant FAILED, got %r"
                        % (steps,))
    if _FAIL_LINE.findall(text) != ["invariant-valid"]:
        problems.append("the failed premise is not invariant-valid alone")
    if not text.endswith("script: FAILED\n"):
        problems.append("script verdict is not FAILED")
    run = parse_streams(text, "run")
    if "I" not in run or "R" not in run:
        problems.append("no run over I and R printed")
    elif lags(run["I"], run["R"]):
        problems.append("the reported run satisfies R-lags-I")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "refine-h4",
            "the paper's case study through the CLI on its accepting path; "
            "dominated by the brute-force refine-invariant premise",
            (
                Command(("apply-script", "cases/original.arch", "cases/refine.script"), 0),
                Command(("check-refine", "cases/original.arch", "cases/final.arch"), 0),
            ),
            check_refine_h4,
        ),
        Workload(
            "refute-h6",
            "the bounded inclusion search alone on its refuting path, with "
            "witness reconstruction; no invariant premise",
            (
                Command(("check-refine", "cases/small_original.arch",
                         "cases/small_broken_final.arch", "--horizon", "6"), 1),
            ),
            check_refute_h6,
        ),
        Workload(
            "reject-h5",
            "the invariant premises on their rejecting path; stops before "
            "included-under-invariant",
            (
                Command(("apply-script", "cases/original.arch", "cases/broken.script",
                         "--horizon", "5"), 1),
            ),
            check_reject_h5,
        ),
    )
}
