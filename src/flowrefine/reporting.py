"""Premise reports and counterexamples.

Every check in the package answers with the same shape: a report listing
the individual premises that were examined, each with a stable identifier,
a verdict and, for failures, a replayable counterexample.  Reports render
deterministically so two runs over the same inputs produce identical text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .streams import StreamTuple, TimedStream


def _render_stream(stream: TimedStream) -> str:
    return " ".join("[%s]" % ",".join(str(m) for m in iv) for iv in stream.intervals)


def _stream_to_json(stream: TimedStream):
    return [[m for m in iv] for iv in stream.intervals]


def render_stream_tuple(x: StreamTuple, indent: str = "") -> str:
    lines = []
    for ch, s in x.items:
        lines.append("%s%s %s" % (indent, ch, _render_stream(s)))
    return "\n".join(lines)


def stream_tuple_to_json(x: StreamTuple) -> dict:
    return {ch: _stream_to_json(s) for ch, s in x.items}


@dataclass(frozen=True)
class Counterexample:
    """A concrete witness for a failed check.

    kind names the failure; inputs and output are the offending stream
    tuples where that makes sense, run is a full channel history for
    whole-architecture failures.  Re-running the failed check on these
    values reproduces the failure.
    """

    kind: str
    inputs: Optional[StreamTuple] = None
    output: Optional[StreamTuple] = None
    run: Optional[StreamTuple] = None
    inputs_b: Optional[StreamTuple] = None
    note: str = ""

    # The optional stream fields, in the order both renderings write them,
    # each with its text heading; JSON names a field by its attribute.
    _STREAMS = (("inputs", "inputs"), ("inputs_b", "inputs (b)"), ("output", "output"),
               ("run", "run"))

    def render(self, indent: str = "") -> str:
        lines = ["%scounterexample (%s)" % (indent, self.kind)]
        if self.note:
            lines.append("%s  note: %s" % (indent, self.note))
        for attr, heading in self._STREAMS:
            value = getattr(self, attr)
            if value is not None:
                lines.append("%s  %s:" % (indent, heading))
                lines.append(render_stream_tuple(value, indent + "    "))
        return "\n".join(lines)

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.note:
            out["note"] = self.note
        for attr, _ in self._STREAMS:
            value = getattr(self, attr)
            if value is not None:
                out[attr] = stream_tuple_to_json(value)
        return out


@dataclass(frozen=True)
class PremiseCheck:
    check: str
    passed: bool
    detail: str = ""
    counterexample: Optional[Counterexample] = None

    def render(self, indent: str = "") -> str:
        verdict = "pass" if self.passed else "FAIL"
        line = "%s[%s] %s" % (indent, verdict, self.check)
        if self.detail:
            line += ": " + self.detail
        if self.counterexample is not None:
            line += "\n" + self.counterexample.render(indent + "  ")
        return line

    def to_json(self) -> dict:
        out = {"check": self.check, "passed": self.passed}
        if self.detail:
            out["detail"] = self.detail
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample.to_json()
        return out


@dataclass(frozen=True)
class PremiseReport:
    """The outcome of one rule application or validation pass."""

    subject: str
    checks: tuple = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple:
        return tuple(c for c in self.checks if not c.passed)

    def render(self, indent: str = "") -> str:
        lines = ["%s%s" % (indent, self.subject)]
        for c in self.checks:
            lines.append(c.render(indent + "  "))
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "checks": [c.to_json() for c in self.checks],
        }


def premise(check: str, ok: bool, if_passed: str = "", if_failed: str = "",
            counterexample: Optional[Counterexample] = None) -> PremiseCheck:
    """One premise's verdict, with the detail that fits it."""
    return PremiseCheck(check, ok, if_passed if ok else if_failed, counterexample)
