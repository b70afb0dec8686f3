"""Premise reports and counterexamples.

Every check in the package answers with the same shape: a report listing
the individual premises that were examined, each with a stable identifier,
a verdict and, for failures, a replayable counterexample.  Reports render
deterministically so two runs over the same inputs produce identical text,
and serialize from their own fields (:func:`as_json`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

from .streams import StreamTuple, TimedStream


def _render_stream(stream: TimedStream) -> str:
    return " ".join("[%s]" % ",".join(str(m) for m in iv) for iv in stream.intervals)


def render_stream_tuple(x: StreamTuple, indent: str = "") -> str:
    lines = []
    for ch, s in x.items:
        lines.append("%s%s %s" % (indent, ch, _render_stream(s)))
    return "\n".join(lines)


def as_json(value):
    """What ``json.dumps(..., default=as_json)`` writes for a report value:
    a stream tuple as each channel's intervals, and a report as its fields,
    leaving out those that are ``None`` or empty text, as its rendering
    does."""
    if isinstance(value, StreamTuple):
        return {ch: s.intervals for ch, s in value.items}
    return {f.name: v for f in fields(value)
            if (v := getattr(value, f.name)) is not None and v != ""}


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

    # The optional stream fields, in the order the text writes them, each
    # with its heading.
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


@dataclass(frozen=True)
class PremiseReport:
    """The outcome of one rule application or validation pass; ``ok`` when
    every check passed."""

    subject: str
    checks: tuple = field(default_factory=tuple)
    ok: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ok", all(c.passed for c in self.checks))

    def failures(self) -> tuple:
        return tuple(c for c in self.checks if not c.passed)

    def render(self, indent: str = "") -> str:
        lines = ["%s%s" % (indent, self.subject)]
        for c in self.checks:
            lines.append(c.render(indent + "  "))
        return "\n".join(lines)


def premise(check: str, ok: bool, if_passed: str = "", if_failed: str = "",
            counterexample: Optional[Counterexample] = None) -> PremiseCheck:
    """One premise's verdict, with the detail that fits it."""
    return PremiseCheck(check, ok, if_passed if ok else if_failed, counterexample)
