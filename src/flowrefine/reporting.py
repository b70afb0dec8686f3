"""Premise reports and counterexamples.

Every check in the package answers with the same shape: a report listing
the individual premises that were examined, each with a stable identifier,
a verdict and, for failures, a replayable counterexample.  Reports render
deterministically so two runs over the same inputs produce identical text,
and serialize from their own fields (:func:`as_json`).
"""

from __future__ import annotations

from typing import Optional

from .streams import Frozen, StreamTuple, TimedStream


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
    return {name: v for name in type(value).__slots__
            if (v := getattr(value, name)) is not None and v != ""}


class Record(Frozen):
    """A value: a :class:`Frozen` object, equal to another, and hashing
    alike, when their classes and their ``_compared`` fields (every field
    unless the class names fewer) are."""

    __slots__ = ()
    _compared: tuple = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared or self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))


class Counterexample(Record):
    """A concrete witness for a failed check.

    kind names the failure; inputs and output are the offending stream
    tuples where that makes sense, run is a full channel history for
    whole-architecture failures.  Re-running the failed check on these
    values reproduces the failure.
    """

    __slots__ = ("kind", "inputs", "output", "run", "inputs_b", "note")

    def __init__(self, kind: str, inputs: Optional[StreamTuple] = None,
                 output: Optional[StreamTuple] = None, run: Optional[StreamTuple] = None,
                 inputs_b: Optional[StreamTuple] = None, note: str = ""):
        self._set(kind, inputs, output, run, inputs_b, note)

    def with_note(self, note: str) -> "Counterexample":
        """This counterexample, explained by ``note``."""
        return Counterexample(self.kind, self.inputs, self.output, self.run, self.inputs_b, note)

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


class PremiseCheck(Record):
    __slots__ = ("check", "passed", "detail", "counterexample")

    def __init__(self, check: str, passed: bool, detail: str = "",
                 counterexample: Optional[Counterexample] = None):
        self._set(check, passed, detail, counterexample)

    def render(self, indent: str = "") -> str:
        verdict = "pass" if self.passed else "FAIL"
        line = "%s[%s] %s" % (indent, verdict, self.check)
        if self.detail:
            line += ": " + self.detail
        if self.counterexample is not None:
            line += "\n" + self.counterexample.render(indent + "  ")
        return line


class PremiseReport(Record):
    """The outcome of one rule application or validation pass; ``ok`` when
    every check passed."""

    __slots__ = ("subject", "checks", "ok")

    def __init__(self, subject: str, checks: tuple = ()):
        self._set(subject, checks, all(c.passed for c in checks))

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
