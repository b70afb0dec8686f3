"""Textual formats: architecture files, refinement scripts, environments.

The formats are line oriented.  A logical line may span physical lines as
long as parentheses stay open, and ``#`` starts a comment.  Machines are
written as parenthesized combinator expressions such as
``(relay from=In to=I map=copy)`` or ``(adapt of=(compose ...) inputs=In
outputs=D)``; intervals are written ``[a.1,a.2]`` with no spaces inside,
slices as intervals joined by ``|`` (or ``-`` for the empty slice).

Architecture files contain, in any order::

    bounds horizon=4 burst=1
    alphabet In a.0 a.1 a.2
    inputs In Key
    outputs Data
    machine m_pre (relay from=In to=I map=copy)
    component PRE reads=In writes=I machine=m_pre

Scripts contain ``step RULE key=value ...`` lines, environments contain
``stream CHANNEL [..] [..] ...`` lines.  Rendering is canonical: parsing a
rendered file and rendering it again reproduces it byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .behaviors import (
    FLAG,
    INT,
    INVARIANT,
    INVARIANT_FORMS,
    MACHINE,
    MACHINE_FORMS,
    MAP,
    NAMES,
    ROW,
    SLICE_SYNTAX,
    SYSTEM,
    Form,
    IntervalTransducer,
    Node,
    parse_slice,
    render_machine,
)
from .errors import FlowError, ParseError
from .rules import RULES, Invariant, RefinementStep, check_step
from .streams import EnumerationBounds, StreamTuple, TimedStream
from .system import Component, System


# ---------------------------------------------------------------------------
# tokens and nodes
# ---------------------------------------------------------------------------


def _logical_lines(text: str):
    buf = []
    depth = 0
    start = None
    for number, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0]
        if depth == 0 and not body.strip():
            continue
        if start is None:
            start = number
        depth += body.count("(") - body.count(")")
        if depth < 0:
            raise ParseError("unbalanced ')'", line=number)
        buf.append(body)
        if depth == 0:
            yield start, " ".join(buf)
            buf = []
            start = None
    if depth != 0:
        raise ParseError("unclosed '('", line=start)


def _tokens(line_text: str):
    return line_text.replace("(", " ( ").replace(")", " ) ").split()


def _parse_items(tokens, i, line, inside):
    items = []
    while i < len(tokens):
        t = tokens[i]
        if t == ")":
            if not inside:
                raise ParseError("unexpected ')'", line=line)
            return items, i + 1
        if t == "(":
            node, i = _parse_node(tokens, i, line)
            items.append(node)
            continue
        if "=" in t and not t.startswith("["):
            key, _, raw = t.partition("=")
            if not key:
                raise ParseError("missing key before '='", line=line)
            if raw:
                items.append((key, raw))
                i += 1
            elif i + 1 < len(tokens) and tokens[i + 1] == "(":
                node, i = _parse_node(tokens, i + 1, line)
                items.append((key, node))
            else:
                raise ParseError("empty value for %r" % key, line=line)
            continue
        items.append(t)
        i += 1
    if inside:
        raise ParseError("missing ')'", line=line)
    return items, i


def _parse_node(tokens, i, line):
    if i + 1 >= len(tokens) or tokens[i + 1] in ("(", ")"):
        raise ParseError("expected a form name after '('", line=line)
    form = tokens[i + 1]
    items, j = _parse_items(tokens, i + 2, line, inside=True)
    kwargs, args = _split_kw(items, line)
    return Node(form, tuple(kwargs.items()), tuple(args), line), j


def _parse_line(text: str, line: int):
    """Parse one logical line into (first-word, items)."""
    tokens = _tokens(text)
    if not tokens:
        raise ParseError("empty line", line=line)
    head = tokens[0]
    if head in ("(", ")"):
        raise ParseError("lines start with a directive word", line=line)
    items, _ = _parse_items(tokens, 1, line, inside=False)
    return head, items


def _split_kw(items, line):
    kwargs = {}
    args = []
    for item in items:
        if isinstance(item, tuple):
            key, value = item
            if key in kwargs:
                raise ParseError("duplicate %s=..." % key, line=line)
            kwargs[key] = value
        else:
            args.append(item)
    return kwargs, args


def _words(values, line, what) -> tuple:
    """``values`` as plain words; a parenthesized form among them is an error."""
    for value in values:
        if isinstance(value, Node):
            raise ParseError("expected %s, got a form" % what, line=line)
    return tuple(values)


def _read(kind: str, value, line: int, key: str, bounds=None, label=None):
    """The value ``key=`` (or an item) writes, read as ``kind``."""
    if kind == MACHINE:
        if not isinstance(value, Node):
            # Names are resolved before elaboration; a script names none.
            raise ParseError("unknown machine name %r" % value, line=line)
        return elaborate_machine(value, bounds, label=label)
    if kind in (INVARIANT, SYSTEM, ROW):
        if not isinstance(value, Node):
            raise ParseError("%s takes a parenthesized form, got %r" % (key, value), line=line)
        if kind == INVARIANT:
            return elaborate_invariant(value)
        if kind == SYSTEM:
            return elaborate_system_node(value, bounds)
        _check_keys(value, (), items=True)
        return (value.form,) + _words(value.args, line, "words in a row")
    if isinstance(value, Node):
        raise ParseError("%s=... takes a plain value" % key, line=line)
    if kind == NAMES:
        return tuple(p for p in value.split(",") if p)
    if kind == INT:
        try:
            return int(value)
        except (TypeError, ValueError):
            raise ParseError("%s must be an integer, got %r" % (key, value), line=line) from None
    if kind == FLAG:
        if value not in ("yes", "true", "no", "false"):
            raise ParseError("expected yes or no, got %r" % value, line=line)
        return value in ("yes", "true")
    if kind == MAP:
        pairs = [entry.partition(":") for entry in _read(NAMES, value, line, key)]
        if not all(old and sep and new for old, sep, new in pairs):
            raise ParseError("rename map entries look like old:new", line=line)
        return {old: new for old, _, new in pairs}
    return value  # a word


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


def _form(forms: dict, node: Node, what: str) -> Form:
    form = forms.get(node.form)
    if form is None:
        raise ParseError("unknown %s form %r" % (what, node.form), line=node.line)
    return form


def resolve_names(node: Node, named: dict, stack=(), line=None) -> Node:
    """Inline references to named machines so every expression stands alone."""
    if not isinstance(node, Node):
        if node not in named:
            raise ParseError("unknown machine name %r" % node, line=line)
        if node in stack:
            raise ParseError("machine %r is defined in terms of itself" % node, line=line)
        return resolve_names(named[node], named, stack + (node,))
    form = _form(MACHINE_FORMS, node, "machine")
    machines = {key.name for key in form.keys if key.kind == MACHINE}
    kwargs = tuple((key, resolve_names(value, named, stack, node.line) if key in machines
                    else value) for key, value in node.kwargs)
    args = node.args
    if form.items == MACHINE:
        args = tuple(resolve_names(value, named, stack, node.line) for value in args)
    return Node(node.form, kwargs, args, node.line)


def _build(form: Form, node: Node, bounds, label: Optional[str] = None):
    """Call the form's constructor on the node's keys and items, each read
    by the kind the form declares."""
    line = node.line
    _check_keys(node, {key.name for key in form.keys}, form.items)
    args = ()
    if form.items:
        args = (tuple(_read(form.items, item, line, form.name, bounds) for item in node.args),)
    kwargs = {"bounds": bounds} if form.bounds else {}
    if label is not None:
        kwargs["label"] = label
    for key in form.keys:
        if key.required:
            value = node.want(key.name)
        else:
            value = node.get(key.name, "" if key.kind == NAMES else None)
        if value is not None:
            kwargs[key.param or key.name] = _read(key.kind, value, line, key.name, bounds)
    try:
        return form.build(*args, **kwargs)
    except FlowError as exc:
        if getattr(exc, "line", None):
            raise
        raise ParseError(str(exc), line=line) from exc


def elaborate_machine(node: Node, bounds: EnumerationBounds,
                      label: Optional[str] = None) -> IntervalTransducer:
    """Build the transducer a machine expression denotes.

    Name references must already be resolved (see :func:`resolve_names`).
    """
    return _build(_form(MACHINE_FORMS, node, "machine"), node, bounds, label)


def elaborate_invariant(node: Node) -> Invariant:
    return _build(_form(INVARIANT_FORMS, node, "invariant"), node, None)


# ---------------------------------------------------------------------------
# architecture files
# ---------------------------------------------------------------------------


@dataclass
class ComponentSpec:
    name: str
    reads: tuple
    writes: tuple
    machine: object  # Node or named reference string
    line: int


@dataclass
class ArchDoc:
    """A parsed architecture file, not yet elaborated into machines."""

    horizon: int = 0
    burst: int = 0
    alphabets: dict = field(default_factory=dict)
    inputs: tuple = ()
    outputs: tuple = ()
    machines: dict = field(default_factory=dict)
    components: tuple = ()


def parse_architecture(text: str) -> ArchDoc:
    doc = ArchDoc()
    seen_bounds = False
    seen_io = set()
    for line, logical in _logical_lines(text):
        head, items = _parse_line(logical, line)
        kwargs, args = _split_kw(items, line)
        if head == "bounds":
            if seen_bounds:
                raise ParseError("duplicate bounds line", line=line)
            seen_bounds = True
            doc.horizon = _read(INT, kwargs.pop("horizon", None), line, "horizon")
            doc.burst = _read(INT, kwargs.pop("burst", None), line, "burst")
            _reject_extras(kwargs, args, line)
        elif head in ("alphabet", "component"):
            _declare(doc, head, kwargs, args, line)
        elif head in ("inputs", "outputs"):
            if head in seen_io:
                raise ParseError("duplicate %s line" % head, line=line)
            seen_io.add(head)
            setattr(doc, head, _words(args, line, "channel names"))
            _reject_extras(kwargs, (), line)
        elif head == "machine":
            if len(args) != 2 or isinstance(args[0], Node) or not isinstance(args[1], Node):
                raise ParseError("expected: machine NAME (expr)", line=line)
            name = args[0]
            if name in doc.machines:
                raise ParseError("duplicate machine %r" % name, line=line)
            doc.machines[name] = args[1]
            _reject_extras(kwargs, (), line)
        else:
            raise ParseError("unknown directive %r" % head, line=line)
    if not seen_bounds:
        raise ParseError("missing bounds line", line=1)
    return doc


def _declare(doc: ArchDoc, head: str, kwargs: dict, args, line: int) -> None:
    """Read an ``alphabet`` or ``component`` line into ``doc``: a line of
    an architecture file, or an item of a ``(system ...)`` form."""
    if head == "alphabet":
        args = _words(args, line, "a channel and messages")
        if not args:
            raise ParseError("alphabet needs a channel name", line=line)
        channel = args[0]
        if channel in doc.alphabets:
            raise ParseError("duplicate alphabet for %r" % channel, line=line)
        if len(args) < 2:
            raise ParseError("alphabet %r lists no messages" % channel, line=line)
        for message in args[1:]:
            if any(c in message for c in SLICE_SYNTAX):
                raise ParseError("alphabet %r: message %r holds one of %s, which write slices"
                                 % (channel, message, " ".join(SLICE_SYNTAX)), line=line)
        doc.alphabets[channel] = tuple(args[1:])
    else:
        if len(args) != 1 or isinstance(args[0], Node):
            raise ParseError("expected: component NAME key=value ...", line=line)
        name = args[0]
        machine = kwargs.pop("machine", None)
        if machine is None:
            raise ParseError("component %r needs machine=..." % name, line=line)
        doc.components += (ComponentSpec(
            name,
            _read(NAMES, kwargs.pop("reads", ""), line, "reads"),
            _read(NAMES, kwargs.pop("writes", ""), line, "writes"),
            machine,
            line,
        ),)
    _reject_extras(kwargs, (), line)


def _check_keys(node: Node, keys, items) -> None:
    """Reject a key of ``node`` outside ``keys``, and any item unless
    ``items``."""
    _reject_extras({k: v for k, v in node.kwargs if k not in keys},
                   () if items else node.args, node.line, node.form)


def _reject_extras(kwargs, args, line, form=None):
    """Reject the first key or item left over, on a line or in ``form``."""
    what = "unexpected" if form is None else "form %r takes no" % form
    if kwargs:
        raise ParseError("%s %s=..." % (what, next(iter(kwargs))), line=line)
    if args:
        item = args[0]
        item = "(%s ...)" % item.form if isinstance(item, Node) else repr(item)
        raise ParseError("%s %s" % (what, item), line=line)


def elaborate_architecture(
    doc: ArchDoc,
    horizon: Optional[int] = None,
    burst: Optional[int] = None,
):
    """Build the system an architecture file describes."""
    try:
        bounds = EnumerationBounds(
            doc.horizon if horizon is None else horizon,
            doc.burst if burst is None else burst,
            doc.alphabets,
        )
    except FlowError as exc:
        raise ParseError(str(exc), line=1) from exc
    comps = []
    for spec in doc.components:
        node = spec.machine
        try:
            node = resolve_names(node, doc.machines)
            machine = elaborate_machine(node, bounds, label=spec.name)
            comps.append(Component(
                spec.name,
                frozenset(spec.reads),
                frozenset(spec.writes),
                machine,
            ))
        except ParseError as exc:
            if exc.line:
                raise
            raise ParseError(str(exc), line=spec.line) from exc
        except FlowError as exc:
            raise ParseError(
                "component %s: %s" % (spec.name, exc), line=spec.line
            ) from exc
    return System(
        frozenset(doc.inputs), frozenset(doc.outputs), tuple(comps), bounds
    )


def render_architecture(system: System) -> str:
    """Write a system back out in canonical form.

    Every component's machine is emitted as a named expression ``m_<name>``:
    the expression the machine records, which its constructor already put
    in canonical form.  A machine built from raw functions has none, and
    cannot be rendered.
    """
    bounds = system.bounds
    lines = ["bounds horizon=%d burst=%d" % (bounds.horizon, bounds.burst)]
    for channel in bounds.channels:
        msgs = " ".join(str(m) for m in bounds.alphabet(channel))
        lines.append("alphabet %s %s" % (channel, msgs))
    lines.append("inputs %s" % " ".join(sorted(system.inputs)))
    lines.append("outputs %s" % " ".join(sorted(system.outputs)))
    lines.append("")
    for comp in system.components:
        if comp.machine.expr is None:
            raise FlowError("component %s: its machine was built from Python functions "
                            "and has no expression to render" % comp.name)
        expr = render_machine(comp.machine.expr)
        lines.append("machine m_%s %s" % (comp.name, expr))
    lines.append("")
    for comp in system.components:
        # The parser takes a missing key for an empty list; it rejects "reads=".
        wiring = ["%s=%s" % (key, ",".join(sorted(channels)))
                  for key, channels in (("reads", comp.inputs), ("writes", comp.outputs))
                  if channels]
        lines.append(" ".join(["component", comp.name] + wiring + ["machine=m_" + comp.name]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# environments
# ---------------------------------------------------------------------------


def parse_env(text: str) -> StreamTuple:
    """Read ``stream CHANNEL [..] [..] ...`` lines into a stream tuple."""
    streams = {}
    for line, logical in _logical_lines(text):
        head, items = _parse_line(logical, line)
        if head != "stream":
            raise ParseError("unknown directive %r" % head, line=line)
        kwargs, args = _split_kw(items, line)
        _reject_extras(kwargs, (), line)
        if not args:
            raise ParseError("stream needs a channel name", line=line)
        channel, *atoms = _words(args, line, "a channel and intervals")
        if channel in streams:
            raise ParseError("duplicate stream for %r" % channel, line=line)
        intervals = []
        for atom in atoms:
            slc = parse_slice(atom, line)
            if len(slc) != 1:
                raise ParseError("expected a plain interval, got %r" % atom, line=line)
            intervals.append(slc[0])
        streams[channel] = TimedStream(intervals)
    if not streams:
        raise ParseError("environment declares no streams", line=1)
    lengths = {s.horizon for s in streams.values()}
    if len(lengths) != 1:
        raise ParseError("streams have differing lengths", line=1)
    return StreamTuple(streams)


# ---------------------------------------------------------------------------
# scripts
# ---------------------------------------------------------------------------

def parse_script(text: str) -> tuple:
    """The steps of a script, one :class:`Node` per ``step`` line, whose
    form is the rule's name and whose keys are its parameters, unread."""
    steps = []
    for line, logical in _logical_lines(text):
        head, items = _parse_line(logical, line)
        if head != "step":
            raise ParseError("unknown directive %r" % head, line=line)
        kwargs, args = _split_kw(items, line)
        if len(args) != 1 or isinstance(args[0], Node):
            raise ParseError("expected: step RULE key=value ...", line=line)
        try:
            check_step(args[0], kwargs)
        except ValueError as exc:
            raise ParseError(str(exc), line=line) from None
        steps.append(Node(args[0], tuple(kwargs.items()), (), line))
    return tuple(steps)


def elaborate_step(step: Node, bounds: EnumerationBounds) -> RefinementStep:
    """The rule application a parsed step writes: each parameter read by
    the kind its rule declares, under the bounds of the system it applies
    to.  A replacement machine is labelled with its component's name."""
    params = {}
    for key, kind in RULES[step.form][1].items():
        params[key] = _read(kind, step.get(key), step.line, key, bounds,
                            label=params.get("component"))
    return RefinementStep(step.form, params)


# ---------------------------------------------------------------------------
# subsystems inside scripts (for the expand rule)
# ---------------------------------------------------------------------------


def elaborate_system_node(node: Node, host_bounds: EnumerationBounds):
    """Build the system described by a ``(system ...)`` form, whose
    ``(alphabet ...)`` and ``(component ...)`` items are read like
    architecture file lines under the host's bounds.  An alphabet item may
    redeclare a host channel.  A script names no machines, so a name inside
    a component is an unknown machine name."""
    if node.form != "system":
        raise ParseError("expected a (system ...) form", line=node.line)
    _check_keys(node, ("inputs", "outputs"), items=True)
    doc = ArchDoc(host_bounds.horizon, host_bounds.burst,
                  inputs=_read(NAMES, node.get("inputs", ""), node.line, "inputs"),
                  outputs=_read(NAMES, node.get("outputs", ""), node.line, "outputs"))
    for child in node.args:
        if not isinstance(child, Node):
            raise ParseError("unexpected %r inside system" % child, line=node.line)
        if child.form not in ("alphabet", "component"):
            raise ParseError("unknown system entry %r" % child.form, line=child.line)
        _declare(doc, child.form, dict(child.kwargs), child.args, child.line)
    doc.alphabets = {**host_bounds.alphabets(), **doc.alphabets}
    return elaborate_architecture(doc)
