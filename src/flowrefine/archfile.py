"""Textual formats: architecture files, refinement scripts, environments.

The formats are line oriented.  A logical line may span physical lines as
long as parentheses stay open, and ``#`` starts a comment.  Machines are
written as parenthesized combinator expressions such as
``(relay from=In to=I map=copy)`` or ``(adapt of=(compose ...) inputs=In
outputs=D)``; intervals are written ``[a.1,a.2]`` with no spaces inside,
slices as intervals joined by ``|`` (or ``-`` for the empty slice).
A line is a form without its parentheses: its first word names it, and
its keys and items follow.

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
    SYSTEM,
    Form,
    IntervalTransducer,
    Node,
    parse_slice,
    render_machine,
    unwritable,
)
from .errors import FlowError, InterfaceError, ParseError
from .rules import RULES, Invariant, RefinementStep, check_step
from .streams import EnumerationBounds, StreamTuple, TimedStream
from .system import Component, System


# ---------------------------------------------------------------------------
# lines and nodes
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


def _lines(text: str, directive: Optional[str] = None):
    """Each logical line of ``text`` as a :class:`Node`: a line is a form
    without its parentheses, named by its directive word.  Unless
    ``directive`` is ``None``, every line must start with it.  A line's
    repeated key is reported after its unknown directive, a nested form's
    as soon as the form closes."""
    for line, logical in _logical_lines(text):
        tokens = ("(%s)" % logical).replace("(", " ( ").replace(")", " ) ").split()
        if tokens[1] in ("(", ")"):
            raise ParseError("lines start with a directive word", line=line)
        node, end = _parse_node(tokens, 0, line)
        if end < len(tokens):
            raise ParseError("unexpected ')'", line=line)
        if directive not in (None, node.form):
            raise ParseError("unknown directive %r" % node.form, line=line)
        yield _unique(node)


# How many written forms a form may sit inside.  Each level costs the
# reader, the elaborator and the machine built a few interpreter frames;
# at this depth a machine still elaborates, renders, validates and checks.
MAX_NESTING = 200


def _parse_node(tokens, i, line, around=-1):
    """The form that opens at ``tokens[i]``, its keys read apart from its
    items, and the index after its ``)``.  ``around`` counts the written
    forms it sits inside; a line's own form is written without its
    parentheses.  The parentheses of a logical line balance, so every form
    closes."""
    if around > MAX_NESTING:
        raise ParseError("forms nest more than %d deep" % MAX_NESTING, line=line)
    form = tokens[i + 1]
    if form in ("(", ")"):
        raise ParseError("expected a form name after '('", line=line)
    kwargs, args = [], []
    i += 2
    while tokens[i] != ")":
        token = tokens[i]
        if token == "(":
            node, i = _parse_node(tokens, i, line, around + 1)
            args.append(_unique(node))
        elif "=" not in token or token.startswith("["):
            args.append(token)
            i += 1
        else:
            key, _, raw = token.partition("=")
            if not key:
                raise ParseError("missing key before '='", line=line)
            if raw:
                kwargs.append((key, raw))
                i += 1
            elif tokens[i + 1] == "(":
                node, i = _parse_node(tokens, i + 1, line, around + 1)
                kwargs.append((key, _unique(node)))
            else:
                raise ParseError("empty value for %r" % key, line=line)
    return Node(form, tuple(kwargs), tuple(args), line), i + 1


def _unique(node: Node) -> Node:
    """``node``, unless it repeats a key."""
    seen = set()
    for key, _ in node.kwargs:
        if key in seen:
            raise ParseError("duplicate %s=..." % key, line=node.line)
        seen.add(key)
    return node


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
        _check_keys(value)
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
        mapping = {}
        for old, _, new in pairs:
            if old in mapping:
                raise ParseError("rename map renames %r twice" % old, line=line)
            mapping[old] = new
        return mapping
    return value  # a word


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


def _form(forms: dict, node: Node, what: str) -> Form:
    form = forms.get(node.form)
    if form is None:
        raise ParseError("unknown %s form %r" % (what, node.form), line=node.line)
    return form


def resolve_names(node: Node, named: dict, stack=(), line=None, around=0) -> Node:
    """Inline references to named machines so every expression stands alone.
    ``around`` counts the forms ``node`` sits inside once inlined, through
    names and written forms alike; past ``MAX_NESTING`` the expression is
    refused, as the reader refuses a form written that deep."""
    if not isinstance(node, Node):
        if node not in named:
            raise ParseError("unknown machine name %r" % node, line=line)
        if node in stack:
            raise ParseError("machine %r is defined in terms of itself" % node, line=line)
        return resolve_names(named[node], named, stack + (node,), around=around)
    if around > MAX_NESTING:
        raise ParseError("forms nest more than %d deep" % MAX_NESTING, line=node.line)
    form = _form(MACHINE_FORMS, node, "machine")
    machines = {key.name for key in form.keys if key.kind == MACHINE}
    kwargs = tuple((key, resolve_names(value, named, stack, node.line, around + 1)
                    if key in machines else value) for key, value in node.kwargs)
    args = node.args
    if form.items == MACHINE:
        args = tuple(resolve_names(value, named, stack, node.line, around + 1) for value in args)
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
    bounds_line: int = 1  # blamed when the bounds are out of range


def parse_architecture(text: str) -> ArchDoc:
    doc = ArchDoc()
    seen = set()
    for node in _lines(text):
        head, args, line = node.form, node.args, node.line
        if head in ("bounds", "inputs", "outputs"):
            if head in seen:
                raise ParseError("duplicate %s line" % head, line=line)
            seen.add(head)
        if head == "bounds":
            doc.horizon = _read(INT, node.get("horizon"), line, "horizon")
            doc.burst = _read(INT, node.get("burst"), line, "burst")
            doc.bounds_line = line
            _check_keys(node, ("horizon", "burst"), items=False, on_line=True)
        elif head in ("alphabet", "component"):
            _declare(doc, node)
        elif head in ("inputs", "outputs"):
            setattr(doc, head, _names("channel", _words(args, line, "channel names"), line))
            _check_keys(node, on_line=True)
        elif head == "machine":
            if len(args) != 2 or isinstance(args[0], Node) or not isinstance(args[1], Node):
                raise ParseError("expected: machine NAME (expr)", line=line)
            name = args[0]
            if name in doc.machines:
                raise ParseError("duplicate machine %r" % name, line=line)
            doc.machines[name] = args[1]
            _check_keys(node, on_line=True)
        else:
            raise ParseError("unknown directive %r" % head, line=line)
    if "bounds" not in seen:
        raise ParseError("missing bounds line", line=1)
    return doc


def _declare(doc: ArchDoc, node: Node) -> None:
    """Read an ``alphabet`` or ``component`` node into ``doc``: a line of
    an architecture file, or an item of a ``(system ...)`` form."""
    args, line = node.args, node.line
    if node.form == "alphabet":
        args = _words(args, line, "a channel and messages")
        if not args:
            raise ParseError("alphabet needs a channel name", line=line)
        (channel,) = _names("channel", args[:1], line)
        if channel in doc.alphabets:
            raise ParseError("duplicate alphabet for %r" % channel, line=line)
        if len(args) < 2:
            raise ParseError("alphabet %r lists no messages" % channel, line=line)
        for message in args[1:]:
            fault = unwritable(message)
            if fault:
                raise ParseError("alphabet %r: message %r %s" % (channel, message, fault),
                                 line=line)
        doc.alphabets[channel] = tuple(args[1:])
        _check_keys(node, on_line=True)
    else:
        if len(args) != 1 or isinstance(args[0], Node):
            raise ParseError("expected: component NAME key=value ...", line=line)
        (name,) = _names("component", args, line)
        machine = node.get("machine")
        if machine is None:
            raise ParseError("component %r needs machine=..." % name, line=line)
        doc.components += (ComponentSpec(
            name,
            _names("channel", _read(NAMES, node.get("reads", ""), line, "reads"), line),
            _names("channel", _read(NAMES, node.get("writes", ""), line, "writes"), line),
            machine,
            line,
        ),)
        _check_keys(node, ("machine", "reads", "writes"), on_line=True)


def _names(kind: str, names, line: int) -> tuple:
    """``names``, unless one would not read back as a ``kind`` of name
    (see :func:`unwritable`)."""
    for name in names:
        fault = unwritable(name, kind)
        if fault:
            raise ParseError("%s %r %s" % (kind, name, fault), line=line)
    return tuple(names)


def _check_keys(node: Node, keys=(), items=True, on_line=False) -> None:
    """Reject the first key of ``node`` outside ``keys``, then its first
    item unless ``items``: as unexpected on a line, or as one its form
    does not take."""
    what = "unexpected" if on_line else "form %r takes no" % node.form
    for key, _ in node.kwargs:
        if key not in keys:
            raise ParseError("%s %s=..." % (what, key), line=node.line)
    if node.args and not items:
        item = node.args[0]
        item = "(%s ...)" % item.form if isinstance(item, Node) else repr(item)
        raise ParseError("%s %s" % (what, item), line=node.line)


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
        raise ParseError(str(exc), line=doc.bounds_line) from exc
    comps = []
    for spec in doc.components:
        node = spec.machine
        try:
            node = resolve_names(node, doc.machines)
            machine = elaborate_machine(node, bounds, label=spec.name)
            if (frozenset(spec.reads), frozenset(spec.writes)) != (machine.inputs, machine.outputs):
                raise InterfaceError("component %s declares %s -> %s but its machine has %s -> %s" % (
                    spec.name, sorted(set(spec.reads)), sorted(set(spec.writes)),
                    sorted(machine.inputs), sorted(machine.outputs)))
            comps.append(Component(spec.name, machine))
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


def _unreadable_states(node) -> list:
    """States the ``table`` forms in ``node`` write that would not read back:
    empty, split at a space, ``(``, ``)`` or ``#``, or in a row taken for a key."""
    if not isinstance(node, Node):
        return []
    if node.form != "table":
        return [state for item in [value for _, value in node.kwargs] + list(node.args)
                for state in _unreadable_states(item)]
    rows = [word for row in node.args for word in row.args]
    return [word for word in [node.get("initial", "")] + rows
            if not word or any(c.isspace() or c in "()#" for c in word)
            or "=" in word and not word.startswith("[") and word in rows]


def render_architecture(system: System) -> str:
    """Write a system back out in canonical form.

    Every component's machine is emitted as a named expression ``m_<name>``:
    the expression the machine records, which its constructor already put
    in canonical form.  A machine built from raw functions has none, and
    cannot be rendered, nor can a name, message or table state that would
    not read back as itself (see :func:`unwritable` and :func:`_unreadable_states`).
    """
    bounds = system.bounds
    channels = set(bounds.channels).union(
        system.inputs, system.outputs, *(c.inputs | c.outputs for c in system.components))
    words = [("channel", ch) for ch in sorted(channels, key=str)]
    words += [("component", comp.name) for comp in system.components]
    words += [("message", m) for ch in bounds.channels for m in bounds.alphabet(ch)]
    faults = [(kind, word, unwritable(word, kind)) for kind, word in words]
    faults += [("state", word, "is empty or holds a space, ( ) # or a row's =")
               for comp in system.components for word in _unreadable_states(comp.machine.expr)]
    for kind, word, fault in faults:
        if fault:
            raise FlowError("%s %r %s, so it would not read back" % (kind, word, fault))
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
    lines = {}  # each channel -> the line of its stream
    for node in _lines(text, "stream"):
        line = node.line
        _check_keys(node, on_line=True)
        if not node.args:
            raise ParseError("stream needs a channel name", line=line)
        channel, *atoms = _words(node.args, line, "a channel and intervals")
        if channel in streams:
            raise ParseError("duplicate stream for %r" % channel, line=line)
        intervals = []
        for atom in atoms:
            slc = parse_slice(atom, line)
            if len(slc) != 1:
                raise ParseError("expected a plain interval, got %r" % atom, line=line)
            intervals.append(slc[0])
        streams[channel] = TimedStream(intervals)
        lines[channel] = line
    if not streams:
        raise ParseError("environment declares no streams", line=1)
    first = next(iter(streams.values())).horizon
    for channel, stream in streams.items():
        if stream.horizon != first:
            raise ParseError("streams have differing lengths", line=lines[channel])
    return StreamTuple(streams)


# ---------------------------------------------------------------------------
# scripts
# ---------------------------------------------------------------------------

def parse_script(text: str) -> tuple:
    """The steps of a script, one :class:`Node` per ``step`` line, whose
    form is the rule's name and whose keys are its parameters, unread."""
    steps = []
    for node in _lines(text, "step"):
        args, line = node.args, node.line
        if len(args) != 1 or isinstance(args[0], Node):
            raise ParseError("expected: step RULE key=value ...", line=line)
        try:
            check_step(args[0], dict(node.kwargs))
        except ValueError as exc:
            raise ParseError(str(exc), line=line) from None
        steps.append(Node(args[0], node.kwargs, (), line))
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
    _check_keys(node, ("inputs", "outputs"))
    interface = {key: _names("channel", _read(NAMES, node.get(key, ""), node.line, key),
                             node.line) for key in ("inputs", "outputs")}
    doc = ArchDoc(host_bounds.horizon, host_bounds.burst, **interface)
    for child in node.args:
        if not isinstance(child, Node):
            raise ParseError("unexpected %r inside system" % child, line=node.line)
        if child.form not in ("alphabet", "component"):
            raise ParseError("unknown system entry %r" % child.form, line=child.line)
        _declare(doc, child)
    doc.alphabets = {**host_bounds.alphabets(), **doc.alphabets}
    return elaborate_architecture(doc)
