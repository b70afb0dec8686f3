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
    IntervalTransducer,
    Node,
    _recorded_adapt,
    chaos,
    compose,
    drop_input,
    rename_channels,
    render_machine,
    table_machine,
    with_free_output,
)
from .case_study import database_machine, lag_prefix_invariant, relay_machine
from .errors import FlowError, ParseError
from .rules import RULES, Invariant, true_invariant
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
    kwargs = tuple(x for x in items if isinstance(x, tuple))
    args = tuple(x for x in items if not isinstance(x, tuple))
    return Node(form, kwargs, args, line), j


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


def _csv(value, line) -> tuple:
    if isinstance(value, Node):
        raise ParseError("expected a name list, got a form", line=line)
    return tuple(p for p in value.split(",") if p)


def _words(values, line, what) -> tuple:
    """``values`` as plain words; a parenthesized form among them is an error."""
    for value in values:
        if isinstance(value, Node):
            raise ParseError("expected %s, got a form" % what, line=line)
    return tuple(values)


def _word(node: Node, key: str) -> str:
    """A required keyword value that must be a plain word, not a form."""
    (value,) = _words((node.want(key),), node.line, "a name for %s=" % key)
    return value


def _int(value, line, what) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ParseError("%s must be an integer, got %r" % (what, value), line=line) from None


def parse_slice(text: str, line: int) -> tuple:
    """Parse ``[a,b]|[]`` into a tuple of message tuples; ``-`` is the
    slice over no channels."""
    if isinstance(text, Node):
        raise ParseError("expected a slice, got a form", line=line)
    if text == "-":
        return ()
    out = []
    for part in text.split("|"):
        if not (part.startswith("[") and part.endswith("]")):
            raise ParseError("expected [..] interval, got %r" % part, line=line)
        inner = part[1:-1]
        out.append(tuple(inner.split(",")) if inner else ())
    return tuple(out)


# ---------------------------------------------------------------------------
# machine expressions
# ---------------------------------------------------------------------------

def resolve_names(node: Node, named: dict, stack=()) -> Node:
    """Inline references to named machines so every expression stands alone."""
    if not isinstance(node, Node):
        name = node
        if name not in named:
            raise ParseError("unknown machine name %r" % name, line=0)
        if name in stack:
            raise ParseError("machine %r is defined in terms of itself" % name, line=0)
        return resolve_names(named[name], named, stack + (name,))
    kwargs = []
    for key, value in node.kwargs:
        if key == "of":
            if isinstance(value, Node):
                value = resolve_names(value, named, stack)
            elif value in named:
                value = resolve_names(value, named, stack)
            else:
                raise ParseError(
                    "unknown machine name %r" % value, line=node.line
                )
        kwargs.append((key, value))
    args = []
    for value in node.args:
        if isinstance(value, Node):
            args.append(resolve_names(value, named, stack))
        elif node.form == "compose":
            if value not in named:
                raise ParseError("unknown machine name %r" % value, line=node.line)
            args.append(resolve_names(value, named, stack))
        else:
            args.append(value)
    return Node(node.form, tuple(kwargs), tuple(args), node.line)


def elaborate_machine(node: Node, bounds: EnumerationBounds,
                      label: Optional[str] = None) -> IntervalTransducer:
    """Build the transducer a machine expression denotes.

    Name references must already be resolved (see :func:`resolve_names`).
    """
    line = node.line
    form = node.form
    try:
        if form == "chaos":
            ins = _csv(node.get("inputs", ""), line)
            outs = _csv(node.get("outputs", ""), line)
            return chaos(ins, outs, bounds, label=label or "chaos")
        if form == "relay":
            return relay_machine(
                _word(node, "from"),
                _word(node, "to"),
                bounds,
                mode=node.get("map", "copy"),
                modulus=_int(node.get("modulus", 3), line, "modulus"),
                label=label,
            )
        if form == "database":
            return database_machine(
                bounds,
                store=_word(node, "store"),
                query=_word(node, "query"),
                answer=_word(node, "answer"),
                decode=_flag(node.get("decode", "no"), line),
                modulus=_int(node.get("modulus", 3), line, "modulus"),
                ignores=_csv(node.get("ignores", ""), line),
                label=label,
            )
        if form == "adapt":
            inner = elaborate_machine(node.want("of"), bounds)
            return _recorded_adapt(
                inner,
                _csv(node.get("inputs", ""), line),
                _csv(node.get("outputs", ""), line),
                label=label,
            )
        if form == "drop-input":
            inner = elaborate_machine(node.want("of"), bounds)
            return drop_input(inner, _word(node, "channel"), label=label)
        if form == "with-free-output":
            inner = elaborate_machine(node.want("of"), bounds)
            return with_free_output(inner, _word(node, "channel"), bounds, label=label)
        if form == "rename":
            inner = elaborate_machine(node.want("of"), bounds)
            mapping = {}
            for pair in _csv(node.want("map"), line):
                old, sep, new = pair.partition(":")
                if not sep or not old or not new:
                    raise ParseError("rename map entries look like old:new", line=line)
                mapping[old] = new
            return rename_channels(inner, mapping, label=label)
        if form == "compose":
            parts = [elaborate_machine(child, bounds) for child in node.args]
            return compose(parts, label=label or "product")
        if form == "table":
            return _elaborate_table(node, label=label)
    except FlowError as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(str(exc), line=line) from exc
    raise ParseError("unknown machine form %r" % form, line=line)


def _flag(value, line) -> bool:
    if value in ("yes", "true"):
        return True
    if value in ("no", "false"):
        return False
    raise ParseError("expected yes or no, got %r" % value, line=line)


def _elaborate_table(node: Node, label: Optional[str]) -> IntervalTransducer:
    line = node.line
    inputs = _csv(node.get("inputs", ""), line)
    outputs = _csv(node.get("outputs", ""), line)
    initial = _word(node, "initial")
    emits: dict = {}
    advances: dict = {}
    states = {initial}
    for child in node.args:
        if not isinstance(child, Node):
            raise ParseError("unexpected %r inside table" % child, line=line)
        if child.form == "emit":
            if len(child.args) < 2:
                raise ParseError("emit needs a state and at least one slice",
                                 line=child.line)
            (state,) = _words(child.args[:1], child.line, "a state name")
            states.add(state)
            options = emits.setdefault(state, [])
            options.extend(parse_slice(a, child.line) for a in child.args[1:])
        elif child.form == "next":
            if len(child.args) < 4:
                raise ParseError(
                    "next needs state, emission, input and successor(s)",
                    line=child.line)
            names = _words(child.args[:1] + child.args[3:], child.line, "state names")
            state, succs = names[0], names[1:]
            out_slice = parse_slice(child.args[1], child.line)
            in_slice = parse_slice(child.args[2], child.line)
            states.add(state)
            states.update(succs)
            key = (state, out_slice, in_slice)
            advances[key] = advances.get(key, ()) + succs
        else:
            raise ParseError("unknown table entry %r" % child.form, line=child.line)
    return table_machine(
        inputs, outputs, tuple(sorted(states)), initial, emits, advances,
        label=label or "table")


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def elaborate_invariant(node: Node) -> Invariant:
    if node.form == "always-true":
        return true_invariant()
    if node.form == "lag-prefix":
        return lag_prefix_invariant(_word(node, "source"), _word(node, "target"))
    raise ParseError("unknown invariant form %r" % node.form, line=node.line)


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
    comps = []
    for line, logical in _logical_lines(text):
        head, items = _parse_line(logical, line)
        kwargs, args = _split_kw(items, line)
        if head == "bounds":
            if seen_bounds:
                raise ParseError("duplicate bounds line", line=line)
            seen_bounds = True
            doc.horizon = _int(kwargs.pop("horizon", None), line, "horizon")
            doc.burst = _int(kwargs.pop("burst", None), line, "burst")
            _reject_extras(kwargs, args, line)
        elif head == "alphabet":
            args = _words(args, line, "a channel and messages")
            if not args:
                raise ParseError("alphabet needs a channel name", line=line)
            channel = args[0]
            if channel in doc.alphabets:
                raise ParseError("duplicate alphabet for %r" % channel, line=line)
            if len(args) < 2:
                raise ParseError("alphabet %r lists no messages" % channel, line=line)
            doc.alphabets[channel] = tuple(args[1:])
            _reject_extras(kwargs, (), line)
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
        elif head == "component":
            if len(args) != 1 or isinstance(args[0], Node):
                raise ParseError("expected: component NAME key=value ...", line=line)
            name = args[0]
            machine = kwargs.pop("machine", None)
            if machine is None:
                raise ParseError("component %r needs machine=..." % name, line=line)
            comps.append(ComponentSpec(
                name,
                _csv(kwargs.pop("reads", ""), line),
                _csv(kwargs.pop("writes", ""), line),
                machine,
                line,
            ))
            _reject_extras(kwargs, (), line)
        else:
            raise ParseError("unknown directive %r" % head, line=line)
    if not seen_bounds:
        raise ParseError("missing bounds line", line=1)
    doc.components = tuple(comps)
    return doc


def _reject_extras(kwargs, args, line):
    if kwargs:
        raise ParseError("unexpected %s=..." % sorted(kwargs)[0], line=line)
    if args:
        raise ParseError("unexpected %r" % args[0], line=line)


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
        if len(args) < 1:
            raise ParseError("stream needs a channel name", line=line)
        (channel,) = _words(args[:1], line, "a channel name")
        if channel in streams:
            raise ParseError("duplicate stream for %r" % channel, line=line)
        intervals = []
        for atom in args[1:]:
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

@dataclass(frozen=True)
class StepSpec:
    """One script line, with machine and invariant expressions unevaluated."""

    rule: str
    fields: tuple
    line: int

    def get(self, key):
        for k, v in self.fields:
            if k == key:
                return v
        return None


def parse_script(text: str) -> tuple:
    steps = []
    for line, logical in _logical_lines(text):
        head, items = _parse_line(logical, line)
        if head != "step":
            raise ParseError("unknown directive %r" % head, line=line)
        kwargs, args = _split_kw(items, line)
        if len(args) != 1 or isinstance(args[0], Node):
            raise ParseError("expected: step RULE key=value ...", line=line)
        rule = args[0]
        if rule not in RULES:
            raise ParseError(
                "unknown rule %r (known: %s)" % (rule, ", ".join(sorted(RULES))),
                line=line,
            )
        expected = set(RULES[rule][1])
        got = set(kwargs)
        if got != expected:
            raise ParseError(
                "rule %s takes %s" % (rule, ", ".join(sorted(expected))), line=line
            )
        steps.append(StepSpec(rule, tuple(sorted(kwargs.items())), line))
    return tuple(steps)


# ---------------------------------------------------------------------------
# subsystems inside scripts (for the expand rule)
# ---------------------------------------------------------------------------


def elaborate_system_node(node: Node, host_bounds: EnumerationBounds):
    """Build the system described by a ``(system ...)`` form.

    The host's bounds carry over; ``(alphabet CH m1 m2 ...)`` children
    declare channels the host does not know.  Component machines are
    inline forms: a script names no machines, so a name inside one is a
    :class:`ParseError`.
    """
    if node.form != "system":
        raise ParseError("expected a (system ...) form", line=node.line)
    alphabets = host_bounds.alphabets()
    comp_nodes = []
    for child in node.args:
        if not isinstance(child, Node):
            raise ParseError("unexpected %r inside system" % child, line=node.line)
        if child.form == "alphabet":
            if len(_words(child.args, child.line, "a channel and messages")) < 2:
                raise ParseError("alphabet needs a channel and messages",
                                 line=child.line)
            alphabets[child.args[0]] = tuple(child.args[1:])
        elif child.form == "component":
            comp_nodes.append(child)
        else:
            raise ParseError("unknown system entry %r" % child.form, line=child.line)
    bounds = EnumerationBounds(host_bounds.horizon, host_bounds.burst, alphabets)
    comps = []
    for child in comp_nodes:
        if len(child.args) != 1 or isinstance(child.args[0], Node):
            raise ParseError("expected: (component NAME key=value ...)",
                             line=child.line)
        name = child.args[0]
        machine_node = child.want("machine")
        if not isinstance(machine_node, Node):
            raise ParseError("component machines inside (system ...) are inline forms",
                             line=child.line)
        machine = elaborate_machine(resolve_names(machine_node, {}), bounds, label=name)
        comps.append(Component(
            name,
            frozenset(_csv(child.get("reads", ""), child.line)),
            frozenset(_csv(child.get("writes", ""), child.line)),
            machine,
        ))
    return System(
        frozenset(_csv(node.get("inputs", ""), node.line)),
        frozenset(_csv(node.get("outputs", ""), node.line)),
        tuple(comps),
        bounds,
    )
