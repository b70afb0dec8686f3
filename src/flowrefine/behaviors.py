"""Nondeterministic interval transducers and operations on them.

A component behavior maps every input stream tuple to a nonempty set of
output stream tuples.  Behaviors are represented operationally: a machine
holds a state, emits one of a set of output slices for the current
interval, and only then consumes the input slice of the same interval to
pick a successor state.  Emitting before consuming means the output of
interval i can only depend on input received strictly before i, so every
machine expressible here reacts with at least one interval of delay and
feedback loops are well defined.

Slices are the working currency: a slice is a tuple of intervals aligned
with the machine's sorted channel order (``in_order`` or ``out_order``).
Public entry points accept and return stream tuples; the slice level is
what the checkers iterate over.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

from .errors import BoundsError, CompositionError, FlowError, InterfaceError, ParseError
from .reporting import Counterexample, PremiseReport, premise
from .streams import (
    EnumerationBounds,
    StreamTuple,
    TimedStream,
    ckey,
    interval_key,
)


def slice_key(slc):
    return tuple([interval_key(iv) for iv in slc])


@dataclass(frozen=True)
class Node:
    """One parenthesized form: a name, keyword items and positional items.

    A machine's expression is a node, written the way the architecture
    format writes it: keyword values are strings or nested nodes.
    """

    form: str
    kwargs: tuple = ()
    args: tuple = ()
    line: int = 0

    def get(self, key, default=None):
        for k, v in self.kwargs:
            if k == key:
                return v
        return default

    def want(self, key):
        value = self.get(key)
        if value is None:
            raise ParseError("form %r needs %s=..." % (self.form, key), line=self.line)
        return value


def render_slice(slc) -> str:
    """Write a slice as intervals joined by ``|``, or ``-`` for the slice
    over no channels."""
    if not slc:
        return "-"
    return "|".join("[%s]" % ",".join(str(m) for m in iv) for iv in slc)


# The characters that write intervals and slices; no message may hold one.
SLICE_SYNTAX = ",|[]"
# The character between a rename map's old and new names; no channel name
# may hold it, though a message may.
MAP_SYNTAX = ":"


def unwritable(word, kind: str = "message") -> Optional[str]:
    """Why the text formats cannot write ``word``, a ``kind`` of name
    ("channel", "component" or "message"), so that it reads back as
    itself, or ``None`` when they can."""
    if not isinstance(word, str):
        return "is not a string"
    if any(c in word for c in SLICE_SYNTAX):
        return "holds one of %s, which write slices" % " ".join(SLICE_SYNTAX)
    if not word or any(c.isspace() or c in "()#=" for c in word):
        return "is empty or holds a space or one of ( ) # ="
    if kind == "channel" and MAP_SYNTAX in word:
        return "holds %s, which writes rename maps" % MAP_SYNTAX
    return None


def parse_slice(text: str, line: Optional[int] = None) -> tuple:
    """Read a slice as :func:`render_slice` writes it."""
    if text == "-":
        return ()
    out = []
    for part in text.split("|"):
        if not (part.startswith("[") and part.endswith("]")):
            raise ParseError("expected [..] interval, got %r" % part, line=line)
        inner = part[1:-1]
        out.append(tuple(inner.split(",")) if inner else ())
    return tuple(out)


def render_machine(node: Node, indent: int = 0) -> str:
    """Render an expression; forms with nested forms go one item per line,
    leaves stay on a single line."""
    pad = "  " * indent
    nested = any(isinstance(v, Node) for _, v in node.kwargs) or any(
        isinstance(v, Node) for v in node.args
    )
    if not nested:
        parts = ["%s=%s" % (k, v) for k, v in node.kwargs]
        parts += [str(v) for v in node.args]
        return "%s(%s)" % (pad, " ".join([node.form] + parts))
    body = []
    for key, value in node.kwargs:
        if isinstance(value, Node):
            rendered = render_machine(value, indent + 1)
            body.append("%s%s=%s" % ("  " * (indent + 1), key, rendered.lstrip()))
        else:
            body.append("%s%s=%s" % ("  " * (indent + 1), key, value))
    for value in node.args:
        if isinstance(value, Node):
            body.append(render_machine(value, indent + 1))
        else:
            body.append("%s%s" % ("  " * (indent + 1), value))
    return "%s(%s\n%s)" % (pad, node.form, "\n".join(body))


# ---------------------------------------------------------------------------
# form declarations
# ---------------------------------------------------------------------------

# The kinds of a form's keys and items, and of a rule's parameters.
WORD, NAMES, INT, FLAG, MAP, MACHINE, ROW, INVARIANT, SYSTEM = (
    "word", "name list", "integer", "yes/no flag", "rename map", "machine", "row",
    "invariant", "system")

# How a constructor's value of each kind is written; ``None`` is a machine
# without an expression.
_WRITE = {
    WORD: str,
    NAMES: lambda names: ",".join(sorted(names)),
    INT: str,
    FLAG: lambda flag: "yes" if flag else "no",
    MAP: lambda mapping: ",".join(sorted("%s:%s" % pair for pair in mapping.items())),
    MACHINE: lambda machine: machine.expr,
}


class Key(NamedTuple):
    """One key of a form: its name, its kind, whether the text must give
    it, and the constructor parameter it fills when that is named
    otherwise.  An optional name list left out reads as empty; any other
    optional key left out leaves the constructor's default."""

    name: str
    kind: str
    required: bool = True
    param: Optional[str] = None


class Form(NamedTuple):
    """One expression form, declared once, beside its constructor.

    ``keys`` are in the order the form writes them.  ``items`` is the kind
    of its positional items, or ``None`` when it takes none.  The parser
    calls ``build`` with the items as one tuple first, then each key's
    value by its parameter name, plus ``bounds`` when ``bounds`` is set.
    The constructor writes its expression through :meth:`record`.
    """

    name: str
    build: Callable
    keys: tuple = ()
    items: Optional[str] = None
    bounds: bool = False

    def record(self, *values, items=()) -> Optional[Node]:
        """The expression for ``values``, one per key in order, and
        ``items``; ``None`` when a machine among them has none.  An empty
        name list is left out, as the format writes it (the parser rejects
        ``key=``), and machine items are sorted by their rendering."""
        kwargs = [(key.name, _WRITE[key.kind](value)) for key, value in zip(self.keys, values)]
        if self.items == MACHINE:
            items = [machine.expr for machine in items]
        if None in items or any(text is None for _, text in kwargs):
            return None
        if self.items == MACHINE:
            items.sort(key=render_machine)
        return Node(self.name, tuple(item for item in kwargs if item[1]), tuple(items))


MACHINE_FORMS: dict = {}
INVARIANT_FORMS: dict = {}


def declare(forms: dict, name: str, build: Callable, *keys, items=None, bounds=False) -> Form:
    """Enter a form in ``forms``, :data:`MACHINE_FORMS` or
    :data:`INVARIANT_FORMS`, where the parser looks it up."""
    form = forms[name] = Form(name, build, keys, items, bounds)
    return form


_OF = Key("of", MACHINE, param="machine")
_INPUTS, _OUTPUTS = Key("inputs", NAMES, False), Key("outputs", NAMES, False)


class IntervalTransducer:
    """A machine over named channels with set-valued emit and advance.

    ``emit(state)`` returns the output slices the machine may produce in
    the current interval; ``advance(state, out_slice, in_slice)`` returns
    the possible successor states once an emission has been chosen and the
    interval's input has arrived.  Both are cached and deduplicated, and
    their order does not depend on the hash seed, so iteration over a
    machine is deterministic.  Emissions are sorted by ``slice_key``.

    Each is a cached lookup in front of an uncached step, ``_emit`` and
    ``_advance``, that computes the answer on a miss.  A view
    (:func:`adapt`, :func:`with_free_output`, :func:`drop_input` and
    :func:`rename_channels`) calls its inner machine's uncached step: its
    own cache key fixes the key it would ask the inner machine, so an
    inner cache would only hold a second copy of every answer it keeps.

    A leaf machine, built from raw functions, sorts its emission sets by
    ``slice_key`` and its successor sets by ``ckey``, computed once per
    distinct state, and returns the first object it built for each state.
    The combinators below pass ``_ordered=True``: their ``emit`` returns a
    canonical tuple built from their parts' emission sets, sorted once per
    distinct set of those, and their ``advance`` builds successor sets from
    their parts' sets in an order that only those orders decide, returns
    each state once, and is not sorted again.

    A leaf keeps its raw states; a view keeps its inner machine's and its
    ``numbering``.  ``compose`` numbers its product states as it first
    builds them, from 0 for the initial one; its :class:`Numbering`
    converts between a number and its tuple of part states.  ``numbering``
    is ``None`` on a machine whose states are not a product's numbers.
    :func:`readable_state` writes a state as the nested tuple of the leaf
    states it stands for.

    ``expr`` is the expression the machine denotes, a :class:`Node` that
    the architecture format renders.  The constructors in this module and
    the case study's record their own; a machine built from raw functions
    has none.

    ``total`` is the :class:`Totality` its constructor proved, or ``None``:
    ``chaos``, the relay and the database prove it from their bounds, and
    ``compose`` and the views from their parts'; a table or a machine built
    from raw functions leaves it unset.  No search ever decides it.

    ``reads`` is the set of input channels the machine's successors may
    depend on; it defaults to every input.  ``advance`` caches on the input
    slice projected onto ``reads``, and on a miss widens the projection
    back to every input, each unread one picked from a silent interval
    ``()`` (:func:`_selector`), so ``advance_fn`` cannot depend on a
    channel the machine does not declare.

    An exception that ``emit_fn`` or ``advance_fn`` raises comes out of
    ``emit`` or ``advance`` as a ``FlowError`` that names the machine's
    label, unless it is one already or the interpreter's ``RecursionError``.
    """

    __slots__ = (
        "inputs", "outputs", "in_order", "out_order", "initial", "reads",
        "label", "expr", "numbering", "total", "_ordered", "_project", "_widen", "_keyed",
        "_emit_fn", "_advance_fn", "_emit_cache", "_advance_cache",
    )

    def __init__(self, inputs, outputs, initial, emit, advance,
                 label: str = "machine",
                 *, reads=None, expr: Optional[Node] = None,
                 total: Optional["Totality"] = None, _ordered: bool = False,
                 _numbering: Optional["Numbering"] = None):
        object.__setattr__(self, "inputs", frozenset(inputs))
        object.__setattr__(self, "outputs", frozenset(outputs))
        object.__setattr__(self, "in_order", tuple(sorted(self.inputs)))
        object.__setattr__(self, "out_order", tuple(sorted(self.outputs)))
        reads = self.inputs if reads is None else frozenset(reads)
        if not reads <= self.inputs:
            raise InterfaceError("%s reads %s, which are not among its inputs"
                                 % (label, sorted(reads - self.inputs)))
        object.__setattr__(self, "reads", reads)
        read_order = tuple(sorted(reads))
        if read_order != self.in_order:
            object.__setattr__(self, "_widen", _selector(self.in_order, read_order))
        object.__setattr__(self, "_project", None if read_order == self.in_order
                           else _selector(read_order, self.in_order))
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "expr", expr)
        object.__setattr__(self, "numbering", _numbering)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "_ordered", _ordered)
        # A leaf's successor states: each state -> (its ckey, the first
        # object built for it).
        object.__setattr__(self, "_keyed", None if _ordered else {})
        object.__setattr__(self, "_emit_fn", emit)
        object.__setattr__(self, "_advance_fn", advance)
        object.__setattr__(self, "_emit_cache", {})
        object.__setattr__(self, "_advance_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("IntervalTransducer is immutable")

    def emit(self, state) -> tuple:
        out = self._emit_cache.get(state)
        if out is None:
            out = self._emit_cache[state] = self._emit(state)
        return out

    def _emit(self, state) -> tuple:
        """``emit`` without the cache."""
        try:
            out = self._emit_fn(state)
            return out if self._ordered else _canonical(out, slice_key)
        except (FlowError, RecursionError):
            raise
        except Exception as exc:
            raise self._failed("emit", exc, "state %r" % (readable_state(self, state),)) from exc

    def advance(self, state, out_slice, in_slice) -> tuple:
        project = self._project
        if project is not None:
            in_slice = project(in_slice)
        key = (state, out_slice, in_slice)
        out = self._advance_cache.get(key)
        if out is None:
            out = self._advance_cache[key] = self._advance(state, out_slice, in_slice)
        return out

    def _advance(self, state, out_slice, in_slice) -> tuple:
        """``advance`` without the cache, on ``in_slice`` already projected
        onto ``reads``."""
        if self._project is not None:
            in_slice = self._widen(in_slice + ((),))
        try:
            out = self._advance_fn(state, out_slice, in_slice)
            return tuple(out) if self._ordered else self._sorted(out)
        except (FlowError, RecursionError):
            raise
        except Exception as exc:
            raise self._failed("advance", exc, "state %r, emission %r, input %r"
                               % (readable_state(self, state), out_slice, in_slice)) from exc

    def _sorted(self, states) -> tuple:
        """Distinct ``states`` sorted by ``ckey``, each as the first object
        this machine returned for it."""
        keyed = self._keyed
        entries = [keyed.get(s) or keyed.setdefault(s, (ckey(s), s)) for s in set(states)]
        if len(entries) > 1:
            entries.sort(key=_first)
        return tuple([s for _, s in entries])

    def _failed(self, function, exc, where) -> FlowError:
        """A machine function's own exception, as a one-line error that
        names the machine."""
        return FlowError(" ".join(("%s: %s raised %s on %s: %s" % (
            self.label, function, type(exc).__name__, where, exc)).split()))

    def __repr__(self):
        return "IntervalTransducer(%s: %s -> %s)" % (
            self.label, sorted(self.inputs), sorted(self.outputs))


_first = operator.itemgetter(0)


class Totality(NamedTuple):
    """A machine's proof that it is total, decided when it is built.

    On every input whose messages on each channel of ``reads`` lie in that
    channel's alphabet, a read channel not listed carrying any message,
    every state the machine reaches emits something, every emission and
    input has a successor, and neither is computed by raising.  Each
    channel of ``writes`` then carries only messages of its alphabet.
    """

    reads: dict
    writes: dict


def total_on(machine: IntervalTransducer, bounds: EnumerationBounds) -> bool:
    """Whether ``machine`` is proven total on every input within ``bounds``."""
    fact = machine.total
    return fact is not None and all(
        bounds.has_channel(ch) and alphabet.issuperset(bounds.alphabet(ch))
        for ch, alphabet in fact.reads.items())


def _picker(idx):
    """A function from a tuple to its items at positions ``idx``, as a
    tuple; a position past the tuple's end raises ``IndexError``."""
    if len(idx) > 1:
        return operator.itemgetter(*idx)
    if idx:
        # itemgetter of one index returns the bare item, and a slice past
        # the end is empty instead of raising.
        (i,) = idx
        return lambda row: (row[i],)
    return operator.itemgetter(slice(0, 0))


def _selector(channels, *orders):
    """The :func:`_picker` for ``channels`` in a row made of slices over
    ``orders`` laid end to end, followed by one silent interval ``()``.
    A channel is read from the first order that holds it, and from the
    silent tail when no order holds it; only a row that ends in the tail
    may be asked for such a channel."""
    laid = [ch for order in orders for ch in order]
    return _picker(tuple(laid.index(ch) if ch in laid else len(laid) for ch in channels))


class Numbering(dict):
    """How a ``compose`` numbers its product states: each tuple of part
    states -> its number, given on its first lookup, in order from 0, and
    ``parts[number]`` -> the tuple back.  ``machines`` are the parts."""

    __slots__ = ("parts", "machines")

    def __init__(self, machines):
        super().__init__()
        self.parts = []
        self.machines = machines

    def __missing__(self, parts):
        n = self[parts] = len(self.parts)
        self.parts.append(parts)
        return n


def readable_state(machine: IntervalTransducer, state):
    """``state`` as the tuple of its parts' readable states where it
    numbers a product state, and as it is otherwise."""
    numbering = machine.numbering
    if numbering is None:
        return state
    return tuple(readable_state(m, s)
                 for m, s in zip(numbering.machines, numbering.parts[state]))


def _canonical(values, key) -> tuple:
    """Distinct ``values`` sorted by ``key``; one or none need no sort."""
    distinct = set(values)
    if len(distinct) < 2:
        return tuple(distinct)
    return tuple(sorted(distinct, key=key))


def _norm_slice(order, value):
    if isinstance(value, dict):
        extra = set(value) - set(order)
        if extra:
            raise InterfaceError("slice binds unknown channels %s" % sorted(extra))
        missing = set(order) - set(value)
        if missing:
            raise InterfaceError("slice misses channels %s" % sorted(missing))
        return tuple(tuple(value[ch]) for ch in order)
    slc = tuple(tuple(iv) for iv in value)
    if len(slc) != len(order):
        raise InterfaceError("slice has %d intervals, expected %d" % (len(slc), len(order)))
    return slc


def table_machine(inputs, outputs, states, initial, emit, advance,
                  label: str = "machine") -> IntervalTransducer:
    """Build a machine from explicit emit and advance tables.

    ``emit`` maps each state to an iterable of output slices; ``advance``
    maps (state, out_slice, in_slice) triples to iterables of successor
    states and may be a dict or an iterable of such pairs.  Slices may be
    given as dicts keyed by channel or as tuples aligned with the sorted
    channel order (dict slices in advance keys are unhashable, so pass
    those as pairs).  Gaps in the tables surface as validation failures,
    not construction errors.
    """
    in_order = tuple(sorted(set(inputs)))
    out_order = tuple(sorted(set(outputs)))
    if initial not in tuple(states):
        raise FlowError("initial state %r not among declared states" % (initial,))
    emit_table = {}
    for s, options in emit.items():
        emit_table[s] = tuple(_norm_slice(out_order, o) for o in options)
    advance_table = {}
    pairs = advance.items() if isinstance(advance, dict) else advance
    for (s, o, i), succ in pairs:
        key = (s, _norm_slice(out_order, o), _norm_slice(in_order, i))
        advance_table[key] = tuple(succ)

    def emit_fn(state):
        try:
            return emit_table[state]
        except KeyError:
            raise FlowError("%s: no emit choices declared for state %r" % (label, state)) from None

    def advance_fn(state, out_slice, in_slice):
        try:
            return advance_table[(state, out_slice, in_slice)]
        except KeyError:
            raise FlowError(
                "%s: no transition declared for state %r, emission %r, input %r"
                % (label, state, out_slice, in_slice)) from None

    # Rows in canonical order: emit rows, then next rows, each sorted by
    # their items, with slices and successors sorted as the text writes them.
    emits = sorted((str(s),) + tuple(sorted(map(render_slice, options)))
                   for s, options in emit_table.items())
    nexts = sorted((str(s), render_slice(o), render_slice(i)) + tuple(sorted(set(map(str, succ))))
                   for (s, o, i), succ in advance_table.items())
    rows = tuple(Node("emit", (), row) for row in emits)
    rows += tuple(Node("next", (), row) for row in nexts)
    return IntervalTransducer(in_order, out_order, initial, emit_fn, advance_fn, label=label,
                              expr=_TABLE.record(in_order, out_order, initial, items=rows))


def _table_of_rows(rows, inputs, outputs, initial, label: str = "table") -> IntervalTransducer:
    """The machine a ``table`` form writes, from its rows: ``(emit STATE
    SLICE...)`` and ``(next STATE OUT IN SUCCESSOR...)``, each row read as
    a tuple of its form name and words.  A state with no slice, or an
    emission and input with no successor, declares an empty set."""
    emits: dict = {}
    advances: dict = {}
    states = {initial}
    for form, *words in rows:
        if form == "emit" and words:
            states.add(words[0])
            emits.setdefault(words[0], []).extend(map(parse_slice, words[1:]))
        elif form == "next" and len(words) >= 3:
            state, out_slice, in_slice, *succs = words
            states.update([state] + succs)
            key = (state, parse_slice(out_slice), parse_slice(in_slice))
            advances[key] = advances.get(key, ()) + tuple(succs)
        elif form == "emit":
            raise ParseError("emit needs a state")
        elif form == "next":
            raise ParseError("next needs a state, an emission and an input")
        else:
            raise ParseError("unknown table entry %r" % form)
    return table_machine(inputs, outputs, tuple(sorted(states)), initial, emits, advances,
                         label=label)


_TABLE = declare(MACHINE_FORMS, "table", _table_of_rows, _INPUTS, _OUTPUTS, Key("initial", WORD),
                 items=ROW)


def chaos(inputs, outputs, bounds: EnumerationBounds, label: str = "chaos") -> IntervalTransducer:
    """The loosest behavior on an interface: any in-bounds output, any time."""
    out_order = tuple(sorted(set(outputs)))
    emissions = bounds.assignments(out_order)
    state = "free"

    def emit_fn(s):
        return emissions

    def advance_fn(s, o, i):
        return (state,)

    total = Totality({}, {ch: frozenset(bounds.alphabet(ch)) for ch in out_order})
    return IntervalTransducer(inputs, outputs, state, emit_fn, advance_fn, label=label,
                              reads=(), expr=_CHAOS.record(inputs, outputs), total=total)


_CHAOS = declare(MACHINE_FORMS, "chaos", chaos, _INPUTS, _OUTPUTS, bounds=True)


def unit_machine(bounds: EnumerationBounds, label: str = "idle") -> IntervalTransducer:
    """The machine with no channels; its behavior is the singleton empty tuple."""
    return chaos((), (), bounds, label=label)


def _view(machine: IntervalTransducer, inputs, outputs, expr, label: str,
          mapping: Optional[dict] = None) -> IntervalTransducer:
    """``machine`` seen through a map of channel names, with inputs
    ``inputs`` and outputs ``outputs``, recorded as ``expr``.

    ``mapping`` takes an inner channel to its outer name; a channel it
    leaves out keeps its own.  Inner input ``c`` is picked from outer
    channel ``mapping.get(c, c)``, or from silence when that channel is
    not an input; an inner output whose outer name is not among
    ``outputs`` stays hidden.  The view keeps ``machine``'s states and
    ``numbering``, and reads what ``machine`` reads.  Its emissions are the
    visible parts of ``machine``'s, grouped and sorted once per distinct
    emission set of ``machine``; a move's successors are the union over
    its hidden emissions, in the order it first meets them.
    """
    mapping = mapping or {}
    # The inner machine's input projected onto what it reads, picked from
    # the input slice followed by silence, and the visible part of its
    # emission.
    base_in = _selector([mapping.get(ch, ch) for ch in machine.in_order if ch in machine.reads],
                        sorted(inputs))
    keep = _selector(sorted(outputs), [mapping.get(ch, ch) for ch in machine.out_order])

    @functools.cache
    def grouping(emissions):
        """Inner emissions grouped by their visible part, beside the
        visible parts sorted."""
        grouped: dict = {}
        for o in emissions:
            grouped.setdefault(keep(o), []).append(o)
        return grouped, _canonical(grouped, slice_key)

    @functools.cache
    def groups(state):
        return grouping(machine._emit(state))

    def emit_fn(state):
        return groups(state)[1]

    def advance_fn(state, out_slice, in_slice):
        base = base_in(in_slice + ((),))
        # The union over hidden emissions, in the order it first meets them.
        return dict.fromkeys(nxt for orig in groups(state)[0][out_slice]
                             for nxt in machine._advance(state, orig, base))

    reads = frozenset(mapping.get(ch, ch) for ch in machine.reads).intersection(inputs)
    # Totality carries over unless a channel it constrains is fed from
    # another; one that is not an input hears silence, which it allows.
    total = machine.total
    if total is not None and all(mapping.get(ch, ch) == ch for ch in total.reads):
        total = Totality({ch: a for ch, a in total.reads.items() if ch in inputs},
                         {mapping.get(ch, ch): a for ch, a in total.writes.items()
                          if mapping.get(ch, ch) in outputs})
    else:
        total = None
    return IntervalTransducer(inputs, outputs, machine.initial, emit_fn, advance_fn,
                              label=label, reads=reads, expr=expr, total=total, _ordered=True,
                              _numbering=machine.numbering)


def adapt(machine: IntervalTransducer, inputs, outputs,
          label: Optional[str] = None) -> IntervalTransducer:
    """Widen the input channels and narrow the output channels.

    New inputs are ignored, so the result reads what ``machine`` reads;
    dropped outputs stay internal to the machine, so the adapted machine
    may still branch on what it would have written there.  The result's
    behavior is exactly the original behavior with inputs restricted and
    outputs projected.  It is the :func:`_view` of ``machine`` on the new
    interface, under no renaming.
    """
    inputs = frozenset(inputs)
    outputs = frozenset(outputs)
    if not machine.inputs <= inputs:
        raise InterfaceError(
            "adapt may only add inputs: %s not covered" % sorted(machine.inputs - inputs))
    if not outputs <= machine.outputs:
        raise InterfaceError(
            "adapt may only drop outputs: %s not present" % sorted(outputs - machine.outputs))
    return _view(machine, inputs, outputs, _ADAPT.record(machine, inputs, outputs),
                 label or (machine.label + "'"))


_ADAPT = declare(MACHINE_FORMS, "adapt", adapt, _OF, _INPUTS, _OUTPUTS)


def with_free_output(machine: IntervalTransducer, channel: str, bounds: EnumerationBounds,
                     label: Optional[str] = None) -> IntervalTransducer:
    """``machine`` plus an output ``channel`` with free content: any
    in-bounds interval, at any time."""
    label = label or machine.label
    combined = compose([machine, chaos((), (channel,), bounds)], label=label)
    # A machine may read its own output; compose resolves that loop and
    # drops the channel from the inputs, so pad the interface back out.
    return _view(combined, machine.inputs, machine.outputs | {channel},
                 _WITH_FREE_OUTPUT.record(machine, channel), label)


_WITH_FREE_OUTPUT = declare(MACHINE_FORMS, "with-free-output", with_free_output, _OF,
                            Key("channel", WORD), bounds=True)


def drop_input(machine: IntervalTransducer, channel: str,
               label: Optional[str] = None) -> IntervalTransducer:
    """Remove an input channel, feeding the machine silence in its place.

    Only sound when the machine's behavior does not depend on the channel;
    the refinement rule that uses this checks that premise first.
    """
    if channel not in machine.inputs:
        raise InterfaceError("%r is not an input of %s" % (channel, machine.label))
    return _view(machine, machine.inputs - {channel}, machine.outputs,
                 _DROP_INPUT.record(machine, channel), label or machine.label)


_DROP_INPUT = declare(MACHINE_FORMS, "drop-input", drop_input, _OF, Key("channel", WORD))


def rename_channels(machine: IntervalTransducer, mapping: dict,
                    label: Optional[str] = None) -> IntervalTransducer:
    """Rename channels; the mapping must not collapse distinct channels."""
    new_in = frozenset(mapping.get(c, c) for c in machine.inputs)
    new_out = frozenset(mapping.get(c, c) for c in machine.outputs)
    if len(new_in | new_out) != len(machine.inputs | machine.outputs):
        raise InterfaceError("renaming collapses distinct channels")
    return _view(machine, new_in, new_out, _RENAME.record(machine, mapping),
                 label or machine.label, mapping)


_RENAME = declare(MACHINE_FORMS, "rename", rename_channels, _OF,
                  Key("map", MAP, param="mapping"))


def compose(machines, label: str = "product") -> IntervalTransducer:
    """Run several machines in lockstep over a shared channel valuation.

    Output channels must be pairwise disjoint.  In every interval each part
    emits, the emitted slices together with the environment's input form
    the interval's channel valuation, and each part then advances on its
    own input channels' portion of that valuation.  Channels written by one
    part and read by another (including a part reading itself) are resolved
    this way without any extra plumbing; a written channel nobody reads
    still shows up in the product's outputs.  The product reads the inputs
    some part reads.  The product of no machines is the unit: its one
    state emits the empty slice and steps to itself.

    A product state is a number, given to each tuple of part states as it
    is first built, 0 to the initial one; the result's ``numbering``
    converts both ways.  The product's emissions are sorted once per
    distinct tuple of its parts' emission sets.
    """
    machines = tuple(machines)
    writer = {}
    for m in machines:
        for ch in m.outputs:
            if ch in writer:
                raise CompositionError(
                    "channel %r written by both %s and %s" % (ch, writer[ch].label, m.label))
            writer[ch] = m
    outputs = frozenset(writer)
    inputs = frozenset(ch for m in machines for ch in m.inputs) - outputs
    expr = _COMPOSE.record(items=machines)
    out_order = tuple(sorted(outputs))
    in_order = tuple(sorted(inputs))
    # Per part: its output slice, and its input slice from the row, the
    # output slice followed by the product's input slice.
    pickers = [(_selector(m.out_order, out_order), _selector(m.in_order, out_order, in_order))
               for m in machines]
    # The product's emission, from the parts' emissions laid end to end.
    gather = _selector(out_order, *(m.out_order for m in machines))
    numbering = Numbering(machines)
    initial = numbering[tuple(m.initial for m in machines)]
    states = numbering.parts

    @functools.cache
    def emissions(*sets):
        """The product's emissions, sorted, from the parts' emission sets."""
        return _canonical([gather(sum(combo, ())) for combo in itertools.product(*sets)],
                          slice_key)

    def emit_fn(n):
        return emissions(*[m.emit(s) for m, s in zip(machines, states[n])])

    def advance_fn(n, out_slice, in_slice):
        row = out_slice + in_slice
        # The product of duplicate-free parts is duplicate-free.
        return [numbering[t] for t in itertools.product(*[
            m.advance(s, pick_out(out_slice), pick_in(row))
            for m, s, (pick_out, pick_in) in zip(machines, states[n], pickers)])]

    reads = inputs & frozenset().union(*(m.reads for m in machines))
    return IntervalTransducer(inputs, outputs, initial, emit_fn, advance_fn, label=label,
                              reads=reads, expr=expr, total=_product_total(machines, writer),
                              _ordered=True, _numbering=numbering)


_COMPOSE = declare(MACHINE_FORMS, "compose", compose, items=MACHINE)


def _product_total(machines, writer) -> Optional[Totality]:
    """The product's totality, where ``writer`` maps each output to its
    part: each part's, when every channel a part reads from another carries
    only what the reader is proven on."""
    if any(m.total is None for m in machines):
        return None
    reads: dict = {}
    for m in machines:
        for ch, alphabet in m.total.reads.items():
            if ch not in writer:
                reads[ch] = reads.get(ch, alphabet) & alphabet
                continue
            written = writer[ch].total.writes.get(ch)
            if written is None or not written <= alphabet:
                return None
    return Totality(reads, {ch: a for m in machines for ch, a in m.total.writes.items()})


def input_slices(x: StreamTuple, order, horizon: int) -> tuple:
    streams = [x[ch].intervals for ch in order]
    return tuple(tuple(s[i] for s in streams) for i in range(horizon))


def slices_to_tuple(order, slices) -> StreamTuple:
    return StreamTuple({
        ch: TimedStream(tuple(slc[k] for slc in slices))
        for k, ch in enumerate(order)})


def run_output_words(machine: IntervalTransducer, in_slices) -> set:
    """All output slice words the machine can produce on a fixed input word.

    Runs that reach the same state with the same output history collapse,
    which keeps the enumeration proportional to distinct observations
    rather than to raw branching.
    """
    frontier = {machine.initial: {()}}
    for a in in_slices:
        nxt: dict = {}
        for s, prefixes in frontier.items():
            for o in machine.emit(s):
                for s2 in machine.advance(s, o, a):
                    bucket = nxt.get(s2)
                    if bucket is None:
                        bucket = nxt[s2] = set()
                    for p in prefixes:
                        bucket.add(p + (o,))
        frontier = nxt
    words: set = set()
    for prefixes in frontier.values():
        words |= prefixes
    return words


def behavior_of(machine: IntervalTransducer, x: StreamTuple,
                bounds: EnumerationBounds) -> set:
    """The set of output stream tuples the machine admits on input x."""
    if set(x.channels) != set(machine.inputs):
        raise InterfaceError(
            "input binds %s, machine %s reads %s"
            % (list(x.channels), machine.label, sorted(machine.inputs)))
    if machine.inputs and x.horizon != bounds.horizon:
        raise BoundsError("input horizon %d, bounds horizon %d" % (x.horizon, bounds.horizon))
    bounds.check_tuple(x)
    slices = input_slices(x, machine.in_order, bounds.horizon)
    return {slices_to_tuple(machine.out_order, w) for w in run_output_words(machine, slices)}


class InputGuard(NamedTuple):
    """Restricts an inclusion check to the input histories some property
    permits.

    ``channels`` is a sorted tuple of input channels.  The guard is a
    deterministic automaton over input slices projected onto them (tuples
    of intervals aligned with ``channels``): ``initial`` is its state on
    the empty prefix, and ``step(state, slice)`` is the state after one
    more slice, or ``None`` when no in-bounds extension of the prefix to
    the horizon is permitted.  States are hashable, and two prefixes of
    equal length that reach equal states must have the same permitted
    extensions, so a search may merge them.
    """

    channels: tuple
    initial: object
    step: Callable[[object, tuple], object]


def _count_intervals(depth: int, _slice) -> int:
    """The step of a guard that permits every input and counts intervals:
    the guard an unguarded search runs under, so that its nodes carry their
    depth."""
    return depth + 1


def explore(start, horizon: int, expand: Callable, parents: Optional[dict] = None):
    """Search breadth first from ``start``, one layer per interval.

    ``expand(node, depth)`` yields ``(move, successors)`` pairs, in
    canonical order, for a node of layer ``depth``.  A node's parent is the
    first node that reaches it, so the path to every node is the canonically
    first one, and a node is expanded once, in the layer that first reaches
    it.  A move whose successors are ``None`` ends the search.  Returns the
    moves from ``start`` through that move, or ``None`` when no move ends
    the search within ``horizon`` layers, and the number of nodes reached.
    ``parents``, when given, is an empty dict the search keeps each node it
    reaches in, so that ``expand`` can tell whether a node was reached.
    """
    if parents is None:
        parents = {}
    parents[start] = None
    layer = [start]
    for depth in range(horizon):
        following = []
        for node in layer:
            for move, successors in expand(node, depth):
                if successors is None:
                    path = [move]
                    while parents[node] is not None:
                        node, move = parents[node]
                        path.append(move)
                    path.reverse()
                    return path, len(parents)
                for succ in successors:
                    if succ not in parents:
                        parents[succ] = node, move
                        following.append(succ)
        layer = following
    return None, len(parents)


# A move of the inclusion search whose spec side is not computed yet.
_UNSET = object()


def refines_behavior(impl: IntervalTransducer, spec: IntervalTransducer,
                     bounds: EnumerationBounds, guard: Optional[InputGuard] = None,
                     stats: Optional[dict] = None):
    """Check that impl admits only outputs spec admits, on every input.

    Works on the product of impl states with sets of spec states reachable
    under the same observation, searched by :func:`explore`; the verdict
    covers every in-bounds input tuple without enumerating them one by
    one.  With a ``guard``, only the input histories it permits count: each
    node also carries the guard's state on the input prefix, and is
    expanded on an input slice only while the guard permits it.  Nodes that
    differ only in prefixes the guard cannot tell apart are one node.
    Without one, the search runs under a guard that only counts intervals:
    a node reached at two depths may complete a divergence from one of them
    and not the other, so it is two nodes.

    Outputs are the words of runs that last to the horizon, as
    :func:`run_output_words` counts them.  An offending prefix therefore
    counts only if impl can complete it on a permitted input.  On failure
    returns the canonical counterexample: the shortest offending prefix,
    tie-broken lexicographically, completed with impl's first continuation
    in the order impl lists its successors.  ``stats``, when given,
    receives the number of product nodes reached under ``"nodes"``.

    The last interval is decided by existence: a node's (input, emission)
    pair is settled there by the first spec state, in the order the search
    first built the node's set, that emits it and has a successor, and
    impl's successors are computed only when no spec state does.  Every
    spec state of a node's set is asked what it emits, at the last interval
    too, but successors are computed at the last interval only as far as
    the verdict needs them: an ``advance`` that would raise there on a
    state the search does not reach does not stop it.  A spec proven total
    on ``bounds`` (:func:`total_on`) has a successor from every state it
    reaches, so there the pair is settled by some state of the set
    emitting it, and spec's ``advance`` is not asked at all.  An impl
    proven total steps on every move, so a last-layer node's verdict is
    its first move whose emission no state of its set can follow, and
    depends only on impl's emission set, the spec set and the guard state:
    it is kept once per those three, and impl's ``advance`` is not asked
    at the last interval.

    The last layer is decided as it is built: each successor of layer
    horizon - 2 that no earlier layer reached is settled once, in the order
    the search first builds it, and counted.  :func:`explore` is handed
    only the first one with a move that ends the search, and the layer
    builds no successor after it, though its moves still judge their own
    divergences, so a shorter witness found later in the layer still wins.

    Spec successors are computed once per (spec set, emission, input as
    spec reads it) and shared by every node with that set, so a spec
    state's ``advance`` is never asked twice for the same set, emission and
    input.  An answer from an earlier interval settles the last interval
    alike; a last-interval answer is kept apart, since the layer before it
    is still being expanded.  Equal spec sets are one object: the search
    keeps the first it built.
    """
    if impl.inputs != spec.inputs or impl.outputs != spec.outputs:
        raise InterfaceError(
            "interfaces differ: %s -> %s vs %s -> %s"
            % (sorted(impl.inputs), sorted(impl.outputs),
               sorted(spec.inputs), sorted(spec.outputs)))
    horizon = bounds.horizon
    if guard is None:
        guard = InputGuard((), 0, _count_intervals)
    guard_step = guard.step
    project = _selector(guard.channels, impl.in_order)
    steps = tuple((a, project(a)) for a in bounds.assignments(impl.in_order))
    complete = _completion(impl, steps, guard_step, horizon)
    # The guard steps once per guard state and distinct projected slice, and
    # spec answers once per distinct slice it reads; each input slice then
    # looks both up by position.
    projected = tuple(dict.fromkeys(g for _, g in steps))
    read = [a if spec._project is None else spec._project(a) for a, _ in steps]
    spec_inputs = tuple(dict.fromkeys(read))
    indexed = tuple((a, projected.index(g), spec_inputs.index(r))
                    for (a, g), r in zip(steps, read))

    @functools.cache
    def guard_next(gstate):
        return tuple(guard_step(gstate, g) for g in projected)

    spec_total = total_on(spec, bounds)
    impl_total = total_on(impl, bounds)
    start_set = frozenset((spec.initial,))
    start = (impl.initial, start_set, guard.initial)
    # Each spec set -> the first object built for it, its states in the
    # order the search first built the set, and its emission index once a
    # node with the set is expanded.  The index maps an emission to the
    # states that emit it, in the set's recorded order, so the state that
    # settles the last interval, or whose failing machine function is
    # reported, does not depend on set iteration order.  Beside them sit the
    # spec side of each move by spec input number, computed once: before
    # the last interval, a nonempty set or None, so it settles the last
    # interval alike; and, for a spec not proven total, the last interval's
    # own answers.
    records = {start_set: [start_set, (spec.initial,), None]}

    def emission_index(spec_states):
        record = records[spec_states]
        index = record[2]
        if index is None:
            index = record[2] = {}
            for s1 in record[1]:
                for o in spec.emit(s1):
                    entry = index.get(o)
                    if entry is None:
                        entry = index[o] = ([], [_UNSET] * len(spec_inputs),
                                            None if spec_total else [_UNSET] * len(spec_inputs))
                    entry[0].append(s1)
        return index

    def spec_successors(spec_emitters, o, a):
        """The successor set of ``spec_emitters`` on (``o``, ``a``), or
        ``None`` when it is empty."""
        spec_next = dict.fromkeys(s1n for s1 in spec_emitters
                                  for s1n in spec.advance(s1, o, a))
        if not spec_next:
            return None
        fs = frozenset(spec_next)
        record = records.get(fs)
        if record is None:
            record = records[fs] = [fs, tuple(spec_next), None]
        return record[0]

    def spec_goes_on(entry, o, a, p):
        """Whether a spec state of ``entry`` goes on from (``o``, ``a``) at
        the last interval: one spec run that lasts settles it, and a total
        spec has one from every state it reaches."""
        if spec_total:
            return True
        spec_emitters, answers, last_answers = entry
        fs = answers[p]
        if fs is not _UNSET:
            return fs is not None
        ok = last_answers[p]
        if ok is _UNSET:
            ok = last_answers[p] = any(spec.advance(s1, o, a) for s1 in spec_emitters)
        return ok

    def last_move(s2, emissions, spec_states, gstate):
        """The first move of a last-layer node on which impl emits what no
        spec state of the set can follow, and impl goes on, as a one-move
        path, or ``None``.  ``s2`` is not asked when impl is total."""
        index = emission_index(spec_states)
        nexts = guard_next(gstate)
        for a, k, p in indexed:
            if nexts[k] is None:
                continue
            for o in emissions:
                entry = index.get(o)
                if entry is not None and spec_goes_on(entry, o, a, p):
                    continue
                if impl_total or impl.advance(s2, o, a):
                    return ((a, o),)
        return None

    # A total impl goes on from every move, so a node's verdict depends on
    # impl's emissions, the spec set and the guard state alone.
    total_move = functools.cache(functools.partial(last_move, None))

    def settle(node):
        s2, spec_states, gstate = node
        if impl_total:
            return total_move(impl.emit(s2), spec_states, gstate)
        return last_move(s2, impl.emit(s2), spec_states, gstate)

    parents: dict = {}
    # The last layer's nodes that no earlier layer reached, and the first of
    # them with a move that ends the search.
    last_layer: set = set()
    found = None

    def first_end(nodes):
        """The first of ``nodes`` new to the last layer that settles with a
        move, as a 1-tuple, or ``()``; every new node before it is counted."""
        nonlocal found
        for node in nodes:
            if node not in parents and node not in last_layer:
                last_layer.add(node)
                if settle(node) is not None:
                    found = node
                    return (node,)
        return ()

    def expand(node, depth):
        if depth == horizon - 1:
            # The start at horizon 1, or the first failing last-layer node.
            move = settle(node)
            if move is not None:
                yield move, None
            return
        s2, spec_states, gstate = node
        penultimate = depth == horizon - 2
        index = emission_index(spec_states)
        nexts = guard_next(gstate)
        emissions = impl.emit(s2)
        for a, k, p in indexed:
            gstate2 = nexts[k]
            if gstate2 is None:
                continue
            for o in emissions:
                entry = index.get(o)
                if entry is None:
                    fs = None
                else:
                    spec_emitters, answers, _ = entry
                    fs = answers[p]
                    if fs is _UNSET:
                        fs = answers[p] = spec_successors(spec_emitters, o, a)
                if fs:
                    # After the last layer's first failing node, only
                    # divergences matter.
                    if found is None:
                        succ = [(s2n, fs, gstate2) for s2n in impl.advance(s2, o, a)]
                        yield (a, o), first_end(succ) if penultimate else succ
                else:
                    # The divergence counts once impl can complete the run.
                    rest = complete(impl.advance(s2, o, a), depth + 1, gstate2)
                    if rest is not None:
                        yield [(a, o), *rest], None

    path, nodes = explore(start, horizon, expand, parents)
    if stats is not None:
        # The failing node is counted by explore too.
        stats["nodes"] = nodes + len(last_layer) - (found is not None)
    if path is None:
        return True, None
    ins, outs = zip(*path[:-1], *path[-1])
    return False, Counterexample(
        "output-not-included",
        inputs=slices_to_tuple(impl.in_order, ins),
        output=slices_to_tuple(impl.out_order, outs),
        note="divergence first possible in interval %d" % (len(path) - 1))


def _completion(impl, steps, guard_step, horizon):
    """Return ``complete(states, depth, gstate)``: the first way, in the
    order of ``states`` and of impl's successors, for impl to run from one
    of ``states`` at ``depth`` to the horizon on an input the guard permits
    from state ``gstate``, as a tuple of (input, output) slices, or ``None``
    when no run lasts that long.  The answer from each (state, depth,
    guard state) is cached, a path found as well as a dead end."""

    @functools.cache
    def path(s, depth, gstate):
        for a, g in steps:
            gstate2 = guard_step(gstate, g)
            if gstate2 is None:
                continue
            for o in impl.emit(s):
                rest = complete(impl.advance(s, o, a), depth + 1, gstate2)
                if rest is not None:
                    return ((a, o), *rest)
        return None

    def complete(states, depth, gstate):
        if depth == horizon:
            return () if states else None
        for s in states:
            found = path(s, depth, gstate)
            if found is not None:
                return found
        return None

    return complete


def behavior_equal(m1: IntervalTransducer, m2: IntervalTransducer,
                   bounds: EnumerationBounds):
    """Bounded behavioral equality, reported as mutual inclusion."""
    ok, cex = refines_behavior(m1, m2, bounds)
    if not ok:
        return False, replace(cex, note="first machine admits an output the second does not")
    ok, cex = refines_behavior(m2, m1, bounds)
    if not ok:
        return False, replace(cex, note="second machine admits an output the first does not")
    return True, None


def validate_transducer(machine: IntervalTransducer,
                        bounds: EnumerationBounds) -> PremiseReport:
    """Sanity-check a machine against the bounds over its reachable states.

    Exploration covers every state reachable within the horizon under any
    in-bounds input.  Emission sets must be nonempty and in bounds, and
    every (state, emission, input) combination must have a successor.
    """
    categories = ("emit-defined", "emit-nonempty", "emit-in-bounds",
                  "advance-defined", "advance-nonempty")
    problems: dict = {}

    def note(category, detail):
        count, first = problems.get(category, (0, detail))
        problems[category] = (count + 1, first)

    in_assigns = bounds.assignments(machine.in_order)

    def expand(s, depth):
        try:
            emissions = machine.emit(s)
        except FlowError as e:
            note("emit-defined", str(e))
            return
        if not emissions:
            note("emit-nonempty",
                 "state %r has no emission choices" % (readable_state(machine, s),))
        for o in emissions:
            for ch, iv in zip(machine.out_order, o):
                try:
                    bounds.check_interval(ch, iv)
                except BoundsError as e:
                    note("emit-in-bounds", str(e))
            for a in in_assigns:
                try:
                    succ = machine.advance(s, o, a)
                except FlowError as e:
                    note("advance-defined", str(e))
                    continue
                if not succ:
                    note("advance-nonempty", "state %r, emission %r, input %r has no successor"
                         % (readable_state(machine, s), o, a))
                yield None, succ

    _, reached = explore(machine.initial, bounds.horizon, expand)

    checks = [premise("time-guarded", True, "emission precedes consumption by construction"),
              premise("reachable", True, "%d states within horizon %d" % (reached, bounds.horizon))]
    for category in categories:
        count, first = problems.get(category, (0, ""))
        suffix = "" if count < 2 else " (+%d more)" % (count - 1)
        checks.append(premise(category, not count, if_failed=first + suffix))
    return PremiseReport("machine %s" % machine.label, tuple(checks))
