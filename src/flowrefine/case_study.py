"""A worked refinement: splitting a keyed store into a delta-encoded pipeline.

The starting architecture has a forwarder ``PRE`` that passes store requests
from ``In`` to ``I``, and a database ``RDB`` that stores entries from ``I``
and answers key lookups from ``Key`` on ``Data``.  Thirteen rule
applications, grouped into eight stages, turn it into a two-component
pipeline: ``PRE2`` emits difference-coded entries on ``D`` and ``RDB2``
decodes and stores them.  Every stage is premise-checked, and the final
architecture is replayed against the original for behavior inclusion.

Entries travel as compact string tokens (``"a.2"`` means key ``a``, value
``2``); lookups answer with the stored value's token or ``"nil"``.  The
difference coding is plain functions over integers, and the coding relays
run ``delta_star``/``rho_star`` on each interval's entries, so the laws
tested on those functions are the laws the relays obey.
"""

from __future__ import annotations

from typing import Optional

from .behaviors import (
    FLAG, INT, INVARIANT_FORMS, MACHINE_FORMS, NAMES, WORD, IntervalTransducer, Key,
    declare, unwritable,
)
from .errors import FlowError, OptionError
from .rules import Invariant, Monitor, RefinementStep
from .streams import EnumerationBounds, TimedStream
from .system import Component, System


# ---------------------------------------------------------------------------
# difference coding over integers
# ---------------------------------------------------------------------------


def delta(previous: Optional[int], value: int, modulus: int = 3) -> int:
    """Code ``value`` against the last stored value for the same key.

    ``previous`` is ``None`` when no value was stored yet; the first code
    is then the value itself.
    """
    if previous is None:
        return value % modulus
    return (value - previous) % modulus


def rho(previous: Optional[int], code: int, modulus: int = 3) -> int:
    """Recover a value from its difference code; inverse of :func:`delta`."""
    if previous is None:
        return code % modulus
    return (previous + code) % modulus


def delta_star(entries, modulus: int = 3, table=None) -> tuple:
    """Difference-code a sequence of ``(key, value)`` entries, keeping one
    memory cell per key.  ``table`` seeds the per-key memory (a mapping
    from key to last stored value); it is not modified."""
    memory: dict = dict(table) if table else {}
    out = []
    for key, value in entries:
        out.append((key, delta(memory.get(key), value, modulus)))
        memory[key] = value
    return tuple(out)


def rho_star(entries, modulus: int = 3, table=None) -> tuple:
    """Decode a sequence of ``(key, code)`` entries; inverse of
    :func:`delta_star` prefix by prefix when both start from the same
    ``table``."""
    memory: dict = dict(table) if table else {}
    out = []
    for key, code in entries:
        value = rho(memory.get(key), code, modulus)
        out.append((key, value))
        memory[key] = value
    return tuple(out)


# ---------------------------------------------------------------------------
# message tokens
# ---------------------------------------------------------------------------


def entry_token(key: str, value: int) -> str:
    return "%s.%d" % (key, value)


def parse_entry(token: str):
    key, _, value = token.rpartition(".")
    return key, int(value)


def _check_entry_alphabet(bounds: EnumerationBounds, channel: str, reader: str) -> None:
    """Reject an alphabet on ``channel`` holding a message that is not a
    key.value token, before ``reader`` ever has to parse one."""
    if not bounds.has_channel(channel):
        return
    for token in bounds.alphabet(channel):
        try:
            parse_entry(token)
        except ValueError:
            raise FlowError("%s reads key.value tokens on %s, but its alphabet has %r"
                            % (reader, channel, token)) from None


def _check_modulus(modulus: int) -> None:
    if modulus < 1:
        raise OptionError("modulus must be at least 1, got %d" % modulus)


def data_token(value: Optional[int]) -> str:
    return "nil" if value is None else "%d" % value


def tiny_profile(
    keys=("a",), modulus: int = 3, horizon: int = 4, burst: int = 1
) -> EnumerationBounds:
    """Enumeration bounds for the pipeline's six channels.

    Entry channels (``In``, ``I``, ``D``, ``R``) carry key.value tokens with
    values below ``modulus``; ``Key`` carries bare keys; ``Data`` carries
    value tokens plus ``nil``.  A key must be a word the text formats
    write as itself (see :func:`unwritable`).
    """
    for key in keys:
        fault = unwritable(key)
        if fault:
            raise OptionError("key %r %s" % (key, fault))
    entries = frozenset(entry_token(k, d) for k in keys for d in range(modulus))
    data = frozenset(["nil"]) | frozenset("%d" % d for d in range(modulus))
    return EnumerationBounds(
        horizon,
        burst,
        {
            "In": entries,
            "I": entries,
            "D": entries,
            "R": entries,
            "Key": frozenset(keys),
            "Data": data,
        },
    )


# ---------------------------------------------------------------------------
# machines
# ---------------------------------------------------------------------------


RELAY_MODES = ("copy", "encode", "decode")


def relay_machine(
    source: str,
    target: str,
    bounds: EnumerationBounds,
    mode: str = "copy",
    modulus: int = 3,
    label: Optional[str] = None,
) -> IntervalTransducer:
    """A buffering forwarder from ``source`` to ``target``.

    Arriving tokens join a queue; each step the relay emits any queue prefix
    within the burst bound, so forwarding delay is arbitrary but order is
    kept.  ``mode`` selects how each interval's tokens are rewritten:
    ``copy`` passes them through, ``encode`` codes the interval's entries
    with :func:`delta_star` and ``decode`` with :func:`rho_star`, both
    against the relay's per-key table of last stored values.
    """
    _check_modulus(modulus)
    if mode not in RELAY_MODES:
        raise OptionError("unknown relay map %r, expected one of %s"
                          % (mode, ", ".join(RELAY_MODES)))
    if mode != "copy":
        _check_entry_alphabet(bounds, source, "relay map=%s" % mode)
    burst = bounds.burst
    cap = bounds.horizon * bounds.burst
    initial = ((), ())

    def emit_fn(state):
        queue = state[1]
        top = min(burst, len(queue))
        return [(queue[:n],) for n in range(top + 1)]

    def advance_fn(state, out_slice, in_slice):
        table = dict(state[0])
        fresh = in_slice[0]
        if mode != "copy":
            entries = tuple(parse_entry(token) for token in fresh)
            if mode == "encode":
                coded = delta_star(entries, modulus, table)
                table.update(entries)
            else:
                coded = rho_star(entries, modulus, table)
                table.update(coded)
            fresh = tuple(entry_token(key, code) for key, code in coded)
        queue = (state[1][len(out_slice[0]):] + fresh)[:cap]
        return [(tuple(sorted(table.items())), queue)]

    return IntervalTransducer(
        frozenset([source]),
        frozenset([target]),
        initial,
        emit_fn,
        advance_fn,
        label=label or "%s-relay" % mode,
        expr=_RELAY.record(source, target, mode, modulus),
    )


_RELAY = declare(MACHINE_FORMS, "relay", relay_machine, Key("from", WORD, param="source"),
                 Key("to", WORD, param="target"), Key("map", WORD, False, "mode"),
                 Key("modulus", INT, False), bounds=True)


def database_machine(
    bounds: EnumerationBounds,
    store: str,
    query: str,
    answer: str,
    decode: bool = False,
    modulus: int = 3,
    ignores=(),
    label: Optional[str] = None,
) -> IntervalTransducer:
    """A keyed store with lazy writes.

    Entries arriving on ``store`` queue up; at each step the machine applies
    any number of queued writes, in order, before answering the lookups that
    arrived on ``query``.  Lookup answers appear on ``answer`` one step
    later: the stored value's token or ``nil``.  With ``decode`` the
    queued values are difference codes and are resolved against the store
    as they are applied.  Channels in ``ignores`` are inputs the machine
    does not read: it sees them as silence.  They may not include
    ``store`` or ``query``.
    """
    _check_modulus(modulus)
    for role, channel in (("store", store), ("query", query)):
        if channel in ignores:
            raise OptionError("a database cannot ignore its %s channel %r" % (role, channel))
    _check_entry_alphabet(bounds, store, "database")
    inputs = frozenset([store, query]) | frozenset(ignores)
    in_order = tuple(sorted(inputs))
    store_pos = in_order.index(store)
    query_pos = in_order.index(query)
    cap = bounds.horizon * bounds.burst
    initial = ((), (), ())

    def emit_fn(state):
        return [(state[2],)]

    def advance_fn(state, out_slice, in_slice):
        table, queue, _ = state
        queue = (queue + tuple(parse_entry(t) for t in in_slice[store_pos]))[:cap]
        lookups = in_slice[query_pos]
        successors = []
        for applied in range(len(queue) + 1):
            work = dict(table)
            for key, raw in queue[:applied]:
                work[key] = rho(work.get(key), raw, modulus) if decode else raw % modulus
            answers = tuple(data_token(work.get(key)) for key in lookups)
            successors.append((tuple(sorted(work.items())), queue[applied:], answers))
        return successors

    return IntervalTransducer(
        inputs,
        frozenset([answer]),
        initial,
        emit_fn,
        advance_fn,
        label=label or ("decoding-store" if decode else "store"),
        reads=inputs - frozenset(ignores),
        expr=_DATABASE.record(store, query, answer, decode, modulus, ignores),
    )


_DATABASE = declare(MACHINE_FORMS, "database", database_machine, Key("store", WORD),
                    Key("query", WORD), Key("answer", WORD), Key("decode", FLAG, False),
                    Key("modulus", INT, False), Key("ignores", NAMES, False), bounds=True)


# ---------------------------------------------------------------------------
# the invariant tying the decoded channel to its source
# ---------------------------------------------------------------------------


def lag_prefix_invariant(source: str, target: str, name: Optional[str] = None) -> Invariant:
    """Histories where, at every step, the tokens seen so far on ``target``
    are a prefix of those seen so far on ``source``.

    This captures "target carries the same data, later": exactly what a
    coding relay followed by its decoder guarantees.  Once a step violates
    the prefix relation it stays violated, so the invariant is
    prefix-monotone.

    Its monitor remembers only the pending lag: the source tokens that
    have not yet appeared on ``target``, or ``None`` once the relation is
    broken.
    """
    support = tuple(sorted((source, target)))
    at_source, at_target = support.index(source), support.index(target)

    def step(pending, slc):
        if pending is None:
            return None
        pending += slc[at_source]
        got = slc[at_target]
        if pending[: len(got)] != got:
            return None
        return pending[len(got):]

    def predicate(history):
        src: TimedStream = history[source]
        tgt: TimedStream = history[target]
        for step in range(1, history.horizon + 1):
            got = tgt.prefix(step).flatten()
            want = src.prefix(step).flatten()
            if got != want[: len(got)]:
                return False
        return True

    return Invariant(
        name or "%s-lags-%s" % (target, source),
        support,
        predicate,
        prefix_monotone=True,
        monitor=Monitor((), step, lambda pending: pending is not None),
    )


declare(INVARIANT_FORMS, "lag-prefix", lag_prefix_invariant, Key("source", WORD),
        Key("target", WORD))


# ---------------------------------------------------------------------------
# architectures and the refinement itself
# ---------------------------------------------------------------------------


def build_original_system(
    bounds: EnumerationBounds,
    modulus: int = 3,
) -> System:
    """The starting point: a forwarder feeding a keyed store directly."""
    pre = Component("PRE", relay_machine("In", "I", bounds, label="PRE"))
    rdb = Component("RDB", database_machine(bounds, store="I", query="Key", answer="Data",
                                            modulus=modulus, label="RDB"))
    return System(
        frozenset(["In", "Key"]), frozenset(["Data"]), (pre, rdb), bounds
    )


def case_study_steps(
    bounds: EnumerationBounds,
    modulus: int = 3,
    broken_dec: bool = False,
) -> tuple:
    """The scripted applications as ``(label, step)`` pairs.

    With ``broken_dec`` the decoder installed in stage 4 forwards codes
    without decoding them; the mistake is caught when stage 6's invariant
    is checked against the system's actual runs (provided the horizon lets
    two same-key entries reach the decoded channel).
    """
    dec_mode = "copy" if broken_dec else "decode"
    enc = relay_machine("I", "D", bounds, mode="encode", modulus=modulus, label="ENC")
    dec = relay_machine("D", "R", bounds, mode=dec_mode, modulus=modulus, label="DEC")
    rdb2 = database_machine(
        bounds, store="R", query="Key", answer="Data",
        modulus=modulus, ignores=("I",), label="RDB",
    )
    step = RefinementStep
    return (
        ("1a add encoder", step("add-component", {"name": "ENC"})),
        ("1b add decoder", step("add-component", {"name": "DEC"})),
        ("2a encoder writes D", step("add-output", {"component": "ENC", "channel": "D"})),
        ("2b decoder writes R", step("add-output", {"component": "DEC", "channel": "R"})),
        ("3a encoder reads I", step("add-input", {"component": "ENC", "channel": "I"})),
        ("3b decoder reads D", step("add-input", {"component": "DEC", "channel": "D"})),
        ("4a encoder codes entries", step("refine-behavior", {"component": "ENC", "machine": enc})),
        ("4b decoder recovers entries", step("refine-behavior", {"component": "DEC", "machine": dec})),
        ("5 store reads R", step("add-input", {"component": "RDB", "channel": "R"})),
        ("6 store from decoded channel", step("refine-invariant", {
            "component": "RDB",
            "machine": rdb2,
            "invariant": lag_prefix_invariant("I", "R"),
        })),
        ("7 store stops reading I", step("remove-input", {"component": "RDB", "channel": "I"})),
        ("8a fold front end", step("fold", {
            "components": ("PRE", "ENC"),
            "inputs": ("In",),
            "outputs": ("D",),
            "name": "PRE2",
        })),
        ("8b fold back end", step("fold", {
            "components": ("DEC", "RDB"),
            "inputs": ("D", "Key"),
            "outputs": ("Data",),
            "name": "RDB2",
        })),
    )
