"""Seeded random systems and rule applications for the property tests.

Everything here is deterministic in the provided ``random.Random``: the
same seed produces the same systems, machines, and proposed steps, so
failures replay exactly.

Generated systems always satisfy the consistency conditions by
construction: every component writes its own channels (single writer),
reads only channels that carry data, and the environment interface is
derived from the wiring.  The bounds always declare two spare channels
(``sp0``, ``sp1``) that no component touches, so channel-introducing
rules have somewhere to go.
"""

from __future__ import annotations

import zlib

from flowrefine import (
    Component,
    EnumerationBounds,
    IntervalTransducer,
    Invariant,
    RefinementStep,
    System,
    adapt,
    chaos,
    compose,
    database_machine,
    drop_input,
    relay_machine,
    rename_channels,
    table_machine,
    with_free_output,
)

_MESSAGES = ("x", "y")
_SPARES = ("sp0", "sp1")


def _stable_index(seed: int, tag, count: int) -> int:
    """A process-independent pseudo-random index (str hashes are salted)."""
    return zlib.crc32(repr((seed, tag)).encode()) % count


def random_machine(rng, inputs, outputs, bounds, max_states=3, label="m",
                   partial=False):
    """A nondeterministic table machine on the given interface.

    The machine is total unless ``partial`` is set; then some states have
    no emission choices and some (state, emission, input) combinations
    have no successor, so runs through them end early.
    """
    n_states = rng.randint(1, max_states)
    states = tuple("s%d" % i for i in range(n_states))
    out_options = bounds.assignments(tuple(sorted(set(outputs))))
    in_options = bounds.assignments(tuple(sorted(set(inputs))))
    emit = {}
    advance = {}
    for s in states:
        if partial and rng.random() < 0.15:
            emit[s] = []
        else:
            emit[s] = rng.sample(out_options, rng.randint(1, min(2, len(out_options))))
        for o in emit[s]:
            for a in in_options:
                if partial and rng.random() < 0.2:
                    succ = []
                else:
                    succ = rng.sample(states, rng.randint(1, min(2, n_states)))
                advance[(s, o, a)] = tuple(succ)
    return table_machine(inputs, outputs, states, states[0], emit, advance,
                         label=label)


def random_system(rng, horizon=None, max_channels=4, max_components=3) -> System:
    """A random consistent system at desk scale.

    ``max_channels`` bounds the channels the system actually touches
    (component outputs plus environment inputs); at least one channel is
    always an environment input.
    """
    if horizon is None:
        horizon = rng.choice((2, 3))
    n_comps = rng.randint(1, min(max_components, max_channels - 1))
    n_outs = n_comps
    if n_outs + 1 < max_channels and rng.random() < 0.3:
        n_outs += 1
    n_ins = rng.randint(1, max_channels - n_outs)
    names = ["k%d" % i for i in range(n_outs + n_ins)]
    alphabets = {ch: _MESSAGES[: rng.randint(1, 2)] for ch in names}
    for spare in _SPARES:
        alphabets[spare] = _MESSAGES[: rng.randint(1, 2)]
    bounds = EnumerationBounds(horizon, 1, alphabets)

    out_channels = names[:n_outs]
    env_channels = names[n_outs:]
    writes = [[out_channels[i]] for i in range(n_comps)]
    for extra in out_channels[n_comps:]:
        writes[rng.randrange(n_comps)].append(extra)

    components = []
    for i in range(n_comps):
        readable = env_channels + out_channels
        reads = rng.sample(readable, rng.randint(0, min(2, len(readable))))
        machine = random_machine(rng, reads, writes[i], bounds, label="C%d" % i)
        components.append(Component("C%d" % i, machine))

    outputs = rng.sample(out_channels, rng.randint(1, len(out_channels)))
    return System(
        frozenset(env_channels), frozenset(outputs), tuple(components), bounds
    )


def restriction_of(machine: IntervalTransducer, seed: int) -> IntervalTransducer:
    """Resolve every choice of ``machine`` to one fixed option.

    The result is deterministic and, state for state, picks an emission
    and a successor the original machine offers, so it always refines the
    original.  Where the original has no choice, neither has the result.
    """

    def pick(options, tag):
        if not options:
            return ()
        return (options[_stable_index(seed, tag, len(options))],)

    def emit_fn(s):
        return pick(machine.emit(s), ("e", s))

    def advance_fn(s, o, a):
        return pick(machine.advance(s, o, a), ("a", s, o, a))

    return IntervalTransducer(
        machine.inputs, machine.outputs, machine.initial, emit_fn, advance_fn,
        label=machine.label + "~",
    )


def dying_at(machine: IntervalTransducer, step: int, seed: int) -> IntervalTransducer:
    """``machine`` with a step counter in its state: in interval ``step``
    some (state, emission, input) combinations lose every successor.

    With ``step`` the last interval, the runs through them emit a word of
    full length but still end before the horizon, so that word is not an
    output.
    """

    def emit_fn(st):
        return machine.emit(st[0])

    def advance_fn(st, o, a):
        s, k = st
        if k == step and _stable_index(seed, ("d", s, o, a), 2) == 0:
            return ()
        return tuple((s2, min(k + 1, step + 1)) for s2 in machine.advance(s, o, a))

    return IntervalTransducer(
        machine.inputs, machine.outputs, (machine.initial, 0), emit_fn, advance_fn,
        label=machine.label + "!",
    )


# Combinator chains run over eight channels with one alphabet, so that
# renaming keeps a machine's inputs in bounds.
CHAIN_CHANNELS = tuple("c%d" % i for i in range(8))
# Pairwise unequal values of every type ckey ranks.  Relabelled leaves draw
# their states from these in shuffled order and report successors reversed
# and twice, so the leaf itself must sort and deduplicate.
_CHAIN_STATES = (None, True, 0, 2, "a", "b", ("a",), ("a", 0), frozenset({"b"}))


def _relabelled(machine: IntervalTransducer, rng) -> IntervalTransducer:
    pool = list(_CHAIN_STATES)
    rng.shuffle(pool)
    # random_machine names its states s0, s1, ...
    to = dict(zip(("s%d" % i for i in range(len(pool))), pool))
    back = {v: k for k, v in to.items()}

    def emit_fn(s):
        return machine.emit(back[s])

    def advance_fn(s, o, a):
        succ = [to[t] for t in reversed(machine.advance(back[s], o, a))]
        return succ + succ

    return IntervalTransducer(machine.inputs, machine.outputs, to[machine.initial],
                              emit_fn, advance_fn, label=machine.label + "@")


def _chain_leaf(rng, bounds, taken) -> IntervalTransducer:
    free = [ch for ch in CHAIN_CHANNELS if ch not in taken]
    outputs = rng.sample(free, rng.randint(1, min(2, len(free))))
    inputs = rng.sample(CHAIN_CHANNELS, rng.randint(0, 2))
    inputs = [ch for ch in inputs if ch not in outputs]
    m = random_machine(rng, inputs, outputs, bounds, partial=rng.random() < 0.4)
    return _relabelled(m, rng) if rng.random() < 0.5 else m


def random_chain(rng):
    """Bounds and a random chain of compose, adapt, rename_channels and
    drop_input layers over random leaves, some of them relabelled: every
    machine built, as ``(machine, is_leaf)`` pairs, with the whole chain
    last."""
    alphabet = _MESSAGES[: rng.randint(1, 2)]
    bounds = EnumerationBounds(3, 1, dict.fromkeys(CHAIN_CHANNELS, alphabet))
    m = _chain_leaf(rng, bounds, ())
    layers = [(m, True)]
    for _ in range(rng.randint(1, 4)):
        op = rng.choice(("compose", "adapt", "rename", "drop"))
        if op == "compose" and len(m.outputs) < len(CHAIN_CHANNELS) - 1:
            parts = [m, _chain_leaf(rng, bounds, m.outputs)]
            layers.append((parts[1], True))
            rng.shuffle(parts)
            m = compose(parts)
        elif op == "adapt":
            extra = [ch for ch in CHAIN_CHANNELS if ch not in m.inputs | m.outputs]
            inputs = m.inputs | frozenset(rng.sample(extra, min(len(extra), rng.randint(0, 1))))
            outputs = rng.sample(sorted(m.outputs), rng.randint(0, len(m.outputs)))
            m = adapt(m, inputs, outputs)
        elif op == "rename":
            used = m.inputs | m.outputs
            free = [ch for ch in CHAIN_CHANNELS if ch not in used]
            olds = rng.sample(sorted(used), min(len(used), len(free), 2))
            m = rename_channels(m, dict(zip(olds, rng.sample(free, len(olds)))))
        elif op == "drop" and m.inputs:
            m = drop_input(m, rng.choice(sorted(m.inputs)))
        if m is not layers[-1][0]:
            layers.append((m, False))
    return bounds, layers


# Channels of the leaf chains: entry channels carry key.value tokens, which
# the coding relays and the databases parse; word channels carry tokens
# that do not all parse.
ENTRY_CHANNELS = ("e0", "e1", "e2")
WORD_CHANNELS = ("w0", "w1")
_ENTRIES = ("a.0", "a.1", "b.0")
_WORDS = ("foo", "a", "nil", "0")


def _some(rng, pool):
    return rng.sample(pool, rng.randint(1, len(pool)))


def _fact_leaf(rng, bounds, taken) -> IntervalTransducer:
    """A relay, a database, a ``chaos`` or a table, partial or not, that
    writes one channel outside ``taken``."""
    channels = ENTRY_CHANNELS + WORD_CHANNELS
    free = [ch for ch in channels if ch not in taken]
    out = rng.choice(free)
    others = [ch for ch in channels if ch != out]
    kind = rng.choice(("relay", "database", "chaos", "table"))
    if kind == "relay":
        mode = rng.choice(("copy", "encode", "decode"))
        source = rng.choice(others if mode == "copy" else
                            [ch for ch in ENTRY_CHANNELS if ch != out])
        return relay_machine(source, out, bounds, mode=mode, modulus=rng.randint(1, 2))
    if kind == "database":
        store = rng.choice([ch for ch in ENTRY_CHANNELS if ch != out])
        query = rng.choice([ch for ch in others if ch != store])
        spare = [ch for ch in others if ch not in (store, query)]
        ignores = rng.sample(spare, rng.randint(0, 1))
        return database_machine(bounds, store, query, out, decode=rng.random() < 0.5,
                                modulus=rng.randint(1, 3), ignores=ignores)
    inputs = rng.sample(others, rng.randint(0, 2))
    if kind == "chaos":
        return chaos(inputs, (out,), bounds)
    return random_machine(rng, inputs, (out,), bounds, max_states=2,
                          partial=rng.random() < 0.5)


def random_fact_chain(rng):
    """Bounds and a random chain of compose, adapt, drop_input,
    rename_channels and with_free_output layers over relays, databases,
    ``chaos`` and tables: every machine built, the whole chain last.  Each
    channel's alphabet is a random part of its kind's, so a copy relay from
    a word channel may feed a database's store with tokens it cannot parse,
    and a renaming may swap two channels."""
    alphabets = {ch: _some(rng, _ENTRIES) for ch in ENTRY_CHANNELS}
    alphabets.update({ch: _some(rng, _WORDS) for ch in WORD_CHANNELS})
    bounds = EnumerationBounds(rng.choice((2, 3)), 1, alphabets)
    channels = ENTRY_CHANNELS + WORD_CHANNELS
    m = _fact_leaf(rng, bounds, ())
    layers = [m]
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("compose", "adapt", "drop", "rename", "free"))
        unused = [ch for ch in channels if ch not in m.inputs | m.outputs]
        if op == "compose" and len(m.outputs) < len(channels):
            leaf = _fact_leaf(rng, bounds, m.outputs)
            layers.append(leaf)
            m = compose(rng.sample([m, leaf], 2))
        elif op == "adapt":
            inputs = m.inputs | frozenset(rng.sample(unused, min(len(unused), 1)))
            m = adapt(m, inputs, _some(rng, sorted(m.outputs)))
        elif op == "drop" and m.inputs:
            m = drop_input(m, rng.choice(sorted(m.inputs)))
        elif op == "rename":
            used = sorted(m.inputs | m.outputs)
            olds = rng.sample(used, min(len(used), 2))
            # Onto fresh channels, or the two old ones swapped.
            fresh = len(unused) >= len(olds) and rng.random() < 0.5
            news = rng.sample(unused, len(olds)) if fresh else olds[::-1]
            m = rename_channels(m, dict(zip(olds, news)))
        elif op == "free" and unused:
            m = with_free_output(m, rng.choice(unused), bounds)
        if m is not layers[-1]:
            layers.append(m)
    return bounds, layers


def walk(machine: IntervalTransducer, bounds: EnumerationBounds):
    """Each state ``machine`` reaches within the horizon, breadth first in
    the order it lists successors, with its emissions and its
    ``(emission, input, successors)`` transitions."""
    in_assigns = bounds.assignments(machine.in_order)
    seen = {machine.initial}
    frontier = [machine.initial]
    for _ in range(bounds.horizon):
        following = []
        for s in frontier:
            emissions = machine.emit(s)
            moves = [(o, a, machine.advance(s, o, a)) for o in emissions for a in in_assigns]
            yield s, emissions, moves
            for _, _, succ in moves:
                following.extend(t for t in succ if t not in seen)
                seen.update(succ)
        frontier = following


def _support_key(history):
    return repr(tuple((ch, s.intervals) for ch, s in history.items))


def _messages(history) -> int:
    return sum(len(iv) for _, s in history.items for iv in s.intervals)


def random_invariant(rng, pool) -> Invariant:
    """An invariant over one or two channels drawn from ``pool``.

    The families cover prefix-monotone invariants (quiet channels, one
    channel lagging another, a pseudo-random prefix-closed property) and
    invariants that are not (a pseudo-random property of the whole
    history, an even number of messages).
    """
    support = tuple(rng.sample(pool, rng.randint(1, min(2, len(pool)))))
    family = rng.choice(("quiet", "lags", "prefix-hash", "hash", "even"))
    salt = rng.randrange(1 << 16)
    if family == "quiet":
        return quiet_invariant(support[0])
    if family == "lags":
        source, target = support[0], support[-1]

        def lags(history):
            src, tgt = history[source].intervals, history[target].intervals
            for step in range(1, len(src) + 1):
                want = [m for iv in src[:step] for m in iv]
                got = [m for iv in tgt[:step] for m in iv]
                if got != want[: len(got)]:
                    return False
            return True

        return Invariant("%s-lags-%s" % (target, source), support, lags,
                         prefix_monotone=True)
    if family == "prefix-hash":

        def every_prefix(history):
            return all(
                _stable_index(salt, _support_key(history.prefix(n)), 4) != 0
                for n in range(1, history.horizon + 1)
            )

        return Invariant("prefix-hash-%d" % salt, support, every_prefix,
                         prefix_monotone=True)
    if family == "hash":

        def whole(history):
            return _stable_index(salt, _support_key(history), 3) != 0

        return Invariant("hash-%d" % salt, support, whole)

    def even(history):
        return _messages(history) % 2 == 0

    return Invariant("even-%s" % "-".join(support), support, even)


def quiet_invariant(channel: str) -> Invariant:
    """Histories where ``channel`` never carries a message."""

    def predicate(history):
        return all(iv == () for iv in history[channel])

    return Invariant("quiet-%s" % channel, (channel,), predicate,
                     prefix_monotone=True)


def _fresh_name(system: System, prefix: str) -> str:
    taken = set(system.component_names())
    i = 0
    while "%s%d" % (prefix, i) in taken:
        i += 1
    return "%s%d" % (prefix, i)


def _fresh_channel(system: System, prefix: str) -> str:
    taken = set(system.bounds.channels) | system.channels() | {
        ch for c in system.components for ch in c.inputs
    }
    i = 0
    while "%s%d" % (prefix, i) in taken:
        i += 1
    return "%s%d" % (prefix, i)


def random_step(rng, system: System):
    """Propose one rule application against ``system``.

    Biased toward applications whose premises hold, with a deliberate
    sprinkling of rejectable ones.  Returns ``None`` when the drawn rule
    has no sensible target in this system; callers draw again.
    """
    rule = rng.choice((
        "add-component", "remove-component", "add-output", "remove-output",
        "add-input", "remove-input", "refine-behavior", "refine-invariant",
        "expand", "fold", "rename",
    ))
    comps = system.components
    bounds = system.bounds
    written = system.component_outputs()
    available = system.inputs | written

    if rule == "add-component":
        return RefinementStep(rule, {"name": _fresh_name(system, "N")})

    if rule == "remove-component":
        idle = [c for c in comps if not c.outputs]
        if idle:
            return RefinementStep(rule, {"name": rng.choice(idle).name})
        if rng.random() < 0.5:
            return RefinementStep(rule, {"name": rng.choice(comps).name})
        return None

    if rule == "add-output":
        spare = [ch for ch in bounds.channels if ch not in available]
        if not spare:
            return None
        return RefinementStep(rule, {
            "component": rng.choice(comps).name,
            "channel": rng.choice(spare),
        })

    if rule == "remove-output":
        read = {ch for c in comps for ch in c.inputs}
        good = [(c.name, ch) for c in comps for ch in c.outputs
                if ch not in system.outputs and ch not in read]
        pool = good or [
            (c.name, ch) for c in comps for ch in c.outputs if rng.random() < 0.5
        ]
        if not pool:
            return None
        name, ch = rng.choice(pool)
        return RefinementStep(rule, {"component": name, "channel": ch})

    if rule == "add-input":
        pool = [(c.name, ch) for c in comps for ch in sorted(available)
                if ch not in c.inputs]
        if not pool:
            return None
        name, ch = rng.choice(pool)
        return RefinementStep(rule, {"component": name, "channel": ch})

    if rule == "remove-input":
        pool = [(c.name, ch) for c in comps for ch in sorted(c.inputs)]
        if not pool:
            return None
        name, ch = rng.choice(pool)
        return RefinementStep(rule, {"component": name, "channel": ch})

    if rule in ("refine-behavior", "refine-invariant"):
        comp = rng.choice(comps)
        if rng.random() < 0.7:
            machine = restriction_of(comp.machine, rng.randrange(1 << 30))
        else:
            machine = random_machine(rng, comp.inputs, comp.outputs, bounds,
                                     label=comp.name + "*")
        params = {"component": comp.name, "machine": machine}
        if rule == "refine-invariant":
            from flowrefine import true_invariant

            internal = sorted(written - system.outputs)
            if internal and rng.random() < 0.2:
                params["invariant"] = quiet_invariant(rng.choice(internal))
            else:
                params["invariant"] = true_invariant()
        return RefinementStep(rule, params)

    if rule == "expand":
        comp = rng.choice(comps)
        parts = [comp]
        if rng.random() < 0.4:
            from flowrefine import unit_machine

            idle = _fresh_name(system, "U")
            parts.append(
                Component(idle, unit_machine(bounds, label=idle))
            )
        subsystem = System(comp.inputs, comp.outputs, tuple(parts), bounds)
        return RefinementStep(rule, {"component": comp.name, "subsystem": subsystem})

    if rule == "fold":
        chosen = rng.sample([c.name for c in comps], rng.randint(1, len(comps)))
        parts = [system.component(n) for n in chosen]
        rest = [c for c in comps if c.name not in set(chosen)]
        read_inside = frozenset(ch for c in parts for ch in c.inputs)
        written_inside = frozenset(ch for c in parts for ch in c.outputs)
        read_outside = frozenset(ch for c in rest for ch in c.inputs)
        in_t = read_inside - written_inside
        out_t = written_inside & (system.outputs | read_outside)
        if rng.random() < 0.3:
            extra = sorted(written_inside - out_t)
            if extra:
                out_t = out_t | {rng.choice(extra)}
        return RefinementStep(rule, {
            "components": tuple(chosen),
            "inputs": tuple(sorted(in_t)),
            "outputs": tuple(sorted(out_t)),
            "name": _fresh_name(system, "G"),
        })

    if rule == "rename":
        read = {ch for c in comps for ch in c.inputs}
        internal = sorted((written | read) - system.inputs - system.outputs)
        if not internal:
            return None
        return RefinementStep(rule, {
            "old": rng.choice(internal),
            "new": _fresh_channel(system, "rn"),
        })

    return None


ARCHITECTURAL_RULES = frozenset((
    "add-output", "remove-output", "add-input", "remove-input",
    "add-component", "remove-component", "expand", "fold", "rename",
))


def accepted_steps(rng, system: System, count: int, max_tries: int = 200):
    """Apply ``count`` accepted random steps, returning the visited systems.

    The first element is ``system`` itself; each later element is the
    result of one accepted application on its predecessor.
    """
    from flowrefine import apply_step

    chain = [system]
    tries = 0
    while len(chain) <= count and tries < max_tries:
        tries += 1
        step = random_step(rng, chain[-1])
        if step is None:
            continue
        new, report = apply_step(chain[-1], step)
        if report.ok:
            chain.append(new)
    return chain
