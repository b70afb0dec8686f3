"""An independent oracle for architecture black boxes.

By definition, a consistent architecture relates an environment
assignment x (over the system inputs) to an observation y (over the
system outputs) exactly when some valuation of all the architecture's
channels extends x, projects to y, and restricts, component by
component, to an input/output pair that component's machine admits.

This module computes the relation literally: enumerate every channel
valuation, filter by per-component behavior, project.  Per-machine
behavior is obtained by naive depth-first unfolding of emit/advance, so
nothing here goes through the package's composition, adaption, or subset
construction.  The premises of replacement under an invariant are decided
the same way, by plain enumeration of histories.

Streams are represented as plain tuples of intervals throughout, which
keeps the hot loop allocation-free apart from small tuples.
"""

from __future__ import annotations

import itertools

from flowrefine.behaviors import slice_key


def _output_words(machine, word, state, step):
    if step == len(word):
        yield ()
        return
    for o in machine.emit(state):
        for succ in machine.advance(state, o, word[step]):
            for rest in _output_words(machine, word, succ, step + 1):
                yield (o,) + rest


def machine_pairs(machine, bounds):
    """Every valuation of the machine's own channels it admits.

    Returns ``(channels, pairs)`` where channels is the sorted tuple of
    the machine's input and output channels and pairs is a set of
    aligned tuples of interval-tuples.  A channel that is both read and
    written must carry the same stream in both roles.
    """
    horizon = bounds.horizon
    channels = tuple(sorted(set(machine.inputs) | set(machine.outputs)))
    pairs = set()
    for word in itertools.product(bounds.assignments(machine.in_order),
                                  repeat=horizon):
        for out_word in set(_output_words(machine, word, machine.initial, 0)):
            valuation = {}
            for k, ch in enumerate(machine.in_order):
                valuation[ch] = tuple(word[s][k] for s in range(horizon))
            consistent = True
            for k, ch in enumerate(machine.out_order):
                stream = tuple(out_word[s][k] for s in range(horizon))
                if ch in valuation and valuation[ch] != stream:
                    consistent = False
                    break
                valuation[ch] = stream
            if consistent:
                pairs.add(tuple(valuation[ch] for ch in channels))
    return channels, pairs


def brute_force_relation(system) -> dict:
    """The black-box relation by exhaustive filtering of channel tuples."""
    bounds = system.bounds
    channels = tuple(sorted(system.channels()))
    streams = {
        ch: tuple(s.intervals for s in bounds.streams(ch)) for ch in channels
    }
    positions = {ch: i for i, ch in enumerate(channels)}
    tests = []
    for comp in system.components:
        chans, pairs = machine_pairs(comp.machine, bounds)
        tests.append((tuple(positions[ch] for ch in chans), pairs))
    in_idx = tuple(positions[ch] for ch in sorted(system.inputs))
    out_idx = tuple(positions[ch] for ch in sorted(system.outputs))
    relation: dict = {}
    for combo in itertools.product(*(streams[ch] for ch in channels)):
        if all(tuple(combo[i] for i in idx) in pairs for idx, pairs in tests):
            x = tuple(combo[i] for i in in_idx)
            relation.setdefault(x, set()).add(tuple(combo[i] for i in out_idx))
    return relation


def bounded_behavior(machine, bounds) -> dict:
    """The whole finite behavior relation of a machine, one input tuple
    at a time: input tuple -> frozenset of output tuples."""
    from flowrefine import behavior_of

    return {x: frozenset(behavior_of(machine, x, bounds))
            for x in bounds.tuples(machine.in_order)}


def all_system_runs(system):
    """Iterate (env, runs) pairs over every in-bounds environment."""
    from flowrefine import system_runs

    for env in system.bounds.tuples(system.inputs):
        yield env, system_runs(system, env)


def package_relation(system) -> dict:
    """The same relation as the package computes it, in oracle terms."""
    from flowrefine import black_box

    box = black_box(system)
    in_order = tuple(sorted(system.inputs))
    out_order = tuple(sorted(system.outputs))
    relation = {}
    for x, ys in bounded_behavior(box, system.bounds).items():
        key = tuple(x[ch].intervals for ch in in_order)
        relation[key] = {
            tuple(y[ch].intervals for ch in out_order) for y in ys
        }
    return relation


def output_words(machine, word) -> set:
    """The output words of the machine's runs that last the whole input
    word, by naive unfolding."""
    return set(_output_words(machine, word, machine.initial, 0))


def reachable_states(machine, bounds) -> set:
    """Every state some run of the machine reaches within the horizon,
    under any in-bounds input, by naive unfolding."""
    in_assigns = bounds.assignments(machine.in_order)
    reached = set()

    def unfold(state, step):
        reached.add(state)
        if step == bounds.horizon:
            return
        for o in machine.emit(state):
            for a in in_assigns:
                for succ in machine.advance(state, o, a):
                    unfold(succ, step + 1)

    unfold(machine.initial, 0)
    return reached


def slice_word(x, order, horizon) -> tuple:
    return tuple(tuple(x[ch].intervals[i] for ch in order) for i in range(horizon))


def satisfiable_with(invariant, x, bounds) -> bool:
    """Whether some history of the support channels ``x`` does not bind
    completes ``x`` to one satisfying the invariant."""
    bound = tuple(ch for ch in invariant.channels if ch in x.channels)
    free = tuple(ch for ch in invariant.channels if ch not in x.channels)
    base = x.restrict(bound)
    if not free:
        return invariant.holds(base)
    return any(invariant.holds(base.merge(extra))
               for extra in bounds.tuples(free))


def included_under_invariant(invariant, replacement, original, bounds):
    """Inclusion of output words on every permitted input history.

    An input history of the component is permitted when some history of
    the support channels the component does not read completes it to one
    satisfying the invariant.  Histories are enumerated with the support
    channels the component reads outermost, so permission is decided once
    per support assignment.  Returns ``(False, inputs)`` for the first
    offending history, ``(True, None)`` otherwise.
    """
    in_order = original.in_order
    horizon = bounds.horizon
    sup_on = tuple(ch for ch in invariant.channels if ch in in_order)
    rest = tuple(ch for ch in in_order if ch not in invariant.channels)
    for sup_x in bounds.tuples(sup_on):
        if not satisfiable_with(invariant, sup_x, bounds):
            continue
        for rest_x in bounds.tuples(rest):
            x = sup_x.merge(rest_x)
            word = slice_word(x, in_order, horizon)
            if output_words(replacement, word) - output_words(original, word):
                return False, x
    return True, None


def env_compatible(system, invariant):
    """The environment premise by enumerating every environment.

    A prefix of environment slices is refused when no environment that
    starts with it extends to a support history satisfying the invariant.
    Returns ``(False, env)`` for the environment with the shortest refused
    prefix, ties broken by slice order; the first environment in slice
    order with that prefix is the prefix padded with silence.  Returns
    ``(True, None)`` when every environment extends."""
    bounds = system.bounds
    horizon = bounds.horizon
    env_order = tuple(sorted(system.inputs))
    rank = {a: k for k, a in enumerate(bounds.assignments(env_order))}
    envs = {}
    for env in bounds.tuples(env_order):
        envs[tuple(rank[a] for a in slice_word(env, env_order, horizon))] = env
    ok = {word: satisfiable_with(invariant, env, bounds) for word, env in envs.items()}
    words = sorted(envs)
    for k in range(1, horizon + 1):
        for word in words:
            if not any(ok[other] for other in envs if other[:k] == word[:k]):
                return False, envs[word]
    return True, None


def invariant_holds_on_runs(system, invariant):
    """The invariant-valid premise by enumeration: every environment, every
    run ``system_runs`` gives for it, the predicate on each whole run.
    Returns ``(False, run)`` for the first violating run found,
    ``(True, None)`` when there is none."""
    for _, runs in all_system_runs(system):
        for run in sorted(runs, key=repr):
            if not invariant.holds(run):
                return False, run
    return True, None


def canonical_violation(system, invariant):
    """The invariant-valid premise by the breadth-first search over the
    whole network, with no cone: the reference for the canonical witness
    and for the pass line's count of monitor states.  Returns what
    ``rules._invariant_holds_on_runs`` returns."""
    from itertools import repeat

    from flowrefine import Counterexample
    from flowrefine.behaviors import _completion, _count_intervals, explore, slices_to_tuple
    from flowrefine.system import _product

    bounds = system.bounds
    horizon = bounds.horizon
    network = _product(system)
    env_order = tuple(sorted(system.inputs))
    env_assigns = bounds.assignments(env_order)
    full_order = tuple(sorted(set(env_order) | set(network.out_order)))
    pos = {ch: k for k, ch in enumerate(network.out_order + env_order)}

    def picker(channels):
        idx = tuple(pos[ch] for ch in channels)
        return lambda row: tuple(row[k] for k in idx)

    pick_support = picker(invariant.channels)
    pick_full = picker(full_order)
    silent = env_assigns[0]

    def env_row(net_in):
        return tuple(net_in[network.in_order.index(ch)] if ch in network.inputs
                     else silent[k] for k, ch in enumerate(env_order))

    complete = _completion(
        network, tuple((a, ()) for a in bounds.assignments(network.in_order)),
        _count_intervals, horizon)
    monitor = invariant.tracker()
    verdicts: dict = {}

    def violates(m):
        if m not in verdicts:
            verdicts[m] = not monitor.holds(m)
        return verdicts[m]

    net_ins = tuple((ea, tuple(ea[env_order.index(ch)] for ch in network.in_order))
                    for ea in env_assigns)

    def expand(node, step):
        state, (m, _) = node
        last = step == horizon - 1
        check = last or invariant.prefix_monotone
        emissions = network.emit(state)
        if last and not [sl for sl in dict.fromkeys(pick_support(o + ea)
                                                    for ea, _ in net_ins for o in emissions)
                         if violates(monitor.step(m, sl))]:
            return
        for ea, net_in in net_ins:
            for o in emissions:
                row = o + ea
                m2 = monitor.step(m, pick_support(row))
                if check and violates(m2):
                    rest = complete(network.advance(state, o, net_in), step + 1, step + 1)
                    if rest is not None:
                        yield [row] + [o2 + env_row(a) for a, o2 in rest], None
                elif not last:
                    yield row, zip(network.advance(state, o, net_in), repeat((m2, step + 1)))

    path, _ = explore((network.initial, (monitor.initial, 0)), horizon, expand)
    if path is None:
        return True, None, len(verdicts)
    run = slices_to_tuple(full_order, tuple(map(pick_full, path[:-1] + path[-1])))
    note = "%s fails on a run prefix of length %d" % (invariant.name, len(path))
    return False, Counterexample("invariant-violated", run=run, note=note), len(verdicts)


def input_independent(machine, channel, bounds):
    """remove-input's premise by enumeration: for every assignment of the
    other inputs, every stream of ``channel`` gives the same output words.
    Returns ``(False, (x, x_b))`` for the first two histories found that
    agree except on ``channel`` and differ in output words, ``(True, None)``
    otherwise."""
    from flowrefine import StreamTuple

    horizon = bounds.horizon
    rest = tuple(ch for ch in machine.in_order if ch != channel)
    for rest_x in bounds.tuples(rest):
        reference = None
        for stream in bounds.streams(channel):
            x = rest_x.merge(StreamTuple({channel: stream}))
            words = output_words(machine, slice_word(x, machine.in_order, horizon))
            if reference is None:
                reference = (words, x)
            elif words != reference[0]:
                return False, (reference[1], x)
    return True, None


# The unary combinators, defined through their inner machine's cached
# ``emit`` and ``advance``: the definitions the package's combinators must
# equal, emissions and successors in the same order.  Like the package's
# combinators they pass ``_ordered=True``, so their ``emit`` returns a
# canonical tuple: distinct slices sorted by ``slice_key``.

def adapt(machine, inputs, outputs):
    """Group the inner emissions by their visible part; a move's
    successors are the union over its hidden emissions, in the order it
    first meets them."""
    from flowrefine import IntervalTransducer

    in_order = tuple(sorted(inputs))
    out_order = tuple(sorted(outputs))
    base_in_pos = tuple(in_order.index(ch) for ch in machine.in_order)
    keep_pos = tuple(machine.out_order.index(ch) for ch in out_order)

    def groups(state):
        g = {}
        for o in machine.emit(state):
            g.setdefault(tuple(o[k] for k in keep_pos), []).append(o)
        return g

    def emit_fn(state):
        return tuple(sorted(groups(state), key=slice_key))

    def advance_fn(state, out_slice, in_slice):
        base_in = tuple(in_slice[k] for k in base_in_pos)
        return dict.fromkeys(nxt for orig in groups(state)[out_slice]
                             for nxt in machine.advance(state, orig, base_in))

    return IntervalTransducer(inputs, outputs, machine.initial, emit_fn, advance_fn,
                              label=machine.label + "'", reads=machine.reads, _ordered=True)


def drop_input(machine, channel):
    """Feed the inner machine silence on ``channel``."""
    from flowrefine import IntervalTransducer

    pos = machine.in_order.index(channel)

    def advance_fn(state, out_slice, in_slice):
        return machine.advance(state, out_slice, in_slice[:pos] + ((),) + in_slice[pos:])

    return IntervalTransducer(machine.inputs - {channel}, machine.outputs, machine.initial,
                              machine.emit, advance_fn, label=machine.label,
                              reads=machine.reads - {channel}, _ordered=True)


def rename_channels(machine, mapping):
    """Permute the inner machine's slices into the renamed channel order."""
    from flowrefine import IntervalTransducer

    def r(ch):
        return mapping.get(ch, ch)

    new_in_order = tuple(sorted(map(r, machine.inputs)))
    new_out_order = tuple(sorted(map(r, machine.outputs)))
    in_perm = tuple(new_in_order.index(r(c)) for c in machine.in_order)
    out_perm = tuple(new_out_order.index(r(c)) for c in machine.out_order)

    def emit_fn(state):
        renamed = []
        for o in machine.emit(state):
            slot = [None] * len(new_out_order)
            for iv, p in zip(o, out_perm):
                slot[p] = iv
            renamed.append(tuple(slot))
        return tuple(sorted(renamed, key=slice_key))

    def advance_fn(state, out_slice, in_slice):
        return machine.advance(state, tuple(out_slice[p] for p in out_perm),
                               tuple(in_slice[p] for p in in_perm))

    return IntervalTransducer(new_in_order, new_out_order, machine.initial, emit_fn,
                              advance_fn, label=machine.label,
                              reads=frozenset(map(r, machine.reads)), _ordered=True)


def with_free_output(machine, channel, bounds):
    """Compose the inner machine with a free writer of ``channel``, and
    adapt the product back to the inner interface plus ``channel``."""
    from flowrefine import chaos, compose

    return adapt(compose([machine, chaos((), (channel,), bounds)]),
                 machine.inputs, machine.outputs | {channel})


def compose_emissions(product, state):
    """The emissions of ``product``, a ``compose`` of machines, in its
    numbered state ``state``, decoded through its ``numbering``: every
    combination of the parts' emissions, each built slot by slot by
    writing every part's intervals at its channels' places in the
    product's sorted output order, sorted by ``slice_key``."""
    machines = product.numbering.machines
    out_order = sorted(ch for m in machines for ch in m.outputs)
    parts = product.numbering.parts[state]
    emissions = []
    for combo in itertools.product(*[m.emit(s) for m, s in zip(machines, parts)]):
        slot = [None] * len(out_order)
        for m, part_o in zip(machines, combo):
            for ch, iv in zip(m.out_order, part_o):
                slot[out_order.index(ch)] = iv
        emissions.append(tuple(slot))
    return sorted(emissions, key=slice_key)


def emission_set(tree, state):
    """The emission set of a machine in ``state`` by the definition of each
    form, without asking any combinator's ``emit``.

    ``tree`` is ``(machine, form, subtrees, mapping)``: ``form`` is
    ``"leaf"``, whose set is what its raw emit function returns,
    ``"compose"``, whose state is decoded through its ``numbering`` and
    whose set holds every combination of its parts' emissions, or
    ``"adapt"``, ``"rename"`` or ``"drop-input"`` over one subtree, whose
    set is the inner set with each interval carried to its channel's
    ``mapping`` name and the machine's outputs picked, in their order."""
    machine, form, subtrees, mapping = tree
    if form == "leaf":
        return set(machine._emit_fn(state))
    if form == "compose":
        parts = machine.numbering.parts[state]
        combos = itertools.product(*[emission_set(t, s) for t, s in zip(subtrees, parts)])
        named = ([(ch, iv) for t, o in zip(subtrees, combo) for ch, iv in zip(t[0].out_order, o)]
                 for combo in combos)
    else:
        (inner,) = subtrees
        named = ([(mapping.get(ch, ch), iv) for ch, iv in zip(inner[0].out_order, o)]
                 for o in emission_set(inner, state))
    return {tuple(dict(pairs)[ch] for ch in machine.out_order) for pairs in named}
