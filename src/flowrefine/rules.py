"""Premise-checked transformation rules on component systems.

Every rule takes a consistent :class:`~flowrefine.system.System` plus rule
parameters and returns a pair ``(result, report)``.  The report lists each
side condition that was checked; if any failed, ``result`` is the *original*
system object, unchanged.  Accepted applications preserve the system
interface and, within the enumeration bounds, never introduce new observable
behavior (several structural rules preserve the black box exactly).

Each rule is a generator run by one driver, :func:`_premises`: it yields
its subject line, then one check per premise, and returns the new system.
Each premise is a single :func:`~flowrefine.reporting.premise` value: its
name, its verdict and the detail for either outcome.  The driver alone
stops a rule at its first failed premise, so a later premise's search runs
only after every earlier premise has passed.

Rules are identified by short names (see :data:`RULES`) so scripted
sequences can be replayed with :func:`apply_script`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from itertools import product, repeat
from typing import Callable, Hashable, Iterable, NamedTuple, Optional, Sequence

from .behaviors import (
    INVARIANT,
    INVARIANT_FORMS,
    MACHINE,
    NAMES,
    SYSTEM,
    WORD,
    InputGuard,
    IntervalTransducer,
    _completion,
    _count_intervals,
    _selector,
    adapt,
    behavior_equal,
    compose,
    declare,
    drop_input,
    explore,
    refines_behavior,
    rename_channels,
    slices_to_tuple,
    total_on,
    unit_machine,
    validate_transducer,
    with_free_output,
)
from .errors import DomainError, InterfaceError
from .reporting import Counterexample, PremiseReport, premise
from .streams import EnumerationBounds, StreamTuple, empty_stream
from .system import (
    Component,
    System,
    _product,
    as_component,
    backward_cone,
    black_box,
    require_consistent,
    validate_system,
    with_component,
)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


class Monitor(NamedTuple):
    """A deterministic automaton that tracks an invariant along a history.

    ``step(state, slice)`` reads one slice aligned with the invariant's
    support, and ``holds(state)`` is the invariant on the prefix the state
    stands for.  States are hashable.  Two prefixes of equal length that
    reach equal states must agree on ``holds`` after every continuation,
    which lets the premise searches merge them.
    """

    initial: Hashable
    step: Callable[[Hashable, tuple], Hashable]
    holds: Callable[[Hashable], bool]


@dataclass(frozen=True)
class Invariant:
    """A predicate over complete channel histories, used to weaken the
    behavior-inclusion obligation when replacing a component.

    ``channels`` is the support: the predicate only ever sees streams for
    these channels, and histories that agree on the support are treated
    identically.  ``predicate`` receives a :class:`StreamTuple` over exactly
    the support channels.

    ``prefix_monotone`` declares that once the predicate is false on some
    prefix of a history it stays false on every extension.  The validity
    check exploits this to prune exploration and to report violations at the
    earliest step; it is never assumed when the flag is off.

    ``monitor``, when given, is a :class:`Monitor` over support slices
    that agrees with the predicate: after any prefix, ``monitor.holds`` of
    the state it reaches equals the predicate on that prefix, and two
    prefixes of equal length that reach equal states agree on it after
    every continuation.  The premise searches then key their nodes on
    monitor states instead of support histories.  Without one they use the
    support history itself as the state (see :meth:`tracker`), so any
    predicate works.
    """

    name: str
    channels: tuple
    predicate: Callable[[StreamTuple], bool] = field(compare=False)
    prefix_monotone: bool = False
    monitor: Optional[Monitor] = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(sorted(self.channels)))

    def holds(self, history: StreamTuple) -> bool:
        """Evaluate the predicate on ``history`` restricted to the support.

        ``history`` may mention more channels than the support but must
        cover all of it.
        """
        if tuple(history.channels) != self.channels:
            history = history.restrict(self.channels)
        return bool(self.predicate(history))

    def tracker(self) -> Monitor:
        """The invariant's monitor, or else one whose state is the support
        history so far.  The premise searches cache ``holds`` per state,
        which may be any hashable value."""
        if self.monitor is not None:
            return self.monitor
        return Monitor((), lambda word, slc: word + (slc,),
                       lambda word: self.holds(slices_to_tuple(self.channels, word)))


def true_invariant() -> Invariant:
    """The vacuous invariant; refining under it is plain behavior inclusion."""
    return Invariant("true", (), lambda _: True, prefix_monotone=False)


declare(INVARIANT_FORMS, "always-true", true_invariant)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _premises(rule):
    """Run a rule written as a generator.

    The rule yields its subject line, then one :class:`PremiseCheck` per
    premise, and returns the new system.  The first failed check stops it:
    the caller gets the input system itself and the checks so far.
    Otherwise the caller gets the new system and every check.  Exceptions
    the rule raises, before or between its premises, propagate.
    """

    @functools.wraps(rule)
    def run(system: System, *args, **kwargs):
        steps = rule(system, *args, **kwargs)
        subject = next(steps)
        checks = []
        try:
            while True:
                checks.append(next(steps))
                if not checks[-1].passed:
                    return system, PremiseReport(subject, tuple(checks))
        except StopIteration as done:
            return done.value, PremiseReport(subject, tuple(checks))

    return run


def _require_interface(comp: Component, machine: IntervalTransducer) -> None:
    """Raise unless ``machine`` reads and writes exactly what ``comp`` does."""
    if machine.inputs != comp.inputs or machine.outputs != comp.outputs:
        raise InterfaceError(
            "replacement for %r must read %s and write %s"
            % (comp.name, sorted(comp.inputs), sorted(comp.outputs))
        )


def _installed(system: System, comp: Component, machine: IntervalTransducer) -> System:
    """``system`` with ``comp`` running ``machine``, on the machine's interface."""
    return with_component(system, comp, Component(comp.name, machine))


def _merge_bounds(base: EnumerationBounds, extra: EnumerationBounds):
    """Combine two bounds declarations, or return ``None`` when they clash.

    They must agree on horizon, burst, and the alphabet of every channel
    declared in both.
    """
    if base.horizon != extra.horizon or base.burst != extra.burst:
        return None
    merged = base.alphabets()
    for ch, alpha in extra.alphabets().items():
        if ch in merged and frozenset(merged[ch]) != frozenset(alpha):
            return None
        merged.setdefault(ch, alpha)
    return EnumerationBounds(base.horizon, base.burst, merged)


# ---------------------------------------------------------------------------
# invariant premises
# ---------------------------------------------------------------------------


def _support_guard(invariant: Invariant, channels: tuple, bounds: EnumerationBounds) -> InputGuard:
    """The :class:`InputGuard` over ``channels``, a sorted subset of the
    invariant's support, that permits a prefix while some in-bounds
    extension of it to the horizon, together with some history of the
    other support channels, satisfies the invariant.

    Feasibility is decided by a depth-first search, ``extends``, cached per
    (depth, monitor state).  It prunes a state early only when the invariant
    is prefix-monotone; otherwise only full-horizon states are judged.  A
    guard state is the depth and the set of monitor states that the
    support histories projecting onto the prefix reach and that can still
    be extended; it is ``None`` once that set is empty.  When ``channels``
    is the whole support the set always has one element.  ``step`` is
    not cached: the inclusion search keeps its answers per guard state,
    and env-compat asks it once per guard state and slice.
    """
    monitor = invariant.tracker()
    mstep, mholds = monitor.step, monitor.holds
    support = invariant.channels
    horizon = bounds.horizon
    support_assigns = bounds.assignments(support)
    prune = invariant.prefix_monotone

    @functools.cache
    def extends(depth, m) -> bool:
        """Some extension of a support prefix reaching ``m`` at ``depth``
        satisfies the invariant."""
        if depth == horizon:
            return mholds(m)
        if depth and prune and not mholds(m):
            return False
        return any(extends(depth + 1, mstep(m, sl)) for sl in support_assigns)

    free = tuple(ch for ch in support if ch not in channels)
    free_assigns = bounds.assignments(free)
    join = _selector(support, channels, free)

    def step(state, slc):
        depth, states = state
        joints = [join(slc + f) for f in free_assigns]
        reached = frozenset(
            m2 for m in states for m2 in (mstep(m, j) for j in joints)
            if extends(depth + 1, m2)
        )
        return (depth + 1, reached) if reached else None

    return InputGuard(channels, (0, frozenset((monitor.initial,))), step)


def _invariant_env_compatible(system: System, invariant: Invariant):
    """Check that the invariant does not constrain the environment alone:
    every in-bounds environment assignment extends to a history satisfying
    the predicate.

    The verdict on an environment depends only on the support channels it
    binds: :func:`explore` walks the support guard's states over them, one
    slice per interval, and stops at the first slice the guard refuses.
    That shortest, then lexicographically first, refused prefix is the
    canonically first failing environment; it is reported padded with
    silence, and every other environment channel silent."""
    bounds = system.bounds
    horizon = bounds.horizon
    env_channels = tuple(sorted(system.inputs))
    sup_env = tuple(ch for ch in invariant.channels if ch in system.inputs)
    guard = _support_guard(invariant, sup_env, bounds)
    sup_assigns = bounds.assignments(sup_env)

    def expand(state, _depth):
        for slc in sup_assigns:
            nxt = guard.step(state, slc)
            yield slc, None if nxt is None else (nxt,)

    count = bounds.count_tuples(env_channels)
    path, _ = explore(guard.initial, horizon, expand)
    if path is None:
        return True, None, count
    path += [sup_assigns[0]] * (horizon - len(path))
    widen = _selector(env_channels, sup_env)
    cex = Counterexample(
        "environment-excluded",
        inputs=slices_to_tuple(env_channels, [widen(slc + ((),)) for slc in path]),
        note="no history over %s satisfies %s under this environment"
        % (", ".join(invariant.channels) or "()", invariant.name),
    )
    return False, cex, count


# The cone search's monitor state once a run has broken the invariant.
_BROKEN = object()


def _cone_liveness(system: System, cone: tuple, invariant: Invariant, mstep, violates):
    """The composition of the components ``cone``, and ``live(state, m,
    depth)`` for it: whether some run of it from ``state`` at ``depth``,
    with monitor state ``m``, breaks the invariant where
    :func:`_invariant_holds_on_runs` judges it and lasts to the horizon.
    Cached per node, depth first.  A run that breaks the invariant goes on
    with monitor state ``_BROKEN``, which asks only that the run lasts.

    ``cone`` must hold the writer of every support channel and of every
    channel its machines read.  Its env channels are the system inputs
    those machines read or the support names; a declared input nobody in
    the cone reads, written outside it or not, is fed silence.
    """
    horizon = system.bounds.horizon
    machine = compose([c.machine for c in cone], label="cone")
    env_order = tuple(sorted(system.inputs & (machine.reads | set(invariant.channels))))
    pick_in = _selector(machine.in_order, env_order)
    moves = tuple((ea, pick_in(ea + ((),))) for ea in system.bounds.assignments(env_order))
    pick_support = _selector(invariant.channels, machine.out_order, env_order)
    inputs = tuple(dict.fromkeys(a for _, a in moves))

    @functools.cache
    def live(state, m, depth) -> bool:
        if depth == horizon:
            return m is _BROKEN
        emissions = machine.emit(state)
        if m is _BROKEN:
            # Only whether some run lasts, on any input the cone reads.
            return any(live(s2, m, depth + 1) for a in inputs for o in emissions
                       for s2 in machine.advance(state, o, a))
        # The same moves and judgements as the full search's ``expand``.
        last = depth == horizon - 1
        check = last or invariant.prefix_monotone
        after: dict = {}
        for ea, a in moves:
            for o in emissions:
                sl = pick_support(o + ea)
                if sl not in after:
                    m2 = mstep(m, sl)
                    after[sl] = _BROKEN if check and violates(m2) else m2
                m2 = after[sl]
                if (m2 is _BROKEN or not last) and any(
                        live(s2, m2, depth + 1) for s2 in machine.advance(state, o, a)):
                    return True
        return False

    return machine, live


def _invariant_holds_on_runs(system: System, invariant: Invariant):
    """Check that every admissible run of the system satisfies the
    invariant.  A run is admissible only if it lasts to the horizon, so a
    violating prefix counts only when the system can complete it.

    Only the support's :func:`backward_cone` can break the invariant, and
    every run of the network, restricted to the cone, is a run of the
    cone, so the cone decides: :func:`_cone_liveness` asks whether some run
    of the cone breaks the invariant and lasts.  If none does, the check
    passes without composing the network, and counts the monitor states
    the cone judged.  For prefix-monotone invariants the predicate is also
    evaluated on every intermediate monitor state, which catches
    violations early.  The verdict per monitor state is kept, and the
    count is the number of states judged.

    Otherwise the whole system's canonical violating run is rebuilt by
    :func:`explore` over a network state, a monitor state and the depth;
    the first path to a node is its representative run, and the depth
    keeps layers apart, since a monitor state fixes the invariant's future
    only among prefixes of equal length.  The network's successors on a
    move are the product of each component's own successors, in system
    order, and only those whose restriction to the cone is live are kept.
    No node of the canonical run, and no first parent of a node it keeps,
    is dropped, so the reported run is the one the unpruned search finds.
    The network's own ``advance`` runs only to complete a violating
    prefix, by the canonically first continuation, as inclusion witnesses
    are; when a component outside the cone blocks every completion, the
    check passes after all.  :func:`explore` settles each last-layer node
    by its first move that ends the search, as it builds the layer."""
    bounds = system.bounds
    horizon = bounds.horizon
    monitor = invariant.tracker()
    mstep = monitor.step
    # A dict, not a functools.cache, which keys a lone int or str on itself
    # and any other value on a 1-tuple: 0 and False would count twice.
    verdicts: dict = {}

    def violates(m) -> bool:
        cached = verdicts.get(m)
        if cached is None:
            cached = verdicts[m] = not monitor.holds(m)
        return cached

    cone = backward_cone(system, invariant.channels)
    cone_machine, live = _cone_liveness(system, cone, invariant, mstep, violates)
    if not live(cone_machine.initial, monitor.initial, 0):
        return True, None, len(verdicts)
    cone_numbering = cone_machine.numbering
    project = _selector(cone, system.components)

    network = _product(system)
    numbering = network.numbering
    env_order = tuple(sorted(system.inputs))
    full_order = tuple(sorted(set(env_order) | set(network.out_order)))
    layout = (network.out_order, env_order)
    pick_support = _selector(invariant.channels, *layout)
    # Each component, with its emission and input as picked from a row.
    parts = tuple((c.machine.advance, _selector(c.machine.out_order, *layout),
                   _selector(c.machine.in_order, *layout)) for c in system.components)
    pick_full = _selector(full_order, *layout)
    pick_net_in = _selector(network.in_order, env_order)
    net_ins = tuple((ea, pick_net_in(ea)) for ea in bounds.assignments(env_order))
    # The first env slice that gives a network input is that input with
    # silence on the env channels the network does not read, since every
    # channel's intervals sort empty-first.
    widen = _selector(env_order, network.in_order)
    complete = _completion(network, tuple((a, ()) for a in dict.fromkeys(n for _, n in net_ins)),
                           _count_intervals, horizon)
    # Set once a last-layer node ends the search: after it, only
    # violations matter, and explore takes no more successors.
    ended = False

    def settle(node):
        nonlocal ended
        for move, _ in expand(node, horizon - 1):
            ended = True
            return move
        return None

    def expand(node, step):
        # A node is (network state, (monitor state, depth)), and a move the
        # emission + env input row of one interval.  The second half of a
        # node is shared by every successor of the moves that reach it.
        state, (m, _) = node
        state_parts = numbering.parts[state]
        last = step == horizon - 1
        check = last or invariant.prefix_monotone
        emissions = network.emit(state)
        after: dict = {}
        for ea, net_in in net_ins:
            for o in emissions:
                row = o + ea
                sl = pick_support(row)
                if sl in after:
                    m2, tail = after[sl]
                else:
                    m2 = mstep(m, sl)
                    tail = repeat((m2, step + 1))
                    after[sl] = m2, tail
                if check and violates(m2):
                    rest = complete(network.advance(state, o, net_in), step + 1, step + 1)
                    if rest is not None:
                        yield [row, *(o2 + widen(a + ((),)) for a, o2 in rest)], None
                elif not last and not ended:
                    succ = (numbering[s2] for s2 in product(*[
                                advance(s, pick_o(row), pick_i(row))
                                for (advance, pick_o, pick_i), s in zip(parts, state_parts)])
                            if live(cone_numbering[project(s2)], m2, step + 1))
                    yield row, zip(succ, tail)

    path, _ = explore((network.initial, (monitor.initial, 0)), horizon, expand, settle)
    if path is None:
        return True, None, len(verdicts)
    run = slices_to_tuple(full_order, tuple(map(pick_full, path[:-1] + path[-1])))
    note = "%s fails on a run prefix of length %d" % (invariant.name, len(path))
    return False, Counterexample("invariant-violated", run=run, note=note), len(verdicts)


def _included_under_invariant(
    invariant: Invariant,
    replacement: IntervalTransducer,
    original: IntervalTransducer,
    bounds: EnumerationBounds,
):
    """For every in-bounds input history compatible with the invariant,
    check that the replacement's output words are among the original's.

    One inclusion search (:func:`refines_behavior`) guarded by the input
    prefixes the invariant still allows, projected onto the support
    channels the component reads (:func:`_support_guard`); support
    channels it does not read are existential.  Returns the verdict, a
    counterexample and the number of product nodes expanded.
    """
    read = tuple(ch for ch in invariant.channels if ch in original.inputs)
    guard = _support_guard(invariant, read, bounds)
    stats: dict = {}
    ok, cex = refines_behavior(replacement, original, bounds, guard=guard, stats=stats)
    if not ok:
        cex = replace(
            cex,
            note="replacement output is impossible for the current "
            "component on an input satisfying %s" % invariant.name,
        )
    return ok, cex, stats["nodes"]


# ---------------------------------------------------------------------------
# input independence (premise of remove-input)
# ---------------------------------------------------------------------------


def _state_level_independent(machine: IntervalTransducer, channel: str) -> bool:
    """The machine never reads the candidate channel, so it only ever sees
    silence there and its transitions cannot depend on it."""
    return channel not in machine.reads


def _behaviorally_independent(machine: IntervalTransducer, channel: str, bounds: EnumerationBounds):
    """Exact check: the machine behaves like itself with the candidate
    channel held silent, that is like :func:`drop_input` adapted back to
    its interface.  Silence is one way of filling the channel, so this
    holds exactly when every way of filling it gives the same output
    words.  A failure reports the offending input history ``x`` with the
    channel silent, and ``x``."""
    deaf = adapt(drop_input(machine, channel), machine.inputs, machine.outputs)
    ok, cex = behavior_equal(machine, deaf, bounds)
    if ok:
        return True, None
    silent = StreamTuple({**cex.inputs.as_dict(), channel: empty_stream(bounds.horizon)})
    return False, Counterexample(
        "input-dependence",
        inputs=silent,
        inputs_b=cex.inputs,
        note="output sets differ between these two input "
        "histories, which agree except on %r" % channel,
    )


# ---------------------------------------------------------------------------
# behavior replacement rules
# ---------------------------------------------------------------------------

# The checks of validate_transducer that make up totality.
_TOTALITY = ("emit-defined", "emit-nonempty", "advance-defined", "advance-nonempty")


def _replacement_total(machine: IntervalTransducer, bounds: EnumerationBounds):
    """Whether ``machine`` is total within ``bounds``, with the detail to
    report.  A machine proven total on them needs no search; any other is
    explored to the horizon by :func:`validate_transducer`, and fails on
    the first of its totality checks that fails.  Inclusion alone cannot
    tell: a replacement with no run that lasts is included in anything."""
    if total_on(machine, bounds):
        return True, "total by construction"
    checks = {c.check: c for c in validate_transducer(machine, bounds).checks}
    failed = [checks[name] for name in _TOTALITY if not checks[name].passed]
    if failed:
        return False, "%s: %s" % (failed[0].check, failed[0].detail)
    return True, "no run stops before the horizon (searched %s)" % checks["reachable"].detail


@_premises
def refine_component_behavior(system: System, component: str, machine: IntervalTransducer):
    """Replace one component's machine by another with the same interface
    whose bounded behavior is included in the current one."""
    comp = system.component(component)
    yield "refine-behavior %s" % component
    _require_interface(comp, machine)
    ok, why = _replacement_total(machine, system.bounds)
    yield premise("replacement-total", ok, why, why)
    ok, cex = refines_behavior(machine, comp.machine, system.bounds)
    yield premise("replacement-included", ok,
                  "all replacement outputs are possible for the current machine",
                  "replacement machine has outputs the current one cannot produce", cex)
    return _installed(system, comp, machine)


@_premises
def refine_with_invariant(
    system: System,
    component: str,
    machine: IntervalTransducer,
    invariant: Invariant,
):
    """Replace a component requiring behavior inclusion only on input
    histories that satisfy an invariant, provided the system itself
    guarantees the invariant on every run."""
    require_consistent(system)
    comp = system.component(component)
    yield "refine-invariant %s (under %s)" % (component, invariant.name)
    _require_interface(comp, machine)
    ok, why = _replacement_total(machine, system.bounds)
    yield premise("replacement-total", ok, why, why)

    known = system.channels()
    missing = [ch for ch in invariant.channels if ch not in known]
    yield premise("invariant-channels", not missing,
                  "support %s is visible in the system" % (", ".join(invariant.channels) or "()"),
                  "support channel(s) %s are neither system inputs nor "
                  "written by any component" % ", ".join(sorted(missing)))

    ok, cex, envs = _invariant_env_compatible(system, invariant)
    yield premise("invariant-env-compatible", ok,
                  "every one of %d environments extends to a satisfying history" % envs,
                  "the invariant rules out an environment outright", cex)

    ok, cex, states = _invariant_holds_on_runs(system, invariant)
    yield premise("invariant-valid", ok,
                  "holds on every admissible run (%d monitor states)" % states,
                  "some admissible run violates the invariant", cex)

    ok, cex, nodes = _included_under_invariant(invariant, machine, comp.machine, system.bounds)
    yield premise("replacement-included-under-invariant", ok,
                  "inclusion holds on every permitted input history "
                  "(%d product nodes expanded)" % nodes,
                  "replacement leaves the current behavior on a permitted input", cex)
    return _installed(system, comp, machine)


# ---------------------------------------------------------------------------
# channel rules
# ---------------------------------------------------------------------------


@_premises
def add_output_channel(system: System, component: str, channel: str):
    """Let a component additionally write a fresh channel, with free
    (unconstrained, in-bounds) content."""
    comp = system.component(component)
    yield "add-output %s to %s" % (channel, component)
    yield premise("channel-declared", system.bounds.has_channel(channel), "alphabet present",
                  "no alphabet is declared for %r" % channel)
    who = "a system input" if channel in system.inputs else "already written"
    yield premise("channel-fresh", channel not in system.channels(),
                  "%r is written by nobody" % channel, "%r is %s" % (channel, who))
    return _installed(system, comp, with_free_output(comp.machine, channel, system.bounds))


@_premises
def remove_output_channel(system: System, component: str, channel: str):
    """Stop a component from writing a channel nobody observes."""
    comp = system.component(component)
    yield "remove-output %s from %s" % (channel, component)
    if channel not in comp.outputs:
        raise DomainError("%r is not an output of %r" % (channel, component))
    yield premise("not-system-output", channel not in system.outputs,
                  "%r is internal" % channel, "%r is a system output" % channel)
    readers = sorted(c.name for c in system.components if channel in c.inputs)
    yield premise("not-read", not readers, "no component reads %r" % channel,
                  "%r is read by %s" % (channel, ", ".join(readers)))
    return _installed(system, comp, adapt(comp.machine, comp.inputs, comp.outputs - {channel}))


@_premises
def add_input_channel(system: System, component: str, channel: str):
    """Let a component additionally read an existing channel (and ignore it)."""
    comp = system.component(component)
    yield "add-input %s to %s" % (channel, component)
    yield premise("channel-available", channel in system.channels(),
                  "%r carries data in this system" % channel,
                  "%r is neither a system input nor written by a component" % channel)
    yield premise("not-already-read", channel not in comp.inputs,
                  "%s does not read %r yet" % (component, channel),
                  "%s already reads %r" % (component, channel))
    return _installed(system, comp, adapt(comp.machine, comp.inputs | {channel}, comp.outputs))


@_premises
def remove_input_channel(system: System, component: str, channel: str):
    """Disconnect an input the component's observable behavior does not
    depend on."""
    comp = system.component(component)
    yield "remove-input %s from %s" % (channel, component)
    if channel not in comp.inputs:
        raise DomainError("%r is not an input of %r" % (channel, component))
    if _state_level_independent(comp.machine, channel):
        ok, cex, why = True, None, "state transitions never depend on %r" % channel
    else:
        ok, cex = _behaviorally_independent(comp.machine, channel, system.bounds)
        why = "output sets agree across all contents of %r" % channel
    yield premise("input-independent", ok, why,
                  "%s reacts to %r within the bounds" % (component, channel), cex)
    return _installed(system, comp, drop_input(comp.machine, channel))


# ---------------------------------------------------------------------------
# component rules
# ---------------------------------------------------------------------------


@_premises
def add_component(system: System, name: str):
    """Add a fresh component with no inputs and no outputs."""
    yield "add-component %s" % name
    yield premise("name-fresh", name not in system.component_names(), "%r is unused" % name,
                  "a component named %r exists" % name)
    comp = Component(name, unit_machine(system.bounds, label=name))
    return System(system.inputs, system.outputs, system.components + (comp,), system.bounds)


@_premises
def remove_component(system: System, name: str):
    """Drop a component that writes nothing."""
    comp = system.component(name)
    yield "remove-component %s" % name
    yield premise("no-outputs", not comp.outputs, "%s writes nothing" % name,
                  "%s still writes %s" % (name, ", ".join(sorted(comp.outputs))))
    rest = tuple(c for c in system.components if c.name != name)
    return System(system.inputs, system.outputs, rest, system.bounds)


@_premises
def expand_component(system: System, component: str, subsystem: System):
    """Replace one component by the components of an equivalent subsystem."""
    comp = system.component(component)
    yield "expand %s" % component

    merged = _merge_bounds(system.bounds, subsystem.bounds)
    yield premise("bounds-compatible", merged is not None, "bounds merge cleanly",
                  "subsystem bounds disagree on horizon, burst, or a shared alphabet")

    sub_report = validate_system(subsystem)
    yield premise("subsystem-consistent", sub_report.ok, "all consistency conditions hold",
                  "; ".join(c.detail for c in sub_report.failures()))

    yield premise("interface-matches",
                  subsystem.inputs == comp.inputs and subsystem.outputs == comp.outputs,
                  "same inputs and outputs",
                  "subsystem offers %s -> %s but %s is %s -> %s"
                  % (sorted(subsystem.inputs), sorted(subsystem.outputs), component,
                     sorted(comp.inputs), sorted(comp.outputs)))

    other_names = {c.name for c in system.components if c.name != component}
    clash = sorted(set(subsystem.component_names()) & other_names)
    yield premise("names-disjoint", not clash, "no component name clashes",
                  "name(s) %s already in use" % ", ".join(clash))

    sub_written = subsystem.component_outputs()
    overlap = sub_written & system.component_outputs()
    capture = sorted(sub_written & system.inputs)
    yield premise("internal-channels-fresh", overlap == comp.outputs and not capture,
                  "new internal channels are unused outside",
                  "subsystem writes %s which other components already write"
                  % ", ".join(sorted(overlap - comp.outputs)) if overlap != comp.outputs
                  else "subsystem writes system input(s) %s" % ", ".join(capture))

    ok, cex = behavior_equal(comp.machine, black_box(subsystem), merged)
    yield premise("behavior-matches", ok, "black box equals %s on all inputs" % component,
                  "subsystem black box and %s differ within the bounds" % component, cex)

    rest = tuple(c for c in system.components if c.name != component)
    return System(system.inputs, system.outputs, rest + subsystem.components, merged)


@_premises
def fold_subsystem(
    system: System,
    components: Iterable[str],
    inputs: Iterable[str],
    outputs: Iterable[str],
    name: str,
):
    """Replace a group of components by a single component whose machine is
    the group's black box under the chosen interface."""
    chosen = tuple(sorted(set(components)))
    yield "fold %s as %s" % (", ".join(chosen) or "()", name)
    in_t = frozenset(inputs)
    out_t = frozenset(outputs)

    missing = sorted(set(chosen) - set(system.component_names()))
    yield premise("components-known", not missing, "all named components exist",
                  "no component(s) named %s" % ", ".join(missing))

    parts = tuple(system.component(n) for n in chosen)
    rest = tuple(c for c in system.components if c.name not in chosen)
    read_inside = frozenset(ch for c in parts for ch in c.inputs)
    written_inside = frozenset(ch for c in parts for ch in c.outputs)
    read_outside = frozenset(ch for c in rest for ch in c.inputs)

    needed = read_inside - written_inside
    yield premise("inputs-cover-reads", needed <= in_t, "chosen inputs cover external reads",
                  "group still reads %s from outside" % ", ".join(sorted(needed - in_t)))

    allowed_in = system.channels() - out_t
    yield premise("inputs-available", in_t <= allowed_in, "every chosen input carries data",
                  "chosen input(s) %s carry no data or are claimed as outputs"
                  % ", ".join(sorted(in_t - allowed_in)))

    observed = written_inside & (system.outputs | read_outside)
    yield premise("outputs-cover-observed", observed <= out_t,
                  "all externally observed channels exported",
                  "%s is observed outside the group but not exported"
                  % ", ".join(sorted(observed - out_t)))

    yield premise("outputs-written", out_t <= written_inside,
                  "every chosen output is produced by the group",
                  "chosen output(s) %s are not written inside the group"
                  % ", ".join(sorted(out_t - written_inside)))

    yield premise("name-fresh", name not in {c.name for c in rest}, "%r does not clash" % name,
                  "a component named %r remains" % name)

    inner = System(in_t, out_t, parts, system.bounds)
    inner_report = validate_system(inner)
    yield premise("group-consistent", inner_report.ok, "group forms a consistent system",
                  "; ".join(c.detail for c in inner_report.failures()))

    folded = as_component(inner, name)
    return System(system.inputs, system.outputs, rest + (folded,), system.bounds)


@_premises
def rename_channel(system: System, old: str, new: str):
    """Rename an internal channel consistently across all components."""
    yield "rename %s to %s" % (old, new)
    carried = system.channels()
    read = frozenset(ch for c in system.components for ch in c.inputs)
    yield premise("old-known", old in carried | read, "%r is in use" % old,
                  "%r is not used anywhere" % old)
    yield premise("old-internal", old not in system.inputs | system.outputs,
                  "%r is internal" % old, "%r is part of the system interface" % old)
    yield premise("new-fresh", new not in carried | read | system.outputs,
                  "%r is unused" % new, "%r is already in use" % new)
    bounds = system.bounds
    yield premise("alphabet-compatible",
                  not bounds.has_channel(new) or bounds.alphabet(new) == bounds.alphabet(old),
                  "alphabet carries over", "%r already has a different declared alphabet" % new)

    new_bounds = bounds if bounds.has_channel(new) else bounds.with_alphabet(new, bounds.alphabet(old))
    mapping = {old: new}
    comps = tuple(Component(c.name, rename_channels(c.machine, mapping))
                  if old in c.inputs or old in c.outputs else c for c in system.components)
    return System(system.inputs, system.outputs, comps, new_bounds)


# ---------------------------------------------------------------------------
# system-level refinement check
# ---------------------------------------------------------------------------


def check_system_refinement(
    abstract: System,
    concrete: System,
    bounds: Optional[EnumerationBounds] = None,
):
    """Decide, within bounds, whether every observable behavior of
    ``concrete`` is already a behavior of ``abstract``.

    Both systems must offer the same interface.  Returns ``(ok, cex)``
    where ``cex`` explains the first offending environment and output.
    """
    bounds = _comparison_bounds(abstract, concrete, bounds)
    return refines_behavior(black_box(concrete), black_box(abstract), bounds)


def _comparison_bounds(abstract: System, concrete: System, bounds):
    """``bounds``, or ``abstract``'s when ``None``; raise unless the two
    systems share their interface and its alphabets, and, when ``bounds``
    is ``None``, their horizon and burst, since each side's machines were
    built for its own."""
    if abstract.inputs != concrete.inputs or abstract.outputs != concrete.outputs:
        raise InterfaceError("systems differ in interface: %s -> %s vs %s -> %s" % (
            sorted(abstract.inputs), sorted(abstract.outputs),
            sorted(concrete.inputs), sorted(concrete.outputs)))
    if bounds is None:
        bounds = abstract.bounds
        pairs = [(b.horizon, b.burst) for b in (bounds, concrete.bounds)]
        if pairs[0] != pairs[1]:
            raise InterfaceError(
                "systems differ in (horizon, burst): %s vs %s" % tuple(pairs))
        for ch in abstract.inputs | abstract.outputs:
            if concrete.bounds.alphabet(ch) != bounds.alphabet(ch):
                raise InterfaceError(
                    "systems disagree on the alphabet of interface channel %r" % ch
                )
    return bounds


def systems_equal(left: System, right: System, bounds: Optional[EnumerationBounds] = None):
    """Bounded black-box equality of two systems with the same interface:
    ``right`` refines ``left``, then ``left`` refines ``right``."""
    ok, cex = check_system_refinement(left, right, bounds)
    if not ok:
        return False, cex
    return check_system_refinement(right, left, bounds)


# ---------------------------------------------------------------------------
# scripted application
# ---------------------------------------------------------------------------

# Each rule's parameters, in order, with the kind a script writes them in.
RULES = {
    "refine-behavior": (refine_component_behavior, {"component": WORD, "machine": MACHINE}),
    "refine-invariant": (refine_with_invariant,
                         {"component": WORD, "machine": MACHINE, "invariant": INVARIANT}),
    "add-output": (add_output_channel, {"component": WORD, "channel": WORD}),
    "remove-output": (remove_output_channel, {"component": WORD, "channel": WORD}),
    "add-input": (add_input_channel, {"component": WORD, "channel": WORD}),
    "remove-input": (remove_input_channel, {"component": WORD, "channel": WORD}),
    "add-component": (add_component, {"name": WORD}),
    "remove-component": (remove_component, {"name": WORD}),
    "expand": (expand_component, {"component": WORD, "subsystem": SYSTEM}),
    "fold": (fold_subsystem,
             {"components": NAMES, "inputs": NAMES, "outputs": NAMES, "name": WORD}),
    "rename": (rename_channel, {"old": WORD, "new": WORD}),
}


def check_step(rule: str, params) -> None:
    """Raise ``ValueError`` unless ``rule`` is a rule and ``params`` names
    exactly its parameters."""
    if rule not in RULES:
        raise ValueError("unknown rule %r (known: %s)" % (rule, ", ".join(sorted(RULES))))
    expected = sorted(RULES[rule][1])
    got = sorted(params)
    if got != expected:
        raise ValueError("rule %r takes %s; got %s"
                         % (rule, ", ".join(expected), ", ".join(got) or "none"))


@dataclass(frozen=True)
class RefinementStep:
    """One scripted rule application, a rule name plus its parameters;
    calling it on a system applies it through :func:`apply_step`."""

    rule: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        check_step(self.rule, self.params)

    def __call__(self, system: System):
        return apply_step(system, self)


@dataclass(frozen=True)
class ScriptResult:
    """Outcome of replaying a sequence of steps.

    ``system`` is the final system when ``ok``, otherwise the last system
    before the failing step.  ``reports`` has one entry per attempted step.
    """

    system: System
    reports: tuple
    failed_index: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.failed_index is None


def apply_step(system: System, step: RefinementStep):
    """Apply one step, returning ``(system, report)`` like the rules do."""
    fn, _ = RULES[step.rule]
    return fn(system, **step.params)


def apply_script(system: System, steps: Sequence[Callable]) -> ScriptResult:
    """Apply steps in order, stopping at the first failed report.  A step
    is any function from a system to ``(system, report)``."""
    reports = []
    for i, step in enumerate(steps):
        after, report = step(system)
        reports.append(report)
        if not report.ok:
            return ScriptResult(system, tuple(reports), failed_index=i)
        system = after
    return ScriptResult(system, tuple(reports))
