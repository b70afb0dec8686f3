"""Named components wired into architectures.

An architecture is a set of named components plus the channel sets the
environment writes (system inputs) and reads (system outputs).  Wiring is
implicit: a component reads whatever channel its input set names, wherever
that channel is written.  Five consistency conditions make the wiring well
defined; a consistent architecture denotes a single machine (its black
box) obtained by composing the component machines and hiding everything
but the system interface.
"""

from __future__ import annotations

from .behaviors import (
    IntervalTransducer,
    adapt,
    compose,
    input_slices,
    run_output_words,
    slices_to_tuple,
)
from .errors import ConsistencyError, DomainError, InterfaceError
from .reporting import PremiseReport, Record, premise
from .streams import EnumerationBounds, StreamTuple


class Component(Record):
    """A named machine; its interface is its machine's."""

    __slots__ = ("name", "machine")

    def __init__(self, name: str, machine: IntervalTransducer):
        if not name:
            raise InterfaceError("component names must be nonempty")
        self._set(name, machine)

    @property
    def inputs(self) -> frozenset:
        return self.machine.inputs

    @property
    def outputs(self) -> frozenset:
        return self.machine.outputs

    def __repr__(self):
        return "Component(%s: %s -> %s)" % (
            self.name, sorted(self.inputs), sorted(self.outputs))


class System(Record):
    """An architecture: environment interface, components, and bounds."""

    __slots__ = ("inputs", "outputs", "components", "bounds")

    def __init__(self, inputs: frozenset, outputs: frozenset, components: tuple,
                 bounds: EnumerationBounds):
        self._set(frozenset(inputs), frozenset(outputs),
                  tuple(sorted(components, key=lambda c: c.name)), bounds)

    def component(self, name: str) -> Component:
        for c in self.components:
            if c.name == name:
                return c
        raise DomainError("no component named %r" % name)

    def component_names(self) -> tuple:
        return tuple(c.name for c in self.components)

    def component_outputs(self) -> frozenset:
        out: frozenset = frozenset()
        for c in self.components:
            out |= c.outputs
        return out

    def channels(self) -> frozenset:
        """Every channel the architecture touches: inputs plus written ones."""
        return self.inputs | self.component_outputs()

    def __repr__(self):
        return "System(%s -> %s, components=%s)" % (
            sorted(self.inputs), sorted(self.outputs), list(self.component_names()))


def validate_system(system: System) -> PremiseReport:
    """Check the five consistency conditions, reporting all violations.

    1. component names are pairwise distinct
    2. no channel is written by two components
    3. no system input channel is written by a component
    4. every component input is written by a component or fed by the environment
    5. every system output is written by some component
    plus a bookkeeping check that every channel has a declared alphabet.
    """
    checks = []
    comps = system.components

    names = [c.name for c in comps]
    dup_names = sorted({n for n in names if names.count(n) > 1})
    checks.append(premise("unique-component-names", not dup_names,
                          if_failed="duplicated: %s" % ", ".join(dup_names)))

    written: dict = {}
    clashes = set()
    for c in comps:
        for ch in c.outputs:
            if ch in written:
                clashes.add(ch)
            written[ch] = c.name
    checks.append(premise("single-writer", not clashes,
                          if_failed="channels with two writers: %s" % ", ".join(sorted(clashes))))

    fed_back = sorted(system.inputs & system.component_outputs())
    checks.append(premise("inputs-not-written", not fed_back,
                          if_failed="system inputs also written: %s" % ", ".join(fed_back)))

    available = system.channels()
    dangling = []
    for c in comps:
        for ch in sorted(c.inputs - available):
            dangling.append("%s reads %s" % (c.name, ch))
    checks.append(premise("inputs-connected", not dangling, if_failed="; ".join(dangling)))

    unwritten = sorted(system.outputs - system.component_outputs())
    checks.append(premise("outputs-component-controlled", not unwritten,
                          if_failed="system outputs nobody writes: %s" % ", ".join(unwritten)))

    missing = sorted(ch for ch in system.channels() | system.outputs
                     if not system.bounds.has_channel(ch))
    checks.append(premise("alphabets-declared", not missing,
                          if_failed="channels without alphabets: %s" % ", ".join(missing)))

    return PremiseReport("system consistency", tuple(checks))


def require_consistent(system: System) -> None:
    report = validate_system(system)
    if not report.ok:
        raise ConsistencyError(
            "inconsistent system: %s" % ", ".join(c.check for c in report.failures()),
            report=report)


def backward_cone(system: System, channels) -> tuple:
    """The components that can influence ``channels``: their writers and,
    transitively, the writers of every channel a component in the cone
    reads (its machine's ``reads``, not all its inputs), in the
    system's order.  Every run of the system, restricted to the cone's
    channels, is a run of the cone's composition."""
    writer = {ch: c for c in system.components for ch in c.outputs}
    cone: set = set()
    todo = [writer[ch] for ch in channels if ch in writer]
    while todo:
        comp = todo.pop()
        if comp.name not in cone:
            cone.add(comp.name)
            todo.extend(writer[ch] for ch in comp.machine.reads if ch in writer)
    return tuple(c for c in system.components if c.name in cone)


def _product(system: System) -> IntervalTransducer:
    return compose([c.machine for c in system.components], label="network")


def black_box(system: System) -> IntervalTransducer:
    """The machine an observer at the system boundary sees.

    Composes all component machines, then restricts outputs to the system
    outputs and pads the inputs to the full system input set.  Consistency
    conditions 4 and 5 are exactly what makes this adaption well formed.
    Its expression is that ``adapt`` of the ``compose``, and its label
    ``blackbox``, also where the adaption changes no channel.
    """
    require_consistent(system)
    return adapt(_product(system), system.inputs, system.outputs, label="blackbox")


def system_runs(system: System, env: StreamTuple) -> set:
    """All complete channel histories the architecture admits for one env.

    A run binds every system input and every component-written channel.
    Each distinct resolution of the component machines' choices that leads
    to a distinct history shows up exactly once.
    """
    require_consistent(system)
    if set(env.channels) != set(system.inputs):
        raise DomainError(
            "env binds %s, system inputs are %s"
            % (list(env.channels), sorted(system.inputs)))
    system.bounds.check_tuple(env)
    prod = _product(system)
    slices = input_slices(env.restrict(prod.in_order), prod.in_order,
                          system.bounds.horizon)
    runs = set()
    for word in run_output_words(prod, slices):
        runs.add(env.merge(slices_to_tuple(prod.out_order, word)))
    return runs


def as_component(system: System, name: str) -> Component:
    """Package a whole architecture as a single named component."""
    return Component(name, black_box(system))


def with_component(system: System, old: Component, new: Component) -> System:
    """Replace one component, leaving everything else untouched."""
    if old not in system.components:
        raise DomainError("no component named %r" % old.name)
    comps = tuple(new if c == old else c for c in system.components)
    return System(system.inputs, system.outputs, comps, system.bounds)
