"""Architectures: consistency checking, black boxes, and runs."""

import sys
from pathlib import Path

import pytest

from flowrefine import (
    BoundsError,
    Component,
    ConsistencyError,
    DomainError,
    EnumerationBounds,
    System,
    as_component,
    behavior_of,
    black_box,
    chaos,
    require_consistent,
    system_runs,
    table_machine,
    tuple_of,
    validate_system,
    with_component,
)

sys.path.insert(0, str(Path(__file__).parent))
import _oracle  # noqa: E402


def bounds():
    return EnumerationBounds(2, 1, {"a": ("x",), "b": ("x",), "c": ("x",), "g": ("x",)})


def copier(src, dst, b):
    ivs = tuple(b.intervals(src))
    return table_machine(
        (src,), (dst,), ivs, (),
        {s: [(s,)] for s in ivs},
        {(s, (s,), (a,)): (a,) for s in ivs for a in ivs},
        label="copy %s->%s" % (src, dst),
    )


def pipeline():
    """a --C1--> b --C2--> c with c the only system output."""
    b = bounds()
    c1 = Component("C1", copier("a", "b", b))
    c2 = Component("C2", copier("b", "c", b))
    return System(frozenset("a"), frozenset("c"), (c1, c2), b)


def failures(system):
    return {c.check for c in validate_system(system).failures()}


class TestValidateSystem:
    def test_consistent_pipeline(self):
        report = validate_system(pipeline())
        assert report.ok
        assert {c.check for c in report.checks} == {
            "unique-component-names", "single-writer", "inputs-not-written",
            "inputs-connected", "outputs-component-controlled",
            "alphabets-declared",
        }

    def test_duplicate_names(self):
        s = pipeline()
        clash = Component("C1", s.components[1].machine)
        bad = System(s.inputs, s.outputs, (s.components[0], clash), s.bounds)
        assert failures(bad) == {"unique-component-names"}

    def test_two_writers_on_one_channel(self):
        s = pipeline()
        rival = Component("C3", copier("a", "b", s.bounds))
        bad = System(s.inputs, s.outputs, s.components + (rival,), s.bounds)
        assert failures(bad) == {"single-writer"}

    def test_written_system_input(self):
        s = pipeline()
        bad = System(frozenset(("a", "b")), s.outputs, s.components, s.bounds)
        assert failures(bad) == {"inputs-not-written"}

    def test_read_of_unfed_channel(self):
        s = pipeline()
        ghost = Component("C3", copier("g", "c", s.bounds))
        bad = System(s.inputs, s.outputs, (s.components[0], ghost), s.bounds)
        assert failures(bad) == {"inputs-connected"}

    def test_unwritten_system_output(self):
        s = pipeline()
        bad = System(s.inputs, frozenset("g"), s.components, s.bounds)
        assert failures(bad) == {"outputs-component-controlled"}

    def test_undeclared_alphabet(self):
        b = EnumerationBounds(2, 1, {"a": ("x",)})
        comp = Component("C1", copier("a", "b", bounds()))
        bad = System(frozenset("a"), frozenset("b"), (comp,), b)
        assert failures(bad) == {"alphabets-declared"}

    @pytest.mark.parametrize("check, detail", [
        ("unique-component-names", "duplicated: C1"),
        ("single-writer", "channels with two writers: b"),
        ("inputs-not-written", "system inputs also written: b"),
        ("inputs-connected", "C3 reads g; C4 reads g"),
        ("outputs-component-controlled", "system outputs nobody writes: g"),
        ("alphabets-declared", "channels without alphabets: b"),
    ])
    def test_failing_detail(self, check, detail):
        """The pipeline broken so that exactly ``check`` fails."""
        s = pipeline()
        c1, c2 = s.components
        b = s.bounds
        ghost = Component("C3", copier("g", "c", b))
        unread = Component("C4", chaos(("g",), (), b))
        broken = {
            "unique-component-names": (s.inputs, s.outputs,
                                       (c1, Component("C1", c2.machine)), b),
            "single-writer": (s.inputs, s.outputs,
                              (c1, c2, Component("C3", c1.machine)), b),
            "inputs-not-written": (frozenset("ab"), s.outputs, (c1, c2), b),
            "inputs-connected": (s.inputs, s.outputs, (c1, ghost, unread), b),
            "outputs-component-controlled": (s.inputs, frozenset("g"), (c1, c2), b),
            "alphabets-declared": (s.inputs, s.outputs, (c1, c2),
                                   EnumerationBounds(2, 1, {"a": ("x",), "c": ("x",)})),
        }[check]
        report = validate_system(System(*broken))
        assert [c.render() for c in report.failures()] == ["[FAIL] %s: %s" % (check, detail)]

    def test_require_consistent(self):
        require_consistent(pipeline())
        s = pipeline()
        bad = System(s.inputs, frozenset("g"), s.components, s.bounds)
        with pytest.raises(ConsistencyError) as err:
            require_consistent(bad)
        assert "outputs-component-controlled" in str(err.value)


class TestSystemAccessors:
    def test_channel_sets(self):
        s = pipeline()
        assert s.channels() == frozenset(("a", "b", "c"))
        assert s.component_outputs() == frozenset(("b", "c"))
        assert s.component_names() == ("C1", "C2")

    def test_component_lookup(self):
        s = pipeline()
        assert s.component("C2").name == "C2"
        with pytest.raises(DomainError, match="^no component named 'C9'$"):
            s.component("C9")

    def test_with_component_replaces_in_place(self):
        s = pipeline()
        old = s.component("C2")
        new = Component("C2b", old.machine)
        s2 = with_component(s, old, new)
        assert s2.component_names() == ("C1", "C2b")
        assert s.component_names() == ("C1", "C2")

    def test_with_component_unknown_old(self):
        s = pipeline()
        stray = Component("C9", chaos((), ("c",), s.bounds))
        with pytest.raises(DomainError, match="^no component named 'C9'$"):
            with_component(s, stray, stray)


class TestBlackBox:
    def test_interface_is_the_system_interface(self):
        s = pipeline()
        m = black_box(s)
        assert m.inputs == s.inputs
        assert m.outputs == s.outputs

    def test_internal_channels_are_hidden(self):
        s = pipeline()
        m = black_box(s)
        ys = behavior_of(m, tuple_of(a=[("x",), ()]), s.bounds)
        assert ys == {tuple_of(c=[(), ()])}
        long_b = EnumerationBounds(4, 1, s.bounds.alphabets())
        s4 = System(s.inputs, s.outputs, s.components, long_b)
        ys = behavior_of(black_box(s4), tuple_of(a=[("x",), (), (), ()]), long_b)
        assert ys == {tuple_of(c=[(), (), ("x",), ()])}

    def test_inconsistent_systems_are_rejected(self):
        s = pipeline()
        bad = System(s.inputs, frozenset("g"), s.components, s.bounds)
        with pytest.raises(ConsistencyError):
            black_box(bad)


class TestRuns:
    def test_runs_bind_every_channel(self):
        s = pipeline()
        runs = system_runs(s, tuple_of(a=[("x",), ()]))
        assert len(runs) == 1
        (run,) = runs
        assert set(run.channels) == {"a", "b", "c"}
        assert run.as_dict()["b"].intervals == ((), ("x",))

    def test_nondeterminism_multiplies_runs(self):
        s = pipeline()
        wild = Component("C2", chaos(("b",), ("c",), s.bounds))
        s2 = with_component(s, s.component("C2"), wild)
        runs = system_runs(s2, tuple_of(a=[("x",), ()]))
        assert len(runs) == s.bounds.count_tuples(("c",))

    def test_env_must_match_inputs(self):
        s = pipeline()
        with pytest.raises(DomainError):
            system_runs(s, tuple_of(b=[(), ()]))

    def test_env_must_respect_bounds(self):
        s = pipeline()
        with pytest.raises(BoundsError):
            system_runs(s, tuple_of(a=[("x",)]))

    def test_all_runs_cover_every_environment(self):
        s = pipeline()
        pairs = list(_oracle.all_system_runs(s))
        assert len(pairs) == s.bounds.count_tuples(("a",))
        assert {env for env, _ in pairs} == set(s.bounds.tuples(("a",)))


class TestAsComponent:
    def test_wraps_the_black_box(self):
        s = pipeline()
        comp = as_component(s, "P")
        assert comp.name == "P"
        assert comp.inputs == s.inputs
        assert comp.outputs == s.outputs
        ys = behavior_of(comp.machine, tuple_of(a=[("x",), ()]), s.bounds)
        assert ys == {tuple_of(c=[(), ()])}
