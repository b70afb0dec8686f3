"""Interval transducers and their combinators."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowrefine import (
    Component,
    CompositionError,
    EnumerationBounds,
    FlowError,
    IntervalTransducer,
    InterfaceError,
    System,
    adapt,
    behavior_equal,
    behavior_of,
    chaos,
    compose,
    database_machine,
    drop_input,
    refines_behavior,
    relay_machine,
    remove_input_channel,
    rename_channels,
    table_machine,
    tiny_profile,
    tuple_of,
    unit_machine,
    validate_transducer,
    with_free_output,
)
from flowrefine.archfile import elaborate_architecture, elaborate_machine, parse_architecture
from flowrefine import behaviors
from flowrefine.behaviors import _picker, _selector, explore, render_machine, slice_key, total_on
from flowrefine.streams import ckey

sys.path.insert(0, str(Path(__file__).parent))
from _generators import (  # noqa: E402
    CHAIN_CHANNELS,
    dying_at,
    random_chain,
    random_fact_chain,
    random_machine,
    restriction_of,
    walk,
)
import _oracle  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
CASES = Path(__file__).resolve().parent.parent / "cases"

# A spec that may be in "go" or "stop" in interval 1, the last of 2; "stop"
# has no transition, so advancing it raises.
LAST_INTERVAL_CASE = """
from flowrefine import EnumerationBounds, refines_behavior, table_machine
b = EnumerationBounds(2, 1, {"p": ("x",), "q": ("x",)})
silent = ((),)
inputs = (silent, (("x",),))
spec = table_machine(("p",), ("q",), ("go", "start", "stop"), "start",
                     {s: [silent] for s in ("go", "start", "stop")},
                     [((s, silent, a), t) for a in inputs
                      for s, t in (("start", ("go", "stop")), ("go", ("go",)))])
impl = table_machine(("p",), ("q",), ("s",), "s", {"s": [silent]},
                     [(("s", silent, a), ("s",)) for a in inputs])
print(refines_behavior(impl, spec, b))
"""

# Random combinator chains, each walked and then checked for inclusion
# against a random machine on its interface, both ways.
CHAIN_ORDER_CASE = """
import random, sys
sys.path.insert(0, %r)
from _generators import random_chain, random_machine, walk
from flowrefine import refines_behavior
for seed in range(50):
    rng = random.Random(seed)
    bounds, layers = random_chain(rng)
    m = layers[-1][0]
    for s, _, moves in walk(m, bounds):
        print(seed, repr(s), moves)
    partner = random_machine(rng, m.in_order, m.out_order, bounds, partial=True)
    for impl, spec in ((m, partner), (partner, m)):
        ok, cex = refines_behavior(impl, spec, bounds)
        print(seed, "refines", ok, cex and cex.render())
""" % str(Path(__file__).resolve().parent)

# Emissions on one channel whose messages are equal across types (1, True
# and 1.0) or equal as text ("1"), emitted in every order.
MIXED_MESSAGES_CASE = """
import itertools
from flowrefine import IntervalTransducer
from flowrefine.streams import interval_key

def by_intervals(slc):
    return tuple(interval_key(iv) for iv in slc)

emissions = [((1,),), ((True,),), ((1.0,),), (("1",),), ((),), (("1", 1),)]
for order in itertools.permutations(emissions):
    machine = IntervalTransducer((), ("c",), 0, lambda s: order, lambda s, o, i: (0,))
    got = machine.emit(0)
    assert repr(got) == repr(tuple(sorted(dict.fromkeys(order), key=by_intervals))), order
    print(repr(got))
"""

# A spec that is in "2" or "3" after interval 0; "2" goes on to "8" and "3"
# to "1", so the search first builds the next set as ("8", "1").  Neither
# has a transition in interval 2, the last, so advancing either raises.
RECORDED_ORDER_CASE = """
from flowrefine import EnumerationBounds, FlowError, refines_behavior, table_machine
b = EnumerationBounds(3, 1, {"p": ("x",), "q": ("x",)})
silent = ((),)
inputs = (silent, (("x",),))
states = ("0", "1", "2", "3", "8")
spec = table_machine(("p",), ("q",), states, "0", {s: [silent] for s in states},
                     [((s, silent, a), t) for a in inputs
                      for s, t in (("0", ("2", "3")), ("2", ("8",)), ("3", ("1",)))])
impl = table_machine(("p",), ("q",), ("s",), "s", {"s": [silent]},
                     [(("s", silent, a), ("s",)) for a in inputs])
try:
    refines_behavior(impl, spec, b)
except FlowError as e:
    print(e)
"""


def bounds2(horizon=3, burst=1):
    return EnumerationBounds(horizon, burst, {"p": ("x",), "q": ("x",), "r": ("x",)})


def delay_copier(src, dst, bounds):
    """Forward each interval on src to dst one step later (state = pending)."""
    intervals = bounds.intervals(src)
    states = tuple(intervals)
    emit = {s: [(s,)] for s in states}
    advance = {(s, (s,), (a,)): (a,) for s in states for a in intervals}
    return table_machine((src,), (dst,), states, (), emit, advance,
                         label="copy %s->%s" % (src, dst))


class TestTableMachine:
    def test_delay_copier_behavior(self):
        b = bounds2()
        m = delay_copier("p", "q", b)
        x = tuple_of(p=[("x",), (), ("x",)])
        ys = behavior_of(m, x, b)
        assert ys == {tuple_of(q=[(), ("x",), ()])}

    def test_output_depends_only_on_earlier_input(self):
        """The step-i emission is chosen before the step-i input arrives."""
        b = bounds2()
        m = delay_copier("p", "q", b)
        late = tuple_of(p=[(), (), ("x",)])
        ys = behavior_of(m, late, b)
        assert ys == {tuple_of(q=[(), (), ()])}

    def test_dict_slices_accepted(self):
        b = bounds2(horizon=1)
        m = table_machine(
            ("p",), ("q",), ("s",), "s",
            {"s": [{"q": ("x",)}]},
            [(("s", {"q": ("x",)}, {"p": ()}), ("s",)),
             (("s", {"q": ("x",)}, {"p": ("x",)}), ("s",))],
        )
        ys = behavior_of(m, tuple_of(p=[()]), b)
        assert ys == {tuple_of(q=[("x",)])}

    def test_unknown_initial_state_rejected(self):
        with pytest.raises(FlowError):
            table_machine((), (), ("a",), "b", {}, {})

    def test_gaps_surface_during_validation_not_construction(self):
        b = bounds2(horizon=1)
        m = table_machine(("p",), ("q",), ("s",), "s", {"s": [((),)]}, {})
        report = validate_transducer(m, b)
        assert not report.ok
        assert any(c.check == "advance-defined" for c in report.failures())


class TestChaosAndUnit:
    def test_chaos_admits_every_output(self):
        b = bounds2(horizon=2)
        m = chaos(("p",), ("q",), b)
        for x in b.tuples(("p",)):
            ys = behavior_of(m, x, b)
            assert len(ys) == b.count_tuples(("q",))

    def test_everything_refines_chaos(self):
        b = bounds2()
        free = chaos(("p",), ("q",), b)
        ok, cex = refines_behavior(delay_copier("p", "q", b), free, b)
        assert ok and cex is None

    def test_chaos_does_not_refine_a_constrained_machine(self):
        b = bounds2()
        ok, cex = refines_behavior(chaos(("p",), ("q",), b),
                                   delay_copier("p", "q", b), b)
        assert not ok
        x, y = cex.inputs, cex.output
        assert y in behavior_of(chaos(("p",), ("q",), b), x, b)
        assert y not in behavior_of(delay_copier("p", "q", b), x, b)

    def test_unit_machine_has_a_single_silent_behavior(self):
        b = bounds2(horizon=2)
        m = unit_machine(b)
        assert behavior_of(m, tuple_of(), b) == {tuple_of()}


class TestAdapt:
    def test_added_input_is_ignored(self):
        b = bounds2()
        m = adapt(delay_copier("p", "q", b), ("p", "r"), ("q",))
        quiet = tuple_of(p=[("x",), (), ()], r=[(), (), ()])
        noisy = tuple_of(p=[("x",), (), ()], r=[("x",), ("x",), ("x",)])
        assert behavior_of(m, quiet, b) == behavior_of(m, noisy, b)

    def test_dropped_output_is_projected_away(self):
        b = bounds2(horizon=2)
        m = chaos((), ("q", "r"), b)
        narrowed = adapt(m, (), ("q",))
        ys = behavior_of(narrowed, tuple_of(), b)
        assert ys == set(b.tuples(("q",)))

    def test_identity_adapt_behaves_as_its_machine_and_renders_as_written(self):
        b = bounds2()
        m = delay_copier("p", "q", b)
        same = adapt(m, ("p",), ("q",), label="same")
        assert same is not m and same.label == "same"
        assert behavior_equal(same, m, b) == (True, None)
        assert render_machine(same.expr) == "(adapt\n  of=%s\n  inputs=p\n  outputs=q)" % (
            render_machine(m.expr, 1).lstrip())

    def test_only_widening_inputs_and_narrowing_outputs(self):
        b = bounds2()
        m = delay_copier("p", "q", b)
        with pytest.raises(InterfaceError):
            adapt(m, (), ("q",))
        with pytest.raises(InterfaceError):
            adapt(m, ("p",), ("q", "r"))


class TestDropInputAndRename:
    def test_drop_ignored_input(self):
        b = bounds2()
        wide = adapt(delay_copier("p", "q", b), ("p", "r"), ("q",))
        narrow = drop_input(wide, "r")
        assert narrow.inputs == frozenset(("p",))
        ok, _ = behavior_equal(narrow, delay_copier("p", "q", b), b)
        assert ok

    def test_drop_feeds_silence(self):
        b = bounds2()
        m = drop_input(delay_copier("p", "q", b), "p")
        assert behavior_of(m, tuple_of(), b) == {tuple_of(q=[(), (), ()])}

    def test_drop_rejects_a_channel_that_is_not_an_input(self):
        with pytest.raises(InterfaceError, match=r"^'q' is not an input of copy p->q$"):
            drop_input(delay_copier("p", "q", bounds2()), "q")

    def test_rename_is_behavior_preserving_modulo_names(self):
        b = bounds2()
        m = rename_channels(delay_copier("p", "q", b), {"p": "r", "q": "p"})
        assert m.inputs == frozenset(("r",))
        assert m.outputs == frozenset(("p",))
        ys = behavior_of(m, tuple_of(r=[("x",), (), ()]), b)
        assert ys == {tuple_of(p=[(), ("x",), ()])}

    def test_identity_rename_behaves_as_its_machine_and_keeps_its_label(self):
        b = bounds2()
        m = delay_copier("p", "q", b)
        same = rename_channels(m, {"q": "q"}, label="same")
        assert same is not m and same.label == "same"
        assert behavior_equal(same, m, b) == (True, None)
        assert render_machine(same.expr) == "(rename\n  of=%s\n  map=q:q)" % (
            render_machine(m.expr, 1).lstrip())

    def test_rename_rejects_collisions(self):
        b = bounds2()
        with pytest.raises(InterfaceError):
            rename_channels(delay_copier("p", "q", b), {"p": "q"})


class TestCompose:
    def test_pipeline_adds_latency(self):
        b = bounds2()
        prod = compose([delay_copier("p", "q", b), delay_copier("q", "r", b)])
        assert prod.inputs == frozenset(("p",))
        assert prod.outputs == frozenset(("q", "r"))
        ys = behavior_of(prod, tuple_of(p=[("x",), (), ()]), b)
        assert ys == {tuple_of(q=[(), ("x",), ()], r=[(), (), ("x",)])}

    def test_same_interval_read_of_emitted_channel(self):
        """A reader advancing on channel q sees what the writer emitted in
        that same interval."""
        b = bounds2(horizon=2)
        writer = table_machine(
            (), ("q",), ("w",), "w",
            {"w": [(("x",),)]},
            {("w", (("x",),), ()): ("w",)},
        )
        prod = compose([writer, delay_copier("q", "r", b)])
        ys = behavior_of(prod, tuple_of(), b)
        assert ys == {tuple_of(q=[("x",), ("x",)], r=[(), ("x",)])}

    def test_two_writers_rejected(self):
        b = bounds2()
        with pytest.raises(CompositionError):
            compose([chaos((), ("q",), b), delay_copier("p", "q", b)])

    def test_empty_composition_is_the_unit(self):
        b = bounds2(horizon=2)
        prod = compose([])
        assert behavior_of(prod, tuple_of(), b) == {tuple_of()}


class TestRefinesBehavior:
    def test_interface_mismatch_raises(self):
        b = bounds2()
        with pytest.raises(InterfaceError):
            refines_behavior(delay_copier("p", "q", b), delay_copier("p", "r", b), b)

    def test_restrictions_always_refine(self):
        for seed in range(15):
            rng = random.Random(seed)
            b = EnumerationBounds(3, 1, {"p": ("x", "y"), "q": ("x", "y")})
            m = random_machine(rng, ("p",), ("q",), b, label="m%d" % seed)
            sub = restriction_of(m, seed)
            ok, cex = refines_behavior(sub, m, b)
            assert ok, (seed, cex and cex.render())

    def test_witness_replays(self):
        """A reported counterexample is a genuine behavior gap."""
        found = 0
        for seed in range(30):
            rng = random.Random(100 + seed)
            b = EnumerationBounds(2, 1, {"p": ("x",), "q": ("x", "y")})
            impl = random_machine(rng, ("p",), ("q",), b, label="i")
            spec = random_machine(rng, ("p",), ("q",), b, label="s")
            ok, cex = refines_behavior(impl, spec, b)
            if ok:
                continue
            found += 1
            assert cex.kind == "output-not-included"
            assert cex.output in behavior_of(impl, cex.inputs, b)
            assert cex.output not in behavior_of(spec, cex.inputs, b)
        assert found >= 5

    def test_witness_is_canonical(self):
        b = bounds2()
        impl = chaos(("p",), ("q",), b)
        spec = delay_copier("p", "q", b)
        _, cex1 = refines_behavior(impl, spec, b)
        _, cex2 = refines_behavior(impl, spec, b)
        assert cex1.inputs == cex2.inputs and cex1.output == cex2.output

    def test_failing_spec_state_reported_is_canonically_first(self):
        """The spec may be in state 1 or 8, and neither has a transition.
        Set iteration visits 8 first; the error must name 1, which comes
        first in the order the spec's leaf lists the successors that make
        up the set."""
        b = EnumerationBounds(2, 1, {"p": ("x",), "q": ("x",)})
        silent = ((),)
        spec = table_machine(("p",), ("q",), (0, 1, 8), 0, {s: [silent] for s in (0, 1, 8)},
                             [((0, silent, a), (1, 8)) for a in (silent, (("x",),))])
        impl = table_machine(("p",), ("q",), ("s",), "s", {"s": [silent]},
                             [(("s", silent, a), ("s",)) for a in (silent, (("x",),))])
        assert list(frozenset((1, 8))) == [8, 1]
        with pytest.raises(FlowError, match="for state 1,"):
            refines_behavior(impl, spec, b)

    def test_failing_spec_state_reported_is_first_in_the_order_the_set_was_built(self):
        """The spec set {"8", "1"} is first built from two emitters, "2"
        then "3", as ("8", "1").  Under hash seeds 0 and 1 set iteration
        visits "1" first, and "1" sorts first too; the error must name "8"
        under both."""
        outputs = []
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-c", RECORDED_ORDER_CASE],
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC)),
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert "for state '8'," in outputs[0]

    def test_last_interval_stops_at_the_first_spec_state_that_goes_on(self):
        """In the last interval the spec may be in state "go" or "stop";
        "go" comes first in canonical order and goes on, so "stop", which has
        no transition and would raise, is never asked.  Which of the two
        set iteration visits first changes with the hash seed; the verdict
        must not."""
        outputs = []
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-c", LAST_INTERVAL_CASE],
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC)),
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs == ["(True, None)\n"] * 2

    def test_behavior_equal_is_mutual_inclusion(self):
        b = bounds2()
        m = delay_copier("p", "q", b)
        again = table_machine(
            m.in_order, m.out_order,
            tuple(b.intervals("p")), (),
            {s: [(s,)] for s in b.intervals("p")},
            {(s, (s,), (a,)): (a,) for s in b.intervals("p") for a in b.intervals("p")},
        )
        ok, _ = behavior_equal(m, again, b)
        assert ok
        ok, cex = behavior_equal(m, chaos(("p",), ("q",), b), b)
        assert not ok and "second machine" in cex.note

    def test_equal_spec_sets_are_one_object(self, monkeypatch):
        """Chaos steps to its one state on every emission and input, so
        the search builds the same spec set over and over; it keeps one
        object for it."""
        built = []

        def recording(start, horizon, expand, *rest):
            def expand_recorded(node, depth):
                built.append(node[1])
                for move, successors in expand(node, depth):
                    if successors is not None:
                        successors = list(successors)
                        built.extend(succ[1] for succ in successors)
                    yield move, successors
            return explore(start, horizon, expand_recorded, *rest)

        monkeypatch.setattr(behaviors, "explore", recording)
        b = EnumerationBounds(3, 1, {"p": ("x", "y"), "q": ("x", "y")})
        ok, _ = refines_behavior(delay_copier("p", "q", b), chaos(("p",), ("q",), b), b)
        assert ok
        assert len(built) > len(set(built)) > 0
        assert len({id(fs) for fs in built}) == len(set(built))


class TestBoundedBehavior:
    def test_covers_every_input(self):
        b = bounds2(horizon=2)
        rel = _oracle.bounded_behavior(delay_copier("p", "q", b), b)
        assert len(rel) == b.count_tuples(("p",))
        for x, ys in rel.items():
            assert ys == frozenset(behavior_of(delay_copier("p", "q", b), x, b))

    def test_input_validation(self):
        b = bounds2()
        m = delay_copier("p", "q", b)
        with pytest.raises(InterfaceError):
            behavior_of(m, tuple_of(q=[(), (), ()]), b)
        with pytest.raises(FlowError):
            behavior_of(m, tuple_of(p=[()]), b)


class TestExplore:
    """The breadth-first explorer on hand-built graphs: a graph maps a node
    to its ``(move, successors)`` pairs in the order ``expand`` yields them."""

    def search(self, graph, horizon, start="s"):
        expanded = []

        def expand(node, depth):
            expanded.append((node, depth))
            return iter(graph.get(node, ()))

        path, reached = explore(start, horizon, expand)
        return path, reached, expanded

    def test_first_parent_yielded_is_kept(self):
        # z is reached in layer 2 through x and through y; x comes first.
        graph = {"s": [("a", ["x"]), ("b", ["y"])],
                 "x": [("c", ["z"])], "y": [("d", ["z"])],
                 "z": [("stop", None)]}
        assert self.search(graph, 3)[0] == ["a", "c", "stop"]
        graph["s"].reverse()
        assert self.search(graph, 3)[0] == ["b", "d", "stop"]

    def test_stopping_move_returns_the_path_through_it(self):
        graph = {"s": [("a", ["x"]), ("b", None), ("c", ["y"])], "x": [("d", None)]}
        path, reached, expanded = self.search(graph, 5)
        assert path == ["b"]
        # Nothing after the stopping move is looked at.
        assert reached == 2 and expanded == [("s", 0)]

    def test_count_includes_the_last_expanded_layer_successors(self):
        graph = {"s": [("a", ["x", "y"])], "x": [("b", ["z"])], "y": [("c", ["x", "w"])],
                 "z": [("d", ["v"])]}
        path, reached, expanded = self.search(graph, 2)
        assert path is None
        assert reached == 5  # s, x, y, then z and w, which are never expanded
        assert expanded == [("s", 0), ("x", 1), ("y", 1)]

    def test_a_node_is_expanded_once_in_the_first_layer_that_reaches_it(self):
        graph = {"s": [("a", ["x"])], "x": [("b", ["s", "x", "y"])], "y": [("c", ["x"])]}
        path, reached, expanded = self.search(graph, 4)
        assert (path, reached) == (None, 3)
        assert expanded == [("s", 0), ("x", 1), ("y", 2)]

    def test_horizon_zero_expands_nothing(self):
        assert self.search({"s": [("a", None)]}, 0) == (None, 1, [])


class TestValidateTransducer:
    def test_reachable_count_matches_unfolding(self):
        """The ``N states within horizon`` line counts exactly the states
        some run reaches within the horizon, on total, partial and dying
        machines."""
        seen = {"total": 0, "partial": 0, "dying": 0}
        for seed in range(150):
            rng = random.Random(seed)
            horizon = rng.choice((1, 2, 3))
            alphabets = {ch: ("x", "y")[: rng.randint(1, 2)] for ch in ("k0", "k1", "o")}
            b = EnumerationBounds(horizon, rng.choice((1, 2)), alphabets)
            inputs = tuple(sorted(rng.sample(("k0", "k1"), rng.randint(0, 2))))
            kind = rng.choice(tuple(seen))
            m = random_machine(rng, inputs, ("o",), b, max_states=4,
                               partial=kind == "partial")
            if kind == "dying":
                m = dying_at(m, rng.randrange(horizon), seed)
            (check,) = [c for c in validate_transducer(m, b).checks if c.check == "reachable"]
            want = len(_oracle.reachable_states(m, b))
            assert check.detail == "%d states within horizon %d" % (want, horizon), seed
            seen[kind] += 1
        assert all(seen.values()), seen

    def test_clean_machine_passes(self):
        b = bounds2()
        report = validate_transducer(delay_copier("p", "q", b), b)
        assert report.ok

    def test_burst_violation_detected(self):
        b = bounds2()
        m = table_machine(
            (), ("q",), ("s",), "s",
            {"s": [(("x", "x"),)]},
            {("s", (("x", "x"),), ()): ("s",)},
        )
        report = validate_transducer(m, b)
        assert any(c.check == "emit-in-bounds" for c in report.failures())

    def test_empty_emission_set_detected(self):
        b = bounds2(horizon=1)

        def emit_fn(s):
            return ()

        def advance_fn(s, o, a):
            return ("s",)

        m = IntervalTransducer((), ("q",), "s", emit_fn, advance_fn, label="mute")
        report = validate_transducer(m, b)
        assert any(c.check == "emit-nonempty" for c in report.failures())

    def test_product_states_are_named_by_their_parts_states(self):
        """A partial table inside nested products: the details name each
        state as the tuple of its parts' states, not as its number."""
        b = EnumerationBounds(3, 1, dict.fromkeys("pqrz", ("x",)))
        silent, x = ((),), (("x",),)
        partial = table_machine(("p",), ("q",), ("a", "b"), "a", {"a": [silent], "b": []},
                                {("a", silent, silent): ("b",), ("a", silent, x): ()},
                                label="partial")
        inner = compose([partial, chaos((), ("r",), b)])
        m = compose([chaos((), ("z",), b), inner])
        details = {c.check: c.detail for c in validate_transducer(m, b).failures()}
        assert details == {
            "emit-nonempty": "state ('free', ('b', 'free')) has no emission choices",
            "advance-nonempty": "state ('free', ('a', 'free')), emission ((), (), ()), "
                                "input (('x',),) has no successor (+3 more)",
        }


# The checks of validate_transducer that make up totality.
TOTALITY = {"emit-defined", "emit-nonempty", "advance-defined", "advance-nonempty"}


class TestTotality:
    """``total`` is decided at construction; a machine that has it must be
    total wherever the bounds lie inside what it was proven on."""

    def test_every_machine_with_the_fact_is_total(self):
        seen = {"proven": 0, "proven-product": 0, "proven-view": 0, "unproven": 0,
                "unproven-and-stuck": 0, "table": 0, "stuck-product-of-proven-parts": 0}
        for seed in range(120):
            bounds, layers = random_fact_chain(random.Random(seed))
            for m in layers:
                if m.expr.form == "table":
                    assert m.total is None, seed
                    seen["table"] += 1
                failed = {c.check for c in validate_transducer(m, bounds).failures()}
                if m.total is None:
                    seen["unproven"] += 1
                    seen["unproven-and-stuck"] += bool(failed & TOTALITY)
                    seen["stuck-product-of-proven-parts"] += bool(
                        m.expr.form == "compose" and failed & TOTALITY
                        and all(part.total for part in m.numbering.machines))
                    continue
                assert total_on(m, bounds), seed
                assert not failed & TOTALITY, (seed, m.expr, failed)
                # What it emits stays inside what it claims to write.
                for _, emissions, _ in walk(m, bounds):
                    for o in emissions:
                        for ch, iv in zip(m.out_order, o):
                            assert set(iv) <= m.total.writes[ch], (seed, ch, iv)
                seen["proven"] += 1
                seen["proven-product"] += m.expr.form == "compose"
                seen["proven-view"] += m.expr.form in ("adapt", "drop-input", "rename",
                                                       "with-free-output")
        assert all(seen.values()), seen

    def test_copy_relay_of_unparsed_tokens_into_a_store_is_not_total(self):
        """Both parts are total, but the relay writes ``foo`` on ``I``, and
        the database cannot parse it there."""
        b = EnumerationBounds(2, 1, {"X": ("foo",), "I": ("a.0",), "K": ("a",),
                                     "O": ("0", "nil")})
        relay, store = relay_machine("X", "I", b), database_machine(b, "I", "K", "O")
        m = compose([relay, store])
        assert relay.total is not None and store.total is not None
        assert m.total is None
        failed = {c.check for c in validate_transducer(m, b).failures()}
        assert "advance-defined" in failed

    def test_store_fed_from_the_query_channel_is_not_total(self):
        """Swapping store and query feeds the store bare keys."""
        b = tiny_profile()
        store = database_machine(b, "I", "Key", "Data")
        m = rename_channels(store, {"I": "Key", "Key": "I"})
        assert store.total is not None
        assert m.total is None
        failed = {c.check for c in validate_transducer(m, b).failures()}
        assert "advance-defined" in failed

    def test_a_view_renaming_an_unconstrained_channel_keeps_the_fact(self):
        m = rename_channels(database_machine(tiny_profile(), "I", "Key", "Data"),
                            {"Key": "In", "Data": "D"})
        assert m.total == ({"I": frozenset(tiny_profile().alphabet("I"))},
                           {"D": frozenset({"nil", "0", "1", "2"})})

    def test_the_fact_covers_only_the_alphabets_it_was_proven_on(self):
        b = tiny_profile()
        relay = relay_machine("In", "I", b)
        assert total_on(relay, b)
        wider = b.with_alphabet("In", ("a.0", "a.1", "a.2", "b.0"))
        assert not total_on(relay, wider)
        assert total_on(relay, b.with_alphabet("In", ("a.0",)))

    def test_tables_and_raw_functions_leave_the_fact_unset(self):
        b = bounds2()
        table = delay_copier("p", "q", b)
        assert validate_transducer(table, b).ok
        raw = IntervalTransducer(table.inputs, table.outputs, table.initial, table.emit,
                                 table.advance)
        assert table.total is None and raw.total is None
        assert compose([table, chaos((), ("r",), b)]).total is None


def raising_machine(where):
    """A machine on p -> q whose ``where`` function raises ``ValueError``
    on its second state."""

    def emit_fn(s):
        if where == "emit" and s == "t":
            raise ValueError("no emission for t\non two lines")
        return [((),)]

    def advance_fn(s, o, a):
        if where == "advance" and s == "t":
            raise ValueError("no successor for t")
        return ("t",)

    return IntervalTransducer(("p",), ("q",), "s", emit_fn, advance_fn, label="crashy")


class TestMachineFunctionErrors:
    """A machine function's own exception comes out as a one-line
    ``FlowError`` that names the machine."""

    def test_emit(self):
        m = raising_machine("emit")
        assert m.emit("s") == (((),),)
        with pytest.raises(FlowError) as info:
            m.emit("t")
        assert str(info.value) == ("crashy: emit raised ValueError on state 't': "
                                   "no emission for t on two lines")
        assert isinstance(info.value.__cause__, ValueError)
        (check,) = validate_transducer(m, bounds2()).failures()
        assert check.check == "emit-defined"
        assert check.detail.startswith("crashy: emit raised ValueError")

    def test_advance(self):
        m = raising_machine("advance")
        with pytest.raises(FlowError) as info:
            m.advance("t", ((),), ((),))
        assert str(info.value) == ("crashy: advance raised ValueError on state 't', "
                                   "emission ((),), input ((),): no successor for t")
        (check,) = validate_transducer(m, bounds2()).failures()
        assert check.check == "advance-defined"
        assert check.detail.startswith("crashy: advance raised ValueError")

    def test_searches_raise_the_named_error(self):
        b = bounds2()
        for where in ("emit", "advance"):
            with pytest.raises(FlowError, match="^crashy: %s raised ValueError" % where):
                refines_behavior(raising_machine(where), chaos(("p",), ("q",), b), b)

    def test_a_deep_view_chain_raises_the_interpreters_recursion_error(self):
        """Each view computes through its inner machine's uncached step, so
        a chain of views deeper than the interpreter's limit ends in its
        ``RecursionError``, not in a report that blames the machine."""
        b = tiny_profile(horizon=1)
        m = relay_machine("In", "I", b)
        for _ in range(400):
            m = adapt(m, m.inputs, m.outputs)
        with pytest.raises(RecursionError):
            validate_transducer(m, b)

    @pytest.mark.parametrize("where", ("emit", "advance"))
    def test_unary_combinators_raise_the_inner_named_error(self, where):
        """``adapt`` with a hidden output, ``drop_input`` and
        ``rename_channels`` compute through their inner machine's uncached
        step, which names the inner machine alike."""
        b = bounds2()
        named = "^crashy: %s raised ValueError" % where
        for m in (adapt(raising_machine(where), ("p", "r"), ()),
                  drop_input(raising_machine(where), "p"),
                  rename_channels(raising_machine(where), {"p": "r", "q": "p"})):
            with pytest.raises(FlowError, match=named):
                if where == "emit":
                    m.emit("t")
                else:
                    m.advance("t", m.emit("s")[0], tuple(() for _ in m.in_order))
            (check,) = validate_transducer(m, b).failures()
            assert check.check == "%s-defined" % where
            assert check.detail.startswith("crashy: %s raised ValueError" % where)
            with pytest.raises(FlowError, match=named):
                refines_behavior(m, chaos(m.inputs, m.outputs, b), b)


class TestCanonicalOrder:
    """Leaves sort their successor sets by ``ckey``; compose, adapt,
    rename_channels and drop_input keep the order they build them in.
    Emissions are sorted by ``slice_key`` at every layer, since that order
    decides the lexicographic tie-break of a witness."""

    def test_combinator_chains_keep_canonical_order(self):
        def strictly_increasing(values, key):
            keys = [key(v) for v in values]
            return all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))

        for seed in range(150):
            bounds, layers = random_chain(random.Random(seed))
            for m, is_leaf in layers:
                for s, emissions, moves in walk(m, bounds):
                    assert strictly_increasing(emissions, slice_key), (seed, m.label, s)
                    for o, a, succ in moves:
                        if is_leaf:
                            assert strictly_increasing(succ, ckey), (seed, m.label, s, o, a)
                        else:
                            assert len(set(succ)) == len(succ), (seed, m.label, s, o, a)

    def test_slice_key_keeps_messages_of_other_types_apart(self):
        """Emissions of ``1``, ``True``, ``1.0`` and ``"1"`` come out sorted
        by their intervals' keys, whichever was emitted first and whatever
        the hash seed."""
        outputs = []
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-c", MIXED_MESSAGES_CASE],
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC)),
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 720

    def test_order_does_not_depend_on_the_hash_seed(self):
        """The successor sequences of random chains, and the verdicts and
        witnesses of inclusion checks between each chain and a random
        machine on its interface, in both directions.  Leaf states are
        strings and frozensets, whose set iteration order changes with the
        hash seed; the output must not."""
        outputs = []
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-c", CHAIN_ORDER_CASE],
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC)),
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("refines False") >= 10


def combinator_chain(seed, ops):
    """Bounds, a random leaf or compose of two, and the chain of unary
    combinators ``ops`` over it, built twice: by the package, and by
    ``_oracle`` through each inner machine's cached ``emit`` and
    ``advance``."""
    rng = random.Random(seed)
    bounds = EnumerationBounds(3, 1, dict.fromkeys(CHAIN_CHANNELS, ("x", "y")[:rng.randint(1, 2)]))

    def leaf(taken):
        free = [ch for ch in CHAIN_CHANNELS if ch not in taken]
        outputs = rng.sample(free, rng.randint(1, 2))
        inputs = [ch for ch in rng.sample(CHAIN_CHANNELS, rng.randint(0, 2)) if ch not in outputs]
        return random_machine(rng, inputs, outputs, bounds, partial=rng.random() < 0.5)

    inner = leaf(())
    if rng.random() < 0.5:
        inner = compose([inner, leaf(inner.outputs)])
    real = oracle = inner
    for op in ops:
        used = real.inputs | real.outputs
        if op == "adapt":
            extra = [ch for ch in CHAIN_CHANNELS if ch not in used]
            inputs = real.inputs | frozenset(rng.sample(extra, min(len(extra), rng.randint(0, 1))))
            outputs = rng.sample(sorted(real.outputs), rng.randint(0, len(real.outputs)))
            real, oracle = adapt(real, inputs, outputs), _oracle.adapt(oracle, inputs, outputs)
        elif op == "drop" and real.inputs:
            channel = rng.choice(sorted(real.inputs))
            real, oracle = drop_input(real, channel), _oracle.drop_input(oracle, channel)
        elif op == "rename":
            free = [ch for ch in CHAIN_CHANNELS if ch not in used]
            olds = rng.sample(sorted(used), min(len(used), len(free), 2))
            mapping = dict(zip(olds, rng.sample(free, len(olds))))
            real = rename_channels(real, mapping)
            oracle = _oracle.rename_channels(oracle, mapping)
        elif op == "free":
            # Possibly one of its inputs: compose then resolves the loop.
            channel = rng.choice([ch for ch in CHAIN_CHANNELS if ch not in real.outputs])
            real = with_free_output(real, channel, bounds)
            oracle = _oracle.with_free_output(oracle, channel, bounds)
    return bounds, real, oracle


class TestUncachedInnerStep:
    """``adapt``, ``with_free_output``, ``drop_input`` and
    ``rename_channels`` compute through their inner machine's uncached
    step and give what the definitions through its cached ``emit`` and
    ``advance`` give, in the same order; leaves and ``compose`` return one
    object per distinct state."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.integers(0, 10**6),
           st.lists(st.sampled_from(("adapt", "drop", "rename", "free")), min_size=1, max_size=3))
    def test_combinators_equal_their_cached_definitions(self, seed, ops):
        bounds, real, oracle = combinator_chain(seed, ops)
        assert real.inputs == oracle.inputs and real.outputs == oracle.outputs
        assert real.reads == oracle.reads
        assert list(walk(real, bounds)) == list(walk(oracle, bounds))

    def test_leaf_returns_one_object_per_state(self):
        """Successors built afresh on every call come back as the object
        the leaf first returned, sorted by ``ckey``."""
        def advance_fn(s, o, a):
            return [tuple(["n", len(a[0])]), tuple(["n", 0])]

        m = IntervalTransducer(("p",), ("q",), ("n", 0), lambda s: [((),)], advance_fn)
        first = m.advance(("n", 0), ((),), (("x",),))
        second = m.advance(("n", 0), ((),), (("y",),))
        assert first == second == (("n", 0), ("n", 1))
        assert all(s1 is s2 for s1, s2 in zip(first, second))
        assert m.advance(first[1], ((),), ((),)) == (("n", 0),)
        assert m.advance(first[1], ((),), ((),))[0] is first[0]

    def test_compose_returns_one_object_per_state(self):
        b = bounds2()
        m = compose([delay_copier("p", "q", b), delay_copier("q", "r", b)])
        seen = {}
        for _, _, moves in walk(m, b):
            for _, _, succ in moves:
                for s in succ:
                    assert seen.setdefault(s, s) is s


class TestComposeEmissions:
    """``compose`` gathers each product emission from its parts' emissions
    laid end to end and sorts them; it must give what filling the
    product's slots part by part gives, sorted, in the same order."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 3))
    def test_emissions_equal_the_slot_by_slot_definition(self, seed, parts):
        rng = random.Random(seed)
        alphabet = ("x", "y")[:rng.randint(1, 2)]
        bounds = EnumerationBounds(2, 1, dict.fromkeys(CHAIN_CHANNELS, alphabet))
        machines = []
        for i in range(parts):
            # Dealt round robin, so two parts' channels interleave.
            outputs = CHAIN_CHANNELS[i::parts][:rng.randint(1, 2)]
            inputs = [ch for ch in rng.sample(CHAIN_CHANNELS, rng.randint(0, 2))
                      if ch not in outputs]
            machines.append(random_machine(rng, inputs, outputs, bounds,
                                           partial=rng.random() < 0.3))
        rng.shuffle(machines)
        product = compose(machines)
        for s, _, _ in walk(product, bounds):
            assert list(product._emit_fn(s)) == list(_oracle.compose_emissions(product, s))


def emission_tree(rng, bounds, depth, taken=()):
    """A random machine of at most ``depth`` levels of ``compose``,
    ``adapt``, ``rename`` and ``drop-input`` over random leaves, partial
    ones among them, that writes no channel of ``taken``: the tree
    :func:`_oracle.emission_set` reads."""
    form = "leaf"
    if depth:
        form = rng.choice(("leaf", "compose", "adapt", "rename", "drop-input"))
    if form == "leaf":
        free = [ch for ch in CHAIN_CHANNELS if ch not in taken]
        outputs = rng.sample(free, rng.randint(1, min(2, len(free))))
        inputs = [ch for ch in rng.sample(CHAIN_CHANNELS, rng.randint(0, 2)) if ch not in outputs]
        leaf = random_machine(rng, inputs, outputs, bounds, partial=rng.random() < 0.5)
        return leaf, form, (), {}
    if form == "compose":
        subtrees = []
        for _ in range(rng.randint(1, 3)):
            written = set(taken).union(*(t[0].outputs for t in subtrees))
            if len(written) < len(CHAIN_CHANNELS):
                subtrees.append(emission_tree(rng, bounds, depth - 1, written))
        rng.shuffle(subtrees)
        return compose([t[0] for t in subtrees]), form, tuple(subtrees), {}
    inner = emission_tree(rng, bounds, depth - 1, taken)
    m = inner[0]
    used = m.inputs | m.outputs
    if form == "adapt":
        extra = [ch for ch in CHAIN_CHANNELS if ch not in used]
        inputs = m.inputs | frozenset(rng.sample(extra, min(len(extra), rng.randint(0, 1))))
        outputs = rng.sample(sorted(m.outputs), rng.randint(0, len(m.outputs)))
        return adapt(m, inputs, outputs), form, (inner,), {}
    if form == "rename":
        fresh = [ch for ch in CHAIN_CHANNELS if ch not in used and ch not in taken]
        olds = rng.sample(sorted(used), min(len(used), len(fresh), 2))
        mapping = dict(zip(olds, rng.sample(fresh, len(olds))))
        return rename_channels(m, mapping), form, (inner,), mapping
    if not m.inputs:
        return inner
    return drop_input(m, rng.choice(sorted(m.inputs))), form, (inner,), {}


class TestEmissionMemo:
    """The combinators build their emissions from their parts' emission
    sets and sort them once per distinct set of those; in every reachable
    state, ``emit`` gives the set the forms define, sorted by
    ``slice_key``."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.integers(0, 10**6))
    def test_emissions_equal_the_sorted_definition(self, seed):
        rng = random.Random(seed)
        alphabet = ("x", "y")[:rng.randint(1, 2)]
        bounds = EnumerationBounds(3, 1, dict.fromkeys(CHAIN_CHANNELS, alphabet))
        tree = emission_tree(rng, bounds, 2)
        for s, emissions, _ in walk(tree[0], bounds):
            assert list(emissions) == sorted(_oracle.emission_set(tree, s), key=slice_key)

    @staticmethod
    def parts():
        """A part on q whose two states emit equal sets, a part on p with
        two emissions, and a part on r whose state emits nothing."""
        silent, x = ((),), (("x",),)
        steps = table_machine((), ("q",), ("a0", "a1"), "a0", {"a0": [x], "a1": [x]},
                              {("a0", x, ()): ("a1",), ("a1", x, ()): ("a0",)})
        both = table_machine((), ("p",), ("b",), "b", {"b": [x, silent]},
                             {("b", o, ()): ("b",) for o in (x, silent)})
        mute = table_machine((), ("r",), ("c",), "c", {"c": []}, {})
        return steps, both, mute

    def test_equal_part_emission_sets_share_one_emission_tuple(self):
        b = EnumerationBounds(3, 1, dict.fromkeys("pqr", ("x",)))
        steps, both, mute = self.parts()
        m = compose([steps, both])
        tree = (m, "compose", ((steps, "leaf", (), {}), (both, "leaf", (), {})), {})
        states = [s for s, _, _ in walk(m, b)]
        assert [m.numbering.parts[s] for s in states] == [("a0", "b"), ("a1", "b")]
        assert [m.numbering[parts] for parts in m.numbering.parts] == states == [0, 1]
        first, second = (m.emit(s) for s in states)
        assert first is second
        assert list(first) == sorted(_oracle.emission_set(tree, states[0]), key=slice_key)
        assert first == (((), ("x",)), (("x",), ("x",)))
        hidden = adapt(m, (), ("q",))
        assert hidden.emit(states[0]) is hidden.emit(states[1]) == ((("x",),),)

    def test_a_part_that_emits_nothing_leaves_the_product_nothing(self):
        steps, both, mute = self.parts()
        m = compose([mute, steps, both])
        assert m.emit(m.initial) == ()
        assert adapt(m, (), ("p",)).emit(m.initial) == ()
        assert rename_channels(m, {"r": "s"}).emit(m.initial) == ()


def undeclared(machine):
    """``machine`` rebuilt from its raw emit and advance functions, with no
    declaration: it reads every input."""
    return IntervalTransducer(machine.inputs, machine.outputs, machine.initial,
                              machine._emit_fn, machine._advance_fn,
                              label=machine.label + "?")


class TestReads:
    """A machine declares the inputs it reads: the leaves say so, the
    combinators derive it, ``advance`` shows the machine silence on every
    other input, and remove-input of an unread channel needs no search."""

    # Component reads of every shipped architecture.
    CASE_READS = {
        "every_rule_final.arch": {"G": set(), "PRE": {"In"}, "RDB": {"I", "Key"},
                                  "T": {"Key"}, "W": {"D"}},
        "final.arch": {"PRE2": {"In"}, "RDB2": {"D", "Key"}},
        "original.arch": {"PRE": {"In"}, "RDB": {"I", "Key"}},
        "small_broken_final.arch": {"PRE2": {"In"}, "RDB2": {"D", "Key"}},
        "small_original.arch": {"PRE": {"In"}, "RDB": {"I", "Key"}},
    }

    def test_leaf_forms_declare_what_they_read(self):
        b = tiny_profile(horizon=2)
        raw = IntervalTransducer(("I", "Key"), ("Data",), 0, None, None)
        assert raw.reads == {"I", "Key"}
        assert table_machine(("p", "q"), ("r",), ("s",), "s", {}, {}).reads == {"p", "q"}
        assert chaos(("I", "Key"), ("Data",), b).reads == set()
        assert unit_machine(b).reads == set()
        assert relay_machine("In", "I", b, mode="encode").reads == {"In"}
        assert database_machine(b, store="I", query="Key", answer="Data").reads == {"I", "Key"}
        store = database_machine(b, store="R", query="Key", answer="Data", ignores=("I", "In"))
        assert store.inputs == {"I", "In", "Key", "R"}
        assert store.reads == {"Key", "R"}
        assert IntervalTransducer(("p", "q"), (), 0, None, None, reads=("q",)).reads == {"q"}
        with pytest.raises(InterfaceError, match="reads"):
            IntervalTransducer(("p",), (), 0, None, None, reads=("q",))

    @pytest.mark.parametrize("idx", [(), (1,), (3, 0, 1)])
    def test_picker_gives_the_items_at_its_positions_as_a_tuple(self, idx):
        row = ("a", ("x",), (), "d")
        assert _picker(idx)(row) == tuple(row[k] for k in idx)

    @pytest.mark.parametrize("channels, orders, row, want", [
        # Two orders laid end to end.
        (("c", "a", "d"), (("a", "b"), ("c", "d")), ("A", "B", "C", "D"), ("C", "A", "D")),
        # A channel in both orders is read from the first.
        (("b", "c"), (("a", "b"), ("b", "c")), ("A", "B1", "B2", "C"), ("B1", "C")),
        # A channel no order holds is read from the silent tail.
        (("z", "a"), (("a",),), (("x",), ()), ((), ("x",))),
        (("z",), (("a",),), (("x",), ()), ((),)),
        # One channel gives a 1-tuple, and no channel the empty tuple.
        (("b",), (("a", "b"),), ("A", "B"), ("B",)),
        ((), (("a",), ("b",)), ("A", "B"), ()),
        # A row without the silent tail has none to read from, for one
        # channel as for two.
        (("z",), (("a",),), (("x",),), IndexError),
        (("z", "a"), (("a",),), (("x",),), IndexError),
    ])
    def test_selector_reads_each_channel_from_the_first_order_that_holds_it(
            self, channels, orders, row, want):
        select = _selector(channels, *orders)
        if want is IndexError:
            with pytest.raises(IndexError):
                select(row)
        else:
            assert select(row) == want

    def test_combinators_derive_what_they_read(self):
        b = tiny_profile(horizon=2)
        store = database_machine(b, store="R", query="Key", answer="Data", ignores=("I",))
        assert adapt(store, {"I", "In", "Key", "R"}, {"Data"}).reads == {"Key", "R"}
        assert adapt(store, store.inputs, store.outputs).reads == {"Key", "R"}
        assert drop_input(store, "I").reads == {"Key", "R"}
        assert drop_input(store, "R").reads == {"Key"}
        assert rename_channels(store, {"I": "D", "R": "In"}).reads == {"In", "Key"}
        assert with_free_output(store, "D", b).reads == {"Key", "R"}
        # The decoder writes R, so the product reads D instead.
        dec = relay_machine("D", "R", b, mode="decode")
        assert compose([store, dec]).reads == {"D", "Key"}
        assert compose([store, relay_machine("I", "D", b)]).reads == {"I", "Key", "R"}
        assert compose([store, chaos(("In",), ("D",), b)]).reads == {"Key", "R"}
        assert compose([]).reads == set()

    def test_every_shipped_component_declares_what_it_reads(self):
        assert sorted(p.name for p in CASES.glob("*.arch")) == sorted(self.CASE_READS)
        for name, want in self.CASE_READS.items():
            system = elaborate_architecture(
                parse_architecture((CASES / name).read_text(encoding="utf-8")))
            assert {c.name: c.machine.reads for c in system.components} == want, name
            for comp in system.components:
                assert comp.machine.reads <= comp.inputs, (name, comp.name)

    @pytest.mark.parametrize("name", ["final.arch", "small_broken_final.arch"])
    def test_the_store_without_its_ignored_channel_reads_the_decoded_one(self, name):
        doc = parse_architecture((CASES / name).read_text(encoding="utf-8"))
        system = elaborate_architecture(doc)
        (node,) = [part for part in doc.machines["m_RDB2"].get("of").args
                   if part.form == "drop-input"]
        store = elaborate_machine(node, system.bounds)
        assert store.inputs == store.reads == {"Key", "R"}

    def test_declared_reads_do_not_change_behavior(self):
        """Every layer of random combinator chains, and the store that
        ignores a channel, behaves like its twin that declares nothing."""
        narrower = 0
        for seed in range(120):
            rng = random.Random(seed)
            bounds, pairs = random_chain(rng)
            layers = [m for m, _ in pairs]
            if rng.random() < 0.3:
                extra = [ch for ch in CHAIN_CHANNELS if ch not in layers[-1].outputs]
                free = chaos(rng.sample(extra, rng.randint(0, 2)), (), bounds)
                layers.append(compose([layers[-1], free]))
            for m in layers:
                twin = undeclared(m)
                narrower += m.reads != m.inputs
                assert behavior_equal(m, twin, bounds)[0], (seed, m.label)
                assert behavior_equal(twin, m, bounds)[0], (seed, m.label)
        assert narrower > 50, narrower

        b = tiny_profile(horizon=3)
        store = database_machine(b, store="R", query="Key", answer="Data", ignores=("I",))
        dec = relay_machine("D", "R", b, mode="decode")
        for m in (store, adapt(store, store.inputs | {"In"}, store.outputs),
                  drop_input(store, "R"), rename_channels(store, {"I": "In"}),
                  compose([store, dec])):
            assert m.reads < m.inputs
            twin = undeclared(m)
            assert behavior_equal(m, twin, b)[0], m.label
            assert behavior_equal(twin, m, b)[0], m.label

    @staticmethod
    def reacts_to_p():
        """A machine on inputs p and maybe others that starts writing on o
        once p carries a message, and the log of the input slices its
        advance function saw."""
        seen = []

        def emit_fn(s):
            return [(("x",),)] if s else [((),)]

        def advance_fn(s, o, a):
            seen.append(a)
            return (1 if a[0] else s,)

        return emit_fn, advance_fn, seen

    def test_a_machine_sees_silence_on_a_channel_it_does_not_declare(self):
        # The last two read nothing, over one input (a one-position pick)
        # and over two, so they see only silence.
        for inputs, reads in [(("p", "q"), ("q",)), (("p",), ()), (("p", "q"), ())]:
            self.check_silence_on_unread_inputs(inputs, reads)

    def check_silence_on_unread_inputs(self, inputs, reads):
        b = EnumerationBounds(3, 1, {"p": ("x", "y"), "q": ("x",), "o": ("x",)})
        emit_fn, advance_fn, seen = self.reacts_to_p()
        deaf = IntervalTransducer(inputs, ("o",), 0, emit_fn, advance_fn,
                                  label="deaf", reads=reads)
        emit_fn, advance_fn, heard = self.reacts_to_p()
        hearing = IntervalTransducer(inputs, ("o",), 0, emit_fn, advance_fn,
                                     label="hearing")
        silent = ((),) * len(inputs)
        # A search meets silent p first and then hits the cache; ask for a
        # message on p first instead.
        message_on_p = (("x",),) + silent[1:]
        assert deaf.advance(0, ((),), message_on_p) == (0,)
        assert hearing.advance(0, ((),), message_on_p) == (1,)
        assert seen == [silent]
        assert not behavior_equal(deaf, hearing, b)[0]
        assert {a[0] for a in heard} == {(), ("x",), ("y",)}

        def unread_silent():
            return all(a[k] == () for a in seen
                       for k, ch in enumerate(inputs) if ch not in reads)

        assert unread_silent()
        system = System(frozenset(inputs), frozenset({"o"}), (Component("C", deaf),), b)
        after, report = remove_input_channel(system, "C", "p")
        assert report.ok
        assert [c.detail for c in report.checks if c.check == "input-independent"] == [
            "state transitions never depend on 'p'"]
        assert after.component("C").inputs == set(inputs) - {"p"}
        assert behavior_equal(after.component("C").machine, drop_input(hearing, "p"), b)[0]
        assert unread_silent()

    def test_remove_input_of_an_unread_channel_makes_no_advance_calls(self, monkeypatch):
        b = tiny_profile(horizon=3)
        store = database_machine(b, store="R", query="Key", answer="Data", ignores=("I",))
        system = System(frozenset({"I", "Key", "R"}), frozenset({"Data"}),
                        (Component("RDB", store),), b)
        calls = []
        advance = IntervalTransducer.advance

        def counted(machine, *args):
            calls.append(machine.label)
            return advance(machine, *args)

        monkeypatch.setattr(IntervalTransducer, "advance", counted)
        after, report = remove_input_channel(system, "RDB", "I")
        assert report.ok
        assert after.component("RDB").inputs == {"Key", "R"}
        assert calls == []
