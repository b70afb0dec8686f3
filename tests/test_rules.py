"""The architectural and behavioral rewrite rules."""

import random
import re
import sys
from pathlib import Path

import pytest

from flowrefine import (
    Component,
    DomainError,
    EnumerationBounds,
    InterfaceError,
    IntervalTransducer,
    Invariant,
    PremiseCheck,
    PremiseReport,
    RefinementStep,
    System,
    add_component,
    add_input_channel,
    add_output_channel,
    apply_script,
    apply_step,
    black_box,
    build_original_system,
    chaos,
    check_system_refinement,
    expand_component,
    fold_subsystem,
    refine_component_behavior,
    refine_with_invariant,
    remove_component,
    remove_input_channel,
    remove_output_channel,
    rename_channel,
    systems_equal,
    table_machine,
    tiny_profile,
    true_invariant,
)

sys.path.insert(0, str(Path(__file__).parent))
from _generators import (  # noqa: E402
    accepted_steps,
    random_machine,
    random_system,
    restriction_of,
)


def bounds():
    return EnumerationBounds(
        2, 1, {"a": ("x",), "b": ("x",), "c": ("x",), "g": ("x",), "h": ("x",)})


def copier(src, dst, b):
    ivs = tuple(b.intervals(src))
    return table_machine(
        (src,), (dst,), ivs, (),
        {s: [(s,)] for s in ivs},
        {(s, (s,), (a,)): (a,) for s in ivs for a in ivs},
        label="copy %s->%s" % (src, dst),
    )


def pipeline():
    b = bounds()
    c1 = Component("C1", copier("a", "b", b))
    c2 = Component("C2", copier("b", "c", b))
    return System(frozenset("a"), frozenset("c"), (c1, c2), b)


def failed_checks(report):
    return {c.check for c in report.failures()}


def mute_store():
    """A machine on the case study's store interface that emits nothing,
    so no run of it lasts one interval."""
    return IntervalTransducer(frozenset(["I", "Key"]), frozenset(["Data"]), "z",
                              lambda state: (), lambda state, out_slice, in_slice: ())


class TestAddRemoveOutput:
    def test_add_fresh_declared_channel(self):
        s = pipeline()
        s2, report = add_output_channel(s, "C1", "g")
        assert report.ok
        assert s2.component("C1").outputs == frozenset(("b", "g"))
        ok, _ = check_system_refinement(s, s2)
        assert ok

    def test_premise_channel_fresh(self):
        s = pipeline()
        s2, report = add_output_channel(s, "C1", "c")
        assert s2 is s
        assert failed_checks(report) == {"channel-fresh"}

    def test_premise_channel_declared(self):
        s = pipeline()
        s2, report = add_output_channel(s, "C1", "zz")
        assert s2 is s
        assert failed_checks(report) == {"channel-declared"}

    def test_unknown_component_raises(self):
        with pytest.raises(DomainError, match="^no component named 'C9'$"):
            add_output_channel(pipeline(), "C9", "g")

    def test_remove_unread_non_output(self):
        s = pipeline()
        s2, _ = add_output_channel(s, "C1", "g")
        s3, report = remove_output_channel(s2, "C1", "g")
        assert report.ok
        assert systems_equal(s3, s)[0]

    def test_remove_rejects_system_output(self):
        s = pipeline()
        s2, report = remove_output_channel(s, "C2", "c")
        assert s2 is s
        assert failed_checks(report) == {"not-system-output"}

    def test_remove_rejects_read_channel(self):
        s = pipeline()
        s2, report = remove_output_channel(s, "C1", "b")
        assert s2 is s
        assert failed_checks(report) == {"not-read"}

    def test_remove_requires_ownership(self):
        with pytest.raises(DomainError):
            remove_output_channel(pipeline(), "C1", "c")


class TestAddRemoveInput:
    def test_add_available_channel(self):
        s = pipeline()
        s2, report = add_input_channel(s, "C2", "a")
        assert report.ok
        assert s2.component("C2").inputs == frozenset(("a", "b"))
        ok, _ = check_system_refinement(s, s2)
        assert ok

    def test_premise_channel_available(self):
        s = pipeline()
        s2, report = add_input_channel(s, "C1", "g")
        assert s2 is s
        assert failed_checks(report) == {"channel-available"}

    def test_premise_not_already_read(self):
        s = pipeline()
        s2, report = add_input_channel(s, "C2", "b")
        assert s2 is s
        assert failed_checks(report) == {"not-already-read"}

    def test_remove_ignored_input(self):
        s = pipeline()
        s2, _ = add_input_channel(s, "C2", "a")
        s3, report = remove_input_channel(s2, "C2", "a")
        assert report.ok
        assert systems_equal(s3, s)[0]

    def test_remove_load_bearing_input_rejected(self):
        s = pipeline()
        s2, report = remove_input_channel(s, "C2", "b")
        assert s2 is s
        checks = failed_checks(report)
        assert checks == {"input-independent"}
        (check,) = report.failures()
        cex = check.counterexample
        assert cex is not None and cex.inputs != cex.inputs_b

    def test_remove_requires_membership(self):
        with pytest.raises(DomainError):
            remove_input_channel(pipeline(), "C2", "a")


class TestAddRemoveComponent:
    def test_add_then_remove_is_identity(self):
        s = pipeline()
        s2, report = add_component(s, "IDLE")
        assert report.ok
        assert "IDLE" in s2.component_names()
        assert s2.component("IDLE").machine.outputs == frozenset()
        s3, report = remove_component(s2, "IDLE")
        assert report.ok
        assert systems_equal(s3, s)[0]

    def test_name_fresh_premise(self):
        s = pipeline()
        s2, report = add_component(s, "C1")
        assert s2 is s
        assert failed_checks(report) == {"name-fresh"}

    def test_remove_rejects_writers(self):
        s = pipeline()
        s2, report = remove_component(s, "C1")
        assert s2 is s
        assert failed_checks(report) == {"no-outputs"}

    def test_remove_unknown_raises(self):
        with pytest.raises(DomainError, match="^no component named 'C9'$"):
            remove_component(pipeline(), "C9")


class TestRefineBehavior:
    def test_equal_machine_accepted(self):
        s = pipeline()
        again = copier("b", "c", s.bounds)
        s2, report = refine_component_behavior(s, "C2", again)
        assert report.ok
        assert systems_equal(s2, s)[0]

    def test_restriction_accepted(self):
        b = EnumerationBounds(2, 1, {"a": ("x", "y"), "b": ("x", "y")})
        m = random_machine(random.Random(3), ("a",), ("b",), b, label="m")
        comp = Component("C", m)
        s = System(frozenset("a"), frozenset("b"), (comp,), b)
        s2, report = refine_component_behavior(s, "C", restriction_of(m, 3))
        assert report.ok
        ok, _ = check_system_refinement(s, s2)
        assert ok

    def test_widening_rejected(self):
        s = pipeline()
        s2, report = refine_component_behavior(
            s, "C2", chaos(("b",), ("c",), s.bounds))
        assert s2 is s
        assert failed_checks(report) == {"replacement-included"}
        (check,) = report.failures()
        assert check.counterexample is not None

    def test_interface_must_match(self):
        s = pipeline()
        with pytest.raises(InterfaceError):
            refine_component_behavior(s, "C2", copier("a", "c", s.bounds))

    def test_replacement_without_emissions_rejected(self):
        s = build_original_system(tiny_profile())
        s2, report = refine_component_behavior(s, "RDB", mute_store())
        assert not report.ok
        assert s2 is s


class TestRefineWithInvariant:
    def test_true_invariant_degenerates_to_plain_refinement(self):
        s = pipeline()
        wide = chaos(("b",), ("c",), s.bounds)
        sunk, plain = refine_component_behavior(s, "C2", wide)
        sinv, under = refine_with_invariant(s, "C2", wide, true_invariant())
        assert sunk is s and sinv is s
        assert (not plain.ok) and (not under.ok)
        narrow = copier("b", "c", s.bounds)
        _, plain = refine_component_behavior(s, "C2", narrow)
        s2, under = refine_with_invariant(s, "C2", narrow, true_invariant())
        assert plain.ok and under.ok
        assert systems_equal(s2, s)[0]

    def test_unreachable_histories_may_differ(self):
        """C1 never lets two messages through back to back, so a C2
        replacement that misbehaves only on such inputs is admissible."""
        b = EnumerationBounds(3, 1, {"a": ("x",), "b": ("x",), "c": ("x",)})
        both = (((),), (("x",),))
        gate = table_machine(
            ("a",), ("b",), ("open", "shut"), "open",
            {"open": [((),), (("x",),)], "shut": [((),)]},
            {("open", ((),), i): ("open",) for i in both}
            | {("open", (("x",),), i): ("shut",) for i in both}
            | {("shut", ((),), i): ("open",) for i in both},
            label="gate",
        )
        c1 = Component("C1", gate)
        c2 = Component("C2", copier("b", "c", b))
        s = System(frozenset("a"), frozenset("c"), (c1, c2), b)

        def spaced(history):
            ivs = history.as_dict()["b"].intervals
            return not any(ivs[i] and ivs[i + 1] for i in range(len(ivs) - 1))

        inv = Invariant("spaced-b", ("b",), spaced)
        # Copies with one step of delay, but a second message hard on the
        # heels of the first knocks it out for good.
        grump = table_machine(
            ("b",), ("c",), ("empty", "hold", "dead"), "empty",
            {"empty": [((),)], "hold": [(("x",),)], "dead": [((),)]},
            {("empty", ((),), ((),)): ("empty",),
             ("empty", ((),), (("x",),)): ("hold",),
             ("hold", (("x",),), ((),)): ("empty",),
             ("hold", (("x",),), (("x",),)): ("dead",),
             ("dead", ((),), ((),)): ("dead",),
             ("dead", ((),), (("x",),)): ("dead",)},
            label="grump",
        )
        s2, plain = refine_component_behavior(s, "C2", grump)
        assert s2 is s and not plain.ok
        s3, under = refine_with_invariant(s, "C2", grump, inv)
        assert under.ok, under.render()
        ok, cex = check_system_refinement(s, s3)
        assert ok, cex and cex.render()

    def test_unsatisfiable_invariant_rejected(self):
        s = pipeline()
        never = Invariant("never", ("b",), lambda h: False)
        s2, report = refine_with_invariant(
            s, "C2", copier("b", "c", s.bounds), never)
        assert s2 is s
        assert "invariant-env-compatible" in failed_checks(report)

    def test_invalid_invariant_rejected_with_witness(self):
        s = pipeline()
        quiet_late = Invariant(
            "b-quiet-at-1", ("b",),
            lambda h: h.as_dict()["b"].intervals[1] == ())
        s2, report = refine_with_invariant(
            s, "C2", copier("b", "c", s.bounds), quiet_late)
        assert s2 is s
        assert "invariant-valid" in failed_checks(report)
        (check,) = report.failures()
        assert check.counterexample is not None
        assert check.counterexample.run is not None


class TestExpandAndFold:
    def test_fold_then_expand_round_trip(self):
        s = pipeline()
        folded, report = fold_subsystem(s, ("C1", "C2"), ("a",), ("c",), "BOX")
        assert report.ok
        assert folded.component_names() == ("BOX",)
        assert folded.channels() == frozenset(("a", "c"))
        assert systems_equal(folded, s)[0]

        expanded, report = expand_component(folded, "BOX", s)
        assert report.ok
        assert set(expanded.component_names()) == {"C1", "C2"}
        assert systems_equal(expanded, s)[0]

    def test_fold_premises(self):
        s = pipeline()
        _, report = fold_subsystem(s, ("C1", "C9"), ("a",), ("c",), "BOX")
        assert "components-known" in failed_checks(report)
        _, report = fold_subsystem(s, ("C2",), (), ("c",), "BOX")
        assert "inputs-cover-reads" in failed_checks(report)
        _, report = fold_subsystem(s, ("C1",), ("a",), (), "BOX")
        assert "outputs-cover-observed" in failed_checks(report)
        _, report = fold_subsystem(s, ("C2",), ("b",), ("c",), "C1")
        assert "name-fresh" in failed_checks(report)
        _, report = fold_subsystem(s, ("C1", "C2"), ("a",), ("c", "g"), "BOX")
        assert "outputs-written" in failed_checks(report)

    def test_fold_may_reuse_a_folded_away_name(self):
        s = pipeline()
        folded, report = fold_subsystem(s, ("C1", "C2"), ("a",), ("c",), "C1")
        assert report.ok
        assert folded.component_names() == ("C1",)
        assert systems_equal(folded, s)[0]

    def test_expand_premises(self):
        s = pipeline()
        folded, _ = fold_subsystem(s, ("C1", "C2"), ("a",), ("c",), "BOX")
        wrong_iface = System(
            frozenset("a"), frozenset("b"), (s.components[0],), s.bounds)
        _, report = expand_component(folded, "BOX", wrong_iface)
        assert "interface-matches" in failed_checks(report)

        part = fold_subsystem(s, ("C2",), ("b",), ("c",), "BOX")[0]
        clash_comp = Component("C1", copier("b", "c", s.bounds))
        clash = System(frozenset("b"), frozenset("c"), (clash_comp,), s.bounds)
        _, report = expand_component(part, "BOX", clash)
        assert "names-disjoint" in failed_checks(report)

        wild = System(
            frozenset("a"), frozenset("c"),
            (Component("W", chaos(("a",), ("c",), s.bounds)),),
            s.bounds)
        _, report = expand_component(folded, "BOX", wild)
        assert "behavior-matches" in failed_checks(report)

    def test_expand_internal_channels_must_be_fresh(self):
        s = pipeline()
        folded, _ = fold_subsystem(s, ("C2",), ("b",), ("c",), "BOX")
        via_b = System(
            frozenset("b"), frozenset("c"),
            (Component("X1", copier("b", "a", s.bounds)),
             Component("X2", copier("a", "c", s.bounds))),
            s.bounds)
        _, report = expand_component(folded, "BOX", via_b)
        assert "internal-channels-fresh" in failed_checks(report)

    def test_expansion_without_lasting_runs_rejected(self):
        """``behavior-matches`` is inclusion both ways, so an expansion
        keeps each input's set of output words, nonempty where the
        component's is."""
        s = build_original_system(tiny_profile())
        mute = System(frozenset(["I", "Key"]), frozenset(["Data"]),
                      (Component("T", mute_store()),), s.bounds)
        s2, report = expand_component(s, "RDB", mute)
        assert failed_checks(report) == {"behavior-matches"}
        assert s2 is s


class TestRename:
    def test_rename_internal_channel(self):
        s = pipeline()
        s2, report = rename_channel(s, "b", "h")
        assert report.ok
        assert s2.channels() == frozenset(("a", "c", "h"))
        assert s2.component("C1").outputs == frozenset("h")
        assert s2.component("C2").inputs == frozenset("h")
        assert systems_equal(s2, s)[0]

    def test_rename_back_restores_the_system(self):
        s = pipeline()
        s2, _ = rename_channel(s, "b", "h")
        s3, report = rename_channel(s2, "h", "b")
        assert report.ok
        assert systems_equal(s3, s)[0]

    def test_rename_premises(self):
        s = pipeline()
        _, report = rename_channel(s, "zz", "g")
        assert "old-known" in failed_checks(report)
        _, report = rename_channel(s, "a", "g")
        assert "old-internal" in failed_checks(report)
        _, report = rename_channel(s, "b", "c")
        assert "new-fresh" in failed_checks(report)
        b2 = EnumerationBounds(2, 1, {"a": ("x",), "b": ("x",), "c": ("x",),
                                      "g": ("x", "y"), "h": ("x",)})
        c1 = Component("C1", copier("a", "b", b2))
        c2 = Component("C2", copier("b", "c", b2))
        sw = System(frozenset("a"), frozenset("c"), (c1, c2), b2)
        _, report = rename_channel(sw, "b", "g")
        assert "alphabet-compatible" in failed_checks(report)


class TestCheckSystemRefinement:
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP D1: a system with no runs to the horizon "
                              "refines anything")
    def test_system_without_lasting_runs_does_not_refine(self):
        s = build_original_system(tiny_profile())
        mute = System(s.inputs, s.outputs, tuple(
            Component("RDB", mute_store()) if c.name == "RDB" else c for c in s.components),
            s.bounds)
        ok, _ = check_system_refinement(s, mute)
        assert not ok

    def test_interface_mismatch_raises(self):
        s = pipeline()
        narrowed = System(s.inputs, frozenset("b"),
                          (s.components[0],), s.bounds)
        with pytest.raises(InterfaceError):
            check_system_refinement(s, narrowed)

    def test_detects_new_behavior(self):
        s = pipeline()
        wild = Component("C2", chaos(("b",), ("c",), s.bounds))
        s2 = System(s.inputs, s.outputs, (s.components[0], wild), s.bounds)
        ok, cex = check_system_refinement(s, s2)
        assert not ok
        assert cex.output not in {
            y for y in _behaviors(s, cex.inputs)}
        # systems_equal checks right-in-left first, then left-in-right.
        assert not systems_equal(s, s2)[0]
        assert not systems_equal(s2, s)[0]

    def test_bounds_override(self):
        s = pipeline()
        tight = EnumerationBounds(1, 1, s.bounds.alphabets())
        ok, _ = check_system_refinement(s, s, tight)
        assert ok

    @pytest.mark.parametrize("horizon, burst", [(3, 1), (2, 2)])
    def test_different_declared_bounds_raise(self, horizon, burst):
        s = pipeline()
        b = s.bounds
        other = System(s.inputs, s.outputs, s.components,
                       EnumerationBounds(horizon, burst, b.alphabets()))
        pairs = "(%d, %d) vs (%d, %d)" % (b.horizon, b.burst, horizon, burst)
        with pytest.raises(InterfaceError, match=re.escape(pairs)):
            check_system_refinement(s, other)
        with pytest.raises(InterfaceError):
            systems_equal(other, s)
        assert check_system_refinement(s, other, b)[0]


    def test_different_interface_alphabets_raise(self):
        s = pipeline()
        other = System(s.inputs, s.outputs, s.components,
                       EnumerationBounds(2, 1, dict(s.bounds.alphabets(), a=("x", "y"))))
        with pytest.raises(InterfaceError, match=r"^systems disagree on the alphabet of "
                                                 r"interface channel 'a'$"):
            check_system_refinement(s, other)


def _behaviors(system, env):
    from flowrefine import behavior_of
    return behavior_of(black_box(system), env, system.bounds)


class TestStepsAndScripts:
    def test_step_validates_rule_name(self):
        with pytest.raises(ValueError):
            RefinementStep("widen", {})

    def test_step_validates_parameter_names(self):
        # The same check and wording as a script step's, which
        # tests/test_cli.py pins through the CLI.
        with pytest.raises(ValueError,
                           match=r"^rule 'add-output' takes channel, component; got component$"):
            RefinementStep("add-output", {"component": "C1"})
        with pytest.raises(ValueError):
            RefinementStep("add-output",
                           {"component": "C1", "channel": "g", "extra": 1})

    def test_apply_step_matches_direct_call(self):
        s = pipeline()
        direct, _ = add_output_channel(s, "C1", "g")
        stepped, report = apply_step(
            s, RefinementStep("add-output", {"component": "C1", "channel": "g"}))
        assert report.ok
        assert systems_equal(direct, stepped)[0]

    def test_script_runs_to_completion(self):
        s = pipeline()
        script = [
            RefinementStep("add-output", {"component": "C1", "channel": "g"}),
            RefinementStep("add-input", {"component": "C2", "channel": "g"}),
            RefinementStep("remove-input", {"component": "C2", "channel": "g"}),
            RefinementStep("remove-output", {"component": "C1", "channel": "g"}),
        ]
        result = apply_script(s, script)
        assert result.ok
        assert result.failed_index is None
        assert len(result.reports) == 4
        assert systems_equal(result.system, s)[0]
        ok, _ = check_system_refinement(s, result.system)
        assert ok

    def test_script_stops_at_first_failure(self):
        s = pipeline()
        script = [
            RefinementStep("add-output", {"component": "C1", "channel": "g"}),
            RefinementStep("add-output", {"component": "C1", "channel": "c"}),
            RefinementStep("add-output", {"component": "C1", "channel": "h"}),
        ]
        result = apply_script(s, script)
        assert not result.ok
        assert result.failed_index == 1
        assert len(result.reports) == 2
        assert result.system.component("C1").outputs == frozenset(("b", "g"))

    def test_script_of_functions_stops_at_the_first_failed_report(self):
        """A step is any function from a system to (system, report); the
        system a failed step returns is not kept."""
        s = pipeline()
        seen = []

        def failing(system):
            seen.append(system)
            return pipeline(), PremiseReport("fails", (PremiseCheck("premise", False),))

        def unreachable(system):
            raise AssertionError("a step after the failed one ran")

        result = apply_script(s, [
            RefinementStep("add-output", {"component": "C1", "channel": "g"}),
            failing,
            unreachable,
        ])
        assert (result.ok, result.failed_index, len(result.reports)) == (False, 1, 2)
        assert result.system is seen[0]
        assert result.system.component("C1").outputs == frozenset(("b", "g"))


class TestRandomizedSoundness:
    def test_accepted_chains_refine_transitively(self):
        rng = random.Random(42)
        for _ in range(6):
            start = random_system(rng)
            systems = accepted_steps(rng, start, 3)
            assert systems[0] is start and len(systems) == 4
            ok, cex = check_system_refinement(systems[0], systems[-1])
            assert ok, cex and cex.render()
