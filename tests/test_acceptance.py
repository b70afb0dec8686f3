"""End-to-end acceptance checks.

Each test pins one headline guarantee of the package, with a wall-clock
budget where the guarantee includes one.  Run with ``pytest -v
tests/test_acceptance.py`` to get one pass/fail line per criterion.
"""

import itertools
import random
import sys
import time
from pathlib import Path

from flowrefine import (
    Component,
    EnumerationBounds,
    System,
    add_component,
    add_input_channel,
    add_output_channel,
    apply_script,
    apply_step,
    build_original_system,
    case_study_steps,
    chaos,
    check_system_refinement,
    delta,
    delta_star,
    remove_component,
    remove_input_channel,
    remove_output_channel,
    rho,
    rho_star,
    systems_equal,
    tiny_profile,
    validate_system,
)
from flowrefine.cli import main

sys.path.insert(0, str(Path(__file__).parent))
from _generators import (  # noqa: E402
    ARCHITECTURAL_RULES,
    accepted_steps,
    random_step,
    random_system,
)
from _oracle import brute_force_relation, package_relation  # noqa: E402

CASES = Path(__file__).parent.parent / "cases"


def test_criterion_1_consistency_conditions():
    """Five single-defect systems are each flagged with exactly the
    condition they violate, and the starting database pipeline passes."""
    t0 = time.monotonic()
    b = EnumerationBounds(
        2, 1, {"a": ("x",), "b": ("x",), "c": ("x",), "g": ("x",)})

    def comp(name, reads, writes):
        return Component(name, chaos(tuple(reads), tuple(writes), b))

    broken = {
        "unique-component-names": System(
            frozenset("a"), frozenset("b"),
            (comp("C", "a", "b"), comp("C", "a", "c")), b),
        "single-writer": System(
            frozenset("a"), frozenset("b"),
            (comp("C1", "a", "b"), comp("C2", "a", "b")), b),
        "inputs-not-written": System(
            frozenset(("a", "b")), frozenset("b"),
            (comp("C1", "a", "b"),), b),
        "inputs-connected": System(
            frozenset("a"), frozenset("b"),
            (comp("C1", "g", "b"),), b),
        "outputs-component-controlled": System(
            frozenset("a"), frozenset("c"),
            (comp("C1", "a", "b"),), b),
    }
    for expected, system in broken.items():
        report = validate_system(system)
        assert not report.ok
        assert {c.check for c in report.failures()} == {expected}

    assert validate_system(build_original_system(tiny_profile())).ok
    assert time.monotonic() - t0 < 1.0


def test_criterion_2_codec_laws():
    """Difference coding round-trips: pointwise over every (old, new) pair
    and sequence-wise from every one-key store state, honoring budgets."""
    t0 = time.monotonic()
    for old in (None, 0, 1, 2):
        for new in range(3):
            assert rho(old, delta(old, new), 3) == new

    tables = [{}, {"a": 0}, {"a": 1}, {"a": 2}]
    words = [tuple(("a", v) for v in word)
             for n in range(6)
             for word in itertools.product(range(3), repeat=n)]
    assert len(words) == 364
    for table in tables:
        for xs in words:
            assert rho_star(delta_star(xs, table=table), table=table) == xs
    assert time.monotonic() - t0 < 10.0


def test_criterion_3_blackbox_matches_brute_force():
    """On 100 random architectures the composed black-box relation equals
    an independent brute-force enumeration of mutually consistent runs."""
    t0 = time.monotonic()
    rng = random.Random(31001)
    profiles = [dict(horizon=2, max_channels=4)] * 50
    profiles += [dict(horizon=3, max_channels=3)] * 50
    for i, profile in enumerate(profiles):
        system = random_system(rng, **profile)
        assert package_relation(system) == brute_force_relation(system), i
    assert time.monotonic() - t0 < 300.0


def test_criterion_4_rule_soundness():
    """Across at least 500 random rule applications, every accepted step
    yields a bounded refinement, and accepted architectural steps leave the
    black box exactly unchanged."""
    t0 = time.monotonic()
    rng = random.Random(44002)
    proposals = accepted = 0
    while proposals < 500:
        system = random_system(rng)
        step = random_step(rng, system)
        if step is None:
            continue
        proposals += 1
        after, report = apply_step(system, step)
        if not report.ok:
            assert after is system
            continue
        accepted += 1
        ok, cex = check_system_refinement(system, after)
        assert ok, (step.rule, cex and cex.render())
        if step.rule in ARCHITECTURAL_RULES:
            equal, note = systems_equal(system, after)
            assert equal, (step.rule, note)
    assert accepted >= 250, accepted
    assert time.monotonic() - t0 < 600.0


def test_criterion_5_complementary_rules():
    """Adding and then removing an output, an input, or a component gets
    back a system with exactly the original black-box behavior."""
    rng = random.Random(55003)

    done = 0
    while done < 100:
        s0 = random_system(rng)
        comp = rng.choice(s0.component_names())
        s1, r1 = add_output_channel(s0, comp, "sp0")
        assert r1.ok
        s2, r2 = remove_output_channel(s1, comp, "sp0")
        assert r2.ok
        assert systems_equal(s0, s2)[0]
        done += 1

    done = 0
    while done < 100:
        s0 = random_system(rng)
        options = [
            (c.name, ch)
            for c in s0.components
            for ch in sorted((s0.inputs | s0.component_outputs()) - c.inputs)
        ]
        if not options:
            continue
        comp, ch = rng.choice(options)
        s1, r1 = add_input_channel(s0, comp, ch)
        assert r1.ok
        s2, r2 = remove_input_channel(s1, comp, ch)
        assert r2.ok, r2.render()
        assert systems_equal(s0, s2)[0]
        done += 1

    done = 0
    while done < 100:
        s0 = random_system(rng)
        s1, r1 = add_component(s0, "FRESH")
        assert r1.ok
        s2, r2 = remove_component(s1, "FRESH")
        assert r2.ok
        assert systems_equal(s0, s2)[0]
        done += 1


def test_criterion_6_case_study():
    """The full delta-encoding pipeline runs to completion and its result
    refines the original; sabotaging the decoder is caught at the store
    swap with a concrete violating run."""
    t0 = time.monotonic()
    original = build_original_system(tiny_profile())
    _, steps = zip(*case_study_steps(tiny_profile()))
    result = apply_script(original, steps)
    assert result.ok
    assert check_system_refinement(original, result.system)[0]
    assert len(result.reports) == 13
    assert set(result.system.component_names()) == {"PRE2", "RDB2"}

    labels, steps = zip(*case_study_steps(tiny_profile(horizon=5), broken_dec=True))
    mutated = apply_script(build_original_system(tiny_profile(horizon=5)), steps)
    assert not mutated.ok
    assert labels[mutated.failed_index] == "6 store from decoded channel"
    (check,) = mutated.reports[-1].failures()
    assert check.check == "invariant-valid"
    assert check.counterexample is not None
    assert check.counterexample.run is not None
    assert time.monotonic() - t0 < 300.0


def test_criterion_7_transitive_chains():
    """Chains of accepted steps compose: the end system refines the start
    system directly, not just step by step."""
    rng = random.Random(77004)
    for _ in range(25):
        start = random_system(rng)
        s0, s1, s2 = accepted_steps(rng, start, 2)
        assert check_system_refinement(s0, s1)[0]
        assert check_system_refinement(s1, s2)[0]
        assert check_system_refinement(s0, s2)[0]


def test_criterion_8_cli_script_golden(tmp_path, capsys):
    """Replaying the shipped refinement script reproduces the shipped final
    architecture byte for byte, and the result checks as a refinement."""
    produced = tmp_path / "final.arch"
    code = main(["apply-script", str(CASES / "original.arch"),
                 str(CASES / "refine.script"), "--output", str(produced)])
    capsys.readouterr()
    assert code == 0
    assert produced.read_bytes() == (CASES / "final.arch").read_bytes()

    code = main(["check-refine", str(CASES / "original.arch"), str(produced)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "refines: yes\n"
