"""Machines record the expressions they denote, and systems render from them.

A rendered system, parsed and elaborated again, must render to the same
text and have the same bounded black box as the system it came from.
"""

import random
import sys
from pathlib import Path

import pytest

from flowrefine import (
    FlowError,
    build_original_system,
    run_case_study,
    systems_equal,
    tiny_profile,
)
from flowrefine.archfile import elaborate_architecture, parse_architecture, render_architecture

sys.path.insert(0, str(Path(__file__).parent))
from _generators import accepted_steps, random_system  # noqa: E402

CASES = Path(__file__).parent.parent / "cases"


def rendered_systems(seed, starts, steps):
    """Random systems and the systems along accepted rule chains from them,
    keeping those whose every machine has an expression.  The generators
    build total machines only: the text format cannot write an empty emit
    set.  Machines from ``restriction_of`` and ``dying_at`` are raw
    functions, so the systems holding one are left out."""
    rng = random.Random(seed)
    for _ in range(starts):
        for system in accepted_steps(rng, random_system(rng), steps):
            if all(c.machine.expr is not None for c in system.components):
                yield system


def test_render_parse_elaborate_is_a_fixed_point_with_the_same_black_box():
    checked = 0
    for system in rendered_systems(91005, starts=30, steps=3):
        text = render_architecture(system)
        rebuilt = elaborate_architecture(parse_architecture(text))
        assert render_architecture(rebuilt) == text
        ok, cex = systems_equal(rebuilt, system)
        assert ok, (text, cex)
        checked += 1
    assert checked >= 60


def test_case_study_built_through_the_api_renders_to_the_golden():
    final = run_case_study(check_final=False).final
    assert render_architecture(final) == (CASES / "final.arch").read_text(encoding="utf-8")


def test_machine_without_an_expression_is_not_rendered():
    system = build_original_system(tiny_profile(), answer_map=lambda value: value)
    assert system.component("RDB").machine.expr is None
    with pytest.raises(FlowError, match="component RDB"):
        render_architecture(system)
