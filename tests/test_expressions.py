"""Machines record the expressions they denote, and systems render from them.

A rendered system, parsed and elaborated again, must render to the same
text and have the same bounded black box as the system it came from.  The
constructors record their expressions in canonical form, so a machine's
expression does not depend on the order its parts or rows were given in.
"""

import random
import sys
from pathlib import Path

import pytest

from flowrefine import (
    EnumerationBounds,
    FlowError,
    build_original_system,
    chaos,
    compose,
    rename_channels,
    run_case_study,
    systems_equal,
    table_machine,
    tiny_profile,
)
from flowrefine.behaviors import render_machine
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


BITS = EnumerationBounds(2, 1, {ch: ("x",) for ch in ("a", "a.b", "b", "c")})
SILENT, LOUD = ((),), (("x",),)


def test_table_expression_does_not_depend_on_row_order():
    emit = {"s1": [LOUD], "s0": [LOUD, SILENT]}
    advance = {(s, o, i): ("s1", "s0", "s1") if i == LOUD else ("s0",)
               for s, options in emit.items() for o in options for i in (LOUD, SILENT)}
    forward = table_machine(("a",), ("b",), ("s1", "s0"), "s0", emit, advance)
    backward = table_machine(
        ("a",), ("b",), ("s0", "s1"), "s0",
        {s: options[::-1] for s, options in reversed(emit.items())},
        {key: succ[::-1] for key, succ in reversed(advance.items())})
    text = render_machine(forward.expr)
    assert render_machine(backward.expr) == text
    assert text == "(table\n  %s)" % "\n  ".join((
        "inputs=a", "outputs=b", "initial=s0",
        "(emit s0 [] [x])", "(emit s1 [x])",
        "(next s0 [] [] s0)", "(next s0 [] [x] s0 s1)",
        "(next s0 [x] [] s0)", "(next s0 [x] [x] s0 s1)",
        "(next s1 [x] [] s0)", "(next s1 [x] [x] s0 s1)"))


def test_compose_expression_does_not_depend_on_part_order():
    reader = chaos(("a",), ("b",), BITS)
    source = chaos((), ("c",), BITS)
    assert source.expr.kwargs == (("outputs", "c"),)
    assert compose([reader, source]).expr == compose([source, reader]).expr


def test_rename_map_is_written_in_string_order():
    """``("a", "x") < ("a.b", "y")`` as pairs, but ``"a.b:y" < "a:x"``."""
    renamed = rename_channels(chaos(("a", "a.b"), ("c",), BITS), {"a": "x", "a.b": "y"})
    assert renamed.expr.get("map") == "a.b:y,a:x"
