"""Every way a rule's premise can fail, pinned byte for byte.

One case per way each premise of every rule can fail, two for a premise
with two faults.  Each asserts that the rule stops at that premise,
returns the input system object itself, and renders exactly the pinned
report (``goldens/rule_failures.json``).  The stdout goldens of
``apply-script`` on the shipped scripts pin the passing reports; the few
passing details no shipped script reaches are pinned here.

After a deliberate change of report text, regenerate the pinned reports
with ``PYTHONPATH=src python tests/test_rule_reports.py``.
"""

import json
import sys
from pathlib import Path

import pytest

from flowrefine import (
    RULES,
    Component,
    EnumerationBounds,
    Invariant,
    System,
    add_component,
    add_input_channel,
    add_output_channel,
    chaos,
    expand_component,
    fold_subsystem,
    refine_component_behavior,
    refine_with_invariant,
    remove_component,
    remove_input_channel,
    remove_output_channel,
    rename_channel,
    table_machine,
    true_invariant,
)

sys.path.insert(0, str(Path(__file__).parent))
from test_rules import copier, pipeline  # noqa: E402

GOLDEN = Path(__file__).parent / "goldens" / "rule_failures.json"


def _cases() -> dict:
    """Case id ``rule/premise[/branch]`` -> (rule, system, arguments)."""
    s = pipeline()
    b = s.bounds
    wide = chaos(("b",), ("c",), b)
    same = copier("b", "c", b)
    quiet_late = Invariant(
        "b-quiet-at-1", ("b",), lambda h: h.as_dict()["b"].intervals[1] == ())

    folded = fold_subsystem(s, ("C1", "C2"), ("a",), ("c",), "BOX")[0]
    part = fold_subsystem(s, ("C2",), ("b",), ("c",), "BOX")[0]
    with_g = add_output_channel(s, "C1", "g")[0]
    part_g = fold_subsystem(with_g, ("C2",), ("b",), ("c",), "BOX")[0]

    def sub(inputs, outputs, *parts, bounds=b):
        comps = tuple(Component(name, copier(src, dst, bounds))
                      for name, src, dst in parts)
        return System(frozenset(inputs), frozenset(outputs), comps, bounds)

    b3 = EnumerationBounds(3, 1, b.alphabets())
    wild = System(frozenset("a"), frozenset("c"),
                  (Component("W", chaos(("a",), ("c",), b)),), b)
    b_gy = EnumerationBounds(2, 1, dict(b.alphabets(), g=("x", "y")))
    s_gy = System(frozenset("a"), frozenset("c"),
                  tuple(Component(c.name, copier(*sorted(c.inputs | c.outputs), b_gy))
                        for c in s.components), b_gy)

    return {
        "refine-behavior/replacement-included":
            (refine_component_behavior, s, ("C2", wide)),
        "refine-invariant/invariant-channels":
            (refine_with_invariant, s,
             ("C2", same, Invariant("zz-any", ("zz",), lambda h: True))),
        "refine-invariant/invariant-env-compatible":
            (refine_with_invariant, s,
             ("C2", same, Invariant("never", ("b",), lambda h: False))),
        "refine-invariant/invariant-valid":
            (refine_with_invariant, s, ("C2", same, quiet_late)),
        "refine-invariant/replacement-included-under-invariant":
            (refine_with_invariant, s, ("C2", wide, true_invariant())),
        "add-output/channel-declared": (add_output_channel, s, ("C1", "zz")),
        "add-output/channel-fresh": (add_output_channel, s, ("C1", "c")),
        "remove-output/not-system-output": (remove_output_channel, s, ("C2", "c")),
        "remove-output/not-read": (remove_output_channel, s, ("C1", "b")),
        "add-input/channel-available": (add_input_channel, s, ("C1", "g")),
        "add-input/not-already-read": (add_input_channel, s, ("C2", "b")),
        "remove-input/input-independent": (remove_input_channel, s, ("C2", "b")),
        "add-component/name-fresh": (add_component, s, ("C1",)),
        "remove-component/no-outputs": (remove_component, s, ("C1",)),
        "expand/bounds-compatible":
            (expand_component, folded, ("BOX", sub("a", "c", ("X", "a", "c"), bounds=b3))),
        "expand/subsystem-consistent":
            (expand_component, folded, ("BOX", sub("a", "c", ("X", "g", "c")))),
        "expand/interface-matches":
            (expand_component, folded, ("BOX", sub("a", "b", ("C1", "a", "b")))),
        "expand/names-disjoint":
            (expand_component, part, ("BOX", sub("b", "c", ("C1", "b", "c")))),
        "expand/internal-channels-fresh/overlap":
            (expand_component, part_g,
             ("BOX", sub("b", "c", ("Y1", "b", "g"), ("Y2", "g", "c")))),
        "expand/internal-channels-fresh/capture":
            (expand_component, part,
             ("BOX", sub("b", "c", ("X1", "b", "a"), ("X2", "a", "c")))),
        "expand/behavior-matches": (expand_component, folded, ("BOX", wild)),
        "fold/components-known":
            (fold_subsystem, s, (("C1", "C9"), ("a",), ("c",), "BOX")),
        "fold/inputs-cover-reads": (fold_subsystem, s, (("C2",), (), ("c",), "BOX")),
        "fold/inputs-available":
            (fold_subsystem, s, (("C2",), ("b", "zz"), ("c",), "BOX")),
        "fold/outputs-cover-observed": (fold_subsystem, s, (("C1",), ("a",), (), "BOX")),
        "fold/outputs-written":
            (fold_subsystem, s, (("C1", "C2"), ("a",), ("c", "g"), "BOX")),
        "fold/name-fresh": (fold_subsystem, s, (("C2",), ("b",), ("c",), "C1")),
        "fold/group-consistent":
            (fold_subsystem, s, (("C1", "C2"), ("a", "b"), ("c",), "BOX")),
        "rename/old-known": (rename_channel, s, ("zz", "g")),
        "rename/old-internal": (rename_channel, s, ("a", "g")),
        "rename/new-fresh": (rename_channel, s, ("b", "c")),
        "rename/alphabet-compatible": (rename_channel, s_gy, ("b", "g")),
    }


CASES = _cases()


def _rendered(case: str) -> str:
    rule, system, args = CASES[case]
    return rule(system, *args)[1].render()


def test_every_rule_has_its_failures_pinned():
    assert {case.split("/")[0] for case in CASES} == set(RULES)
    assert sorted(CASES) == sorted(json.loads(GOLDEN.read_text(encoding="utf-8")))


@pytest.mark.parametrize("case", sorted(CASES))
def test_failed_premise_returns_the_input_system(case):
    rule, system, args = CASES[case]
    result, report = rule(system, *args)
    assert result is system
    assert not report.ok
    assert report.checks[-1].check == case.split("/")[1]
    assert [c.passed for c in report.checks[:-1]] == [True] * (len(report.checks) - 1)
    assert report.render() == json.loads(GOLDEN.read_text(encoding="utf-8"))[case]


def _passing() -> dict:
    """Case id ``rule/premise`` -> (rule, system, arguments, report), for
    the passing details no shipped script reaches."""
    s = pipeline()
    b = s.bounds
    c1, _ = s.components
    ivs = tuple(b.intervals("b"))
    # C2 reading a too, through a table that ignores it: only the
    # behavioral check tells.
    deaf = table_machine(("a", "b"), ("c",), ivs, (), {x: [(x,)] for x in ivs},
                         {(x, (x,), (a, y)): (y,)
                          for x in ivs for a in b.intervals("a") for y in ivs})
    s_deaf = System(s.inputs, s.outputs,
                    (c1, Component("C2", deaf)), b)
    return {
        "remove-component/no-outputs":
            (remove_component, add_component(s, "X")[0], ("X",),
             "remove-component X\n  [pass] no-outputs: X writes nothing"),
        "remove-input/input-independent":
            (remove_input_channel, s_deaf, ("C2", "a"),
             "remove-input a from C2\n  [pass] input-independent: "
             "output sets agree across all contents of 'a'"),
    }


PASSING = _passing()


@pytest.mark.parametrize("case", sorted(PASSING))
def test_passing_detail_no_script_reaches(case):
    rule, system, args, rendered = PASSING[case]
    result, report = rule(system, *args)
    assert report.ok and result is not system
    assert report.render() == rendered


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({case: _rendered(case) for case in sorted(CASES)}, indent=1) + "\n",
        encoding="utf-8")
