"""Machines record the expressions they denote, and systems render from them.

A rendered system, parsed and elaborated again, must render to the same
text and have the same bounded black box as the system it came from.  The
constructors record their expressions in canonical form, so a machine's
expression does not depend on the order its parts or rows were given in.
Each form is declared once, and the same declaration drives recording and
parsing: every declared form round-trips, and an undeclared key is an error.
"""

import ast
import random
import re
import sys
from pathlib import Path

import pytest

from flowrefine import (
    Component,
    EnumerationBounds,
    FlowError,
    IntervalTransducer,
    Invariant,
    ParseError,
    System,
    apply_script,
    build_original_system,
    case_study_steps,
    chaos,
    compose,
    rename_channels,
    systems_equal,
    table_machine,
    tiny_profile,
)
from flowrefine import archfile
from flowrefine.behaviors import INVARIANT_FORMS, MACHINE_FORMS, render_machine
from flowrefine.archfile import (
    elaborate_architecture,
    elaborate_invariant,
    elaborate_machine,
    parse_architecture,
    render_architecture,
)

sys.path.insert(0, str(Path(__file__).parent))
from _generators import accepted_steps, random_machine, random_system  # noqa: E402

CASES = Path(__file__).parent.parent / "cases"


def rendered_systems(seed, starts, steps):
    """Random systems and the systems along accepted rule chains from them,
    keeping those whose every machine has an expression.  Machines from
    ``restriction_of`` and ``dying_at`` are raw functions, so the systems
    holding one are left out."""
    rng = random.Random(seed)
    for _ in range(starts):
        for system in accepted_steps(rng, random_system(rng), steps):
            if all(c.machine.expr is not None for c in system.components):
                yield system


def partial_systems(seed, count):
    """Random systems whose machines are partial tables: some states emit
    nothing, and some emissions and inputs have no successor."""
    rng = random.Random(seed)
    for _ in range(count):
        system = random_system(rng)
        yield System(system.inputs, system.outputs, tuple(
            Component(c.name,
                      random_machine(rng, c.inputs, c.outputs, system.bounds, partial=True))
            for c in system.components), system.bounds)


def round_trips(systems):
    """Render each system, parse and elaborate the text, and check that it
    renders the same and has the same black box; return the texts."""
    texts = []
    for system in systems:
        text = render_architecture(system)
        rebuilt = elaborate_architecture(parse_architecture(text))
        assert render_architecture(rebuilt) == text
        ok, cex = systems_equal(rebuilt, system)
        assert ok, (text, cex)
        texts.append(text)
    return texts


def test_render_parse_elaborate_is_a_fixed_point_with_the_same_black_box():
    assert len(round_trips(rendered_systems(91005, starts=30, steps=3))) >= 60


def test_partial_tables_round_trip():
    """A state with no emission, and an emission and input with no
    successor, are written as rows that end early, and parse back."""
    texts = "".join(round_trips(partial_systems(91006, count=40)))
    assert re.search(r"\(emit s\d\)", texts)
    assert re.search(r"\(next s\d (\[[^ ]*\]|-) (\[[^ ]*\]|-)\)", texts)


def test_original_built_through_the_api_renders_to_the_golden():
    original = build_original_system(tiny_profile())
    assert render_architecture(original) == (CASES / "original.arch").read_text(encoding="utf-8")


def test_case_study_built_through_the_api_renders_to_the_golden():
    _, steps = zip(*case_study_steps(tiny_profile()))
    final = apply_script(build_original_system(tiny_profile()), steps).system
    assert render_architecture(final) == (CASES / "final.arch").read_text(encoding="utf-8")


def test_machine_without_an_expression_is_not_rendered():
    original = build_original_system(tiny_profile())
    raw = IntervalTransducer(("I", "Key"), ("Data",), 0,
                             lambda s: [(("nil",),)], lambda s, o, i: [0])
    assert raw.expr is None
    rdb = Component("RDB", raw)
    system = System(original.inputs, original.outputs,
                    (original.component("PRE"), rdb), original.bounds)
    with pytest.raises(FlowError, match="component RDB"):
        render_architecture(system)


@pytest.mark.parametrize("kind, word", [
    ("message", "x y"), ("message", "x#y"), ("message", 1), ("message", "x,y"),
    ("channel", "a,b"), ("component", "C(1)"), ("channel", "c:d"),
])
def test_word_that_would_not_read_back_is_not_rendered(kind, word):
    """Each word would read back as other words, or not at all."""
    channel = word if kind == "channel" else "a"
    name = word if kind == "component" else "C"
    bounds = EnumerationBounds(2, 1, {channel: (word if kind == "message" else "x", "z")})
    system = System(frozenset(), frozenset([channel]),
                    (Component(name, chaos((), (channel,), bounds)),), bounds)
    with pytest.raises(FlowError, match=r"^%s %s " % (kind, re.escape(repr(word)))):
        render_architecture(system)


BITS = EnumerationBounds(2, 1, {ch: ("x",) for ch in ("a", "a.b", "b", "c")})
SILENT, LOUD = ((),), (("x",),)


def _one_table_system(state):
    """A system whose one component is a table over ``state`` alone."""
    table = table_machine((), ("a",), [state], state, {state: [LOUD]},
                          {(state, LOUD, ()): [state]})
    return System(frozenset(), frozenset("a"), (Component("C", table),), BITS)


@pytest.mark.parametrize("state", ["s 0", "s(0", "s=0", "s#", ("t",)])
def test_table_state_that_would_not_read_back_is_not_rendered(state):
    """A table writes each state as a word of its rows; each of these would
    read back as other words, as a key, or not at all."""
    with pytest.raises(FlowError, match=r"^state %s .*, so it would not read back$"
                       % re.escape(repr(str(state)))):
        render_architecture(_one_table_system(state))


@pytest.mark.parametrize("state", ["s,0", "s|0", "[s]", "[s=0", 0])
def test_table_state_that_reads_back_is_rendered(state):
    text = render_architecture(_one_table_system(state))
    assert render_architecture(elaborate_architecture(parse_architecture(text))) == text


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


IDENTITY_LAYERS = """\
bounds horizon=2 burst=1
alphabet D a
alphabet E a
alphabet In a
inputs In
outputs D E

machine m_A (adapt
  of=(chaos inputs=In outputs=D)
  inputs=In
  outputs=D)
machine m_B (rename
  of=(chaos outputs=E)
  map=E:E)

component A reads=In writes=D machine=m_A
component B writes=E machine=m_B
"""


def test_identity_adapt_and_rename_read_back_as_written_with_their_labels():
    """An ``adapt`` or ``rename`` that changes no channel still builds its
    own layer: it renders as written and carries its component's name."""
    system = elaborate_architecture(parse_architecture(IDENTITY_LAYERS))
    assert render_architecture(system) == IDENTITY_LAYERS
    assert [c.machine.label for c in system.components] == ["A", "B"]


# One sample per declared form, written as it renders, with every key.
HEAD = "bounds horizon=2 burst=1\n" + "".join(
    "alphabet %s %s\n" % (ch, " ".join(msgs)) for ch, msgs in (
        ("D", ("a.0", "a.1")), ("Data", ("0", "nil")), ("I", ("a.0", "a.1")),
        ("In", ("a.0", "a.1")), ("Key", ("a",)), ("R", ("a.0", "a.1"))))
MACHINE_SAMPLES = {
    "chaos": "(chaos inputs=In outputs=D)",
    "relay": "(relay from=In to=I map=encode modulus=2)",
    "database": "(database store=I query=Key answer=Data decode=yes modulus=2 ignores=R)",
    "adapt": "(adapt\n  of=(relay from=In to=I map=copy modulus=2)\n  inputs=In,Key\n"
             "  outputs=I)",
    "drop-input": "(drop-input\n  of=(chaos inputs=In,Key outputs=D)\n  channel=Key)",
    "with-free-output": "(with-free-output\n  of=(chaos inputs=In outputs=D)\n  channel=R)",
    "rename": "(rename\n  of=(chaos inputs=In outputs=D)\n  map=D:R,In:I)",
    "compose": "(compose\n  (chaos outputs=D)\n  (relay from=D to=R map=copy modulus=2))",
    "table": "(table\n  inputs=In\n  outputs=D\n  initial=s\n  (emit s [] [a.1])\n  (emit t)\n"
             "  (next s [] [] s t)\n  (next s [a.1] [a.0]))",
}
INVARIANT_SAMPLES = {
    "always-true": "(always-true)",
    "lag-prefix": "(lag-prefix source=I target=R)",
}


def parse_node(sample):
    doc = parse_architecture(HEAD + "machine m %s\n" % sample)
    return doc.machines["m"], elaborate_architecture(doc).bounds


def test_every_form_has_a_sample():
    assert set(MACHINE_SAMPLES) == set(MACHINE_FORMS)
    assert set(INVARIANT_SAMPLES) == set(INVARIANT_FORMS)


@pytest.mark.parametrize("name", sorted(MACHINE_FORMS))
def test_machine_form_renders_parses_and_renders_again(name):
    node, bounds = parse_node(MACHINE_SAMPLES[name])
    assert {key for key, _ in node.kwargs} == {key.name for key in MACHINE_FORMS[name].keys}
    machine = elaborate_machine(node, bounds)
    assert render_machine(machine.expr) == MACHINE_SAMPLES[name]


@pytest.mark.parametrize("name", sorted(INVARIANT_FORMS))
def test_invariant_form_elaborates(name):
    node, _ = parse_node(INVARIANT_SAMPLES[name])
    assert {key for key, _ in node.kwargs} == {key.name for key in INVARIANT_FORMS[name].keys}
    assert isinstance(elaborate_invariant(node), Invariant)


@pytest.mark.parametrize("name", sorted(MACHINE_FORMS))
def test_undeclared_key_or_item_is_a_parse_error(name):
    sample = MACHINE_SAMPLES[name]
    node, bounds = parse_node(sample[:-1] + " bogus=1)")
    with pytest.raises(ParseError, match=r"^line 8: form %r takes no bogus=\.\.\.$" % name):
        elaborate_machine(node, bounds)
    if MACHINE_FORMS[name].items is None:
        node, bounds = parse_node(sample[:-1] + " stray)")
        with pytest.raises(ParseError, match=r"^line 8: form %r takes no 'stray'$" % name):
            elaborate_machine(node, bounds)


def test_readme_lists_every_form_with_its_declared_keys():
    """Each row of the README's form table writes the form's keys in
    declared order, with the optional ones in brackets."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    written = {}
    for synopsis in re.findall(r"^\| `\(([^`]*)\)` \|", readme, re.M):
        name, *words = synopsis.split()
        written[name] = [(word.strip("[]").partition("=")[0], not word.startswith("["))
                         for word in words if "=" in word]
    assert written == {name: [(key.name, key.required) for key in form.keys]
                       for name, form in MACHINE_FORMS.items()}


def test_readme_python_examples_run_as_written():
    """The README's two complete Python blocks, the API tour and then the
    rendering snippet, run in one namespace, and the snippet writes the
    bytes of ``cases/final.arch`` as its comment says."""
    root = Path(__file__).parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    tour, render = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)[:2]
    namespace = {}
    exec(tour, namespace)
    exec(render, namespace)
    assert namespace["text"] == (root / "cases" / "final.arch").read_text(encoding="utf-8")


def test_archfile_imports_nothing_from_the_case_study():
    tree = ast.parse(Path(archfile.__file__).read_text(encoding="utf-8"))
    modules = [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    modules += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    assert modules and not [m for m in modules if "case_study" in m]
