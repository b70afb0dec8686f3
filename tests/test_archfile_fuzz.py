"""A fuzz of the architecture format.

Seeded mutations of the shipped architecture files, plus lines assembled
from the format's own words, must either be rejected with a
:class:`FlowError` or load into a system whose rendering is a fixed point:
parsing and elaborating the rendered text and rendering it again gives
the same bytes.  Scripts, with each step's parameters elaborated as
``apply-script`` elaborates them, and environments must likewise fail
only with a ``FlowError``.  Runs are derandomized so that every run
tries the same inputs; each crash the fuzz once found is pinned as an
``@example``.
"""

import re
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowrefine.archfile import (
    elaborate_architecture,
    elaborate_step,
    parse_architecture,
    parse_env,
    parse_script,
    render_architecture,
)
from flowrefine.errors import FlowError

CASES = Path(__file__).resolve().parent.parent / "cases"
SEEDS = tuple(
    (CASES / name).read_text(encoding="utf-8")
    for name in ("small_original.arch", "final.arch", "every_rule_final.arch")
)
SCRIPT_SEEDS = tuple(
    (CASES / name).read_text(encoding="utf-8")
    for name in ("refine.script", "every_rule.script")
)
ENV_SEED = (CASES / "simulate_env.txt").read_text(encoding="utf-8")

WORDS = (
    "bounds", "alphabet", "inputs", "outputs", "machine", "component", "step",
    "stream", "(", ")", "=", "#", "\n", "horizon=2", "horizon=0", "burst=1",
    "burst=x", "reads=", "reads=In", "writes=I,D", "machine=m_PRE", "machine=(",
    "(relay", "(database", "(chaos", "(adapt", "(compose", "(drop-input",
    "(with-free-output", "(rename", "(table", "(emit", "(next", "(system",
    "(lag-prefix", "(always-true)", "of=", "of=m_PRE", "of=(", "from=In", "to=I",
    "map=encode", "map=bogus", "modulus=0", "modulus=2", "store=I", "query=Key",
    "answer=Data", "decode=maybe", "ignores=I", "inputs=In", "outputs=D",
    "channel=I", "map=I:J", "map=I", "initial=s", "s", "t", "[a.0]", "[]", "-",
    "[a.0]|[]", "[a.0", "a.0", "In", "I", "D", "Key", "Data", "m_PRE", "m_RDB",
    "m_T", "add-input", "component=RDB", "channel=R", "name=X", "component=",
    "components=", "name=", "old=", "inputs=", "subsystem=(", "invariant=(",
    "(component", "(alphabet", "source=", "target=", "new=",
)

EDITS = st.lists(
    st.tuples(st.integers(0, 1 << 16), st.sampled_from(("insert", "delete", "replace")),
              st.sampled_from(WORDS)),
    max_size=6,
)


def mutate(text, edits):
    """Apply token-level edits; whitespace runs count as tokens, so lines
    can be joined, split and re-indented."""
    tokens = re.split(r"(\s+)", text)
    for at, op, word in edits:
        k = at % (len(tokens) + 1)
        if op == "insert" or k == len(tokens):
            tokens.insert(k, word)
        elif op == "delete":
            del tokens[k]
        else:
            tokens[k] = word
    return "".join(tokens)


def load(text):
    return elaborate_architecture(parse_architecture(text))


HEAD = "bounds horizon=2 burst=1\nalphabet I a.0\nalphabet O a.0\n"
WIRED = "\ncomponent C reads=I writes=O machine=m\n"


# Forms where a name belongs.  Each raised a TypeError or AttributeError
# before, except the last two: a form as a machine name was accepted, and
# one as a relay's source gave a message that printed the form's repr.
@example(HEAD + "inputs (always-true)\n", [])
@example(HEAD + "outputs (always-true)\n", [])
@example(HEAD + "alphabet J a.0 (always-true)\nmachine m (relay from=J to=O map=encode)"
         "\ncomponent C reads=J writes=O machine=m\n", [])
@example(HEAD + "machine (always-true) (chaos)\n", [])
@example(HEAD + "machine m (relay from=(always-true) to=O map=encode)" + WIRED, [])
@example(HEAD + "machine m (table inputs=I outputs=O initial=s (emit (chaos) [a.0]))"
         + WIRED, [])
@example(HEAD + "machine m (table inputs=I outputs=O initial=s (next s [a.0] [] (chaos)))"
         + WIRED, [])
@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.sampled_from(SEEDS), EDITS)
def test_architecture_round_trip_or_flow_error(seed, edits):
    text = mutate(seed, edits)
    try:
        rendered = render_architecture(load(text))
    except FlowError:
        return
    assert render_architecture(load(rendered)) == rendered


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(WORDS), max_size=20))
def test_assembled_architecture_round_trip_or_flow_error(words):
    text = "bounds horizon=2 burst=1\nalphabet I a.0\n" + " ".join(words)
    try:
        rendered = render_architecture(load(text))
    except FlowError:
        return
    assert render_architecture(load(rendered)) == rendered


@example("step fold components=(chaos) inputs=In outputs=D name=X\n", [])
@example("step refine-invariant component=RDB machine=(chaos) "
         "invariant=(lag-prefix source=(chaos) target=R)\n", [])
@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(SCRIPT_SEEDS), EDITS)
def test_scripts_fail_only_with_flow_error(seed, edits):
    bounds = load(SEEDS[1]).bounds
    try:
        for spec in parse_script(mutate(seed, edits)):
            elaborate_step(spec, bounds)
    except FlowError:
        pass


@example("stream (always-true) []\nstream In []\n", [])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.just(ENV_SEED), EDITS)
def test_environments_fail_only_with_flow_error(seed, edits):
    try:
        parse_env(mutate(seed, edits))
    except FlowError:
        pass
