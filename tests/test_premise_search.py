"""The invariant premises of refine-invariant against brute-force oracles.

``_included_under_invariant`` decides inclusion with one guarded product
search, ``_invariant_env_compatible`` searches the same guard's states
over the support channels of the environment, and
``_invariant_holds_on_runs`` explores (network state, monitor state)
pairs.  All three are compared
here with plain enumeration of histories (``_oracle``) on seeded random
cases that include partial machines, invariants whose support reaches
channels the component does not read, and invariants that are not
prefix-monotone.  Each premise is exercised both with an invariant that
has no monitor (the search keys on support histories) and with
``lag_prefix_invariant`` (the search keys on its pending-lag monitor);
``_invariant_holds_on_runs`` also with a message count whose monitor's
holding states are ``None``, ``0``, ``()`` and ``False``.
``_invariant_holds_on_runs`` searches the invariant's cone first; it is
also compared with the search over the whole network, without the cone
(``_oracle.canonical_violation``), for the very same counterexamples.

The premise of remove-input, decided by an equivalence check, is compared
the same way with every stream of the removed channel.

The inclusion search's last-interval shortcut for a spec proven total is
compared with the same search on that spec without its proof.
"""

import random
import sys
from pathlib import Path

from flowrefine import (
    Component,
    EnumerationBounds,
    InputGuard,
    IntervalTransducer,
    Invariant,
    Monitor,
    System,
    adapt,
    apply_script,
    black_box,
    build_original_system,
    case_study_steps,
    chaos,
    database_machine,
    lag_prefix_invariant,
    refine_with_invariant,
    refines_behavior,
    system_runs,
    table_machine,
    tiny_profile,
    true_invariant,
    validate_transducer,
)
from flowrefine import rules
from flowrefine.archfile import elaborate_architecture, parse_architecture
from flowrefine.behaviors import _completion, _count_intervals, explore, total_on
from flowrefine.rules import (
    _behaviorally_independent,
    _included_under_invariant,
    _invariant_env_compatible,
    _invariant_holds_on_runs,
    _state_level_independent,
)
from flowrefine.system import _product, backward_cone

sys.path.insert(0, str(Path(__file__).parent))
from _generators import (  # noqa: E402
    dying_at,
    quiet_invariant,
    random_fact_chain,
    random_invariant,
    random_machine,
    random_system,
    restriction_of,
)
import _oracle  # noqa: E402

CASES = 400
CASES_DIR = Path(__file__).resolve().parent.parent / "cases"


def lag_between(rng, pool):
    """``lag_prefix_invariant`` on a random ordered pair of channels."""
    source, target = rng.sample(sorted(pool), 2)
    return lag_prefix_invariant(source, target)


def random_case(seed):
    """A component interface, an original machine, a replacement and an
    invariant over channels the component may or may not read."""
    rng = random.Random(seed)
    horizon = rng.choice((2, 3))
    alphabets = {ch: ("x", "y")[: rng.randint(1, 2)] for ch in ("k0", "k1", "o", "sp0")}
    bounds = EnumerationBounds(horizon, 1, alphabets)
    inputs = tuple(sorted(rng.sample(("k0", "k1"), rng.randint(1, 2))))
    original = random_machine(rng, inputs, ("o",), bounds, label="orig",
                              partial=rng.random() < 0.4)
    kind = rng.choice(("restriction", "random", "partial", "dying"))
    if kind == "restriction":
        replacement = restriction_of(original, seed)
    else:
        replacement = random_machine(rng, inputs, ("o",), bounds, label="repl",
                                     partial=kind == "partial")
        if kind == "dying":
            replacement = dying_at(replacement, rng.choice((horizon - 1, 0)), seed)
    if rng.random() < 0.1:
        invariant = true_invariant()
    else:
        invariant = random_invariant(rng, ["k0", "k1", "sp0"])
    return bounds, original, replacement, invariant, kind


def assert_replays(invariant, replacement, original, bounds, cex):
    """The counterexample's input is permitted, the replacement produces
    its output there, and the original cannot."""
    x, y = cex.inputs, cex.output
    assert set(x.channels) == set(original.inputs)
    assert _oracle.satisfiable_with(invariant, x, bounds)
    word = _oracle.slice_word(x, original.in_order, bounds.horizon)
    out = _oracle.slice_word(y, original.out_order, bounds.horizon)
    assert out in _oracle.output_words(replacement, word)
    assert out not in _oracle.output_words(original, word)


def test_guarded_search_matches_enumeration():
    seen = {"fails": 0, "holds": 0, "guard-decides": 0, "not-read": 0,
            "not-monotone": 0, "partial-fails": 0, "dying-at-end": 0,
            "lag-fails": 0, "lag-holds": 0, "lag-guard-decides": 0,
            "lag-not-read-fails": 0, "lag-not-read-holds": 0}
    for seed in range(CASES):
        bounds, original, replacement, invariant, kind = random_case(seed)
        ok, cex, nodes = _included_under_invariant(invariant, replacement, original, bounds)
        want, _ = _oracle.included_under_invariant(invariant, replacement, original, bounds)
        assert ok == want, (seed, invariant.name, kind)
        assert nodes >= 1
        if ok:
            seen["holds"] += 1
            assert cex is None
        else:
            seen["fails"] += 1
            assert_replays(invariant, replacement, original, bounds, cex)
            assert cex.note.endswith("on an input satisfying %s" % invariant.name)
            if kind in ("partial", "dying"):
                seen["partial-fails"] += 1
        plain, plain_cex = refines_behavior(replacement, original, bounds)
        plain_want, _ = _oracle.included_under_invariant(
            true_invariant(), replacement, original, bounds)
        assert plain == plain_want, (seed, kind)
        if not plain:
            assert_replays(true_invariant(), replacement, original, bounds, plain_cex)
        seen["guard-decides"] += ok and not plain
        seen["not-read"] += any(ch not in original.inputs for ch in invariant.channels)
        seen["not-monotone"] += bool(invariant.channels) and not invariant.prefix_monotone
        seen["dying-at-end"] += kind == "dying"
        # The same case under the lag monitor, whose guard keeps a set of
        # monitor states when the component does not read the whole support.
        lag = lag_between(random.Random(-1 - seed), ["k0", "k1", "sp0"])
        ok, cex, _ = _included_under_invariant(lag, replacement, original, bounds)
        want, _ = _oracle.included_under_invariant(lag, replacement, original, bounds)
        assert ok == want, (seed, lag.name, kind)
        if not ok:
            assert_replays(lag, replacement, original, bounds, cex)
        seen["lag-holds" if ok else "lag-fails"] += 1
        seen["lag-guard-decides"] += ok and not plain
        if any(ch not in original.inputs for ch in lag.channels):
            seen["lag-not-read-holds" if ok else "lag-not-read-fails"] += 1
    assert all(seen.values()), seen


def test_env_compatible_matches_enumeration():
    failures = 0
    lag_seen = {"fails": 0, "holds": 0, "free-channel": 0}
    for seed in range(60):
        rng = random.Random(seed)
        system = random_system(rng, horizon=2)
        pool = sorted(system.inputs | system.component_outputs())
        invariant = random_invariant(rng, pool)
        ok, cex, count = _invariant_env_compatible(system, invariant)
        want, env = _oracle.env_compatible(system, invariant)
        assert ok == want, (seed, invariant.name)
        assert count == system.bounds.count_tuples(sorted(system.inputs))
        if not ok:
            failures += 1
            assert cex.inputs == env
        if len(pool) < 2:
            continue
        lag = lag_between(random.Random(-1 - seed), pool)
        ok, cex, _ = _invariant_env_compatible(system, lag)
        want, env = _oracle.env_compatible(system, lag)
        assert ok == want, (seed, lag.name)
        if not ok:
            assert cex.inputs == env
        lag_seen["holds" if ok else "fails"] += 1
        lag_seen["free-channel"] += any(ch not in system.inputs for ch in lag.channels)
    assert failures
    assert all(lag_seen.values()), lag_seen


def with_partial_machines(rng, system, seed):
    """``system`` with some machines swapped for partial ones, on the same
    wiring: random partial tables, or the original dying at some step."""
    comps = []
    for comp in system.components:
        machine = comp.machine
        kind = rng.choice(("total", "partial", "dying"))
        if kind == "partial":
            machine = random_machine(rng, sorted(comp.inputs), sorted(comp.outputs),
                                     system.bounds, label=comp.name, partial=True)
        elif kind == "dying":
            machine = dying_at(machine, rng.randrange(system.bounds.horizon), seed)
        comps.append(Component(comp.name, machine))
    return System(system.inputs, system.outputs, tuple(comps), system.bounds)


def count_invariant(support, monotone):
    """An invariant on the number of messages on ``support`` whose monitor
    gives holding prefixes the states ``None``, ``()`` and ``0`` or
    ``False`` (equal values, for equal counts): values a search must not
    take for a marker of its own.  The prefix-monotone form allows at most
    two messages, the other any count but 3 modulo 4."""
    counts = {None: 0, (): 1, 0: 2}

    def step(state, slc):
        n = counts.get(state, 3) + sum(map(len, slc))
        n = min(n, 3) if monotone else n % 4
        return (None, (), False if any(slc) else 0, "three")[n]

    def predicate(history):
        n = sum(len(iv) for ch in history.channels for iv in history[ch].intervals)
        return n <= 2 if monotone else n % 4 != 3

    return Invariant("count-%s" % ("monotone" if monotone else "mod-4"), support, predicate,
                     prefix_monotone=monotone,
                     monitor=Monitor(None, step, lambda state: state != "three"))


def invariant_valid_cases():
    """``(seed, system, partial, path, invariant)`` for the invariant-valid
    tests: random systems, half of them with partial or dying machines,
    each with a random invariant, where it has two channels a lag
    invariant over them, and a message count whose monitor states are
    ``None``, ``0``, ``()`` and ``False``.  The last seeds are at horizon
    4, so that the witness search has two layers before the one it decides
    as it builds."""
    for seed in range(132):
        rng = random.Random(seed)
        horizon = rng.choice((2, 3)) if seed < 120 else 4
        system = random_system(rng, horizon=horizon, max_channels=4 if horizon == 2 else 3)
        partial = rng.random() < 0.5
        if partial:
            system = with_partial_machines(rng, system, seed)
        pool = sorted(system.inputs | system.component_outputs())
        invariants = [("word", random_invariant(rng, pool))]
        if len(pool) >= 2:
            invariants.append(("lag", lag_between(rng, pool)))
        support = rng.sample(pool, rng.randint(1, min(2, len(pool))))
        invariants.append(("count", count_invariant(support, monotone=seed % 2 == 0)))
        for path, invariant in invariants:
            yield seed, system, partial, path, invariant


def test_invariant_valid_matches_enumeration():
    seen = {"word-holds": 0, "word-fails": 0, "lag-holds": 0, "lag-fails": 0,
            "count-holds": 0, "count-fails": 0,
            "partial-holds": 0, "partial-fails": 0, "not-monotone": 0}
    for seed, system, partial, path, invariant in invariant_valid_cases():
        ok, cex, _ = _invariant_holds_on_runs(system, invariant)
        want, _ = _oracle.invariant_holds_on_runs(system, invariant)
        assert ok == want, (seed, path, invariant.name)
        verdict = "holds" if ok else "fails"
        seen["%s-%s" % (path, verdict)] += 1
        if partial:
            seen["partial-" + verdict] += 1
        seen["not-monotone"] += bool(invariant.channels) and not invariant.prefix_monotone
        if not ok:
            run = cex.run
            assert run in system_runs(system, run.restrict(sorted(system.inputs)))
            assert not invariant.holds(run)
    assert all(seen.values()), seen


def blocks(machine, bounds) -> bool:
    """Whether some state the machine reaches within the horizon, under
    any in-bounds input, has no emission, or an emission and an input
    with no successor."""
    report = validate_transducer(machine, bounds)
    return any(not c.passed for c in report.checks
               if c.check in ("emit-nonempty", "advance-nonempty"))


def assert_same_as_full_search(system, invariant):
    """The cone-first premise gives the unpruned full search's verdict and
    rendered counterexample; returns both results."""
    got = _invariant_holds_on_runs(system, invariant)
    want = _oracle.canonical_violation(system, invariant)
    assert got[0] == want[0], invariant.name
    assert (got[1] and got[1].render()) == (want[1] and want[1].render()), invariant.name
    return got, want


class Logged:
    """``machine`` with each ``advance`` call logged."""

    def __init__(self, machine, log):
        self.machine, self.log = machine, log

    def __getattr__(self, attr):
        return getattr(self.machine, attr)

    def advance(self, *args):
        self.log.append(args)
        return self.machine.advance(*args)


class LoggedEmit(Logged):
    """``machine`` with each ``emit`` and ``advance`` call logged."""

    def emit(self, state):
        self.log.append((state,))
        return self.machine.emit(state)


def logged_premise(monkeypatch, system, invariant):
    """The premise's result, the number of networks it composed and the
    number of calls to their ``advance``."""
    networks, calls = [], []

    def logged_product(s):
        networks.append(s)
        return Logged(_product(s), calls)

    with monkeypatch.context() as patch:
        patch.setattr(rules, "_product", logged_product)
        result = _invariant_holds_on_runs(system, invariant)
    return result, len(networks), len(calls)


def test_invariant_valid_cone_matches_the_full_search(monkeypatch):
    """Verdicts and counterexamples equal the unpruned search's on every
    generated case, and so does the pass line's count of monitor states
    unless a component outside the cone can block.  Such a pass is decided
    on the cone alone, without composing the network."""
    seen = dict.fromkeys(("whole", "whole-holds", "empty", "strict", "strict-holds",
                          "strict-fails", "blocking-outside", "counts-compared"), 0)
    for seed, system, _, path, invariant in invariant_valid_cases():
        (ok, _, states), (_, _, want_states) = assert_same_as_full_search(system, invariant)
        cone = backward_cone(system, invariant.channels)
        outside = [c for c in system.components if c not in cone]
        blocking = any(blocks(c.machine, system.bounds) for c in outside)
        if ok and not blocking:
            assert states == want_states, (seed, path, invariant.name)
            _, networks, _ = logged_premise(monkeypatch, system, invariant)
            assert networks == 0, (seed, path, invariant.name)
            seen["counts-compared"] += 1
        if not outside:
            seen["whole"] += 1
            seen["whole-holds"] += ok
        elif not cone:
            seen["empty"] += 1
        else:
            seen["strict"] += 1
            seen["strict-holds" if ok else "strict-fails"] += 1
        seen["blocking-outside"] += blocking
    assert all(seen.values()), seen


def test_failing_case_study_advances_the_network_only_to_complete_the_witness(monkeypatch):
    """With the broken decoder at h=5, the witness search builds each
    successor from the components' own ``advance``; the network's runs once,
    to complete the violating prefix."""
    bounds = tiny_profile(horizon=5)
    labels, steps = zip(*case_study_steps(bounds, broken_dec=True))
    stage = labels.index("6 store from decoded channel")
    before = apply_script(build_original_system(bounds), steps[:stage])
    assert before.ok
    (ok, cex, _), networks, calls = logged_premise(
        monkeypatch, before.system, lag_prefix_invariant("I", "R"))
    assert not ok and cex.run is not None
    assert (networks, calls) == (1, 1)


def test_input_independence_matches_enumeration():
    """Total, partial and dying machines, some built to ignore the channel
    (and then perhaps dying on it); a reported pair must really differ."""
    seen = dict.fromkeys(("total", "partial", "dying", "ignores", "holds", "fails",
                          "state-level"), 0)
    for seed in range(200):
        rng = random.Random(seed)
        horizon = rng.choice((2, 3))
        alphabets = {ch: ("x", "y")[: rng.randint(1, 2)] for ch in ("k0", "k1", "o")}
        bounds = EnumerationBounds(horizon, 1, alphabets)
        inputs = tuple(sorted(rng.sample(("k0", "k1"), rng.randint(1, 2))))
        channel = rng.choice(inputs)
        kind = rng.choice(("total", "partial", "dying", "ignores"))
        others = tuple(ch for ch in inputs if ch != channel)
        if kind == "ignores":
            machine = random_machine(rng, others, ("o",), bounds, partial=rng.random() < 0.4)
            machine = adapt(machine, inputs, ("o",))
        else:
            machine = random_machine(rng, inputs, ("o",), bounds, partial=kind == "partial")
        if kind == "dying" or kind == "ignores" and rng.random() < 0.3:
            machine = dying_at(machine, rng.randrange(horizon), seed)
        ok, cex = _behaviorally_independent(machine, channel, bounds)
        want, _ = _oracle.input_independent(machine, channel, bounds)
        assert ok == want, seed
        if _state_level_independent(machine, channel):
            assert want, seed
            seen["state-level"] += 1
        if not ok:
            x, x_b = cex.inputs, cex.inputs_b
            assert x[channel] == bounds.streams(channel)[0]
            assert x.restrict(others) == x_b.restrict(others) and x != x_b
            words = [_oracle.output_words(machine, _oracle.slice_word(y, inputs, horizon))
                     for y in (x, x_b)]
            assert words[0] != words[1], seed
        seen[kind] += 1
        seen["holds" if ok else "fails"] += 1
    assert all(seen.values()), seen


# A store-like replacement whose single run emits on interval 0, which the
# silent original never does, and then depends on its input to go on.
BITS = EnumerationBounds(3, 1, {"a": ("x",), "b": ("x",)})
SILENT, LOUD = ((),), (("x",),)


def silent_machine():
    return table_machine(("a",), ("b",), ("q",), "q", {"q": [SILENT]},
                         {("q", SILENT, i): ("q",) for i in (SILENT, LOUD)},
                         label="silent")


def speaker(survives_on):
    """Emits a message first, then silence; from interval 1 on it goes on
    only while the input is in ``survives_on``."""
    advance = {("s0", LOUD, i): ("s1",) for i in (SILENT, LOUD)}
    for i in (SILENT, LOUD):
        advance[("s1", SILENT, i)] = ("s1",) if i in survives_on else ()
    return table_machine(("a",), ("b",), ("s0", "s1"), "s0",
                         {"s0": [LOUD], "s1": [SILENT]}, advance, label="speaker")


class TestDeadEnds:
    def test_dead_end_after_interval_one_is_no_behavior(self):
        """Used to crash the witness completion with an IndexError."""
        impl = speaker(survives_on=())
        ok, cex = refines_behavior(impl, silent_machine(), BITS)
        assert ok and cex is None
        want, _ = _oracle.included_under_invariant(
            true_invariant(), impl, silent_machine(), BITS)
        assert want

    def test_completion_picks_an_input_the_run_survives(self):
        impl = speaker(survives_on=(LOUD,))
        ok, cex = refines_behavior(impl, silent_machine(), BITS)
        assert not ok
        assert cex.note == "divergence first possible in interval 0"
        assert cex.inputs["a"].intervals == ((), ("x",), ("x",))
        assert_replays(true_invariant(), impl, silent_machine(), BITS, cex)

    def test_completion_keeps_the_paths_it_finds(self):
        """Asked again from the same states, the completion returns the
        path it found without asking the machine anything."""
        calls = []
        impl = LoggedEmit(speaker(survives_on=(LOUD,)), calls)
        steps = tuple((a, ()) for a in BITS.assignments(impl.in_order))
        complete = _completion(impl, steps, _count_intervals, BITS.horizon)
        first = complete((impl.initial,), 0, 0)
        assert first is not None and len(first) == BITS.horizon and calls
        calls.clear()
        assert complete((impl.initial,), 0, 0) == first
        assert calls == []

    def test_guard_can_leave_no_completion(self):
        """The only inputs the run survives on are not permitted."""
        impl = speaker(survives_on=(LOUD,))
        quiet_a = Invariant("quiet-a", ("a",),
                            lambda h: all(iv == () for iv in h["a"]), prefix_monotone=True)
        ok, cex, _ = _included_under_invariant(quiet_a, impl, silent_machine(), BITS)
        assert ok and cex is None


    def test_unguarded_search_keeps_depths_apart(self):
        """A product node first reached early may complete a divergence
        only from a later depth; the unguarded search must expand it there
        too.  Seeds of a fuzz over partial machines that it once missed."""
        for seed in (125, 475, 693):
            rng = random.Random(seed)
            horizon = rng.choice((3, 4))
            bounds = EnumerationBounds(horizon, 1, {"k0": ("x",), "o": ("x",)})
            spec = random_machine(rng, ("k0",), ("o",), bounds, max_states=3, partial=True)
            impl = random_machine(rng, ("k0",), ("o",), bounds, max_states=3, partial=True)
            plain, _ = assert_matches_oracle(true_invariant(), impl, spec, bounds)
            assert not plain, seed


def last_interval_case(seed):
    """Bounds, a total machine, one of its restrictions and an invariant."""
    rng = random.Random(seed)
    horizon = rng.choice((2, 3))
    alphabets = {ch: ("x", "y")[: rng.randint(1, 2)] for ch in ("k0", "k1", "o", "sp0")}
    bounds = EnumerationBounds(horizon, 1, alphabets)
    inputs = tuple(sorted(rng.sample(("k0", "k1"), rng.randint(1, 2))))
    base = random_machine(rng, inputs, ("o",), bounds, label="base")
    return bounds, base, restriction_of(base, seed), random_invariant(rng, ["k0", "k1", "sp0"])


def assert_matches_oracle(invariant, impl, spec, bounds):
    """Guarded and unguarded verdicts agree with enumeration, and every
    counterexample replays.  Returns the unguarded verdict."""
    ok, cex, _ = _included_under_invariant(invariant, impl, spec, bounds)
    assert ok == _oracle.included_under_invariant(invariant, impl, spec, bounds)[0]
    if not ok:
        assert_replays(invariant, impl, spec, bounds, cex)
    plain, plain_cex = refines_behavior(impl, spec, bounds)
    assert plain == _oracle.included_under_invariant(true_invariant(), impl, spec, bounds)[0]
    if not plain:
        assert_replays(true_invariant(), impl, spec, bounds, plain_cex)
    return plain, plain_cex


class TestLastInterval:
    """The last interval is decided by whether some spec state goes on;
    impl's successors there are computed only to complete a divergence."""

    def test_impl_dying_in_the_last_interval_matches_enumeration(self):
        seen = {"holds": 0, "fails": 0, "saved-by-dying": 0}
        for seed in range(150):
            bounds, base, narrow, invariant = last_interval_case(seed)
            impl = dying_at(base, bounds.horizon - 1, seed)
            plain, _ = assert_matches_oracle(invariant, impl, narrow, bounds)
            seen["holds" if plain else "fails"] += 1
            seen["saved-by-dying"] += plain and not refines_behavior(base, narrow, bounds)[0]
        assert all(seen.values()), seen

    def test_spec_dying_in_the_last_interval_diverges_there(self):
        failures = 0
        for seed in range(150):
            bounds, base, narrow, invariant = last_interval_case(seed)
            spec = dying_at(base, bounds.horizon - 1, seed)
            for impl in (base, narrow):
                plain, cex = assert_matches_oracle(invariant, impl, spec, bounds)
                if not plain:
                    failures += 1
                    assert cex.note == ("divergence first possible in interval %d"
                                        % (bounds.horizon - 1))
        assert failures

    def test_spec_dying_in_the_last_interval_gives_the_canonical_witness(self):
        """The spec stops in interval 2 on a message; the first input, in
        canonical order, that carries one there is silent before it."""
        advance = {}
        for i in (SILENT, LOUD):
            advance[("t0", SILENT, i)] = ("t1",)
            advance[("t1", SILENT, i)] = ("t2",)
        advance[("t2", SILENT, SILENT)] = ("t2",)
        advance[("t2", SILENT, LOUD)] = ()
        spec = table_machine(("a",), ("b",), ("t0", "t1", "t2"), "t0",
                             {t: [SILENT] for t in ("t0", "t1", "t2")}, advance,
                             label="stops-on-x")
        ok, cex = refines_behavior(silent_machine(), spec, BITS)
        assert not ok
        assert cex.note == "divergence first possible in interval 2"
        assert cex.inputs["a"].intervals == ((), (), ("x",))
        assert cex.output["b"].intervals == ((), (), ())
        assert_replays(true_invariant(), silent_machine(), spec, BITS, cex)
        quiet_a = Invariant("quiet-a", ("a",),
                            lambda h: all(iv == () for iv in h["a"]), prefix_monotone=True)
        ok, cex, _ = _included_under_invariant(quiet_a, silent_machine(), spec, BITS)
        assert ok and cex is None


def quiet_until_last():
    """Survives only on silence before interval 2 of ``BITS``, then on
    anything."""
    advance = {}
    for i in (SILENT, LOUD):
        advance[("p0", SILENT, i)] = ("p1",) if i == SILENT else ()
        advance[("p1", SILENT, i)] = ("p2",) if i == SILENT else ()
        advance[("p2", SILENT, i)] = ("p2",)
    return table_machine(("a",), ("b",), ("p0", "p1", "p2"), "p0",
                         {p: [SILENT] for p in ("p0", "p1", "p2")}, advance,
                         label="quiet-until-last")


def silent_spec(on_loud):
    """A silent machine in state t; a message moves it to ``on_loud``."""
    advance = {("t", SILENT, SILENT): ("t",), ("t", SILENT, LOUD): on_loud}
    states = ("t",) + tuple(on_loud)
    advance.update({(u, SILENT, i): ("t",) for u in on_loud for i in (SILENT, LOUD)})
    return table_machine(("a",), ("b",), states, "t", {u: [SILENT] for u in states},
                         advance, label="silent-spec")


class CountingAdvance:
    """A machine that counts the calls of its ``advance``."""

    def __init__(self, machine):
        self.machine = machine
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.machine, name)

    def advance(self, state, out_slice, in_slice):
        self.calls += 1
        return self.machine.advance(state, out_slice, in_slice)


class TestSpecSideMemo:
    """The spec side of a move is computed once per (spec set, emission,
    input), whatever the interval that first asks for it."""

    def test_an_earlier_answer_decides_the_last_interval_alike(self):
        """The spec set {t} is met in every interval, and impl reaches the
        last one only on silence, so each move of the last interval finds
        the spec side its input got in interval 0: a successor set settles
        it, and none leaves a divergence."""
        stats = {}
        ok, cex = refines_behavior(quiet_until_last(), silent_spec(("u",)), BITS, stats=stats)
        assert ok and cex is None
        assert stats["nodes"] == 3
        stats = {}
        ok, cex = refines_behavior(quiet_until_last(), silent_spec(()), BITS, stats=stats)
        assert not ok
        assert cex.note == "divergence first possible in interval 2"
        assert cex.inputs["a"].intervals == ((), (), ("x",))
        assert cex.output["b"].intervals == ((), (), ())
        assert stats["nodes"] == 3
        for spec in (silent_spec(("u",)), silent_spec(())):
            assert_matches_oracle(true_invariant(), quiet_until_last(), spec, BITS)

    def test_refuting_small_pipeline_asks_each_spec_move_once(self):
        """check-refine of small_broken_final.arch at horizon 6.  A spec
        state is asked for its successors once per (spec set, emission,
        input), not once per product node: under 10,000 ``advance`` calls,
        where asking per node takes 96,942.  The last layer is settled as
        it is built, so the search reaches 9,042 nodes: the 1,465 of the
        layers before it, and the 7,577 of it up to the first that fails."""
        original = load_case("small_original.arch", 6)
        spec = CountingAdvance(black_box(original))
        stats = {}
        ok, cex = refines_behavior(black_box(load_case("small_broken_final.arch", 6)), spec,
                                   original.bounds, stats=stats)
        assert not ok
        assert cex.render() == REFUTE_H6
        assert stats["nodes"] == 9042
        assert spec.calls < 10000


def rebuilt(machine, total=None):
    """``machine`` over its cached answers, in their order, reading every
    input and carrying the totality fact ``total``."""
    return IntervalTransducer(machine.inputs, machine.outputs, machine.initial, machine.emit,
                              machine.advance, label=machine.label, total=total,
                              _ordered=True)


def test_total_spec_shortcut_changes_no_answer():
    """A spec proven total settles the last interval without its
    ``advance``.  The verdict, the witness and the node count are those
    of the same spec without the proof, guarded and unguarded, for
    replacements that refine it, that do not, and that are partial or
    die in the last interval."""
    seen = {"holds": 0, "fails": 0, "guarded-holds": 0, "guarded-fails": 0,
            "partial-fails": 0, "dying-fails": 0}
    saved = 0
    for seed in range(150):
        rng = random.Random(seed)
        bounds, layers = random_fact_chain(rng)
        specs = [m for m in layers if total_on(m, bounds) and len(m.inputs) <= 2]
        if not specs:
            continue
        spec = rng.choice(specs)
        kind = rng.choice(("restriction", "random", "partial", "dying"))
        if kind == "restriction":
            impl = restriction_of(spec, seed)
        else:
            impl = random_machine(rng, spec.inputs, spec.outputs, bounds, max_states=2,
                                  partial=kind == "partial")
            if kind == "dying":
                impl = dying_at(impl, bounds.horizon - 1, seed)
        proven, plain = CountingAdvance(spec), CountingAdvance(rebuilt(spec))
        stats, want_stats = {}, {}
        got = refines_behavior(impl, proven, bounds, stats=stats)
        want = refines_behavior(impl, plain, bounds, stats=want_stats)
        assert (got, stats) == (want, want_stats), (seed, kind)
        assert proven.calls <= plain.calls
        saved += plain.calls - proven.calls
        seen["holds" if got[0] else "fails"] += 1
        if kind in ("partial", "dying"):
            seen[kind + "-fails"] += not got[0]
        if spec.inputs:
            invariant = random_invariant(rng, sorted(spec.inputs))
            got = _included_under_invariant(invariant, impl, spec, bounds)
            want = _included_under_invariant(invariant, impl, rebuilt(spec), bounds)
            assert got == want, (seed, kind, invariant.name)
            seen["guarded-holds" if got[0] else "guarded-fails"] += 1
    assert all(seen.values()) and saved, (seen, saved)


def first_message_guard(channel):
    """A guard over ``channel`` that permits every input; its state is
    whether the prefix has carried a message there, so it does not carry
    the depth."""
    return InputGuard((channel,), False, lambda seen, slc: seen or bool(slc[0]))


def test_total_impl_shortcut_changes_no_answer():
    """An impl proven total settles a last-layer node by its emissions,
    the spec set and the guard state alone, without its ``advance``.  The
    verdict, the witness and the node count are those of the same impl
    without the proof: unguarded, under an invariant and under a guard
    whose states do not carry the depth, against specs it refines, that it
    does not, and that are partial or die in the last interval."""
    seen = {"holds": 0, "fails": 0, "guarded-holds": 0, "guarded-fails": 0,
            "partial-fails": 0, "dying-fails": 0, "depthless": 0}
    saved = 0
    for seed in range(150):
        rng = random.Random(seed)
        bounds, layers = random_fact_chain(rng)
        impls = [m for m in layers if total_on(m, bounds) and len(m.inputs) <= 2]
        if not impls:
            continue
        impl = rng.choice(impls)
        kind = rng.choice(("itself", "restriction", "partial", "dying"))
        if kind == "itself":
            spec = impl
        elif kind == "restriction":
            spec = restriction_of(impl, seed)
        elif kind == "partial":
            spec = random_machine(rng, impl.inputs, impl.outputs, bounds, max_states=2,
                                  partial=True)
        else:
            spec = dying_at(impl, bounds.horizon - 1, seed)
        proven, plain = CountingAdvance(impl), CountingAdvance(rebuilt(impl))
        guards = [None]
        if impl.inputs:
            guards.append(first_message_guard(min(impl.inputs)))
        for guard in guards:
            stats, want_stats = {}, {}
            got = refines_behavior(proven, spec, bounds, guard, stats)
            want = refines_behavior(plain, spec, bounds, guard, want_stats)
            assert (got, stats) == (want, want_stats), (seed, kind, guard)
            if guard is not None:
                seen["depthless"] += 1
                continue
            seen["holds" if got[0] else "fails"] += 1
            if kind in ("partial", "dying"):
                seen[kind + "-fails"] += not got[0]
        assert proven.calls <= plain.calls
        saved += plain.calls - proven.calls
        if impl.inputs:
            invariant = random_invariant(rng, sorted(impl.inputs))
            got = _included_under_invariant(invariant, impl, spec, bounds)
            want = _included_under_invariant(invariant, rebuilt(impl), spec, bounds)
            assert got == want, (seed, kind, invariant.name)
            seen["guarded-holds" if got[0] else "guarded-fails"] += 1
    assert all(seen.values()) and saved, (seen, saved)
    # Chaos against itself reaches one node per guard state by depth 1;
    # the last layer it builds holds only those, so it adds no node.
    box = chaos(("a",), ("b",), BITS)
    for impl in (box, rebuilt(box)):
        stats = {}
        assert refines_behavior(impl, box, BITS, first_message_guard("a"), stats) == (True, None)
        assert stats["nodes"] == 2


def test_total_impl_settles_each_spec_set_apart():
    """Chaos's two last-layer nodes share its one state, its emissions and
    the depth, but not their spec sets: the spec dies on a second
    message.  The verdict is kept per spec set, so the second node still
    fails."""
    bounds = EnumerationBounds(2, 1, {"a": ("x",), "b": ("x",)})
    both = [SILENT, LOUD]
    advance = {}
    for o in both:
        advance.update({("p", o, SILENT): ("p",), ("p", o, LOUD): ("q",),
                        ("q", o, SILENT): ("q",), ("q", o, LOUD): ()})
    spec = table_machine(("a",), ("b",), ("p", "q"), "p", {"p": both, "q": both}, advance,
                         label="one-message")
    box = chaos(("a",), ("b",), bounds)
    for impl in (box, rebuilt(box)):
        ok, cex = refines_behavior(impl, spec, bounds)
        assert not ok
        assert cex.inputs["a"].intervals == (("x",), ("x",))
        assert cex.output["b"].intervals == ((), ())
    assert_matches_oracle(true_invariant(), box, spec, bounds)


def test_spec_answers_keyed_on_what_spec_reads_change_no_answer():
    """A spec that reads fewer channels than it has inputs keeps one
    answer per slice it reads.  The verdict, the witness and the node
    count are those against the same spec rebuilt to read every input,
    which asks its ``advance`` at least as often, and both match
    enumeration."""
    cases = []
    for seed in range(40):
        rng = random.Random(seed)
        alphabets = {ch: ("x", "y")[: rng.randint(1, 2)] for ch in ("k0", "k1", "o")}
        bounds = EnumerationBounds(rng.choice((2, 3)), 1, alphabets)
        inner = random_machine(rng, ("k0",), ("o",), bounds, partial=rng.random() < 0.3)
        spec = adapt(inner, ("k0", "k1"), ("o",))
        if rng.random() < 0.5:
            impl = restriction_of(spec, seed)
        else:
            impl = random_machine(rng, ("k0", "k1"), ("o",), bounds, max_states=2,
                                  partial=rng.random() < 0.3)
        cases.append((bounds, impl, spec, random_invariant(rng, ["k0", "k1"])))
    b = tiny_profile(modulus=2, horizon=2)
    store = database_machine(b, store="R", query="Key", answer="Data", ignores=("I",))
    other = database_machine(b, store="I", query="Key", answer="Data", ignores=("R",))
    cases += [(b, impl, store, lag_prefix_invariant("Key", "R"))
              for impl in (restriction_of(store, 0), other)]
    seen = {"holds": 0, "fails": 0}
    fewer = 0
    for bounds, impl, spec, invariant in cases:
        assert spec.reads < spec.inputs
        narrow, wide = CountingAdvance(spec), CountingAdvance(rebuilt(spec, spec.total))
        stats, want_stats = {}, {}
        got = refines_behavior(impl, narrow, bounds, stats=stats)
        want = refines_behavior(impl, wide, bounds, stats=want_stats)
        assert (got, stats) == (want, want_stats), spec.label
        assert narrow.calls <= wide.calls
        fewer += narrow.calls < wide.calls
        seen["holds" if got[0] else "fails"] += 1
        assert_matches_oracle(invariant, impl, spec, bounds)
    assert all(seen.values()) and fewer, (seen, fewer)


def load_case(name, horizon):
    text = (CASES_DIR / name).read_text(encoding="utf-8")
    return elaborate_architecture(parse_architecture(text), horizon=horizon)


# The counterexample of check-refine small_original.arch
# small_broken_final.arch --horizon 6.
REFUTE_H6 = "\n".join((
    "counterexample (output-not-included)",
    "  note: divergence first possible in interval 5",
    "  inputs:",
    "    In [a.1] [a.1] [] [] [] []",
    "    Key [] [] [] [] [a] []",
    "  output:",
    "    Data [] [] [] [] [] [0]"))


def test_black_boxes_keep_one_cache_per_answer_and_one_object_per_state():
    """The refuting search of check-refine at horizon 6 between black boxes
    built as ``adapt`` of each system's ``compose``: the ``adapt`` asks its
    ``compose`` uncached, so the compose's caches stay empty, and the
    compose returns one object per distinct product state."""
    boxes = []
    for name in ("small_broken_final.arch", "small_original.arch"):
        system = load_case(name, 6)
        network = _product(system)
        boxes.append((network, adapt(network, system.inputs, system.outputs)))
    (impl_network, impl), (spec_network, spec) = boxes
    assert impl is not impl_network and spec is not spec_network
    stats = {}
    ok, cex = refines_behavior(impl, spec, system.bounds, stats=stats)
    assert not ok
    assert cex.render() == REFUTE_H6
    assert stats["nodes"] == 9042
    for network in (impl_network, spec_network):
        assert network._advance_cache == {} and network._emit_cache == {}
    states = [key[0] for key in impl._advance_cache]
    states += [s for answer in impl._advance_cache.values() for s in answer]
    assert len({id(s) for s in states}) == len(set(states)) > 1000


def alone(machine):
    """The system whose only component ``C`` is ``machine``, on a -> b."""
    return System(frozenset("a"), frozenset("b"),
                  (Component("C", machine),), BITS)


def invariant_valid_check(system, invariant):
    _, report = refine_with_invariant(system, "C", silent_machine(), invariant)
    (check,) = [c for c in report.checks if c.check == "invariant-valid"]
    return check


class TestInvariantValidDeadEnds:
    def test_violation_on_a_run_that_dies_is_no_violation(self):
        """The run breaks quiet-b in interval 0 and then has no emission;
        this used to crash invariant-valid with an IndexError."""
        mute_after = table_machine(("a",), ("b",), ("s0", "s1"), "s0",
                                   {"s0": [LOUD], "s1": []},
                                   {("s0", LOUD, i): ("s1",) for i in (SILENT, LOUD)},
                                   label="mute-after")
        assert invariant_valid_check(alone(mute_after), quiet_invariant("b")).passed

    def test_violation_needs_a_run_that_lasts(self):
        """The run breaks quiet-b in interval 0 and then dies on every input."""
        check = invariant_valid_check(alone(speaker(survives_on=())), quiet_invariant("b"))
        assert check.passed

    def test_violating_run_is_completed_on_an_input_it_survives(self):
        system = alone(speaker(survives_on=(LOUD,)))
        check = invariant_valid_check(system, quiet_invariant("b"))
        assert not check.passed
        run = check.counterexample.run
        assert run["a"].intervals == ((), ("x",), ("x",))
        assert run["b"].intervals == (("x",), (), ())
        assert run in system_runs(system, run.restrict(("a",)))


class TestCone:
    """The two shapes of cone that once crashed the cone-first search, and
    components outside the cone that block."""

    def test_support_of_system_inputs_only_has_the_empty_cone(self):
        system = alone(speaker(survives_on=(LOUD,)))
        assert backward_cone(system, ("a",)) == ()
        (ok, cex, _), _ = assert_same_as_full_search(system, quiet_invariant("a"))
        assert not ok and cex.run["a"].intervals == (("x",), ("x",), ("x",))
        (ok, _, states), (_, _, want) = assert_same_as_full_search(system, true_invariant())
        assert ok and states == want

    def test_unread_input_written_outside_the_cone_is_silent(self):
        """``U`` declares ``y`` but reads nothing; ``y``'s writer ``W`` is
        outside the cone of ``b``."""
        bounds = EnumerationBounds(2, 1, {"a": ("x",), "y": ("x",), "b": ("x",)})
        relay = table_machine(("a",), ("y",), ("q",), "q", {"q": [SILENT, LOUD]},
                              {("q", o, i): ("q",) for o in (SILENT, LOUD)
                               for i in (SILENT, LOUD)}, label="W")
        for emits, verdict in (([SILENT], True), ([SILENT, LOUD], False)):
            source = table_machine((), ("b",), ("u",), "u", {"u": emits},
                                   {("u", o, ()): ("u",) for o in emits}, label="U")
            deaf = adapt(source, ("y",), ("b",))
            system = System(frozenset("a"), frozenset("b"), (
                Component("W", relay),
                Component("U", deaf)), bounds)
            assert [c.name for c in backward_cone(system, ("b",))] == ["U"]
            (ok, _, states), (_, _, want) = assert_same_as_full_search(
                system, quiet_invariant("b"))
            assert ok == verdict
            if ok:
                assert states == want

    # ``b`` stays quiet, but over ``a`` as well, so that monitor states
    # tell moves on different inputs apart.
    QUIET_B = Invariant("quiet-b", ("a", "b"), lambda h: all(iv == () for iv in h["b"]),
                        prefix_monotone=True)

    @staticmethod
    def blocked_outside(dies_last):
        """``C`` may speak on ``b`` only in interval 2.  ``B``, outside the
        cone of ``a`` and ``b``, has no successor on a silent ``a`` in
        interval 0 or on a message in interval 1, and with ``dies_last``
        none at all in interval 2."""
        bounds = EnumerationBounds(3, 1, {"a": ("x",), "b": ("x",), "c": ("x",)})
        speaks_last = table_machine(
            ("a",), ("b",), ("s0", "s1", "s2"), "s0",
            {"s0": [SILENT], "s1": [SILENT], "s2": [SILENT, LOUD]},
            [((s, o, i), (s2,)) for s, s2 in (("s0", "s1"), ("s1", "s2"), ("s2", "s2"))
             for o in (SILENT, LOUD) for i in (SILENT, LOUD)], label="C")
        advance = {("t0", SILENT, SILENT): (), ("t0", SILENT, LOUD): ("t1",),
                   ("t1", SILENT, SILENT): ("t2",), ("t1", SILENT, LOUD): ()}
        for i in (SILENT, LOUD):
            advance[("t2", SILENT, i)] = () if dies_last else ("t2",)
        blocker = table_machine(("a",), ("c",), ("t0", "t1", "t2"), "t0",
                                {t: [SILENT] for t in ("t0", "t1", "t2")}, advance, label="B")
        system = System(frozenset("a"), frozenset("bc"), (
            Component("C", speaks_last),
            Component("B", blocker)), bounds)
        assert [c.name for c in backward_cone(system, ("a", "b"))] == ["C"]
        return system

    def test_component_outside_the_cone_blocks_on_the_violating_prefix(self):
        """The canonical witness takes ``a``'s message in interval 0, the
        only move ``B`` survives.  A move that ``B`` blocks asks the cone
        nothing, though the cone would go on after it, and the last
        interval's moves are judged only up to the first violation that
        completes."""
        system = self.blocked_outside(dies_last=False)
        (ok, cex, states), _ = assert_same_as_full_search(system, self.QUIET_B)
        assert not ok
        assert cex.render() == "\n".join((
            "counterexample (invariant-violated)",
            "  note: quiet-b fails on a run prefix of length 3",
            "  run:",
            "    a [x] [] []",
            "    b [] [] [x]",
            "    c [] [] []"))
        assert states == 9

    def test_violation_the_network_cannot_complete_passes(self):
        """The cone breaks quiet-b in interval 2, but ``B`` then has no
        successor, so no run of the network lasts."""
        system = self.blocked_outside(dies_last=True)
        (ok, cex, states), _ = assert_same_as_full_search(system, self.QUIET_B)
        assert ok and cex is None and states == 11
        assert invariant_valid_check(system, self.QUIET_B).detail == (
            "holds on every admissible run (11 monitor states)")


class TestLastLayer:
    """The witness search decides each node of its last layer as it builds
    it, and hands the search only the first node that ends it."""

    def test_a_later_violation_in_the_layer_before_still_wins(self):
        """Expanding ``sA`` in interval 1 builds ``sA2``, which breaks quiet-b
        in interval 2; ``sB``, later in that layer, breaks it in interval 1,
        and its shorter witness is the one reported."""
        speaks = table_machine(
            ("a",), ("b",), ("s0", "sA", "sA2", "sB"), "s0",
            {"s0": [SILENT], "sA": [SILENT], "sA2": [LOUD], "sB": [SILENT, LOUD]},
            [(("s0", SILENT, SILENT), ("sA",)), (("s0", SILENT, LOUD), ("sB",))]
            + [((s, o, i), (s2,)) for s, o, s2 in (("sA", SILENT, "sA2"), ("sA2", LOUD, "sA2"),
                                                   ("sB", SILENT, "sB"), ("sB", LOUD, "sB"))
               for i in (SILENT, LOUD)], label="C")
        (ok, cex, _), _ = assert_same_as_full_search(alone(speaks), quiet_invariant("b"))
        assert not ok
        assert cex.render() == "\n".join((
            "counterexample (invariant-violated)",
            "  note: quiet-b fails on a run prefix of length 2",
            "  run:",
            "    a [x] [] []",
            "    b [] [x] []"))

    def test_a_node_blocked_outside_the_cone_gives_way_to_a_later_one(self):
        """``C`` may speak on ``b`` only in interval 2.  ``B``, outside the
        cone of ``b``, has no successor in interval 2 after a silent ``a``
        in interval 1, so the first live node of the last layer cannot
        complete the violation, and the next one does."""
        bounds = EnumerationBounds(3, 1, {"a": ("x",), "b": ("x",), "c": ("x",)})
        speaks_last = table_machine(
            ("a",), ("b",), ("s0", "s1", "s2"), "s0",
            {"s0": [SILENT], "s1": [SILENT], "s2": [SILENT, LOUD]},
            [((s, o, i), (s2,)) for s, s2 in (("s0", "s1"), ("s1", "s2"), ("s2", "s2"))
             for o in (SILENT, LOUD) for i in (SILENT, LOUD)], label="C")
        advance = {("t1", SILENT, SILENT): ("dead",), ("t1", SILENT, LOUD): ("ok",)}
        for i in (SILENT, LOUD):
            advance.update({("t0", SILENT, i): ("t1",), ("dead", SILENT, i): (),
                            ("ok", SILENT, i): ("ok",)})
        blocker = table_machine(("a",), ("c",), ("t0", "t1", "dead", "ok"), "t0",
                                {t: [SILENT] for t in ("t0", "t1", "dead", "ok")}, advance,
                                label="B")
        system = System(frozenset("a"), frozenset("bc"), (
            Component("C", speaks_last),
            Component("B", blocker)), bounds)
        assert [c.name for c in backward_cone(system, ("b",))] == ["C"]
        (ok, cex, _), _ = assert_same_as_full_search(system, quiet_invariant("b"))
        assert not ok
        assert cex.render() == "\n".join((
            "counterexample (invariant-violated)",
            "  note: quiet-b fails on a run prefix of length 3",
            "  run:",
            "    a [] [x] []",
            "    b [] [] [x]",
            "    c [] [] []"))

    def test_failing_case_study_builds_one_node_of_the_last_layer(self, monkeypatch):
        """With the broken decoder at h=5 the layers before the last hold 1,
        4, 24 and 144 nodes; of the last layer's 1,044, the search is handed
        only the one that ends it."""
        reached = []

        def counted(*args):
            path, count = explore(*args)
            reached.append(count)
            return path, count

        bounds = tiny_profile(horizon=5)
        labels, steps = zip(*case_study_steps(bounds, broken_dec=True))
        stage = labels.index("6 store from decoded channel")
        before = apply_script(build_original_system(bounds), steps[:stage])
        monkeypatch.setattr(rules, "explore", counted)
        ok, _, _ = _invariant_holds_on_runs(before.system, lag_prefix_invariant("I", "R"))
        assert not ok
        assert len(reached) == 1 and reached[0] <= 174


def test_pass_line_counts_product_nodes():
    relay = table_machine(("a",), ("b",), ("q",), "q", {"q": [SILENT]},
                          {("q", SILENT, i): ("q",) for i in (SILENT, LOUD)}, label="r")
    system = alone(relay)
    _, report = refine_with_invariant(system, "C", silent_machine(), true_invariant())
    assert report.ok
    (check,) = [c for c in report.checks if c.check == "replacement-included-under-invariant"]
    assert check.detail == ("inclusion holds on every permitted input history "
                            "(3 product nodes expanded)")


def stage_six(horizon):
    """Bounds, the case study's system just before its refine-invariant
    step, and that step's parameters."""
    b = tiny_profile(modulus=2, horizon=horizon)
    labels, steps = zip(*case_study_steps(b, modulus=2))
    stage = labels.index("6 store from decoded channel")
    system = apply_script(build_original_system(b, modulus=2), steps[:stage]).system
    return b, system, steps[stage].params


class TestOneAnswerPerCache:
    """The invariant premises keep no memo in front of their own: each
    answer is asked once, of the cache that keeps it."""

    def test_predicate_runs_once_per_support_history_in_each_premise(self, monkeypatch):
        """Stage 6 of the case study under the lag invariant without its
        monitor, so the premises key on support histories."""
        b, system, params = stage_six(3)
        lag = params["invariant"]
        asked: dict = {}
        premise = [None]

        def predicate(history):
            asked[premise[0]].append(history)
            return lag.predicate(history)

        def entering(name, check):
            def run(*args):
                premise[0] = name
                asked[name] = []
                return check(*args)
            return run

        names = ("_invariant_env_compatible", "_invariant_holds_on_runs",
                 "_included_under_invariant")
        for name in names:
            monkeypatch.setattr(rules, name, entering(name, getattr(rules, name)))
        invariant = Invariant(lag.name, lag.channels, predicate, lag.prefix_monotone)
        _, report = refine_with_invariant(system, "RDB", params["machine"], invariant)
        assert report.ok
        assert set(asked) == set(names)
        for name, histories in asked.items():
            assert len(histories) == len(set(histories)) > 0, name

    def test_guarded_inclusion_steps_the_guard_once_per_state_and_slice(self):
        """The included-under-invariant search of stage 6, which passes."""
        b, system, params = stage_six(4)
        original = system.component("RDB").machine
        guard = rules._support_guard(params["invariant"], ("I", "R"), b)
        asked = []

        def step(state, slc):
            asked.append((state, slc))
            return guard.step(state, slc)

        ok, _ = refines_behavior(params["machine"], original, b, guard=guard._replace(step=step))
        assert ok
        assert len(asked) == len(set(asked)) > 0
