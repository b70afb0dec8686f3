"""The database pipeline walkthrough: difference coding end to end."""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowrefine import (
    EnumerationBounds,
    OptionError,
    StreamTuple,
    TimedStream,
    apply_script,
    apply_step,
    behavior_of,
    build_original_system,
    case_study_steps,
    check_system_refinement,
    data_token,
    database_machine,
    delta,
    delta_star,
    entry_token,
    lag_prefix_invariant,
    parse_entry,
    relay_machine,
    rho,
    rho_star,
    tiny_profile,
    tuple_of,
)


class TestCodec:
    def test_round_trip_exhaustive(self):
        for modulus in (2, 3, 5):
            for old in (None,) + tuple(range(modulus)):
                for new in range(modulus):
                    code = delta(old, new, modulus)
                    assert 0 <= code < modulus
                    assert rho(old, code, modulus) == new

    def test_first_code_is_the_value(self):
        assert delta(None, 2) == 2
        assert rho(None, 2) == 2

    def test_star_round_trip_from_any_table(self):
        values = (None, 0, 1, 2)
        entries = [tuple(("a", v) for v in word)
                   for n in range(4)
                   for word in itertools.product(range(3), repeat=n)]
        for start in values:
            table = {} if start is None else {"a": start}
            for xs in entries:
                assert rho_star(delta_star(xs, table=table), table=table) == xs

    def test_star_example(self):
        assert delta_star((("a", 1), ("a", 2))) == (("a", 1), ("a", 1))
        assert rho_star((("a", 1), ("a", 1))) == (("a", 1), ("a", 2))

    def test_star_leaves_the_table_alone(self):
        table = {"a": 1}
        delta_star((("a", 0), ("b", 2)), table=table)
        assert table == {"a": 1}

    @given(st.lists(st.tuples(st.sampled_from("ab"), st.integers(0, 2)),
                    max_size=6))
    def test_star_round_trip_property(self, entries):
        xs = tuple(entries)
        assert rho_star(delta_star(xs)) == xs

    def test_tokens(self):
        assert entry_token("a", 1) == "a.1"
        assert parse_entry("a.1") == ("a", 1)
        assert data_token(2) == "2"
        assert data_token(None) == "nil"
        with pytest.raises(ValueError):
            parse_entry("nodot")


_TWO_KEY_BURST = tiny_profile(keys=("a", "b"), horizon=3, burst=2)


class TestRelay:
    def test_copy_relay_forwards_with_arbitrary_delay(self):
        b = tiny_profile(horizon=3)
        m = relay_machine("In", "I", b)
        ys = behavior_of(m, tuple_of(In=[("a.1",), (), ()]), b)
        assert ys == {
            tuple_of(I=[(), ("a.1",), ()]),
            tuple_of(I=[(), (), ("a.1",)]),
            tuple_of(I=[(), (), ()]),
        }

    def test_copy_relay_keeps_order(self):
        b = tiny_profile(horizon=3)
        m = relay_machine("In", "I", b)
        ys = behavior_of(m, tuple_of(In=[("a.1",), ("a.2",), ()]), b)
        flat = {tuple(t for iv in y.as_dict()["I"].intervals for t in iv)
                for y in ys}
        assert flat == {(), ("a.1",), ("a.1", "a.2")}

    def test_encode_relay_codes_per_key(self):
        b = tiny_profile(horizon=3)
        m = relay_machine("I", "D", b, mode="encode")
        ys = behavior_of(m, tuple_of(I=[("a.1",), ("a.2",), ()]), b)
        assert tuple_of(D=[(), ("a.1",), ("a.1",)]) in ys

    def test_decode_relay_inverts_encode(self):
        b = tiny_profile(horizon=3)
        m = relay_machine("D", "R", b, mode="decode")
        ys = behavior_of(m, tuple_of(D=[("a.1",), ("a.1",), ()]), b)
        assert tuple_of(R=[(), ("a.1",), ("a.2",)]) in ys

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(mode=st.sampled_from(["encode", "decode"]),
           intervals=st.lists(st.lists(st.sampled_from(sorted(_TWO_KEY_BURST.alphabet("I"))),
                                       max_size=2).map(tuple),
                              min_size=3, max_size=3))
    def test_coding_relay_runs_the_star_coding(self, mode, intervals):
        # Several tokens of two keys per interval: each output, flattened,
        # is a prefix of the star coding of the flattened input, and some
        # output carries every token that arrived before the last interval.
        coding = delta_star if mode == "encode" else rho_star
        m = relay_machine("I", "D", _TWO_KEY_BURST, mode=mode)
        entries = tuple(parse_entry(t) for iv in intervals for t in iv)
        want = tuple(entry_token(k, v) for k, v in coding(entries))
        flats = {tuple(t for iv in y.as_dict()["D"].intervals for t in iv)
                 for y in behavior_of(m, tuple_of(I=intervals), _TWO_KEY_BURST)}
        assert all(flat == want[:len(flat)] for flat in flats)
        assert want[:len(entries) - len(intervals[-1])] in flats

    def test_unknown_mode_rejected(self):
        with pytest.raises(OptionError, match="unknown relay map 'zip', "
                                              "expected one of copy, encode, decode"):
            relay_machine("I", "D", tiny_profile(), mode="zip")

    @pytest.mark.parametrize("mode", ["copy", "encode", "decode"])
    def test_modulus_below_one_rejected_at_construction(self, mode):
        with pytest.raises(OptionError, match=r"^modulus must be at least 1, got 0$"):
            relay_machine("I", "D", tiny_profile(horizon=2), mode=mode, modulus=0)


class TestDatabase:
    @pytest.mark.parametrize("decode", [False, True])
    def test_modulus_below_one_rejected_at_construction(self, decode):
        with pytest.raises(OptionError, match=r"^modulus must be at least 1, got -1$"):
            database_machine(tiny_profile(horizon=2), store="I", query="Key",
                             answer="Data", decode=decode, modulus=-1)

    @pytest.mark.parametrize("ignores,message", [
        (("R",), "cannot ignore its store channel 'R'"),
        (("I", "Key"), "cannot ignore its query channel 'Key'"),
    ])
    def test_store_and_query_channels_cannot_be_ignored(self, ignores, message):
        with pytest.raises(OptionError, match=message):
            database_machine(tiny_profile(horizon=2), store="R", query="Key",
                             answer="Data", ignores=ignores)

    def test_lazy_writes_yield_every_staleness_level(self):
        b = tiny_profile(horizon=4)
        m = database_machine(b, store="I", query="Key", answer="Data")
        env = tuple_of(I=[("a.1",), ("a.2",), (), ()],
                       Key=[(), (), ("a",), ()])
        ys = behavior_of(m, env, b)
        answered = {y.as_dict()["Data"].intervals[3] for y in ys}
        assert answered == {("nil",), ("1",), ("2",)}

    def test_lookup_of_absent_key_is_nil(self):
        b = tiny_profile(horizon=2)
        m = database_machine(b, store="I", query="Key", answer="Data")
        ys = behavior_of(m, tuple_of(I=[(), ()], Key=[("a",), ()]), b)
        assert ys == {tuple_of(Data=[(), ("nil",)])}

    def test_decode_resolves_codes_at_apply_time(self):
        b = tiny_profile(horizon=4)
        m = database_machine(b, store="R", query="Key", answer="Data",
                             decode=True)
        env = tuple_of(R=[("a.1",), ("a.1",), (), ()],
                       Key=[(), (), ("a",), ()])
        ys = behavior_of(m, env, b)
        answered = {y.as_dict()["Data"].intervals[3] for y in ys}
        assert answered == {("nil",), ("1",), ("2",)}

    def test_ignored_channel_has_no_effect(self):
        b = tiny_profile(horizon=3)
        m = database_machine(b, store="R", query="Key", answer="Data",
                             ignores=("I",))
        assert m.inputs == frozenset(("I", "Key", "R"))
        quiet = tuple_of(R=[("a.1",), (), ()], Key=[(), ("a",), ()],
                         I=[(), (), ()])
        noisy = tuple_of(R=[("a.1",), (), ()], Key=[(), ("a",), ()],
                         I=[("a.2",), ("a.2",), ("a.2",)])
        assert behavior_of(m, quiet, b) == behavior_of(m, noisy, b)


class TestLagPrefixInvariant:
    def test_support_and_monotonicity_flag(self):
        inv = lag_prefix_invariant("I", "R")
        assert inv.channels == ("I", "R")
        assert inv.prefix_monotone

    def test_lagging_copy_satisfies(self):
        inv = lag_prefix_invariant("I", "R")
        assert inv.holds(tuple_of(I=[("a.1",), ("a.2",)], R=[(), ("a.1",)]))
        assert inv.holds(tuple_of(I=[("a.1",), ()], R=[("a.1",), ()]))
        assert inv.holds(tuple_of(I=[("a.1",), ("a.2",)], R=[(), ()]))

    def test_early_or_mangled_target_violates(self):
        inv = lag_prefix_invariant("I", "R")
        assert not inv.holds(tuple_of(I=[(), ("a.1",)], R=[("a.1",), ()]))
        assert not inv.holds(tuple_of(I=[("a.1",), ()], R=[("a.2",), ()]))

    def test_violations_persist_under_extension(self):
        inv = lag_prefix_invariant("I", "R")
        base_i, base_r = [("a.1",), ("a.2",)], [("a.2",), ()]
        assert not inv.holds(tuple_of(I=base_i, R=base_r))
        for more_i, more_r in itertools.product(
                [(), ("a.1",), ("a.2",)], repeat=2):
            assert not inv.holds(tuple_of(I=base_i + [more_i],
                                          R=base_r + [more_r]))


class TestLagMonitor:
    """The pending-lag monitor agrees with the predicate on every support
    word within small bounds, and words it merges have the same futures."""

    BOUNDS = (
        EnumerationBounds(4, 1, {"a": ("x", "y"), "b": ("x", "y")}),
        EnumerationBounds(4, 2, {"a": ("x",), "b": ("x",)}),
        EnumerationBounds(2, 2, {"a": ("x", "y"), "b": ("x", "y")}),
    )

    @pytest.mark.parametrize("source,target", [("a", "b"), ("b", "a"), ("a", "a")])
    def test_monitor_tracks_the_predicate(self, source, target):
        inv = lag_prefix_invariant(source, target)
        monitor = inv.monitor
        # A support that names one channel twice reads its interval twice.
        channels = tuple(dict.fromkeys(inv.channels))
        pos = tuple(channels.index(ch) for ch in inv.channels)
        for bounds in self.BOUNDS:
            state, holds = {(): monitor.initial}, {}
            layer = [()]
            for _ in range(bounds.horizon):
                layer = [w + (slc,) for w in layer for slc in bounds.assignments(channels)]
                for word in layer:
                    state[word] = monitor.step(state[word[:-1]],
                                               tuple(word[-1][k] for k in pos))
                    prefix = StreamTuple({
                        ch: TimedStream(tuple(slc[k] for slc in word))
                        for k, ch in enumerate(channels)})
                    holds[word] = inv.holds(prefix)
                    assert monitor.holds(state[word]) == holds[word], (bounds, word)
            # Equal states after equal-length prefixes: equal verdicts after
            # every continuation.
            future = {}
            for word, verdict in holds.items():
                for n in range(len(word)):
                    key = (n, state[word[:n]], word[n:])
                    assert future.setdefault(key, verdict) == verdict, (bounds, word, n)


def replay(bounds, modulus, broken_dec=False):
    """The original system, the stage labels, and the outcome of replaying
    the case study's steps on it."""
    original = build_original_system(bounds, modulus=modulus)
    labels, steps = zip(*case_study_steps(bounds, modulus=modulus, broken_dec=broken_dec))
    return original, labels, apply_script(original, steps)


class TestPipeline:
    def test_reduced_profile_completes(self):
        b = tiny_profile(modulus=2, horizon=3)
        original, _, result = replay(b, 2)
        assert result.ok
        assert result.failed_index is None
        assert len(result.reports) == 13
        assert all(report.ok for report in result.reports)
        assert set(result.system.component_names()) == {"PRE2", "RDB2"}
        assert result.system.inputs == original.inputs
        assert result.system.outputs == original.outputs
        assert check_system_refinement(original, result.system)[0]

    def test_every_prefix_of_the_script_refines_the_original(self):
        b = tiny_profile(modulus=2, horizon=3)
        system = original = build_original_system(b, modulus=2)
        for label, step in case_study_steps(b, modulus=2):
            system, report = apply_step(system, step)
            assert report.ok, label
            ok, cex = check_system_refinement(original, system)
            assert ok, (label, cex and cex.render())

    def test_broken_decoder_is_caught_at_the_store_swap(self):
        b = tiny_profile(modulus=2, horizon=5)
        _, labels, result = replay(b, 2, broken_dec=True)
        assert not result.ok
        assert labels[result.failed_index] == "6 store from decoded channel"
        assert len(result.reports) == result.failed_index + 1
        (check,) = result.reports[-1].failures()
        assert check.check == "invariant-valid"
        assert check.counterexample is not None
        assert check.counterexample.run is not None

    def test_tiny_profile_alphabets(self):
        b = tiny_profile(keys=("a", "b"), modulus=2)
        assert b.alphabet("In") == ("a.0", "a.1", "b.0", "b.1")
        assert b.alphabet("Key") == ("a", "b")
        assert b.alphabet("Data") == ("0", "1", "nil")
        assert b.alphabet("I") == b.alphabet("D") == b.alphabet("R") == b.alphabet("In")

    @pytest.mark.parametrize("key", ["a|b", "[a", "a]", "a,b"])
    def test_tiny_profile_rejects_keys_in_slice_syntax(self, key):
        """A rendered alphabet of such tokens would not read back."""
        with pytest.raises(OptionError, match=r"^key %s holds one of , \| \[ \], which write"
                           % re.escape(repr(key))):
            tiny_profile(keys=("c", key))
