"""Timed streams, stream tuples, and enumeration bounds."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowrefine import (
    BoundsError,
    DomainError,
    EnumerationBounds,
    MergeError,
    RangeError,
    StreamTuple,
    TimedStream,
    empty_stream,
    stream_of,
    tuple_of,
)
from flowrefine.streams import ckey, head_rest, interval_key

MESSAGES = ("x", "y")

intervals_st = st.lists(st.sampled_from(MESSAGES), max_size=2).map(tuple)
streams_st = st.lists(intervals_st, min_size=1, max_size=4).map(TimedStream)


class TestTimedStream:
    def test_construction_normalizes_to_tuples(self):
        s = TimedStream([["x"], [], ["y", "x"]])
        assert s.intervals == (("x",), (), ("y", "x"))
        assert s.horizon == 3

    def test_immutable(self):
        s = stream_of(("x",))
        with pytest.raises(AttributeError):
            s.intervals = ()

    @given(streams_st, st.integers(min_value=0, max_value=4))
    def test_prefix_flatten_agree(self, s, i):
        i = min(i, s.horizon)
        flat = s.prefix(i).flatten()
        assert flat == sum(s.intervals[:i], ())
        assert flat == s.flatten()[: len(flat)]

    @given(streams_st, st.integers(min_value=0, max_value=4),
           st.integers(min_value=0, max_value=4))
    def test_prefix_of_prefix(self, s, i, j):
        i = min(i, s.horizon)
        j = min(j, i)
        assert s.prefix(i).prefix(j) == s.prefix(j)

    def test_prefix_out_of_range(self):
        s = stream_of((), ("x",))
        with pytest.raises(RangeError):
            s.prefix(3)
        with pytest.raises(RangeError):
            s.prefix(-1)

    def test_empty_stream(self):
        assert empty_stream(3).intervals == ((), (), ())
        assert empty_stream(3).flatten() == ()

    @given(streams_st)
    def test_key_identifies_stream(self, s):
        assert TimedStream(s.intervals).key() == s.key()
        assert hash(TimedStream(s.intervals)) == hash(s)

    def test_head_rest(self):
        assert head_rest(("x", "y", "x")) == ("x", ("y", "x"))
        with pytest.raises(DomainError):
            head_rest(())


class TestStreamTuple:
    def test_channels_sorted(self):
        t = tuple_of(b=[()], a=[("x",)], c=[()])
        assert t.channels == ("a", "b", "c")
        assert t["a"].intervals == (("x",),)
        assert "a" in t and "z" not in t

    def test_horizon_mismatch_rejected(self):
        with pytest.raises(MergeError):
            StreamTuple({"a": stream_of(()), "b": stream_of((), ())})

    def test_restrict_requires_bound_channels(self):
        t = tuple_of(a=[()], b=[()])
        with pytest.raises(DomainError):
            t.restrict(("a", "z"))

    @given(st.dictionaries(
        st.sampled_from("abcd"),
        st.lists(intervals_st, min_size=3, max_size=3).map(TimedStream),
        min_size=1, max_size=4))
    def test_restrict_merge_round_trip(self, bindings):
        t = StreamTuple(bindings)
        names = t.channels
        for cut in range(len(names) + 1):
            left, right = names[:cut], names[cut:]
            again = t.restrict(left).merge(t.restrict(right))
            assert again == t
            assert t.restrict(right).merge(t.restrict(left)) == t

    def test_merge_conflict(self):
        t = tuple_of(a=[()])
        with pytest.raises(MergeError):
            t.merge(tuple_of(a=[("x",)]))

    def test_merge_horizon_conflict(self):
        with pytest.raises(MergeError):
            tuple_of(a=[()]).merge(tuple_of(b=[(), ()]))

    def test_prefix_applies_to_every_channel(self):
        t = tuple_of(a=[("x",), ()], b=[(), ("y",)])
        p = t.prefix(1)
        assert p["a"].intervals == (("x",),)
        assert p["b"].intervals == ((),)


class TestOrderingKeys:
    def test_ckey_totally_orders_mixed_values(self):
        values = [None, False, True, 0, 2, "a", "b", ("a", 1), frozenset(("a",))]
        ordered = sorted(values, key=ckey)
        assert ordered[0] is None
        assert sorted(ordered, key=ckey) == ordered

    def test_interval_key_empty_first_then_shorter(self):
        ivs = [("y",), (), ("x", "x"), ("x",)]
        assert sorted(ivs, key=interval_key) == [(), ("x",), ("y",), ("x", "x")]


class TestEnumerationBounds:
    def bounds(self, horizon=2, burst=1):
        return EnumerationBounds(horizon, burst, {"a": ("x", "y"), "b": ("x",)})

    def test_validation(self):
        with pytest.raises(BoundsError):
            EnumerationBounds(0, 1, {"a": ("x",)})
        with pytest.raises(BoundsError):
            EnumerationBounds(1, 0, {"a": ("x",)})
        with pytest.raises(BoundsError):
            EnumerationBounds(1, 1, {"a": ()})
        with pytest.raises(BoundsError):
            EnumerationBounds(1, 1, {"": ("x",)})

    def test_alphabet_sorted_and_deduplicated(self):
        b = EnumerationBounds(1, 1, {"a": ("y", "x", "y")})
        assert b.alphabet("a") == ("x", "y")
        with pytest.raises(BoundsError):
            b.alphabet("nope")

    def test_intervals_canonical(self):
        b = self.bounds(burst=2)
        ivs = b.intervals("a")
        assert ivs[0] == ()
        assert len(ivs) == len(set(ivs))
        assert all(len(iv) <= 2 for iv in ivs)
        assert list(ivs) == sorted(ivs, key=interval_key)
        assert len(ivs) == 1 + 2 + 4

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=2))
    def test_enumeration_counts(self, horizon, burst):
        b = EnumerationBounds(horizon, burst, {"a": ("x", "y"), "b": ("x",)})
        per_a = len(b.intervals("a"))
        per_b = len(b.intervals("b"))
        assert len(b.assignments(("a", "b"))) == per_a * per_b
        assert len(b.streams("a")) == per_a ** horizon
        tuples = list(b.tuples(("a", "b")))
        assert len(tuples) == b.count_tuples(("a", "b"))
        assert len(tuples) == (per_a ** horizon) * (per_b ** horizon)
        assert len(set(tuples)) == len(tuples)

    def test_assignments_align_with_sorted_channels(self):
        b = self.bounds()
        for slc in b.assignments(("b", "a")):
            assert len(slc) == 2
            for m in slc[0]:
                assert m in ("x", "y")
            for m in slc[1]:
                assert m == "x"

    def test_enumeration_is_reproducible(self):
        b1 = self.bounds(horizon=3)
        b2 = self.bounds(horizon=3)
        assert b1.intervals("a") == b2.intervals("a")
        assert list(b1.tuples(("a", "b"))) == list(b2.tuples(("a", "b")))

    def test_check_interval_and_stream(self):
        b = self.bounds()
        b.check_interval("a", ("x",))
        with pytest.raises(BoundsError):
            b.check_interval("a", ("x", "y"))
        with pytest.raises(BoundsError):
            b.check_interval("b", ("y",))
        with pytest.raises(BoundsError):
            b.check_stream("a", stream_of(("x",)))
        b.check_tuple(tuple_of(a=[("x",), ()], b=[(), ("x",)]))

    def test_with_horizon_and_with_alphabet(self):
        b = self.bounds()
        wider = b.with_alphabet("c", ("z",))
        assert wider.has_channel("c")
        assert not b.has_channel("c")
        assert b == self.bounds()
        assert hash(b) == hash(self.bounds())
        assert b != wider

    def test_streams_share_interval_pool(self):
        b = self.bounds(horizon=2)
        pool = set(b.intervals("a"))
        for s in b.streams("a"):
            assert set(s.intervals) <= pool
