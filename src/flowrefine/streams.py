"""Timed streams and named stream tuples.

Time is divided into discrete intervals.  A timed stream assigns to each
interval the finite sequence of messages that cross a channel during it; a
stream with horizon H records the first H intervals.  A named stream tuple
binds one timed stream to each channel of a finite channel set, all with the
same horizon.

Checking anything exhaustively needs a finite universe, so enumeration
bounds pin three things: the horizon, the maximum number of messages per
interval (the burst), and a finite alphabet per channel.  All enumeration
helpers on the bounds object produce their results in one canonical order,
which is what makes reports and counterexamples reproducible byte for byte.
"""

from __future__ import annotations

import itertools
from typing import Any, Hashable, Iterable, Iterator, Mapping

from .errors import BoundsError, DomainError, MergeError, RangeError

Message = Hashable
Interval = tuple  # tuple of messages


def ckey(value: Any):
    """Total ordering key over the message/state universe.

    Python refuses to compare values of different types, but deterministic
    output needs a total order over whatever users put on their channels.
    Tag each value with a type rank and recurse into tuples.
    """
    # Leaf machines sort their successor states by this key on every
    # advance-cache miss, and states are mostly plain tuples.
    if type(value) is tuple:
        return (4, tuple([ckey(v) for v in value]))
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, int):
        return (2, value)
    if isinstance(value, str):
        return (3, value)
    if isinstance(value, tuple):
        return (4, tuple([ckey(v) for v in value]))
    if isinstance(value, frozenset):
        return (5, tuple(sorted(ckey(v) for v in value)))
    return (9, type(value).__name__, repr(value))


def interval_key(interval: Interval):
    # Empty first, then shorter before longer, then message order.
    return (len(interval), tuple([ckey(m) for m in interval]))


class Frozen:
    """An immutable object: its fields are its ``__slots__``, in order, set
    once by its constructor through :meth:`_set`."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    # copy and pickle save the fields and set them back, past __init__.
    def __getstate__(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setstate__(self, state: tuple) -> None:
        self._set(*state)


class TimedStream(Frozen):
    """An immutable finite-horizon timed stream."""

    __slots__ = ("intervals", "_hash")

    def __init__(self, intervals: Iterable[Interval]):
        ivs = tuple(tuple(iv) for iv in intervals)
        self._set(ivs, hash(ivs))

    # A string's hash differs between processes, so a copy is built anew.
    def __reduce__(self):
        return TimedStream, (self.intervals,)

    @property
    def horizon(self) -> int:
        return len(self.intervals)

    def prefix(self, i: int) -> "TimedStream":
        """The stream of the first i intervals."""
        if not 0 <= i <= len(self.intervals):
            raise RangeError("prefix index %d outside horizon %d" % (i, len(self.intervals)))
        return TimedStream(self.intervals[:i])

    def flatten(self) -> tuple:
        """All messages in order, ignoring interval boundaries."""
        out = []
        for iv in self.intervals:
            out.extend(iv)
        return tuple(out)

    def key(self):
        return tuple(interval_key(iv) for iv in self.intervals)

    def __eq__(self, other):
        return isinstance(other, TimedStream) and self.intervals == other.intervals

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "TimedStream(%r)" % (self.intervals,)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)


def empty_stream(horizon: int) -> TimedStream:
    return TimedStream(((),) * horizon)


def head_rest(sequence: Iterable) -> tuple:
    """Split a finite message sequence into its head and the rest."""
    seq = tuple(sequence)
    if not seq:
        raise DomainError("cannot split an empty sequence")
    return seq[0], seq[1:]


class StreamTuple(Frozen):
    """A named stream tuple: one timed stream per channel, uniform horizon."""

    __slots__ = ("items", "_hash")

    def __init__(self, bindings: Mapping[str, TimedStream]):
        items = []
        horizon = None
        for ch in sorted(bindings):
            s = bindings[ch]
            if not isinstance(s, TimedStream):
                s = TimedStream(s)
            if horizon is None:
                horizon = s.horizon
            elif s.horizon != horizon:
                raise MergeError(
                    "channel %r has horizon %d, expected %d" % (ch, s.horizon, horizon)
                )
            items.append((ch, s))
        items = tuple(items)
        self._set(items, hash(items))

    def __reduce__(self):
        return StreamTuple, (dict(self.items),)

    @property
    def channels(self) -> tuple:
        return tuple(ch for ch, _ in self.items)

    @property
    def horizon(self) -> int:
        return self.items[0][1].horizon if self.items else 0

    def __getitem__(self, channel: str) -> TimedStream:
        for ch, s in self.items:
            if ch == channel:
                return s
        raise KeyError(channel)

    def __contains__(self, channel: str) -> bool:
        return any(ch == channel for ch, _ in self.items)

    def as_dict(self) -> dict:
        return dict(self.items)

    def restrict(self, channels: Iterable[str]) -> "StreamTuple":
        """Keep only the named channels, which must all be bound."""
        wanted = set(channels)
        missing = wanted - set(self.channels)
        if missing:
            raise DomainError("channels not bound: %s" % sorted(missing))
        return StreamTuple({ch: s for ch, s in self.items if ch in wanted})

    def merge(self, other: "StreamTuple") -> "StreamTuple":
        """Disjoint union of two tuples with equal horizons."""
        overlap = set(self.channels) & set(other.channels)
        if overlap:
            raise MergeError("channels bound on both sides: %s" % sorted(overlap))
        if self.items and other.items and self.horizon != other.horizon:
            raise MergeError(
                "horizons differ: %d vs %d" % (self.horizon, other.horizon)
            )
        merged = dict(self.items)
        merged.update(other.items)
        return StreamTuple(merged)

    def prefix(self, i: int) -> "StreamTuple":
        return StreamTuple({ch: s.prefix(i) for ch, s in self.items})

    def key(self):
        return tuple((ch, s.key()) for ch, s in self.items)

    def __eq__(self, other):
        return isinstance(other, StreamTuple) and self.items == other.items

    def __hash__(self):
        return self._hash

    def __repr__(self):
        body = ", ".join("%s=%r" % (ch, s.intervals) for ch, s in self.items)
        return "StreamTuple(%s)" % body


class EnumerationBounds(Frozen):
    """Finite enumeration universe: horizon, burst and per-channel alphabets.

    Instances are immutable.  Enumeration results are cached per instance
    and always come back in canonical order: intervals sorted empty-first by
    interval_key, assignments and stream tuples as the lexicographic product
    of the per-channel orders with channels sorted by name.
    """

    __slots__ = ("horizon", "burst", "_alphabets", "_intervals", "_streams", "_assignments")

    def __init__(self, horizon: int, burst: int, alphabets: Mapping[str, Iterable[Message]]):
        if horizon < 1:
            raise BoundsError("horizon must be at least 1")
        if burst < 1:
            raise BoundsError("burst must be at least 1")
        alph = {}
        for ch, msgs in alphabets.items():
            if not isinstance(ch, str) or not ch:
                raise BoundsError("channel names must be nonempty strings")
            msgs = tuple(sorted(set(msgs), key=ckey))
            if not msgs:
                raise BoundsError("alphabet of %r is empty" % ch)
            alph[ch] = msgs
        self._set(horizon, burst, alph, {}, {}, {})

    # A copy fills its caches anew.
    def __reduce__(self):
        return EnumerationBounds, (self.horizon, self.burst, self._alphabets)

    @property
    def channels(self) -> tuple:
        return tuple(sorted(self._alphabets))

    def alphabet(self, channel: str) -> tuple:
        try:
            return self._alphabets[channel]
        except KeyError:
            raise BoundsError("no alphabet declared for channel %r" % channel) from None

    def has_channel(self, channel: str) -> bool:
        return channel in self._alphabets

    def with_alphabet(self, channel: str, messages: Iterable[Message]) -> "EnumerationBounds":
        alph = dict(self._alphabets)
        alph[channel] = tuple(messages)
        return EnumerationBounds(self.horizon, self.burst, alph)

    def alphabets(self) -> dict:
        return dict(self._alphabets)

    def intervals(self, channel: str) -> tuple:
        """All in-bounds intervals for one channel, canonically ordered."""
        cached = self._intervals.get(channel)
        if cached is None:
            msgs = self.alphabet(channel)
            out = []
            for n in range(self.burst + 1):
                out.extend(itertools.product(msgs, repeat=n))
            cached = tuple(sorted(out, key=interval_key))
            self._intervals[channel] = cached
        return cached

    def assignments(self, channels: Iterable[str]) -> tuple:
        """All one-step slices over the given channels (sorted by name).

        A slice is a tuple of intervals aligned with the sorted channel
        order; the empty channel set yields the single empty slice.
        """
        chs = tuple(sorted(channels))
        cached = self._assignments.get(chs)
        if cached is None:
            cached = tuple(itertools.product(*(self.intervals(c) for c in chs)))
            self._assignments[chs] = cached
        return cached

    def streams(self, channel: str) -> tuple:
        """All in-bounds timed streams for one channel."""
        cached = self._streams.get(channel)
        if cached is None:
            cached = tuple(
                TimedStream(ivs)
                for ivs in itertools.product(self.intervals(channel), repeat=self.horizon)
            )
            self._streams[channel] = cached
        return cached

    def tuples(self, channels: Iterable[str]) -> Iterator[StreamTuple]:
        """Iterate over all in-bounds stream tuples, canonically ordered."""
        chs = tuple(sorted(channels))
        pools = [self.streams(c) for c in chs]
        for combo in itertools.product(*pools):
            yield StreamTuple(dict(zip(chs, combo)))

    def count_tuples(self, channels: Iterable[str]) -> int:
        n = 1
        for c in channels:
            n *= len(self.intervals(c)) ** self.horizon
        return n

    def check_interval(self, channel: str, interval: Interval) -> None:
        if len(interval) > self.burst:
            raise BoundsError(
                "interval %r on %r exceeds burst %d" % (interval, channel, self.burst)
            )
        alph = set(self.alphabet(channel))
        for m in interval:
            if m not in alph:
                raise BoundsError("message %r not in alphabet of %r" % (m, channel))

    def check_stream(self, channel: str, stream: TimedStream) -> None:
        if stream.horizon != self.horizon:
            raise BoundsError(
                "stream on %r has horizon %d, bounds say %d"
                % (channel, stream.horizon, self.horizon)
            )
        for iv in stream.intervals:
            self.check_interval(channel, iv)

    def check_tuple(self, x: StreamTuple) -> None:
        for ch, s in x.items:
            self.check_stream(ch, s)

    def __eq__(self, other):
        return (isinstance(other, EnumerationBounds)
                and self.horizon == other.horizon
                and self.burst == other.burst
                and self._alphabets == other._alphabets)

    def __hash__(self):
        return hash((self.horizon, self.burst, tuple(sorted(self._alphabets.items()))))

    def __repr__(self):
        return "EnumerationBounds(horizon=%d, burst=%d, channels=%r)" % (
            self.horizon,
            self.burst,
            list(self.channels),
        )


def stream_of(*intervals) -> TimedStream:
    """Convenience constructor: stream_of((), ('a',), ()) and the like."""
    return TimedStream(intervals)


def tuple_of(**bindings) -> StreamTuple:
    """Convenience constructor for stream tuples from keyword intervals."""
    return StreamTuple({ch: TimedStream(v) if not isinstance(v, TimedStream) else v
                        for ch, v in bindings.items()})
