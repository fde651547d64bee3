"""Seeded, named random-number streams.

Every stochastic component of the reproduction (schedule jitter, traffic
volumes, user-type assignment, k-means reference distributions, ...) draws
from its own named child stream of a single root seed.  This gives two
properties a single shared generator cannot:

* **Reproducibility** — the same root seed always produces the same trace.
* **Insensitivity to composition** — adding a new consumer (a new figure's
  experiment, an extra sampler) does not shift the draws seen by existing
  consumers, because each name deterministically derives an independent
  stream via ``numpy``'s SeedSequence spawning.

A consumer that draws a little from each of many short-lived streams
(the replay's one ``radio-<user>-<arrival>`` stream per station) pays
more for the generators than for the draws.  It can
:meth:`~RandomStreams.prepare` the names' seeds in one vectorised pass
(:func:`seed_words`: numpy's SeedSequence hash over columns of names) and
:meth:`~RandomStreams.recycle` its generators once drawn; a recycled
generator is pointed at the next stream's start instead of building a
new one.  Either way every draw is the one a fresh
``Generator(PCG64(SeedSequence(...)))`` makes.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

#: Optional introspection hook: called with ``(kind, name)`` on every
#: first materialization of a stream (``"get"``) and every sub-factory
#: derivation (``"child"``).  Used by the devtools to cross-check the
#: static stream registry against the names a run actually derives;
#: ``None`` (the default) costs one ``is None`` test per derivation.
_OBSERVER: Optional[Callable[[str, str], None]] = None


@contextmanager
def observe_streams(callback: Callable[[str, str], None]) -> Iterator[None]:
    """Report every stream derivation to ``callback`` while active.

    ``callback(kind, name)`` fires on first ``get(name)`` per factory and
    on every ``child(name)``.  Observation is process-global and not
    reentrant — it is a devtools/testing hook, not a runtime feature.
    """
    global _OBSERVER
    previous = _OBSERVER
    _OBSERVER = callback
    try:
        yield
    finally:
        _OBSERVER = previous


# numpy's SeedSequence hash constants (``numpy.random.bit_generator``),
# for a pool of four 32-bit words.
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4

#: PCG64's 128-bit LCG multiplier.
_PCG64_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


def seed_words(entropy: int, tags: Sequence[int]) -> np.ndarray:
    """The PCG64 seed words of many spawned streams at once.

    Row ``r`` equals ``np.random.SeedSequence(entropy=entropy,
    spawn_key=(tags[r],)).generate_state(4, np.uint64)``, bit for bit:
    this is numpy's SeedSequence algorithm (entropy words mixed into a
    pool of four, then hashed out) run over uint32 columns, one row a
    stream.  ``entropy`` may take several 32-bit words (child seeds reach
    2**63); each tag is one word.  numpy's stream-compatibility policy
    keeps this algorithm stable; ``tests/test_sim_rng.py`` checks it
    against SeedSequence itself.
    """
    if entropy < 0:
        raise ValueError(f"entropy must be non-negative, got {entropy}")
    column = np.asarray(tags, dtype=np.int64)
    if column.size and (column.min() < 0 or column.max() > _MASK32):
        raise ValueError("tags must be 32-bit unsigned words")
    # numpy's entropy words: low word first, at least one, zero-padded
    # to the pool size because a spawn key follows.
    bits = max(entropy.bit_length(), 1)
    run = [entropy >> shift & _MASK32 for shift in range(0, bits, 32)]
    run += [0] * (_POOL_SIZE - len(run))
    words = [np.full(len(column), word, dtype=np.uint32) for word in run]
    words.append(column.astype(np.uint32))
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(words[i]) for i in range(_POOL_SIZE)]
    for source in range(_POOL_SIZE):
        for target in range(_POOL_SIZE):
            if source != target:
                pool[target] = mix(pool[target], hashmix(pool[source]))
    for word in words[_POOL_SIZE:]:
        for target in range(_POOL_SIZE):
            pool[target] = mix(pool[target], hashmix(word))
    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    # Pairs of 32-bit words, low word first, make the 64-bit words.
    return np.stack(
        [low | high << np.uint64(32) for low, high in zip(state[::2], state[1::2])],
        axis=1,
    )


def _restart(bit_generator: np.random.BitGenerator, words: Sequence[int]) -> None:
    """Point ``bit_generator`` where ``PCG64`` seeded with ``words`` (a
    SeedSequence's four uint64 seed words) starts: PCG64's seeding
    arithmetic, state and increment from the first and last two words."""
    w0, w1, w2, w3 = (int(word) for word in words)
    increment = (((w2 << 64) | w3) << 1 | 1) & _MASK128
    start = ((increment + ((w0 << 64) | w1)) * _PCG64_MULTIPLIER + increment) & _MASK128
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": start, "inc": increment},
        "has_uint32": 0,
        "uinteger": 0,
    }


class IndexDraws:
    """``int(generator.integers(n))`` for one ``generator``, bit for bit,
    at a fraction of a numpy call's cost.

    numpy draws an integer in ``[0, n)`` for ``n <= 2**32 - 1`` by
    Lemire's multiply-and-reject over one 32-bit word (Lemire 2019,
    "Fast Random Integer Generation in an Interval"); ``n == 1`` draws
    nothing.  PCG64 makes 32-bit words from 64-bit ones, low half first,
    and holds the high half for the next 32-bit draw.  This object runs
    the same arithmetic in Python over ``bit_generator.random_raw()``
    and holds that half itself, starting from the bit generator's own
    ``has_uint32``/``uinteger``.

    Draws of whole 64-bit words (``random()``, ``exponential()``) never
    touch the held half, so they may interleave freely with these.  A
    draw that reads it (``generator.integers`` itself, float32 draws)
    must come after :meth:`sync`, which writes the held half back.  A
    bit generator other than PCG64, and an ``n`` outside
    ``[1, 2**32 - 1]``, go to ``generator.integers`` (after a
    :meth:`sync`).  ``n`` is a Python int.
    """

    __slots__ = ("_generator", "_raw", "_has", "_held")

    def __init__(self, generator: np.random.Generator) -> None:
        bit_generator = generator.bit_generator
        self._generator = generator
        #: ``random_raw`` of an exact bit generator, else ``None``.
        self._raw: Optional[Callable[[], int]] = None
        if type(bit_generator) is np.random.PCG64:
            self._raw = bit_generator.random_raw
        self._has = False
        self._held = 0
        self._load()

    def __call__(self, n: int) -> int:
        if n == 1:
            return 0
        raw = self._raw
        if raw is None or not 0 < n <= _MASK32:
            return self._numpy(n)
        while True:
            if self._has:
                self._has = False
                m = self._held * n
            else:
                word = raw()
                self._has = True
                self._held = word >> 32
                m = (word & _MASK32) * n
            # Accept unless the low word falls under Lemire's threshold,
            # (2**32 - n) % n; it is below n, so most draws skip it.
            leftover = m & _MASK32
            if leftover >= n or leftover >= (_MASK32 + 1 - n) % n:
                return m >> 32

    def sync(self) -> None:
        """Write the held half-word back into the bit generator's state:
        the generator is then where ``generator.integers`` would have
        left it."""
        if self._raw is None:
            return
        bit_generator = self._generator.bit_generator
        state = bit_generator.state
        state["has_uint32"] = int(self._has)
        state["uinteger"] = self._held
        bit_generator.state = state

    def _load(self) -> None:
        if self._raw is not None:
            state = self._generator.bit_generator.state
            self._has = bool(state["has_uint32"])
            self._held = state["uinteger"]

    def _numpy(self, n: int) -> int:
        self.sync()
        value = int(self._generator.integers(n))
        self._load()
        return value


class RandomStreams:
    """A factory of named, independent ``numpy`` generators.

    >>> streams = RandomStreams(seed=7)
    >>> a = streams.get("traffic")
    >>> b = streams.get("schedule")
    >>> a is streams.get("traffic")
    True
    """

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = seed
        self._streams: Dict[str, np.random.Generator] = {}
        #: Seed words of prepared names (:meth:`prepare`).
        self._prepared: Dict[str, List[int]] = {}
        #: Recycled generators, free to start another stream.
        self._recycled: List[np.random.Generator] = []

    @property
    def seed(self) -> int:
        """The root seed of this factory."""
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The child seed is derived from ``(root seed, crc32(name))`` so the
        mapping from name to stream is stable across processes and Python
        versions (unlike ``hash``, which is salted).
        """
        generator = self._streams.get(name)
        if generator is None:
            if _OBSERVER is not None:
                _OBSERVER("get", name)
            if self._recycled:
                generator = self._recycled.pop()
                words = self._prepared.get(name)
                if words is None:
                    words = self._sequence(name).generate_state(4, np.uint64)
                _restart(generator.bit_generator, words)
            else:
                generator = np.random.Generator(np.random.PCG64(self._sequence(name)))
            self._streams[name] = generator
        return generator

    def _sequence(self, name: str) -> np.random.SeedSequence:
        tag = zlib.crc32(name.encode("utf-8"))
        return np.random.SeedSequence(entropy=self._seed, spawn_key=(tag,))

    def prepare(self, names: Iterable[str]) -> None:
        """Derive the seeds of ``names`` now, all in one pass
        (:func:`seed_words`); a later :meth:`get` of one of them that
        starts a recycled generator reads its seed from here.  Changes
        no draw."""
        fresh = [name for name in dict.fromkeys(names) if name not in self._prepared]
        tags = [zlib.crc32(name.encode("utf-8")) for name in fresh]
        self._prepared.update(zip(fresh, seed_words(self._seed, tags).tolist()))

    def recycle(self) -> None:
        """Forget every materialized stream, as :meth:`reset` does, but
        keep the generators: a later :meth:`get` of any name points one
        of them at that stream's start, which costs less than building a
        generator.  Generators handed out before must not be drawn from
        again."""
        self._recycled.extend(self._streams.values())
        self._streams.clear()

    def stream_names(self) -> List[str]:
        """The names materialized so far on this factory, sorted."""
        return sorted(self._streams)

    def child(self, name: str) -> "RandomStreams":
        """Derive a whole sub-factory, e.g. one per simulated building.

        The derivation is pure integer arithmetic on ``(root seed,
        crc32(name))`` — no process state — so a child factory built
        inside a :mod:`repro.runtime` worker process yields bit-identical
        streams to one built in the parent.  This cross-process stability
        is the invariant the parallel execution engine rests on: a shard
        is handed only its ``child(shard_stream_name(...))`` factory,
        never the root factory itself (the ``rng-stream-registry`` lint
        rule rejects any stream :mod:`repro.runtime` draws itself).
        """
        if _OBSERVER is not None:
            _OBSERVER("child", name)
        tag = zlib.crc32(name.encode("utf-8"))
        return RandomStreams(seed=(self._seed * 1_000_003 + tag) % (2**63))

    def reset(self) -> None:
        """Forget all materialized streams; next ``get`` re-derives them."""
        self._streams.clear()
