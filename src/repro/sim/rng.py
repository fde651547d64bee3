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
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

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
        if name not in self._streams:
            if _OBSERVER is not None:
                _OBSERVER("get", name)
            tag = zlib.crc32(name.encode("utf-8"))
            sequence = np.random.SeedSequence(entropy=self._seed, spawn_key=(tag,))
            self._streams[name] = np.random.Generator(np.random.PCG64(sequence))
        return self._streams[name]

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
