"""``IndexDraws`` against a twin generator's ``integers``.

Two generators start from one seed.  One draws its indices through
:class:`~repro.sim.rng.IndexDraws`, the twin through
``Generator.integers``; both interleave the same ``random()`` and
``exponential()`` calls.  Every value must match, and afterwards so must
the bit generators' positions: the next ``random_raw()`` of each, and,
once :meth:`~repro.sim.rng.IndexDraws.sync` writes it back, the held
half-word against the twin's ``has_uint32``/``uinteger``.  The
ranges lean on large ``n``, where Lemire's rejection loop runs (up to
half the time just above ``2**31``), and on ``n == 1``, which draws
nothing.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim.rng import IndexDraws

_MASK32 = 2**32 - 1

_RANGES = st.one_of(
    st.integers(1, 3),
    st.integers(1, 300),
    st.integers(2**31 - 2**20, 2**31 + 2**20),
    st.integers(2**32 - 2**20, _MASK32),
    st.integers(1, _MASK32),
)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("integers"), _RANGES),
        st.tuples(st.just("integers"), _RANGES),
        st.tuples(st.just("random"), st.just(0)),
        st.tuples(st.just("exponential"), st.just(0)),
    ),
    max_size=60,
)

Op = Tuple[str, int]


def _twins(seed: int, lead: int) -> Tuple[np.random.Generator, np.random.Generator]:
    """Two generators at one position; an odd ``lead`` leaves a
    half-word held."""
    ours, twin = (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))
    for _ in range(lead):
        assert ours.integers(1000) == twin.integers(1000)
    return ours, twin


def _run(ours: np.random.Generator, twin: np.random.Generator, ops: List[Op]) -> IndexDraws:
    index = IndexDraws(ours)
    for op, n in ops:
        if op == "integers":
            value = index(n)
            assert type(value) is int
            assert value == int(twin.integers(n))
        elif op == "random":
            assert ours.random() == twin.random()
        else:
            assert ours.exponential(3.0) == twin.exponential(3.0)
    return index


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), lead=st.integers(0, 3), ops=_OPS)
@example(seed=1, lead=0, ops=[("integers", 1), ("random", 0), ("integers", 1)])
@example(seed=1, lead=1, ops=[("integers", 2**31 + 1)] * 8)
@example(seed=7, lead=0, ops=[("integers", _MASK32), ("integers", 2)])
# numpy never rejects for a power of two; at 2**31 half of the words
# would fall under a threshold one off.
@example(seed=3, lead=0, ops=[("integers", 2**31)] * 8)
def test_draws_match_integers(seed: int, lead: int, ops: List[Op]) -> None:
    ours, twin = _twins(seed, lead)
    index = _run(ours, twin, ops)
    assert ours.bit_generator.random_raw() == twin.bit_generator.random_raw()
    # Written back, the held half (``has_uint32``/``uinteger``) is where
    # numpy's own draws find it.
    index.sync()
    assert ours.bit_generator.state == twin.bit_generator.state
    assert ours.integers(2**20, size=3).tolist() == twin.integers(2**20, size=3).tolist()


def test_the_examples_reach_the_rejection_loop() -> None:
    # Eight draws just above 2**31 from a held half-word need four more
    # words without a rejection; the pinned example takes more, so the
    # loop runs in it (about half of such words are rejected).
    ours, twin = _twins(1, 1)
    start = np.random.Generator(np.random.PCG64(1))
    start.bit_generator.state = twin.bit_generator.state
    _run(ours, twin, [("integers", 2**31 + 1)] * 8)
    words = 0
    while start.bit_generator.state["state"] != twin.bit_generator.state["state"]:
        start.bit_generator.random_raw()
        words += 1
    assert words > 4


@pytest.mark.parametrize("n", [2**32, 2**40, 2**63 - 1])
def test_wide_ranges_go_to_numpy(n: int) -> None:
    ours, twin = _twins(11, 1)
    _run(ours, twin, [("integers", 5), ("integers", n), ("integers", 5), ("integers", n)])
    assert ours.bit_generator.random_raw() == twin.bit_generator.random_raw()


@pytest.mark.parametrize("n", [0, -3])
def test_empty_ranges_raise_as_numpy_does(n: int) -> None:
    generator = np.random.Generator(np.random.PCG64(5))
    with pytest.raises(ValueError):
        generator.integers(n)
    with pytest.raises(ValueError):
        IndexDraws(generator)(n)


@pytest.mark.parametrize(
    "bit_generator", [np.random.MT19937, np.random.SFC64, np.random.Philox]
)
def test_other_bit_generators_go_to_numpy(bit_generator: type) -> None:
    ours = np.random.Generator(bit_generator(2))
    twin = np.random.Generator(bit_generator(2))
    ops = [("integers", n) for n in (1, 2, 9, 2**31 + 1, _MASK32)] + [("random", 0)]
    _run(ours, twin, ops * 4)
    assert ours.random() == twin.random()
