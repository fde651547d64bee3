"""Unit tests for the named random-stream factory."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim.rng import RandomStreams, observe_streams, seed_words


class TestRandomStreams:
    def test_same_name_returns_same_generator(self):
        streams = RandomStreams(seed=1)
        assert streams.get("traffic") is streams.get("traffic")

    def test_different_names_give_independent_draws(self):
        streams = RandomStreams(seed=1)
        a = streams.get("a").random(8)
        b = streams.get("b").random(8)
        assert not np.allclose(a, b)

    def test_same_seed_reproduces_streams(self):
        first = RandomStreams(seed=42).get("x").random(16)
        second = RandomStreams(seed=42).get("x").random(16)
        assert np.array_equal(first, second)

    def test_different_seeds_differ(self):
        first = RandomStreams(seed=1).get("x").random(16)
        second = RandomStreams(seed=2).get("x").random(16)
        assert not np.array_equal(first, second)

    def test_adding_consumer_does_not_shift_existing_stream(self):
        # The composition-insensitivity property: draws from "x" must be
        # identical whether or not someone else consumed "y" first.
        plain = RandomStreams(seed=9)
        draws_without = plain.get("x").random(8)
        mixed = RandomStreams(seed=9)
        mixed.get("y").random(100)
        draws_with = mixed.get("x").random(8)
        assert np.array_equal(draws_without, draws_with)

    def test_child_factories_are_deterministic(self):
        a = RandomStreams(seed=5).child("building-1").get("s").random(4)
        b = RandomStreams(seed=5).child("building-1").get("s").random(4)
        assert np.array_equal(a, b)

    def test_child_factories_differ_by_name(self):
        root = RandomStreams(seed=5)
        a = root.child("building-1").get("s").random(4)
        b = root.child("building-2").get("s").random(4)
        assert not np.array_equal(a, b)

    def test_reset_rederives_identical_streams(self):
        streams = RandomStreams(seed=3)
        first = streams.get("x").random(4)
        streams.reset()
        second = streams.get("x").random(4)
        assert np.array_equal(first, second)

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RandomStreams(seed="abc")  # type: ignore[arg-type]


class TestSeedWords:
    """The vectorised derivation is numpy's SeedSequence, word for word."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        tags=st.lists(
            st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=8
        ),
    )
    @example(seed=0, tags=[0])
    @example(seed=2**32 - 1, tags=[2**32 - 1])
    @example(seed=2**32, tags=[1])
    @example(seed=2**63 - 1, tags=[0, 2**32 - 1])
    def test_rows_equal_seed_sequence_state(self, seed, tags):
        words = seed_words(seed, tags)
        assert words.dtype == np.uint64 and words.shape == (len(tags), 4)
        for row, tag in zip(words, tags):
            expected = np.random.SeedSequence(
                entropy=seed, spawn_key=(tag,)
            ).generate_state(4, np.uint64)
            assert row.tolist() == expected.tolist()

    def test_multi_word_entropy_and_no_tags(self):
        for seed in (2**64 + 5, 2**100, 2**130 + 7):
            expected = np.random.SeedSequence(
                entropy=seed, spawn_key=(9,)
            ).generate_state(4, np.uint64)
            assert seed_words(seed, [9])[0].tolist() == expected.tolist()
        assert seed_words(3, []).shape == (0, 4)

    def test_out_of_range_input_rejected(self):
        with pytest.raises(ValueError):
            seed_words(-1, [0])
        with pytest.raises(ValueError):
            seed_words(1, [2**32])
        with pytest.raises(ValueError):
            seed_words(1, [-1])


class TestRecycledGenerators:
    """Prepared seeds and recycled generators draw what fresh ones do."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        controller=st.sampled_from(["shard:ctrl-B00", "shard:ctrl-B07"]),
        stations=st.lists(
            st.tuples(st.integers(0, 30), st.integers(1, 8), st.booleans()),
            min_size=1,
            max_size=12,
        ),
    )
    def test_station_draws_equal_fresh_stream_draws(
        self, seed, controller, stations
    ):
        # A station draws an angle, a radius and one shadowing normal per
        # AP; names may repeat (each draw starts its stream over) and may
        # be left out of the prepared set.
        names = [f"radio-u{user}-{user * 1.5:.3f}" for user, _, _ in stations]
        radios = RandomStreams(seed).child(controller)
        radios.prepare(name for name, (_, _, ready) in zip(names, stations) if ready)
        for name, (_, aps, _) in zip(names, stations):
            rng = radios.get(name)
            drawn = [rng.random(), rng.random(), *rng.normal(0.0, 4.0, size=aps)]
            radios.recycle()
            fresh = RandomStreams(seed).child(controller).get(name)
            expected = [
                fresh.random(), fresh.random(), *fresh.normal(0.0, 4.0, size=aps)
            ]
            assert drawn == expected

    def test_prepare_derives_no_stream_and_get_reports_each(self):
        derived = []
        radios = RandomStreams(5).child("shard:c")
        with observe_streams(lambda kind, name: derived.append((kind, name))):
            radios.prepare(["radio-a-1.000", "radio-b-2.000"])
            assert derived == []
            radios.get("radio-a-1.000")
            radios.recycle()
            radios.get("radio-a-1.000")
        assert derived == [("get", "radio-a-1.000")] * 2

    def test_recycle_starts_streams_over_and_keeps_one_generator(self):
        streams = RandomStreams(seed=3)
        first = streams.get("x")
        draws = first.random(4)
        streams.recycle()
        assert streams.stream_names() == []
        second = streams.get("y")
        assert second is first
        assert np.array_equal(
            second.random(4), RandomStreams(seed=3).get("y").random(4)
        )
        streams.recycle()
        assert np.array_equal(streams.get("x").random(4), draws)


def _child_draw(args):
    """Module-level (picklable) worker: derive a child stream and draw."""
    seed, child_name, stream, n = args
    from repro.sim.rng import RandomStreams as Streams

    return Streams(seed=seed).child(child_name).get(stream).random(n).tolist()


class TestCrossProcessStability:
    def test_child_streams_identical_across_processes(self):
        # The fork-safety contract of repro.runtime: a worker that
        # re-derives child(name) from (seed, name) must reproduce the
        # parent's draws exactly -- child() is pure arithmetic over the
        # seed, carrying no process-local state.
        from concurrent.futures import ProcessPoolExecutor

        jobs = [(11, f"shard:ctrl-{i}", "radio", 6) for i in range(3)]
        local = [_child_draw(job) for job in jobs]
        with ProcessPoolExecutor(max_workers=2) as pool:
            remote = list(pool.map(_child_draw, jobs))
        assert remote == local

    def test_child_seed_independent_of_parent_consumption(self):
        fresh = RandomStreams(seed=11).child("shard:c").get("s").random(4)
        used = RandomStreams(seed=11)
        used.get("other").random(64)
        assert np.array_equal(used.child("shard:c").get("s").random(4), fresh)
