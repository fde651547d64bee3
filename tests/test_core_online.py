"""Tests for the online-learning S³ extension."""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.demand import DemandEstimator
from repro.core.online import OnlineConfig, OnlineLearner, OnlineS3Strategy
from repro.core.selection import APState, S3Selector
from repro.core.social import SocialModel
from repro.core.typing import TypeModel
from repro.sim.timeline import MINUTE
from repro.wlan.replay import ReplayEngine
from tests.selection_oracle import rebuilt
from tests.social_oracle import per_pair_departure


def empty_social(alpha=0.3, min_encounters=2):
    types = TypeModel(
        centroids=np.full((4, 6), 1 / 6),
        assignments={},
        affinity=np.full((4, 4), 0.25),
    )
    return SocialModel({}, types, alpha=alpha, min_encounters=min_encounters)


class TestOnlineConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OnlineConfig(coleave_window=0.0)
        with pytest.raises(ValueError):
            OnlineConfig(encounter_min_duration=-1.0)
        with pytest.raises(ValueError):
            OnlineConfig(coleave_window=600.0, departure_memory=300.0)


class TestOnlineLearner:
    def test_encounter_recorded_for_long_copresence(self):
        social = empty_social()
        learner = OnlineLearner(social)
        learner.on_arrival("a", "ap1", 0.0)
        learner.on_arrival("b", "ap1", 60.0)
        learner.on_departure("a", "ap1", 30 * MINUTE)
        stats = social.pair_stats("a", "b")
        assert stats is not None
        assert stats.encounters == 1
        assert learner.encounters_recorded == 1

    def test_short_copresence_not_an_encounter(self):
        social = empty_social()
        learner = OnlineLearner(social)
        learner.on_arrival("a", "ap1", 0.0)
        learner.on_arrival("b", "ap1", 0.0)
        learner.on_departure("a", "ap1", 5 * MINUTE)
        assert social.pair_stats("a", "b") is None

    def test_coleaving_recorded_within_window(self):
        social = empty_social()
        learner = OnlineLearner(social)
        learner.on_arrival("a", "ap1", 0.0)
        learner.on_arrival("b", "ap1", 0.0)
        learner.on_departure("a", "ap1", 3600.0)
        learner.on_departure("b", "ap1", 3600.0 + 2 * MINUTE)
        stats = social.pair_stats("a", "b")
        assert stats.co_leavings == 1
        # Both also encountered (an hour together).
        assert stats.encounters == 1

    def test_departure_outside_window_not_coleaving(self):
        social = empty_social()
        learner = OnlineLearner(social)
        learner.on_arrival("a", "ap1", 0.0)
        learner.on_arrival("b", "ap1", 0.0)
        learner.on_departure("a", "ap1", 3600.0)
        learner.on_departure("b", "ap1", 3600.0 + 10 * MINUTE)
        stats = social.pair_stats("a", "b")
        assert stats.co_leavings == 0

    def test_different_aps_do_not_pair(self):
        social = empty_social()
        learner = OnlineLearner(social)
        learner.on_arrival("a", "ap1", 0.0)
        learner.on_arrival("b", "ap2", 0.0)
        learner.on_departure("a", "ap1", 3600.0)
        learner.on_departure("b", "ap2", 3601.0)
        assert social.pair_stats("a", "b") is None

    def test_unseen_arrival_ignored_gracefully(self):
        social = empty_social()
        learner = OnlineLearner(social)
        learner.on_departure("ghost", "ap1", 100.0)  # no crash
        assert learner.co_leavings_recorded == 0

    def test_old_departures_expire_from_ring(self):
        social = empty_social()
        config = OnlineConfig(departure_memory=30 * MINUTE)
        learner = OnlineLearner(social, config)
        learner.on_arrival("a", "ap1", 0.0)
        learner.on_departure("a", "ap1", 1000.0)
        learner.on_arrival("b", "ap1", 0.0)
        learner.on_departure("b", "ap1", 1000.0 + 35 * MINUTE)
        ring = learner._departures["ap1"]
        assert [user for _, user in ring] == ["b"]

    def test_repeated_events_accumulate(self):
        social = empty_social()
        learner = OnlineLearner(social)
        for round_start in (0.0, 10000.0, 20000.0):
            learner.on_arrival("a", "ap1", round_start)
            learner.on_arrival("b", "ap1", round_start)
            learner.on_departure("a", "ap1", round_start + 3600.0)
            learner.on_departure("b", "ap1", round_start + 3630.0)
        stats = social.pair_stats("a", "b")
        assert stats.encounters == 3
        assert stats.co_leavings == 3
        # Enough evidence for a real social index now.
        assert social.social_index("a", "b") > 0.5


class MaxOverlapLearner(OnlineLearner):
    """The learner with its original departure step, kept as the oracle:
    every resident's overlap is ``time - max(joined_at, other_joined)``,
    the whole ring is scanned, and each pair is its own
    ``record_events`` call."""

    on_departure = per_pair_departure


#: Gaps between stream events: zero, sub-second, and around the
#: 20-minute encounter threshold, so overlaps land exactly on it, just
#: short of it, and well past it.
_GAPS = [0.0, 0.1, 60.0, 300.0, 20 * MINUTE - 0.1, 20 * MINUTE, 20 * MINUTE + 0.1]


#: How far a departure's time may fall behind the stream clock: replay
#: observes a demand that ended during the batching delay with its own,
#: earlier departure time.  Around the five-minute co-leave window.
_BACKS = [0.0, 0.0, 0.0, 30.0, 5 * MINUTE - 0.1, 5 * MINUTE, 5 * MINUTE + 0.1]


def _warm(social, mode):
    """Build the caches a consumer of ``social`` would hold live."""
    if mode in ("adjacency", "graph"):
        social.conditional_partners("u0")
    if mode == "graph":
        social.build_graph([f"u{i}" for i in range(8)])


class TestDepartureMatchesMaxOverlap:
    """:meth:`OnlineLearner.on_departure` — the two-threshold encounter
    test, the co-leave suffix scan and the one-pass
    :meth:`SocialModel.record_departure` fold — is the ``max``-overlap
    learner that records each pair with its own ``record_events`` call,
    down to generations, adjacency order and pickle bytes."""

    @settings(max_examples=120, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.sampled_from(["ap1", "ap2"]),
                st.sampled_from(_GAPS),
                st.sampled_from(_BACKS),
            ),
            min_size=1,
            max_size=60,
        ),
        start=st.sampled_from([0.0, 0.3, 1e6 + 0.7]),
        warm=st.sampled_from(["cold", "adjacency", "graph"]),
    )
    # u1's departure lands more than the co-leave window before u2's,
    # behind u0's, which is inside it: a suffix scan would stop at u1.
    @example(
        steps=[
            (0, "ap1", 0.0, 0.0),
            (1, "ap1", 0.0, 0.0),
            (2, "ap1", 0.0, 0.0),
            (0, "ap1", 0.0, 0.0),
            (1, "ap1", 0.1, 5 * MINUTE + 0.1),
            (2, "ap1", 0.1, 0.0),
        ],
        start=0.0,
        warm="adjacency",
    )
    # u1's second encounter with u0 lifts the pair over the floor while
    # neither has an adjacency row: u0's row, the smaller id's, comes
    # first, as the per-pair patches create it.
    @example(
        steps=[
            (1, "ap1", 0.0, 0.0),
            (0, "ap1", 0.0, 0.0),
            (1, "ap1", 20 * MINUTE + 0.1, 0.0),
            (1, "ap1", 0.0, 0.0),
            (1, "ap1", 20 * MINUTE + 0.1, 0.0),
        ],
        start=0.0,
        warm="adjacency",
    )
    def test_same_pairs_and_tallies(self, steps, start, warm):
        new = OnlineLearner(empty_social())
        old = MaxOverlapLearner(empty_social())
        for learner in (new, old):
            _warm(learner.social, warm)
        where = {}
        time = start
        for user_index, ap_id, gap, back in steps:
            time += gap
            user = f"u{user_index}"
            for learner in (new, old):
                if user in where:
                    learner.on_departure(user, where[user], time - back)
                elif user_index == 7:
                    # A departure whose arrival was never observed.
                    learner.on_departure(user, ap_id, time)
                else:
                    learner.on_arrival(user, ap_id, time)
            if user in where:
                del where[user]
            elif user_index != 7:
                where[user] = ap_id
        assert list(new.social._pairs.items()) == list(old.social._pairs.items())
        assert new.encounters_recorded == old.encounters_recorded
        assert new.co_leavings_recorded == old.co_leavings_recorded
        assert new._departures == old._departures
        assert new.social.generation == old.social.generation
        users = [f"u{i}" for i in range(8)]
        assert pickle.dumps(new.social) == pickle.dumps(old.social)
        assert [list(new.social.conditional_partners(u).items()) for u in users] == [
            list(old.social.conditional_partners(u).items()) for u in users
        ]
        # The learners' classes differ; their pickled states must not.
        assert pickle.dumps(new.__getstate__()) == pickle.dumps(old.__getstate__())

    def test_backwards_departure_keeps_the_full_scan(self):
        """A ring with a departure placed before an earlier one is not
        sorted, so a match can sit in front of a miss."""
        learner = OnlineLearner(empty_social())
        for user, at in (("a", 0.0), ("b", 0.0), ("c", 0.0)):
            learner.on_arrival(user, "ap1", at)
        learner.on_departure("a", "ap1", 1000.0)
        # Departed "earlier" than "a": 400 s before the next departure.
        learner.on_departure("b", "ap1", 600.0)
        learner.on_departure("c", "ap1", 1000.0 + 4 * MINUTE)
        # "a" left 240 s before "c" (a co-leaving); "b" 640 s before.
        assert learner.social.pair_stats("a", "c").co_leavings == 1
        assert learner.social.pair_stats("b", "c") is None
        restored = pickle.loads(pickle.dumps(learner))
        assert restored._unordered == {"ap1"}

    def test_overlap_exactly_at_threshold_is_an_encounter(self):
        for cls in (OnlineLearner, MaxOverlapLearner):
            learner = cls(empty_social())
            learner.on_arrival("a", "ap1", 0.0)
            learner.on_arrival("b", "ap1", 100.0)
            learner.on_departure("a", "ap1", 100.0 + 20 * MINUTE)
            assert learner.encounters_recorded == 1


class TestOnlineS3Strategy:
    def _strategy(self):
        selector = S3Selector(empty_social(), DemandEstimator())
        return OnlineS3Strategy(selector)

    def test_serves_selections_like_s3(self):
        strategy = self._strategy()
        states = rebuilt(
            strategy.selector.social, [APState("a", 1e6, 0.0), APState("b", 1e6, 0.0)]
        )
        assert strategy.select("u", states) in ("a", "b")
        placement = strategy.assign_batch(["u", "v"], states)
        assert sorted(placement) == ["u", "v"]

    def test_departure_updates_demand_estimate(self):
        strategy = self._strategy()
        strategy.observe_arrival("u", "ap1", 0.0)
        strategy.observe_departure("u", "ap1", 100.0, mean_rate=1234.0)
        assert strategy.selector.demand.estimate("u") == pytest.approx(1234.0)

    def test_cold_start_learns_during_replay(self, tiny_workload):
        """Replaying a cold-start online S³ over the evaluation days must
        accumulate social knowledge from scratch."""
        strategy = self._strategy()
        engine = ReplayEngine(
            tiny_workload.world.layout, strategy, tiny_workload.config.replay
        )
        result = engine.run(tiny_workload.test_demands)
        assert len(result.sessions) > 0
        assert strategy.selector.social.known_pairs() > 0
        assert strategy.learner.co_leavings_recorded > 0
        assert strategy.learner.encounters_recorded > 0

    def test_learned_pairs_match_offline_extraction_scale(self, tiny_workload):
        """The online extractor should find the same order of magnitude of
        co-leavings as the offline extractor over the same sessions."""
        from repro.analysis.churn import extract_churn

        strategy = self._strategy()
        engine = ReplayEngine(
            tiny_workload.world.layout, strategy, tiny_workload.config.replay
        )
        result = engine.run(tiny_workload.test_demands)
        offline = extract_churn(result.sessions)
        online_count = strategy.learner.co_leavings_recorded
        offline_count = len(offline.co_leavings)
        assert offline_count > 0
        # Online counting uses association times (post-batching), offline
        # the recorded demand times, so allow a generous band.
        assert 0.4 * offline_count <= online_count <= 2.0 * offline_count
