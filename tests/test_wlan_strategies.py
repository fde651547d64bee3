"""Tests for the selection strategies."""

import numpy as np
import pytest

from repro.core.selection import APState
from repro.wlan.strategies import (
    LeastLoadedFirst,
    RandomSelection,
    S3Strategy,
    StrongestSignal,
)
from tests.selection_oracle import rebuilt


def aps(*specs):
    return [
        APState(ap_id=name, bandwidth=1e6, load=load, users=tuple(users))
        for name, load, users in specs
    ]


class TestStrongestSignal:
    def test_picks_best_rssi(self):
        strategy = StrongestSignal()
        states = aps(("a", 999.0, []), ("b", 0.0, []))
        choice = strategy.select("u", states, rssi={"a": -40.0, "b": -70.0})
        assert choice == "a"  # load ignored entirely

    def test_without_rssi_falls_back_to_first_id(self):
        strategy = StrongestSignal()
        assert strategy.select("u", aps(("b", 0, []), ("a", 0, []))) == "a"

    def test_rssi_for_unknown_aps_ignored(self):
        strategy = StrongestSignal()
        states = aps(("a", 0, []), ("b", 0, []))
        choice = strategy.select("u", states, rssi={"z": -10.0, "b": -50.0})
        assert choice == "b"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            StrongestSignal().select("u", [])


class TestLeastLoadedFirst:
    def test_load_metric(self):
        strategy = LeastLoadedFirst()
        assert strategy.name == "llf"
        states = aps(("a", 100.0, []), ("b", 10.0, []))
        assert strategy.select("u", states) == "b"

    def test_users_metric(self):
        strategy = LeastLoadedFirst(metric="users")
        assert strategy.name == "llf-users"
        states = aps(("a", 1.0, ["x", "y"]), ("b", 100.0, ["z"]))
        assert strategy.select("u", states) == "b"

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            LeastLoadedFirst(metric="entropy")

    def test_no_batch_logic(self):
        assert LeastLoadedFirst().assign_batch(["u"], aps(("a", 0, []))) is None


class TestRandomSelection:
    def test_deterministic_with_seed(self):
        states = aps(("a", 0, []), ("b", 0, []), ("c", 0, []))
        a = [
            RandomSelection(np.random.default_rng(3)).select("u", states)
            for _ in range(5)
        ]
        b = [
            RandomSelection(np.random.default_rng(3)).select("u", states)
            for _ in range(5)
        ]
        assert a == b

    def test_covers_all_aps_eventually(self):
        strategy = RandomSelection(np.random.default_rng(0))
        states = aps(("a", 0, []), ("b", 0, []), ("c", 0, []))
        chosen = {strategy.select("u", states) for _ in range(100)}
        assert chosen == {"a", "b", "c"}


class TestS3Strategy:
    def test_delegates_to_selector(self, tiny_model):
        strategy = S3Strategy(tiny_model.selector())
        assert strategy.name == "s3"
        states = rebuilt(strategy.social, aps(("a", 0.0, []), ("b", 0.0, [])))
        user = sorted(tiny_model.types.assignments)[0]
        assert strategy.select(user, states) in ("a", "b")
        assert strategy.consume_degradation() is None

    def test_batch_assignment_total(self, tiny_model):
        strategy = S3Strategy(tiny_model.selector())
        users = sorted(tiny_model.types.assignments)[:6]
        states = rebuilt(
            strategy.social, aps(("a", 0.0, []), ("b", 0.0, []), ("c", 0.0, []))
        )
        placement = strategy.assign_batch(users, states)
        assert placement is not None
        assert sorted(placement) == sorted(users)
