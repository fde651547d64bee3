"""Equivalence of the numpy kernels with their pure-Python test oracles.

The churn extractors and ``SocialModel.build_graph`` promise results
*identical* to the loops in ``tests/churn_oracle.py`` and
``tests/social_oracle.py`` — same event lists (values and order), same
per-pair counts, same graph edges — so these tests compare them exactly
on randomized workloads, on a few adversarial timestamp layouts (grid
times landing exactly on window boundaries, duplicate timestamps,
reconnect churn), and on every small input of a boundary-heavy grid.
"""

import itertools
import random

import numpy as np
import pytest

from repro.analysis.churn import coleaving_fraction_per_user, extract_churn
from repro.analysis.fastchurn import (
    ColumnarChurnEvents,
    LazyEvents,
    extract_churn_numpy,
)
from repro.core.social import PairStats, SocialModel, build_social_model
from repro.core.typing import TypeModel
from repro.trace.columnar import SessionArrays
from repro.trace.records import SessionRecord, TraceBundle

from tests.churn_oracle import coleaving_fraction_python, extract_churn_python
from tests.social_oracle import build_graph_pairwise


def _random_sessions(seed, n=400, users=40, aps=8, span=2 * 86400):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        connect = rng.uniform(0, span)
        out.append(
            SessionRecord(
                user_id=f"u{rng.randrange(users):03d}",
                ap_id=f"ap{rng.randrange(aps):02d}",
                controller_id="c0",
                connect=connect,
                disconnect=connect + rng.uniform(10, 4 * 3600),
                bytes_total=float(rng.randrange(10_000)),
            )
        )
    return out


def _grid_sessions():
    """Timestamps on a 300 s grid: every comparison hits a boundary."""
    out = []
    for i in range(180):
        connect = float((i % 30) * 300)
        out.append(
            SessionRecord(
                user_id=f"u{i % 12:02d}",
                ap_id=f"ap{i % 3}",
                controller_id="c0",
                connect=connect,
                disconnect=connect + float(((i * 7) % 5) * 300),
                bytes_total=0.0,
            )
        )
    return out


def _assert_equivalent(sessions, coleave=300.0, cocome=300.0, min_dur=1200.0):
    reference = extract_churn_python(sessions, coleave, cocome, min_dur)
    fast = extract_churn(sessions, coleave, cocome, min_dur)
    assert reference.leavings == list(fast.leavings)
    assert reference.arrivals == list(fast.arrivals)
    assert reference.co_leavings == list(fast.co_leavings)
    assert reference.co_comings == list(fast.co_comings)
    assert reference.encounters == list(fast.encounters)
    assert reference.co_leaving_pairs() == fast.co_leaving_pairs()
    assert reference.encounter_pairs() == fast.encounter_pairs()


@pytest.mark.parametrize("seed", range(4))
def test_extract_churn_engines_identical_random(seed):
    _assert_equivalent(_random_sessions(seed))


def test_extract_churn_engines_identical_grid_boundaries():
    _assert_equivalent(_grid_sessions(), min_dur=0.0)


def test_extract_churn_engines_identical_duplicate_times():
    sessions = []
    for i in range(60):
        sessions.append(
            SessionRecord(
                user_id=f"u{i % 5}",
                ap_id="ap0",
                controller_id="c0",
                connect=100.0,
                disconnect=200.0,
                bytes_total=0.0,
            )
        )
    _assert_equivalent(sessions, min_dur=50.0)


@pytest.mark.parametrize("seed", range(4))
def test_coleaving_fraction_engines_identical(seed):
    sessions = _random_sessions(seed)
    for window in (60.0, 300.0, 1800.0):
        reference = coleaving_fraction_python(sessions, window)
        fast = coleaving_fraction_per_user(sessions, window)
        assert reference == fast


#: Every session shape of the exhaustive grid: 2 users x 2 APs x every
#: connect <= disconnect on {0, 300, 600, 900} s.  With a 300 s window
#: and a 600 s encounter minimum, gaps and overlaps land exactly on both
#: boundaries, and zero-length sessions and equal timestamps occur.
_GRID_SHAPES = [
    (user, ap, connect, disconnect)
    for user in ("u0", "u1")
    for ap in ("ap0", "ap1")
    for connect, disconnect in itertools.combinations_with_replacement(
        (0.0, 300.0, 600.0, 900.0), 2
    )
]
_AP_SWAP = {"ap0": "ap1", "ap1": "ap0"}


def _small_logs():
    """Every multiset of <= 3 grid sessions, up to swapping the two APs.

    Both implementations extract each AP independently and only order
    the per-AP blocks by AP id, so a log and its AP-swapped image test
    the same comparisons.  User ids stay as drawn: they decide the
    tie order at equal timestamps, so both labellings are kept.
    """
    for size in range(4):
        for log in itertools.combinations_with_replacement(_GRID_SHAPES, size):
            swapped = tuple(
                sorted((u, _AP_SWAP[a], c, d) for u, a, c, d in log)
            )
            if swapped < log:
                continue
            yield [
                SessionRecord(u, a, "c0", c, d, 0.0) for u, a, c, d in log
            ]


def test_churn_matches_oracle_on_every_small_log():
    checked = 0
    for sessions in _small_logs():
        arrays = SessionArrays.from_sessions(sessions)
        reference = extract_churn_python(sessions, 300.0, 300.0, 600.0)
        fast = extract_churn(arrays, 300.0, 300.0, 600.0)
        assert reference.leavings == list(fast.leavings), sessions
        assert reference.arrivals == list(fast.arrivals), sessions
        assert reference.co_leavings == list(fast.co_leavings), sessions
        assert reference.co_comings == list(fast.co_comings), sessions
        assert reference.encounters == list(fast.encounters), sessions
        assert reference.co_leaving_pairs() == fast.co_leaving_pairs(), sessions
        assert reference.encounter_pairs() == fast.encounter_pairs(), sessions
        assert coleaving_fraction_python(
            sessions, 300.0
        ) == coleaving_fraction_per_user(arrays, 300.0), sessions
        checked += 1
    # 12,341 logs, 6,181 up to the AP swap (21 are their own image).
    assert checked == 6_181


def test_extract_churn_is_columnar_for_records_and_arrays():
    sessions = _random_sessions(1, n=16)
    from_records = extract_churn(sessions)
    from_arrays = extract_churn(SessionArrays.from_sessions(sessions))
    assert isinstance(from_records, ColumnarChurnEvents)
    assert isinstance(from_arrays, ColumnarChurnEvents)
    assert list(from_records.encounters) == list(from_arrays.encounters)


def test_lazy_events_list_contract():
    events = extract_churn_numpy(_random_sessions(3), 300.0, 300.0, 1200.0)
    lazy = events.co_leavings
    assert isinstance(lazy, LazyEvents)
    n = len(lazy)
    assert bool(lazy) == (n > 0)
    materialized = list(lazy)
    assert len(materialized) == n
    assert lazy == materialized
    assert materialized == lazy  # reflected comparison against plain list
    assert lazy[0] == materialized[0]
    extra = materialized[0]
    lazy.append(extra)
    assert len(lazy) == n + 1


def test_trace_bundle_columns_shared():
    sessions = _random_sessions(4, n=100)
    bundle = TraceBundle(sessions=sessions)
    columns = bundle.columns()
    assert columns is bundle.columns()
    assert columns.n_sessions == len(bundle.sessions)
    # Sorted-id code tables: comparing codes == comparing ids.
    assert columns.user_ids == sorted(columns.user_ids)
    assert columns.ap_ids == sorted(columns.ap_ids)
    assert [columns.user_ids[c] for c in columns.user[:5]] == [
        s.user_id for s in bundle.sessions[:5]
    ]


def _type_model(users, k=3, seed=0):
    rng = random.Random(seed)
    assignments = {u: rng.randrange(k) for u in users if rng.random() < 0.85}
    affinity = np.random.default_rng(seed).uniform(0.05, 0.6, size=(k, k))
    affinity = (affinity + affinity.T) / 2
    return TypeModel(
        centroids=np.zeros((k, 6)), assignments=assignments, affinity=affinity
    )


def _social_model(users, seed=0):
    rng = random.Random(seed)
    pairs = {}
    for _ in range(len(users) * 6):
        a, b = rng.sample(users, 2)
        encounters = rng.randrange(0, 7)
        pairs[tuple(sorted((a, b)))] = PairStats(
            encounters=encounters, co_leavings=rng.randrange(0, encounters + 2)
        )
    return SocialModel(pairs, _type_model(users, seed=seed), shrinkage=1.0)


def _graph_signature(graph):
    return (
        graph.nodes,
        sorted((min(u, v), max(u, v), w) for u, v, w in graph.edges()),
    )


@pytest.mark.parametrize("seed", range(3))
def test_build_graph_engines_identical(seed):
    users = [f"u{i:03d}" for i in range(80)]
    model = _social_model(users, seed=seed)
    batch = random.Random(seed).sample(users, 50)
    for threshold in (0.0, 0.1, 0.3):
        python = build_graph_pairwise(model, batch, threshold=threshold)
        fast = model.build_graph(batch, threshold=threshold)
        assert _graph_signature(python) == _graph_signature(fast)
        # Insertion order matches the oracle loop exactly.
        assert list(python.edges()) == list(fast.edges())


#: Pair statistics of the small graph grid: unseen, below the encounter
#: floor, at it, and a capped conditional term.
_PAIR_GRID = (None, (1, 1), (2, 0), (2, 1), (3, 5))  # (encounters, co-leavings)


def test_build_graph_matches_oracle_on_small_grid():
    """Every pair-stat combination over three users, every member subset,
    and every threshold equal to an achieved delta (the strict ``>``)."""
    users = ["a", "b", "c"]
    pairs = list(itertools.combinations(users, 2))
    # a and b have fitted types, c falls back to the unknown-user mean.
    types = TypeModel(
        centroids=np.zeros((2, 6)),
        assignments={"a": 0, "b": 1},
        affinity=np.array([[0.5, 0.25], [0.25, 0.75]]),
    )
    for stats in itertools.product(_PAIR_GRID, repeat=len(pairs)):
        observed = {
            pair: PairStats(*stat)
            for pair, stat in zip(pairs, stats)
            if stat is not None
        }
        model = SocialModel(observed, types, alpha=0.3, shrinkage=1.0)
        deltas = {model.social_index(a, b) for a, b in pairs}
        for threshold in sorted(deltas | {0.0}):
            for size in range(len(users) + 1):
                for members in itertools.combinations(users, size):
                    fast = model.build_graph(members, threshold=threshold)
                    oracle = build_graph_pairwise(model, members, threshold)
                    assert fast.nodes == oracle.nodes
                    assert list(fast.edges()) == list(oracle.edges())


def test_build_graph_cache_invalidated_by_record_events():
    users = [f"u{i:02d}" for i in range(30)]
    model = _social_model(users, seed=5)
    before = model.build_graph(users)
    pair = next(
        (a, b)
        for i, a in enumerate(users)
        for b in users[i + 1 :]
        if not before.has_edge(a, b)
    )
    generation = model.generation
    model.record_events(pair[0], pair[1], encounters=10, co_leavings=10)
    assert model.generation == generation + 1
    after = model.build_graph(users)
    reference = build_graph_pairwise(model, users)
    assert _graph_signature(after) == _graph_signature(reference)
    assert after.has_edge(*pair)
    assert not before.has_edge(*pair)


def test_build_graph_returns_fresh_graph_on_cache_hit():
    users = [f"u{i:02d}" for i in range(20)]
    model = _social_model(users, seed=6)
    first = model.build_graph(users)
    first.remove_nodes(list(first.nodes)[:5])  # clique cover mutates its input
    second = model.build_graph(users)
    assert len(second.nodes) == 20


def test_build_social_model_forwards_shrinkage():
    churn = extract_churn(_random_sessions(7, n=120), 300.0, 300.0, 600.0)
    types = _type_model([f"u{i:03d}" for i in range(40)])
    model = build_social_model(churn, types, shrinkage=3.5)
    assert model.shrinkage == 3.5
    default = build_social_model(churn, types)
    assert default.shrinkage == 1.0
