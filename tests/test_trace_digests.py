"""Pinned bytes of the trace generator, and oracles for its batched draws.

The digests in ``tests/fixtures/trace_digests.json`` are the SHA-256 of
the TINY, SMALL and PAPER generator output:

* ``<preset>_demands``: every :class:`DemandSession` in bundle order, one
  line each, floats written with :meth:`float.hex`;
* ``<preset>_flows``: every :class:`FlowArrays` column in slot order, the
  id tables as JSON and the arrays as their dtype and raw bytes.

They fail on any change to what the generator draws or how it turns
draws into records.  A change that moves the trace on purpose (a new
layout version) regenerates them
(``PYTHONPATH=src python tests/test_trace_digests.py``) and says why.

The oracles pin each batched draw to the scalar numpy calls it replaces:
equal values, and a generator left in the same state, checked by the
next draw.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.config import PAPER, SMALL, TINY
from repro.sim.rng import RandomStreams
from repro.sim.timeline import HOUR, MINUTE
from repro.trace.apps import N_REALMS, REALMS, TrafficModel
from repro.trace.columnar import FlowArrays
from repro.trace.generator import (
    GeneratorConfig,
    TraceGenerator,
    dirichlet_rows,
    generate_trace,
)
from repro.trace.records import DemandSession
from repro.trace.social import ScheduleSlot, SocialGroup, WorldConfig, build_world

DIGESTS = Path(__file__).parent / "fixtures" / "trace_digests.json"

PRESETS = {"tiny": TINY, "small": SMALL, "paper": PAPER}


def demand_digest(demands: Sequence[DemandSession]) -> str:
    """SHA-256 of the demand records, floats as :meth:`float.hex`."""
    lines = [
        ",".join(
            [d.user_id, d.building_id, d.arrival.hex(), d.departure.hex()]
            + [float(b).hex() for b in d.realm_bytes]
            + [d.group_id or ""]
        )
        for d in demands
    ]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def flow_digest(flows: FlowArrays) -> str:
    """SHA-256 of every flow column: id tables as JSON, arrays as bytes."""
    digest = hashlib.sha256()
    for name in FlowArrays.__slots__:
        column = getattr(flows, name)
        digest.update(name.encode("ascii"))
        if isinstance(column, np.ndarray):
            digest.update(column.dtype.str.encode("ascii"))
            digest.update(np.ascontiguousarray(column).tobytes())
        else:
            digest.update(json.dumps(column).encode("utf-8"))
    return digest.hexdigest()


def compute_digests(presets: Sequence[str] = tuple(PRESETS)) -> Dict[str, str]:
    """The pinned digests of each preset's generated trace."""
    digests: Dict[str, str] = {}
    for name in presets:
        _, bundle = generate_trace(PRESETS[name].generator_config())
        digests[f"{name}_demands"] = demand_digest(bundle.demands)
        digests[f"{name}_flows"] = flow_digest(bundle.flow_columns())
    return digests


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_generated_trace_matches_the_pinned_digests(preset: str) -> None:
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    expected = {key: pinned[key] for key in (f"{preset}_demands", f"{preset}_flows")}
    assert compute_digests([preset]) == expected


# ------------------------------------------------------------------ oracles


def _same_state(a: np.random.Generator, b: np.random.Generator) -> bool:
    return a.random() == b.random()


_ALPHA = st.floats(min_value=0.01, max_value=40.0, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    alpha=st.lists(
        st.lists(_ALPHA, min_size=N_REALMS, max_size=N_REALMS),
        min_size=0,
        max_size=12,
    ),
)
def test_dirichlet_rows_equal_one_dirichlet_per_row(seed: int, alpha: List[List[float]]) -> None:
    matrix = np.array(alpha, dtype=float).reshape(len(alpha), N_REALMS)
    batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    rows = dirichlet_rows(batched, matrix)
    expected = [scalar.dirichlet(row) for row in matrix]
    assert rows.shape == matrix.shape
    assert [row.tobytes() for row in rows] == [row.tobytes() for row in expected]
    assert _same_state(batched, scalar)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
def test_dirichlet_rows_rejects_non_positive_alpha(bad: float) -> None:
    matrix = np.full((3, N_REALMS), 2.0)
    matrix[1, 4] = bad
    with pytest.raises(ValueError, match="alpha must be positive"):
        dirichlet_rows(np.random.default_rng(0), matrix)


def _scalar_volumes(
    model: TrafficModel, rng: np.random.Generator, weights: Sequence[float], seconds: float
) -> np.ndarray:
    """The per-realm form: one ``VolumeModel.sample`` per drawn realm."""
    volumes = np.zeros(N_REALMS)
    for realm in REALMS:
        if weights[realm] <= 0:
            continue
        volumes[realm] = model.volume(realm).sample(rng, seconds / 3600.0)[0] * weights[realm]
    return volumes


_WEIGHT = st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=10.0))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    weights=st.lists(_WEIGHT, min_size=N_REALMS, max_size=N_REALMS),
    seconds=st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=2 * 86400.0),
    ),
)
def test_session_volumes_equal_one_draw_per_realm(
    seed: int, weights: List[float], seconds: float
) -> None:
    model = TrafficModel()
    batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    volumes = model.sample_session_volumes(batched, weights, seconds)
    assert volumes.tobytes() == _scalar_volumes(model, scalar, weights, seconds).tobytes()
    assert _same_state(batched, scalar)


def _lognormal_volumes(
    model: TrafficModel,
    rng: np.random.Generator,
    weights: Sequence[float],
    seconds: float,
) -> np.ndarray:
    """The one-``lognormal`` form :meth:`TrafficModel.sample_session_volumes`
    replaced: one call over the positive-weight realms, in realm order."""
    weights = np.asarray(weights, dtype=float)
    medians = np.array([model.volume(realm).median_bytes for realm in REALMS])
    sigmas = np.array([model.volume(realm).sigma for realm in REALMS])
    drawn = weights > 0
    mu = np.log(medians[drawn] * max(seconds / 3600.0, 1e-6))
    volumes = np.zeros(N_REALMS)
    volumes[drawn] = rng.lognormal(mu, sigmas[drawn]) * weights[drawn]
    return volumes


_SECONDS = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=3.6e-3),  # below the 1e-6 h clamp
    st.floats(min_value=0.0, max_value=2 * 86400.0),
)
_WEIGHTS = st.one_of(
    st.just([0.0] * N_REALMS),
    st.lists(_WEIGHT, min_size=N_REALMS, max_size=N_REALMS),
)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), weights=_WEIGHTS, seconds=_SECONDS)
def test_session_volumes_equal_one_lognormal(
    seed: int, weights: List[float], seconds: float
) -> None:
    model = TrafficModel()
    batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    volumes = model.sample_session_volumes(batched, weights, seconds)
    expected = _lognormal_volumes(model, scalar, weights, seconds)
    assert volumes.tobytes() == expected.tobytes()
    assert _same_state(batched, scalar)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sessions=st.lists(st.tuples(_WEIGHTS, _SECONDS), max_size=8),
)
def test_day_volumes_equal_one_lognormal_per_session(seed: int, sessions) -> None:
    """The generator's form: each session's normals drawn in turn, the
    volumes computed afterwards for all sessions at once."""
    model = TrafficModel()
    batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    weights = np.array([w for w, _ in sessions], dtype=float).reshape(-1, N_REALMS)
    normals = [batched.standard_normal(np.count_nonzero(row > 0)) for row in weights]
    volumes = model.session_volumes(
        weights,
        np.array([seconds for _, seconds in sessions], dtype=float),
        np.concatenate(normals) if normals else np.zeros(0),
    )
    expected = [_lognormal_volumes(model, scalar, w, s) for w, s in sessions]
    assert [row.tobytes() for row in volumes] == [row.tobytes() for row in expected]
    assert _same_state(batched, scalar)


def test_day_volumes_reject_what_one_session_rejects() -> None:
    model = TrafficModel()
    weights = np.ones((2, N_REALMS))
    normals = np.zeros(2 * N_REALMS)
    for seconds in ([60.0, -1.0], [float("nan"), 60.0]):
        with pytest.raises(ValueError, match="duration"):
            model.session_volumes(weights, np.array(seconds), normals)
    bad = weights.copy()
    bad[1, 3] = float("nan")
    with pytest.raises(ValueError, match="non-negative"):
        model.session_volumes(bad, np.array([60.0, 60.0]), normals)
    with pytest.raises(ValueError, match="one normal per drawn realm"):
        model.session_volumes(weights, np.array([60.0, 60.0]), normals[1:])


_JITTER = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=4000.0))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    arrival_jitter=_JITTER,
    departure_jitter=_JITTER,
    start=st.floats(min_value=0.0, max_value=30 * 86400.0),
    length=st.floats(min_value=60.0, max_value=4 * 3600.0),
)
def test_member_times_equal_two_normals(
    seed: int,
    arrival_jitter: float,
    departure_jitter: float,
    start: float,
    length: float,
) -> None:
    group = SocialGroup(
        "g", ("u1",), "B00", (ScheduleSlot(0, 8 * HOUR, HOUR),),
        arrival_jitter=arrival_jitter, departure_jitter=departure_jitter,
    )
    batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        times = TraceGenerator._member_times(batched, group, start, start + length)
        arrival = start + abs(scalar.normal(0.0, arrival_jitter))
        departure = start + length + scalar.normal(0.0, departure_jitter)
        assert times == (arrival, max(departure, arrival + MINUTE))
    assert _same_state(batched, scalar)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mean=st.floats(min_value=1.0, max_value=1e5),
    sigma=st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=3.0)),
)
def test_solo_duration_equals_lognormal(seed: int, mean: float, sigma: float) -> None:
    config = GeneratorConfig(
        world=WorldConfig(n_buildings=1, aps_per_building=2, n_users=4, n_groups=1),
        n_days=1,
        seed=3,
        solo_duration_mean=mean,
        solo_duration_sigma=sigma,
    )
    streams = RandomStreams(config.seed)
    world = build_world(config.world, streams)
    generator = TraceGenerator(world, config, streams=streams)
    batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        expected = scalar.lognormal(np.log(mean), sigma)
        assert generator._solo_duration(batched) == expected
    assert _same_state(batched, scalar)


def _solo_generator(diurnal) -> TraceGenerator:
    config = GeneratorConfig(
        world=WorldConfig(n_buildings=1, aps_per_building=2, n_users=4, n_groups=1),
        n_days=1,
        seed=3,
        solo_diurnal=diurnal,
    )
    streams = RandomStreams(config.seed)
    return TraceGenerator(build_world(config.world, streams), config, streams=streams)


def _scalar_solo_start(diurnal, rng: np.random.Generator) -> float:
    """The ``rng.choice(p=...)`` form of :meth:`TraceGenerator._solo_start`."""
    hours, weights, stds = zip(*diurnal)
    p = np.asarray(weights) / sum(weights)
    component = rng.choice(len(hours), p=p)
    start = rng.normal(hours[component], stds[component]) * HOUR
    return float(np.clip(start, 6 * HOUR, 23.5 * HOUR))


_COMPONENT = st.tuples(
    st.floats(min_value=0.0, max_value=24.0),
    st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=5.0)),
    st.floats(min_value=1e-3, max_value=6.0),
)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    diurnal=st.lists(_COMPONENT, min_size=1, max_size=5).filter(
        lambda parts: sum(w for _, w, _ in parts) > 0
    ),
)
def test_solo_start_equals_choice_then_normal(seed: int, diurnal) -> None:
    generator = _solo_generator(tuple(diurnal))
    batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(5):
        assert generator._solo_start(batched) == _scalar_solo_start(diurnal, scalar)
    assert _same_state(batched, scalar)


def test_moods_equal_one_dirichlet_per_user() -> None:
    config = dataclasses.replace(TINY.generator_config(), n_days=2)
    streams = RandomStreams(config.seed)
    generator = TraceGenerator(build_world(config.world, streams), config, streams=streams)
    for day in range(config.n_days):
        moods = generator._daily_moods(day)
        rng = RandomStreams(config.seed).get(f"mood-{day}")
        assert moods.shape == (len(generator.world.users), N_REALMS)
        for row, user_id in enumerate(sorted(generator.world.users)):
            base = generator.world.users[user_id].interest_vector()
            expected = rng.dirichlet(config.mood_concentration * base + 0.05)
            assert moods[row].tobytes() == expected.tobytes()


if __name__ == "__main__":
    digests = compute_digests()
    text = json.dumps(digests, indent=2, sort_keys=True) + "\n"
    DIGESTS.write_text(text, encoding="utf-8")
    print(text, end="")
