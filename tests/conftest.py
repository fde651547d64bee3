"""Shared fixtures: small, session-scoped workloads and trained models.

Generating a campus and training S³ is the expensive part of the suite, so
the TINY and SMALL workloads (and their models) are materialized once per
session through the same cache the experiment runners use.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import SMALL, TINY
from repro.experiments.workload import build_workload, trained_model
from repro.obs import metrics as obs_metrics
from repro.obs.tracer import get_tracer
from repro.runtime.resilience import shutdown_pools


@pytest.fixture(autouse=True)
def _drain_worker_pools():
    """Shut cached worker pools down after every test.

    The resilience layer keeps clean pools warm between runs; across
    *tests* that reuse would leak one test's forked environment
    (monkeypatched module globals, env vars) into the next.
    """
    yield
    shutdown_pools()


@pytest.fixture(autouse=True)
def _reset_metrics_registry():
    """Disable and empty the global metrics registry after every test.

    ``write_journal`` reads the process-global registry, so one test's
    leftover series would otherwise change another test's journal bytes.
    """
    yield
    registry = obs_metrics.get_metrics()
    registry.reset()
    registry.enabled = False
    registry.window_seconds = obs_metrics.DEFAULT_WINDOW_SECONDS


@pytest.fixture(autouse=True)
def _reset_tracer():
    """Disable, empty and detach the global tracer after every test.

    A tracer one test left enabled would otherwise buffer the next
    test's records in memory — and make an unjournaled supervised run's
    checkpoint refuse to capture.
    """
    yield
    tracer = get_tracer()
    tracer.detach()
    tracer.reset()
    tracer.enabled = False


@pytest.fixture(scope="session")
def tiny_workload():
    """One building, 48 users, 8 days — the smallest end-to-end campus."""
    return build_workload(TINY)


@pytest.fixture(scope="session")
def tiny_model(tiny_workload):
    return trained_model(TINY)


@pytest.fixture(scope="session")
def small_workload():
    """Two buildings, 150 users, 12 days — integration-test scale."""
    return build_workload(SMALL)


@pytest.fixture(scope="session")
def small_model(small_workload):
    return trained_model(SMALL)
