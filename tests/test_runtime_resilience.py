"""Pool submission: one future per task, per-task failure accounting."""

from __future__ import annotations

import pytest

from repro.runtime.resilience import run_pool_with_retries, shutdown_pools


def _double(x: int) -> int:
    return x * 2


def _fail_on_three(x: int) -> int:
    if x == 3:
        raise ValueError(f"boom {x}")
    return x * 2


@pytest.fixture(autouse=True)
def _fresh_pools():
    yield
    shutdown_pools()


def test_chunked_submission_returns_every_result():
    out = {}
    failures, first_error = run_pool_with_retries(
        list(range(7)),
        _double,
        str,
        lambda task, value: out.__setitem__(task, value),
        workers=2,
    )
    assert failures == {} and first_error is None
    assert out == {i: i * 2 for i in range(7)}


def test_soft_failure_does_not_poison_chunk_mates():
    out = {}
    failures, first_error = run_pool_with_retries(
        list(range(5)),
        _fail_on_three,
        str,
        lambda task, value: out.__setitem__(task, value),
        workers=1,
    )
    # every task sharing the worker with the raising one still delivered
    assert out == {i: i * 2 for i in range(5) if i != 3}
    assert set(failures) == {"3"}
    assert failures["3"].attempts == 1
    assert "boom 3" in failures["3"].error
    assert isinstance(first_error, ValueError)


def test_soft_failure_retry_accounting_in_chunks():
    out = {}
    failures, _ = run_pool_with_retries(
        list(range(5)),
        _fail_on_three,
        str,
        lambda task, value: out.__setitem__(task, value),
        workers=1,
        max_retries=2,
    )
    assert set(failures) == {"3"}
    assert failures["3"].attempts == 3  # first try + 2 retries
    assert out == {i: i * 2 for i in range(5) if i != 3}
