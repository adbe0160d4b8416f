"""Tests for fan_out, the one fan-out seam, and WorkOutcome.failure_fields."""

from __future__ import annotations

import pytest

from repro.errors import RunInterrupted
from repro.resilience import WorkOutcome, fan_out

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def square(x: int) -> int:
    return x * x


def always_raises(_x: int) -> int:
    raise ValueError("poison")


WORK = [(f"k{i}", i) for i in range(5)]


def test_serial_yields_one_outcome_per_batch_in_order():
    batches = list(fan_out(square, WORK, 1, name="t"))
    assert [len(batch) for batch in batches] == [1] * len(WORK)
    assert [(o.key, o.value) for [o] in batches] == [
        (key, x * x) for key, x in WORK
    ]


def test_one_unit_runs_serially_whatever_the_worker_count():
    assert [len(b) for b in fan_out(square, WORK[:1], 4, name="t")] == [1]


def test_empty_work_yields_nothing():
    assert list(fan_out(square, [], 1, name="t")) == []
    assert list(fan_out(square, [], 4, name="t")) == []


def test_pool_path_covers_every_unit():
    outcomes = [o for batch in fan_out(square, WORK, 2, name="t")
                for o in batch]
    assert sorted((o.key, o.value, o.status) for o in outcomes) == sorted(
        (key, x * x, "completed") for key, x in WORK
    )


def test_serial_interrupt_fires_after_the_consumer_absorbed_the_unit(
    monkeypatch,
):
    monkeypatch.setenv("REPRO_CHAOS", "interrupt:2")
    absorbed = []
    with pytest.raises(RunInterrupted, match="injected interrupt"):
        for batch in fan_out(square, WORK, 1, name="t"):
            absorbed.extend(o.key for o in batch)
    assert absorbed == ["k0", "k1"]


def test_quarantined_failure_fields_strip_tracebacks(monkeypatch):
    monkeypatch.setenv("REPRO_RETRY_MAX_ATTEMPTS", "2")
    [[outcome]] = list(fan_out(always_raises, WORK[:1], 1, name="t"))
    assert outcome.quarantined
    assert all("traceback" in entry for entry in outcome.history)
    fields = outcome.failure_fields()
    assert fields["status"] == "failed"
    assert fields["error"] == "ValueError: poison"
    assert fields["attempts"] == 2
    assert [entry["attempt"] for entry in fields["attempt_history"]] == [1, 2]
    assert all("traceback" not in e for e in fields["attempt_history"])


def test_failure_fields_without_history():
    outcome = WorkOutcome(key="k", value=None, status="quarantined")
    assert outcome.failure_fields() == {
        "status": "failed", "error": "quarantined",
        "attempts": 1, "attempt_history": [],
    }
