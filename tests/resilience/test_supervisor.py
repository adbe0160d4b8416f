"""Tests for the supervised pool: crashes, retries, quarantine, cancel.

The chaos layer drives every failure mode deterministically: tests
*search* for a seed whose draws produce the scenario they need (fault
on attempt 1, clean on attempt 2, ...), so nothing here depends on
timing or luck.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import ResilienceError, RunInterrupted
from repro.resilience import (
    RetryPolicy,
    SupervisedPool,
    chaos_draw,
    retry_serial,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def square(x: int) -> int:
    return x * x


def slow_if_negative(x: int) -> int:
    if x < 0:
        time.sleep(60.0)
    return x * x


def unpicklable(_x: int):
    return lambda: None  # lambdas cannot cross the result pipe


def seed_where(site: str, key: str, fault_attempts: tuple[int, ...],
               clean_attempts: tuple[int, ...], p: float) -> int:
    """Find a chaos seed whose draws fault/clear exactly as requested."""
    for seed in range(500):
        if all(chaos_draw(seed, site, key, a) < p for a in fault_attempts) \
                and all(
                    chaos_draw(seed, site, key, a) >= p
                    for a in clean_attempts
                ):
            return seed
    raise AssertionError("no seed found — widen the search")


def drain(pool: SupervisedPool, items) -> list:
    out = []
    for batch in pool.run(items):
        out.extend(batch)
    return out


class TestHappyPath:
    def test_all_units_complete(self):
        out = drain(
            SupervisedPool(square, 3), [(f"k{i}", i) for i in range(10)]
        )
        assert sorted(o.key for o in out) == sorted(f"k{i}" for i in range(10))
        assert all(o.status == "completed" and o.attempts == 1 for o in out)
        assert {o.key: o.value for o in out} == {
            f"k{i}": i * i for i in range(10)
        }

    def test_empty_items_yield_nothing(self):
        assert drain(SupervisedPool(square, 2), []) == []

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ResilienceError, match="duplicate work keys"):
            drain(SupervisedPool(square, 2), [("k", 1), ("k", 2)])

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ResilienceError, match="n_workers"):
            SupervisedPool(square, 0)


class TestCrashRecovery:
    def test_killed_worker_respawns_and_work_retries(self, monkeypatch):
        # Kill key k1's first attempt; its retry draws clean.  The
        # sibling keys get seeds that draw clean on every attempt.
        seed = seed_where("kill", "k1", (1,), (2,), 0.9)
        keys = ["k1"] + [
            f"c{i}" for i in range(40)
            if all(
                chaos_draw(seed, "kill", f"c{i}", a) >= 0.9
                for a in (1, 2, 3)
            )
        ][:3]
        monkeypatch.setenv("REPRO_CHAOS", f"kill:0.9,seed:{seed}")
        out = drain(
            SupervisedPool(square, 2),
            [(key, n) for n, key in enumerate(keys)],
        )
        assert {o.key: o.value for o in out} == {
            key: n * n for n, key in enumerate(keys)
        }
        k1 = next(o for o in out if o.key == "k1")
        assert k1.status == "completed"
        assert k1.attempts >= 2
        assert k1.history[0]["outcome"] == "crash"
        assert "died holding the task" in k1.history[0]["error"]

    def test_transient_exception_retries_then_succeeds(self, monkeypatch):
        seed = seed_where("raise", "k0", (1,), (2,), 0.5)
        monkeypatch.setenv("REPRO_CHAOS", f"raise:0.5,seed:{seed}")
        out = drain(SupervisedPool(square, 2), [("k0", 3)])
        (o,) = out
        assert (o.status, o.value) == ("completed", 9)
        assert o.attempts >= 2
        assert "ChaosError" in o.history[0]["error"]
        assert "traceback" in o.history[0]

    def test_poison_work_quarantined_after_max_attempts(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "raise:1.0")
        policy = RetryPolicy(max_attempts=2, backoff_base_s=0.0)
        out = drain(SupervisedPool(square, 2, policy=policy),
                    [("a", 1), ("b", 2)])
        assert all(o.quarantined for o in out)
        assert all(o.attempts == 2 and len(o.history) == 2 for o in out)
        assert all(o.value is None for o in out)

    def test_certain_kill_quarantines_without_hanging(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "kill:1.0")
        policy = RetryPolicy(max_attempts=2, backoff_base_s=0.0)
        out = drain(SupervisedPool(square, 2, policy=policy), [("a", 1)])
        (o,) = out
        assert o.quarantined
        assert [e["outcome"] for e in o.history] == ["crash", "crash"]

    def test_unpicklable_result_is_a_fault_not_a_hang(self):
        policy = RetryPolicy(max_attempts=1)
        out = drain(SupervisedPool(unpicklable, 1, policy=policy),
                    [("a", 1)])
        (o,) = out
        assert o.quarantined
        assert o.history[0]["outcome"] == "error"

    def test_timeout_kills_and_quarantines(self):
        policy = RetryPolicy(
            max_attempts=2, timeout_s=0.4, backoff_base_s=0.0
        )
        pool = SupervisedPool(slow_if_negative, 2, policy=policy)
        out = drain(pool, [("slow", -1), ("fast", 3)])
        by_key = {o.key: o for o in out}
        assert by_key["fast"].value == 9
        slow = by_key["slow"]
        assert slow.quarantined
        assert all(e["outcome"] == "timeout" for e in slow.history)
        assert "timed out after" in slow.history[0]["error"]


class TestCancellation:
    def test_injected_interrupt_after_completed_units(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "interrupt:2")
        absorbed = []
        with pytest.raises(RunInterrupted, match="injected interrupt"):
            for batch in SupervisedPool(square, 2).run(
                [(f"k{i}", i) for i in range(8)]
            ):
                absorbed.extend(batch)
        # Completed work was yielded (persistable) before the raise.
        assert len(absorbed) >= 2
        assert all(o.status == "completed" for o in absorbed)


class TestRetrySerial:
    def test_clean_run(self):
        o = retry_serial(square, "k", 7)
        assert (o.status, o.value, o.attempts) == ("completed", 49, 1)

    def test_retries_then_succeeds(self, monkeypatch):
        seed = seed_where("raise", "k", (1,), (2,), 0.5)
        monkeypatch.setenv("REPRO_CHAOS", f"raise:0.5,seed:{seed}")
        policy = RetryPolicy(max_attempts=3, backoff_base_s=0.0)
        o = retry_serial(square, "k", 7, policy=policy)
        assert (o.status, o.value, o.attempts) == ("completed", 49, 2)

    def test_quarantines_poison_work(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "raise:1.0")
        policy = RetryPolicy(max_attempts=2, backoff_base_s=0.0)
        o = retry_serial(square, "k", 7, policy=policy)
        assert o.quarantined and o.attempts == 2

    def test_never_kills_the_calling_process(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "kill:1.0")
        o = retry_serial(square, "k", 7)
        assert (o.status, o.value) == ("completed", 49)

    def test_run_interrupted_propagates(self, monkeypatch):
        def interrupting(_x):
            raise RunInterrupted("stop")

        with pytest.raises(RunInterrupted):
            retry_serial(interrupting, "k", 1)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ResilienceError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ResilienceError):
            RetryPolicy(timeout_s=-1.0)
        with pytest.raises(ResilienceError):
            RetryPolicy(jitter=-0.5)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_MAX_ATTEMPTS", "5")
        monkeypatch.setenv("REPRO_WORK_TIMEOUT_S", "2.5")
        policy = RetryPolicy.from_env()
        assert (policy.max_attempts, policy.timeout_s) == (5, 2.5)
        # Explicit overrides beat the environment; timeout 0 disables.
        assert RetryPolicy.from_env(max_attempts=2).max_attempts == 2
        monkeypatch.setenv("REPRO_WORK_TIMEOUT_S", "0")
        assert RetryPolicy.from_env().timeout_s is None

    def test_backoff_deterministic_bounded_growing(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.5,
            jitter=0.25,
        )
        assert policy.backoff_s("k", 1) == 0.0
        b2 = policy.backoff_s("k", 2)
        b3 = policy.backoff_s("k", 3)
        assert b2 == policy.backoff_s("k", 2)  # deterministic jitter
        assert 0.1 <= b2 <= 0.1 * 1.25
        assert 0.2 <= b3 <= 0.2 * 1.25
        # The cap bounds the un-jittered delay however high attempts go.
        assert policy.backoff_s("k", 10) <= 0.5 * 1.25


def _openblas():
    """numpy's bundled OpenBLAS, or ``None`` when it bundles none."""
    import ctypes
    from pathlib import Path

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            return lib
    return None


def blas_threads(_x: int) -> int:
    return _openblas().scipy_openblas_get_num_threads64_()


class TestBlasThreads:
    def test_each_worker_runs_one_blas_thread(self):
        if _openblas() is None:
            pytest.skip("numpy bundles no scipy-openblas")
        outcomes = drain(
            SupervisedPool(blas_threads, 2, name="blas"),
            [(f"k{i}", i) for i in range(4)],
        )
        assert sorted(o.value for o in outcomes) == [1, 1, 1, 1]

    def test_no_bundled_library_is_a_no_op(self, tmp_path, monkeypatch):
        import numpy

        from repro.resilience import supervisor

        monkeypatch.setattr(
            numpy, "__file__", str(tmp_path / "numpy" / "__init__.py")
        )
        supervisor._one_blas_thread()
