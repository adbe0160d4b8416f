"""Experiment-service benchmarks: job latency and burst throughput.

Measures the daemon path end to end, in-process (the service loop runs
in a thread of this process; its worker fleet are real subprocesses —
exactly what ``repro serve`` runs, minus the CLI wrapper):

* submit -> complete latency of a single tiny campaign job, the floor
  every interactive ``repro submit`` pays on an idle daemon;
* a burst of unique campaign jobs against a multi-worker daemon —
  jobs/s from first submit to last terminal state, with the results
  landing in sharded stores (>= 2 shards exercised across the burst);
* 10,000 in-process job lifecycles (submit -> claimed -> running ->
  done) on one long-lived :class:`~repro.service.queue.JobQueue` — the
  journal's per-operation cost, which must not grow with its history;
* 5,000 traced :func:`~repro.obs.run_lifecycle` runs into one run
  registry, each through a fresh :class:`~repro.obs.RunRegistry` as a
  fleet worker opens it — registering and finalizing a run must not
  grow with the registry's history either.

Every leg asserts correctness (all jobs ``done``, every record
readable back) before recording numbers; the throughputs are gated in
``baselines.json`` through ``check_regression.py``.

Fast-mode scale knobs (environment):

* ``REPRO_BENCH_SERVICE_JOBS`` — burst size (default 100).
* ``REPRO_BENCH_SERVICE_WORKERS`` — daemon fleet width (default 4).
"""

from __future__ import annotations

import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _harness import write_bench  # noqa: E402

from repro import obs  # noqa: E402
from repro.campaign.spec import CampaignSpec  # noqa: E402
from repro.campaign.store import ResultStore, SHARDS_ENV  # noqa: E402
from repro.service import (  # noqa: E402
    ExperimentService,
    JobQueue,
    ServiceClient,
    campaign_job_payload,
)


def _burst_jobs(default: int = 100) -> int:
    return int(os.environ.get("REPRO_BENCH_SERVICE_JOBS", default))


def _fleet_workers(default: int = 4) -> int:
    return int(os.environ.get("REPRO_BENCH_SERVICE_WORKERS", default))


def _tiny_spec(index: int) -> CampaignSpec:
    """One small, unique energy campaign — two points, milliseconds."""
    return CampaignSpec(
        name=f"svc-bench-{index:03d}",
        kind="energy",
        axes={"emt": ("none", "dream"), "voltage": (0.9,)},
        fixed={"workload": {
            "n_reads": 50_000 + index, "n_writes": 50_000,
            "duration_s": 1e-3,
        }},
    )


@contextmanager
def _daemon(root: Path, store_dir: Path, workers: int):
    """A live in-process service daemon, drained and stopped on exit."""
    service = ExperimentService(
        root=root, workers=workers, store_dir=store_dir,
        trace_dir=root / "trace", shards=2, poll_s=0.02,
    )
    thread = threading.Thread(target=service.serve, daemon=True)
    thread.start()
    client = ServiceClient(root=root, timeout_s=10.0)
    deadline = time.monotonic() + 30.0
    while True:
        try:
            client.ping()
            break
        except Exception:
            if time.monotonic() > deadline:
                raise AssertionError("benchmark daemon never came up")
            time.sleep(0.02)
    try:
        yield service, client
    finally:
        service.request_stop()
        thread.join(timeout=60.0)
        os.environ.pop(SHARDS_ENV, None)


def _submit(client, spec: CampaignSpec, store_dir: Path):
    payload = campaign_job_payload(
        spec, spec.expand(), spec.name, str(store_dir)
    )
    job, created = client.submit_campaign(payload)
    assert created, f"benchmark spec {spec.name} deduplicated unexpectedly"
    return job.job_id


def test_submit_to_complete_latency(tmp_path):
    """One tiny job on an idle single-worker daemon, timed wall to wall.

    This is pure service overhead — journal append, scheduler tick,
    worker dispatch, store write, terminal mark — since the campaign
    itself is two millisecond-scale energy points.
    """
    store_dir = tmp_path / "stores"
    samples = []
    with _daemon(tmp_path / "root", store_dir, workers=1) as (_svc, client):
        for index in range(5):
            spec = _tiny_spec(900 + index)
            started = time.perf_counter()
            job_id = _submit(client, spec, store_dir)
            record = client.wait(job_id, timeout_s=60.0, poll_s=0.01)
            samples.append(time.perf_counter() - started)
            assert record.status == "done", record.error
    best = min(samples)
    write_bench(
        "service_latency",
        metrics={
            "submit_to_complete_s": best,
            "mean_submit_to_complete_s": sum(samples) / len(samples),
        },
        gate=(),  # raw wall-clock: report, never gate across machines
        meta={"samples": len(samples), "points_per_job": 2},
    )


def test_burst_throughput(tmp_path):
    """A 100-job burst against a 4-worker daemon, results sharded.

    jobs/s from the first submission to the last job's terminal journal
    record.  Every job must finish ``done`` and its records must read
    back through the ordinary store API; the burst as a whole must have
    touched at least two distinct shard files (the sharded backend is
    the point of the exercise, not an implementation detail).
    """
    n_jobs = _burst_jobs()
    workers = _fleet_workers()
    store_dir = tmp_path / "stores"
    specs = [_tiny_spec(index) for index in range(n_jobs)]

    with _daemon(tmp_path / "root", store_dir, workers) as (service, client):
        started = time.perf_counter()
        job_ids = [_submit(client, spec, store_dir) for spec in specs]
        submitted_s = time.perf_counter() - started

        deadline = time.monotonic() + 600.0
        while True:
            jobs = service.queue.load()
            if all(jobs[job_id].terminal for job_id in job_ids):
                break
            assert time.monotonic() < deadline, "burst never drained"
            time.sleep(0.05)
        elapsed = time.perf_counter() - started

    jobs = {job_id: jobs[job_id] for job_id in job_ids}
    failed = {j: r for j, r in jobs.items() if r.status != "done"}
    assert not failed, f"burst jobs failed: {failed}"

    shard_indices = set()
    for spec in specs:
        store = ResultStore.for_campaign(spec.name, root=store_dir)
        records = store.load()
        assert len(records) == 2, f"{spec.name}: {len(records)} records"
        shard_dir = store_dir / f"{spec.name}.shards"
        shard_indices.update(
            shard.name for shard in shard_dir.glob("shard-*.jsonl")
        )
    assert len(shard_indices) >= 2, "burst never spread across shards"

    write_bench(
        "service_throughput",
        metrics={
            "jobs_per_s": n_jobs / elapsed,
            "burst_s": elapsed,
            "submit_s": submitted_s,
            "points_per_s": 2 * n_jobs / elapsed,
        },
        gate=("jobs_per_s",),
        meta={
            "n_jobs": n_jobs,
            "workers": workers,
            "shards": 2,
            "points_per_job": 2,
        },
    )


def test_journal_lifecycles(tmp_path):
    """10,000 job lifecycles on one long-lived queue, timed per 1,000.

    Every lifecycle is a submission (full record, payload included) and
    three delta transitions, each preceded by the ``get`` the queue
    does itself.  ``last_to_first`` compares the last 1,000 lifecycles'
    time with the first 1,000's: near 1 when the cost per operation is
    flat, growing with the history when reads re-parse the journal.
    """
    n_lifecycles, block = 10_000, 1_000
    spec = _tiny_spec(0)
    payload = campaign_job_payload(
        spec, spec.expand(), spec.name, str(tmp_path / "stores")
    )
    queue = JobQueue(tmp_path / "root")
    blocks = []
    started = time.perf_counter()
    for first in range(0, n_lifecycles, block):
        block_started = time.perf_counter()
        for index in range(first, first + block):
            job_id = f"lifecycle-{index:05d}"
            queue.submit(job_id, "campaign", payload, name=spec.name)
            queue.mark(job_id, "claimed", owner_pid=1)
            queue.mark(job_id, "running", owner_pid=2)
            queue.mark(job_id, "done", result={"status": "ok"})
        blocks.append(time.perf_counter() - block_started)
    elapsed = time.perf_counter() - started
    assert len(queue) == n_lifecycles
    assert not queue.pending()

    write_bench(
        "journal_lifecycles",
        metrics={
            "lifecycles_per_s": n_lifecycles / elapsed,
            "total_s": elapsed,
            "last_to_first": blocks[-1] / blocks[0],
        },
        gate=("lifecycles_per_s",),
        meta={
            "lifecycles": n_lifecycles,
            "block": block,
            "journal_bytes": queue.path.stat().st_size,
        },
    )


def test_registry_lifecycles(tmp_path, monkeypatch):
    """5,000 traced run lifecycles into one registry, timed per 500.

    Each run opens its trace sink and a fresh registry handle, registers
    and finalizes, as every service job does in its worker.
    ``last_to_first`` compares the last 500 runs' time with the first
    500's: near 1 when ending a run reads nothing it did not write,
    growing with the history when it re-parses the registry.
    """
    n_runs, block = 5_000, 500
    monkeypatch.setenv(obs.core.ENV_DIR, str(tmp_path))
    blocks = []
    started = time.perf_counter()
    for first in range(0, n_runs, block):
        block_started = time.perf_counter()
        for index in range(first, first + block):
            with obs.run_lifecycle(
                f"lifecycle-{index:05d}", name="lifecycle",
                kind="campaign", spec_digest="d1g3st",
            ) as lifecycle:
                lifecycle.metrics["n_points"] = 1
        blocks.append(time.perf_counter() - block_started)
    elapsed = time.perf_counter() - started
    runs = obs.RunRegistry(tmp_path).load()
    assert len(runs) == n_runs
    assert {run.status for run in runs.values()} == {"ok"}

    write_bench(
        "registry_lifecycles",
        metrics={
            "lifecycles_per_s": n_runs / elapsed,
            "total_s": elapsed,
            "last_to_first": blocks[-1] / blocks[0],
        },
        gate=("lifecycles_per_s",),
        meta={
            "lifecycles": n_runs,
            "block": block,
            "registry_bytes": (tmp_path / "registry.jsonl").stat().st_size,
        },
    )
