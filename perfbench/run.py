"""The repository benchmark: three workloads, end-to-end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep_mc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn

Workloads (``workloads.py``):

* ``sweep_mc`` — the paper's Section V Monte-Carlo protocol as a
  ``sweep`` experiment: app ``dwt``, EMTs none/dream/secded, the 9-point
  0.50-0.90 V grid, records 100 and 106 at 8 s, 40 runs, inline.
* ``cohort_fleet`` — a ``cohort`` experiment: 24 patients, policies
  hysteresis and soc, day-long missions, an empty calibration cache.
* ``service_burst`` — one closed-loop client submits 150 tiny energy
  campaign jobs to a ``repro serve`` daemon (2 workers, 2 shards),
  waiting for each reply, then waits for every job and reads back
  every result.

The seed generates every input: the experiments' master seed, the
cohort's patients and the service jobs' workloads.  A run repeats the
workload, each repetition in a fresh process with empty stores and
caches (``repetition.py``), until ``--seconds`` have passed, and
reports medians over repetitions.

End-to-end metrics (``--trace 0``), each the median over repetitions:

* ``setup_s`` — process start to the first timed operation: imports,
  experiment build, and for ``service_burst`` the daemon answering ping.
* ``wall_s`` — the timed region.
* ``peak_rss_mb`` — peak RSS of the repetition process plus the largest
  process of the daemon tree it started.

The run also prints, and appends to the benchmark history read by
``repro bench trend``, each workload's throughput — Monte-Carlo trials
(runs x EMTs x records x voltages) per ``wall_s`` as ``mc_trials_per_s``,
patient missions summed over policies per ``wall_s`` as
``patients_per_s``, jobs per second from the first submit to the last
terminal state as ``jobs_per_s`` — the service's job and submit
latencies, and ``error_rate`` (failed / attempted operations).  They are
not in the result line: on ``sweep_mc`` and ``cohort_fleet`` the
throughput is ``wall_s`` inverted, and a metric there must exist, and be
non-zero, on every workload.

``--trace 1`` alternates untraced and traced repetitions.  The traced
ones wrap each layer's public functions from outside (``layers.py``)
and report the per-layer metrics: self time per layer, work counts,
the service's stage times rebuilt from its job journal,
``layers.unattributed_share`` (wall time no layer covers) and
``trace.overhead_share`` (traced / untraced median wall - 1).  Layers a
workload does not reach read 0.

Output checks count into ``failed``: every sweep point ok with finite
SNRs at most the cap; no failed patient; every job ``done`` with its two
records readable and the burst spread over at least two shards; the same
result digest from every repetition; and, at ``--seed 1`` and full
scale, the digest pinned in ``digests.json``.  The last line of output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
WORKLOAD_NAMES = ("sweep_mc", "cohort_fleet", "service_burst")
DEFAULT_SEED = 1
#: A repetition that takes longer has hung; the whole run must end in 180 s.
REPETITION_TIMEOUT_S = 100.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

#: Workload-specific end-to-end figures: printed and kept in the
#: benchmark history, not in the result line.
SPECIFIC = {
    "mc_trials_per_s": "trials/s",
    "patients_per_s": "missions/s",
    "jobs_per_s": "jobs/s",
    "job_latency_p50_s": "s",
    "job_latency_p90_s": "s",
    "submit_latency_p50_ms": "ms",
}

LAYER_TIMES = (
    "faults.sample_s", "emt.encode_s", "emt.decode_s", "sram.corrupt_s",
    "fabric.glue_s", "apps.compute_s", "signals.snr_s", "signals.synth_s",
    "store.append_s", "store.load_s", "runtime.calibrate_s",
    "runtime.stream_s", "cache.lookup_s", "service.submit_s",
    "service.wait_s", "service.status_s",
)

PER_LAYER = {
    **{name: "s" for name in LAYER_TIMES},
    "faults.trials": "count",
    "faults.faulty_trial_share": "fraction",
    "emt.words": "count",
    "store.records": "count",
    "runtime.calibrations": "count",
    "runtime.windows": "count",
    "cache.lookups": "count",
    "cache.hit_rate": "fraction",
    "service.status_calls": "count",
    "service.queue_wait_p50_s": "s",
    "service.dispatch_p50_s": "s",
    "service.execute_p50_s": "s",
    "service.journal_bytes": "bytes",
    "service.journal_records": "count",
    "service.quarantined_lines": "count",
    "service.job_latency_p50_s": "s",
    "service.job_latency_p90_s": "s",
    "service.submit_latency_p50_ms": "ms",
    "layers.unattributed_share": "fraction",
    "trace.overhead_share": "fraction",
}


def repetition(workload: str, seed: int, traced: bool, scale: str) -> dict:
    """Run one repetition in a fresh process and return its report."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    command = [
        sys.executable, str(HERE / "repetition.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", str(int(traced)), "--scale", scale,
        "--spawned-at", repr(time.time()),
    ]
    # Its own process group, so whatever it leaves running (a service
    # daemon's fleet, say) is stopped with it.
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=REPETITION_TIMEOUT_S)
    finally:
        stop_group(proc)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} repetition exited {proc.returncode}:\n" + stderr[-3000:]
        )
    return json.loads(stdout.strip().splitlines()[-1])


def stop_group(proc: subprocess.Popen) -> None:
    """Kill and reap a repetition and every process left in its group."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def layer_metrics(rep: dict) -> dict[str, float]:
    """The per-layer figures of one traced repetition."""
    busy, counts, specific = rep["busy"], rep["counts"], rep["metrics"]
    trials = counts.get("faults.trials", 0)
    lookups = counts.get("cache.lookups", 0)
    values = {name: busy.get(name, 0.0) for name in LAYER_TIMES}
    values.update({
        "faults.trials": trials,
        "faults.faulty_trial_share": (
            counts.get("faults.faulty_trials", 0) / trials if trials else 0.0
        ),
        "cache.hit_rate": counts.get("cache.hits", 0) / lookups if lookups else 0.0,
        "layers.unattributed_share": 1.0 - sum(busy.values()) / rep["wall_s"],
    })
    for name in ("emt.words", "store.records", "runtime.calibrations",
                 "runtime.windows", "cache.lookups", "service.status_calls"):
        values[name] = counts.get(name, 0)
    # The service's journal stages and latencies come from the outcome.
    for name in PER_LAYER:
        if name not in values:
            values[name] = specific.get(
                name, specific.get(name.removeprefix("service."), 0.0)
            )
    return values


def median_of(reps: list[dict], key) -> float:
    return statistics.median(key(rep) for rep in reps)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str) -> dict:
    """Repeat one workload for ``seconds``; return its result object."""
    untraced: list[dict] = []
    traced: list[dict] = []
    started = time.perf_counter()
    while (
        time.perf_counter() - started < seconds
        or not untraced or (trace and not traced)
    ):
        with_trace = trace and len(traced) < len(untraced)
        rep = repetition(workload, seed, with_trace, scale)
        (traced if with_trace else untraced).append(rep)
    reps = untraced + traced

    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    digests = {rep["digest"] for rep in reps}
    checks = {"same digest in every repetition": len(digests) == 1}
    if seed == DEFAULT_SEED and scale == "full":
        pinned = json.loads(DIGESTS.read_text()).get(workload)
        checks["digest pinned for the default seed"] = digests == {pinned}
    for name, passed in checks.items():
        print(f"{workload:<14s} check  {name}: {'ok' if passed else 'FAILED'}")
        failed += 0 if passed else 1
    attempted = max(attempted, failed)

    printed = {
        "setup_s": median_of(untraced, lambda r: r["setup_s"]),
        "wall_s": median_of(untraced, lambda r: r["wall_s"]),
        "peak_rss_mb": median_of(untraced, lambda r: r["peak_rss_mb"]),
    }
    for name in SPECIFIC:
        if name in untraced[0]["metrics"]:
            printed[name] = median_of(untraced, lambda r: r["metrics"][name])
    printed["error_rate"] = failed / attempted
    units = {**END_TO_END, **SPECIFIC, "error_rate": "fraction"}
    print(f"{workload:<14s} {len(untraced)} untraced + {len(traced)} traced "
          f"repetitions, seed {seed}, {attempted} operations")
    for key in ("setup_s", "wall_s"):
        print(f"{workload:<14s} {key} of each untraced repetition: "
              + " ".join(f"{rep[key]:.3f}" for rep in untraced))
    for name, value in printed.items():
        print(f"{workload:<14s} {name:<24s} {value:>14.6g} {units[name]}")

    if trace:
        per_rep = [layer_metrics(rep) for rep in traced]
        values = {
            name: statistics.median(m[name] for m in per_rep)
            for name in PER_LAYER if name != "trace.overhead_share"
        }
        values["trace.overhead_share"] = (
            median_of(traced, lambda r: r["wall_s"]) / printed["wall_s"] - 1.0
        )
        for name, value in values.items():
            print(f"{workload:<14s} {name:<30s} {value:>14.6g} {PER_LAYER[name]}")
        metrics = {n: {"value": v, "unit": PER_LAYER[n]} for n, v in values.items()}
    else:
        metrics = {
            name: {"value": printed[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
        if scale == "full":
            record_history(workload, printed, seed, len(untraced))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def record_history(workload: str, printed: dict, seed: int, reps: int) -> None:
    """Append the end-to-end medians to the repo's benchmark history."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from _harness import write_bench

    write_bench(
        f"perfbench_{workload}",
        metrics=printed,
        meta={"workload": workload, "seed": seed, "repetitions": reps},
    )


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see the module docstring)."
    )
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: minimum sizes, for the self-test")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace),
                           args.scale)
        for name in names
    }
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
