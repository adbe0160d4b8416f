"""Adaptive-runtime benchmarks: mission-simulation throughput.

Measures what makes long missions tractable: after the one-off
calibration pass (real fault-injection runs per segment x operating
point), the streaming loop must push a 24 h mission's windows at
interactive rates for every shipped policy.

The table reports windows/second of the *streaming* phase (calibration
warmed up beforehand, as in any repeated exploration; best of five
runs per policy) plus each policy's headline mission metrics, and lands
in ``results/runtime_throughput.txt``.  The rates also go to
``results/BENCH_mission_streaming.json``; ``check_regression.py`` gates
``min_windows_per_s`` — the slowest policy's rate — against
``baselines.json``.

Scale knobs: ``REPRO_MISSION_SCENARIO`` (default ``active_day``) and
``REPRO_MISSION_SCALE`` (default 1.0 — the full 24 h timeline).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _harness import time_call, write_bench  # noqa: E402

from repro.runtime import (  # noqa: E402
    MissionSimulator,
    make_policy,
    scenario_spec,
)
from repro.runtime.policy import StaticPolicy  # noqa: E402

POLICY_TOKENS = ("static", "quality", "soc", "hysteresis")


def bench_scenario() -> str:
    return os.environ.get("REPRO_MISSION_SCENARIO", "active_day")


def bench_scale() -> float:
    return float(os.environ.get("REPRO_MISSION_SCALE", "1.0"))


def _policies():
    return [
        StaticPolicy() if name == "static" else make_policy(name)
        for name in POLICY_TOKENS
    ]


def test_mission_streaming_throughput(report_sink):
    spec = scenario_spec(bench_scenario())
    if bench_scale() != 1.0:
        spec = spec.scaled(bench_scale())
    simulator = MissionSimulator(spec)

    # Warm the calibration caches: every policy's first run pays for the
    # probe runs its trajectory needs; the measured passes then isolate
    # the streaming loop.
    warm = [simulator.run(policy) for policy in _policies()]

    rows = []
    for policy, first in zip(_policies(), warm):
        result, elapsed = time_call(lambda p=policy: simulator.run(p), 5)
        assert result == first  # the streaming loop is deterministic
        rows.append((result, result.n_processed / elapsed))

    hours = spec.total_duration_s / 3600.0
    lines = [
        f"Adaptive runtime — streaming throughput, scenario "
        f"{spec.name!r} ({hours:.1f} h, {spec.n_windows} windows of "
        f"{spec.window_s:g} s)",
        f"{'policy':>22s}  {'windows/s':>10s}  {'lifetime':>9s}  "
        f"{'mean dB':>8s}  {'worst dB':>8s}  {'switches':>8s}",
        f"{'-' * 22}  {'-' * 10}  {'-' * 9}  {'-' * 8}  {'-' * 8}  "
        f"{'-' * 8}",
    ]
    for result, rate in rows:
        lines.append(
            f"{result.policy_name:>22s}  {rate:10.0f}  "
            f"{result.lifetime_days:7.2f} d  {result.mean_snr_db:8.1f}  "
            f"{result.worst_snr_db:8.1f}  {result.n_switches:8d}"
        )
    report_sink.add("runtime_throughput", "\n".join(lines))

    rates = {
        f"{name}_windows_per_s": rate
        for name, (_, rate) in zip(POLICY_TOKENS, rows)
    }
    write_bench(
        "mission_streaming",
        metrics={**rates, "min_windows_per_s": min(rates.values())},
        gate=("min_windows_per_s",),
        meta={
            "scenario": spec.name,
            "windows": spec.n_windows,
            "window_s": spec.window_s,
            "policies": list(POLICY_TOKENS),
        },
    )
