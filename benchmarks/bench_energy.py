"""E3 — regenerate the Section VI-B energy and area analysis.

Reproduction targets: ECC ~ +55 % energy overhead at each voltage,
DREAM ~ +34 % (a ~21-point reduction), encoder area ratio 1.28 and
decoder area ratio 2.20 (ECC vs DREAM).
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.api.schema import EnergyParams, Experiment
from repro.exp.report import format_energy_analysis


def energy_analysis(app: str):
    """The VI-B analysis with the workload measured from ``app``."""
    return Session().run(Experiment(
        name=f"energy-{app}",
        kind="figure",
        params=EnergyParams(workload_app=app),
    )).result()


def test_energy_analysis(benchmark, report_sink):
    analysis = benchmark.pedantic(
        lambda: energy_analysis("dwt"),
        rounds=1,
        iterations=1,
    )
    report_sink.add("energy_vi_b", format_energy_analysis(analysis))

    assert analysis.mean_overhead("dream") == pytest.approx(0.34, abs=0.02)
    assert analysis.mean_overhead("secded") == pytest.approx(0.55, abs=0.02)
    assert analysis.overhead_reduction_points() == pytest.approx(0.21, abs=0.02)
    assert analysis.encoder_area_ratio == pytest.approx(1.28, abs=0.01)
    assert analysis.decoder_area_ratio == pytest.approx(2.20, abs=0.01)


def test_energy_analysis_per_app_workloads(benchmark, report_sink):
    """The overhead ratios are workload-independent (they cancel in the
    per-access ratio) — verified by sweeping all five applications."""

    def run_all():
        return {
            app: energy_analysis(app)
            for app in (
                "dwt",
                "matrix_filter",
                "compressed_sensing",
                "morphology",
                "delineation",
            )
        }

    analyses = benchmark.pedantic(run_all, rounds=1, iterations=1)
    lines = ["per-application VI-B overheads (mean over sweep):"]
    for app, analysis in analyses.items():
        dream = analysis.mean_overhead("dream") * 100
        ecc = analysis.mean_overhead("secded") * 100
        lines.append(f"  {app:20s} dream {dream:5.1f}%   ecc {ecc:5.1f}%")
        assert dream == pytest.approx(34.0, abs=2.0)
        assert ecc == pytest.approx(55.0, abs=2.0)
    report_sink.add("energy_vi_b_per_app", "\n".join(lines))
