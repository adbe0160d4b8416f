"""E2 — regenerate Fig 4a/b/c: SNR vs supply voltage per EMT.

One benchmark per application; each sweeps the paper's 0.50-0.90 V grid
with Monte-Carlo stuck-at injection at the profiled BER, for the three
EMTs (no protection / DREAM / ECC SEC/DED) on shared fault maps.  The
three Fig 4 panels are printed at session end.

Set ``REPRO_RUNS=200`` for the paper's full Monte-Carlo depth.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.api.schema import Experiment, Fig4Params
from repro.energy.technology import PAPER_VOLTAGE_GRID
from repro.exp.fig4 import Fig4Result
from repro.exp.report import format_fig4

APP_NAMES = (
    "dwt",
    "matrix_filter",
    "compressed_sensing",
    "morphology",
    "delineation",
)


@pytest.mark.parametrize("app_name", APP_NAMES)
def test_fig4_app(benchmark, app_name, bench_config, report_sink):
    result = benchmark.pedantic(
        lambda: Session().run(Experiment(
            name=f"fig4-{app_name}",
            kind="figure",
            params=Fig4Params(
                apps=(app_name,),
                voltages=PAPER_VOLTAGE_GRID,
                records=bench_config.records,
                duration_s=bench_config.duration_s,
                runs=bench_config.n_runs,
            ),
        )).result(),
        rounds=1,
        iterations=1,
    )
    merged: Fig4Result = report_sink.shared.setdefault(
        "fig4", Fig4Result(voltages=sorted(PAPER_VOLTAGE_GRID),
                           config=bench_config)
    )
    merged.points.update(result.points)
    for emt_name, panel in (
        ("none", "fig4a_no_protection"),
        ("dream", "fig4b_dream"),
        ("secded", "fig4c_ecc_secded"),
    ):
        report_sink.add(panel, format_fig4(merged, emt_name))
    report_sink.shared["fig4_result"] = merged

    # Shape assertions from Section VI-A.
    for emt in ("none", "dream", "secded"):
        series = result.series(app_name, emt)
        # error-free ceiling at nominal supply, degradation at 0.5 V
        assert series[-1] > series[0], (app_name, emt)
    top = result.points[app_name][0.90]
    bottom = result.points[app_name][0.50]
    # At nominal voltage everything sits at its ceiling (no faults).
    assert top.snr_mean_db["none"] == pytest.approx(
        top.snr_mean_db["dream"], abs=1.0
    )
    # At 0.5 V DREAM must beat SEC/DED (multi-error regime, Fig 4b vs c).
    assert bottom.snr_mean_db["dream"] > bottom.snr_mean_db["secded"]
    # ... and no-protection must be the worst of the three.
    assert bottom.snr_mean_db["none"] <= bottom.snr_mean_db["secded"] + 1.0
