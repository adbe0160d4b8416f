"""E1 — regenerate Fig 2: SNR vs bit position of injected stuck-at errors.

One benchmark per application (the sweep is deterministic — 16 positions
x 2 stuck values x the record corpus); the combined two-table report
(stuck-at-1 / stuck-at-0, all five case studies) is emitted at session
end, matching the series plotted in the paper's Fig 2.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.api.schema import Experiment, Fig2Params
from repro.exp.fig2 import Fig2Result
from repro.exp.report import format_fig2

APP_NAMES = (
    "dwt",
    "matrix_filter",
    "compressed_sensing",
    "morphology",
    "delineation",
)


@pytest.mark.parametrize("app_name", APP_NAMES)
def test_fig2_app(benchmark, app_name, bench_config, report_sink):
    result = benchmark.pedantic(
        lambda: Session().run(Experiment(
            name=f"fig2-{app_name}",
            kind="figure",
            params=Fig2Params(
                apps=(app_name,),
                records=bench_config.records,
                duration_s=bench_config.duration_s,
            ),
        )).result(),
        rounds=1,
        iterations=1,
    )
    merged: Fig2Result = report_sink.shared.setdefault(
        "fig2", Fig2Result(config=bench_config)
    )
    merged.snr_db.update(result.snr_db)
    report_sink.add("fig2", format_fig2(merged))

    # Shape assertions from the paper's Section III findings.
    for stuck in (0, 1):
        series = result.series(app_name, stuck)
        assert series[15] < series[1], (
            f"{app_name}: MSB errors must hurt more than LSB errors"
        )
