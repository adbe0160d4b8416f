"""E4 — regenerate the Section VI-C quality/energy trade-off.

Two complementary reproductions:

* the paper's *illustrative* operating points — no protection @ 0.85 V,
  DREAM @ 0.65 V, ECC @ 0.55 V — evaluated on our energy model against
  the published 12.7 % / 30.6 % / 39.5 % savings;
* the *data-derived* policy: a ``figure = "tradeoff"`` experiment on
  DWT runs the Fig 4 quality grid and the energy grid, from which each
  EMT's lowest safe voltage for a given tolerance and the hybrid
  voltage-range policy are derived.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.api.schema import Experiment, TradeoffParams
from repro.energy.technology import PAPER_VOLTAGE_GRID
from repro.exp.report import format_paper_example, format_tradeoff
from repro.exp.tradeoff import paper_example_savings, tradeoff_from_records


def test_paper_example_points(benchmark, report_sink):
    points = benchmark.pedantic(paper_example_savings, rounds=1, iterations=1)
    report_sink.add("tradeoff_paper_points", format_paper_example(points))

    by_name = {p.emt_name: p.saving_vs_nominal * 100 for p in points}
    # Published: 12.7 / 30.6 / 39.5 — require the ordering and rough
    # magnitudes (the substrate is an analytical model, not their chip).
    assert by_name["none"] < by_name["dream"] < by_name["secded"]
    assert by_name["none"] == pytest.approx(12.7, abs=5.0)
    assert by_name["dream"] == pytest.approx(30.6, abs=5.0)
    assert by_name["secded"] == pytest.approx(39.5, abs=6.0)


def test_data_derived_policy(benchmark, report_sink, bench_config):
    """Derive the policy at two tolerances.

    At a literal -1 dB (the paper's example) our stricter 96 dB ceiling
    makes the requirement extremely tight; a -5 dB tolerance exposes the
    paper's three-range structure (none / DREAM / ECC tiles).  Both are
    reported; EXPERIMENTS.md discusses the calibration difference.
    """

    def derive():
        params = TradeoffParams(
            app="dwt",
            records=bench_config.records,
            duration_s=bench_config.duration_s,
            runs=bench_config.n_runs,
            tolerance_db=1.0,
        )
        handle = Session().run(
            Experiment(name="tradeoff-dwt", kind="figure", params=params)
        )
        # The same records reduce under any tolerance.
        return handle.result(), tradeoff_from_records(
            handle.records, "dwt", params.emts, 5.0, PAPER_VOLTAGE_GRID
        )

    (strict, relaxed) = benchmark.pedantic(derive, rounds=1, iterations=1)
    report_sink.add(
        "tradeoff_vi_c",
        format_tradeoff(strict) + "\n\n" + format_tradeoff(relaxed),
    )

    for result in (strict, relaxed):
        floors = {p.emt_name: p.v_min_safe for p in result.operating_points}
        # Protection strength must extend the safe range downward (or tie).
        if "dream" in floors and "none" in floors:
            assert floors["dream"] <= floors["none"]
        if "secded" in floors and "dream" in floors:
            assert floors["secded"] <= floors["dream"]
        # The policy tiles contiguously from the nominal voltage.
        if result.policy:
            assert result.policy[0].v_max == pytest.approx(
                max(PAPER_VOLTAGE_GRID)
            )
