"""Tests for the ASCII report renderers."""

from __future__ import annotations

import pytest

from repro.api.schema import (
    EnergyParams,
    Fig2Params,
    Fig4Params,
    TradeoffParams,
)
from repro.exp import ExperimentConfig, overhead_table
from repro.exp.report import (
    format_energy_analysis,
    format_fig2,
    format_fig4,
    format_overheads,
    format_paper_example,
    format_tradeoff,
)
from repro.exp.tradeoff import paper_example_savings
from repro.errors import ExperimentError

FAST = ExperimentConfig(records=("100",), duration_s=3.0, n_runs=2)


@pytest.fixture(scope="module")
def fig2_result(run_figure):
    return run_figure(Fig2Params(
        apps=("morphology",), records=FAST.records,
        duration_s=FAST.duration_s,
    ))


@pytest.fixture(scope="module")
def fig4_result(run_figure):
    return run_figure(Fig4Params(
        apps=("morphology",), voltages=(0.6, 0.9), records=FAST.records,
        duration_s=FAST.duration_s, runs=FAST.n_runs,
    ))


class TestFormatFig2:
    def test_contains_both_stuck_values(self, fig2_result):
        text = format_fig2(fig2_result)
        assert "stuck-at-1" in text
        assert "stuck-at-0" in text
        assert "morphology" in text

    def test_all_bit_positions_present(self, fig2_result):
        text = format_fig2(fig2_result)
        for position in range(16):
            assert f"\n{position:>3}" in text or text.startswith(f"{position} ")


class TestFormatFig4:
    def test_panel_titles(self, fig4_result):
        assert "No protection" in format_fig4(fig4_result, "none")
        assert "DREAM" in format_fig4(fig4_result, "dream")
        assert "ECC SEC/DED" in format_fig4(fig4_result, "secded")

    def test_voltages_present(self, fig4_result):
        text = format_fig4(fig4_result, "dream")
        assert "0.60" in text and "0.90" in text

    def test_empty_result_rejected(self):
        from repro.exp.fig4 import Fig4Result

        with pytest.raises(ExperimentError):
            format_fig4(Fig4Result(), "none")


class TestFormatEnergy:
    def test_headline_lines(self, run_figure):
        text = format_energy_analysis(run_figure(EnergyParams()))
        assert "paper: ~34%" in text
        assert "paper: ~55%" in text
        assert "paper: 1.28" in text
        assert "paper: 2.20" in text
        assert "21" in text


class TestFormatTradeoff:
    def test_policy_rendering(self, run_figure):
        result = run_figure(TradeoffParams(
            app="morphology", records=FAST.records,
            duration_s=FAST.duration_s, runs=FAST.n_runs, tolerance_db=50.0,
        ))
        text = format_tradeoff(result)
        assert "Section VI-C" in text
        assert "morphology" in text
        assert "hybrid policy" in text

    def test_paper_example_rendering(self):
        text = format_paper_example(paper_example_savings())
        assert "12.7" in text
        assert "30.6" in text
        assert "39.5" in text


class TestFormatOverheads:
    def test_paper_row_values(self):
        text = format_overheads(overhead_table((16,)))
        assert "DREAM 5, ECC 6" in text
        assert "dream" in text and "secded" in text
