"""Tests for the experiment drivers (small, fast configurations).

The full paper-scale sweeps live in ``benchmarks/``; these tests verify
the drivers' mechanics and the *directional* claims on reduced grids.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session
from repro.api.schema import (
    EnergyParams,
    Experiment,
    Fig2Params,
    Fig4Params,
    TradeoffParams,
)
from repro.campaign import extract_tradeoff
from repro.energy.technology import PAPER_VOLTAGE_GRID
from repro.exp import (
    ExperimentConfig,
    tradeoff_from_records,
    overhead_table,
)
from repro.exp.common import default_runs, load_corpus, run_monte_carlo
from repro.exp.overheads import formula2_dream, formula2_secded
from repro.exp.tradeoff import paper_example_savings
from repro.emt import make_emt
from repro.errors import ExperimentError

FAST = ExperimentConfig(records=("100",), duration_s=4.0, n_runs=3)


def fig4_params(apps, voltages) -> Fig4Params:
    """Fig 4 params with the :data:`FAST` corpus and run count."""
    return Fig4Params(
        apps=apps, voltages=voltages, records=FAST.records,
        duration_s=FAST.duration_s, runs=FAST.n_runs,
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(records=())
        with pytest.raises(ExperimentError):
            ExperimentConfig(duration_s=0)
        with pytest.raises(ExperimentError):
            ExperimentConfig(n_runs=0)

    def test_default_runs_env_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUNS", raising=False)
        assert default_runs() == 200  # the paper's count
        monkeypatch.setenv("REPRO_RUNS", "17")
        assert default_runs() == 17
        monkeypatch.setenv("REPRO_RUNS", "abc")
        with pytest.raises(ExperimentError):
            default_runs()
        monkeypatch.setenv("REPRO_RUNS", "0")
        with pytest.raises(ExperimentError):
            default_runs()

    def test_load_corpus(self):
        corpus = load_corpus(FAST)
        assert set(corpus) == {"100"}
        assert corpus["100"].size == int(4.0 * 360)


class TestMonteCarlo:
    def test_same_fault_locations_across_emts(self):
        """Section V fairness: run r shares defects across EMTs."""
        from repro.apps import make_app

        app = make_app("morphology")
        corpus = load_corpus(FAST)
        emts = {n: make_emt(n) for n in ("none", "dream", "secded")}
        a = run_monte_carlo(app, emts, 1e-3, FAST, corpus, grid_seed=5)
        b = run_monte_carlo(app, emts, 1e-3, FAST, corpus, grid_seed=5)
        for name in emts:
            assert a.snr_mean_db[name] == pytest.approx(b.snr_mean_db[name])

    def test_requires_emts(self):
        from repro.apps import make_app

        with pytest.raises(ExperimentError):
            run_monte_carlo(
                make_app("dwt"), {}, 1e-3, FAST, load_corpus(FAST), 0
            )


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self, run_figure):
        return run_figure(Fig2Params(
            apps=("dwt", "matrix_filter"), records=FAST.records,
            duration_s=FAST.duration_s,
        ))

    def test_structure(self, result):
        assert result.positions == list(range(16))
        assert set(result.snr_db) == {"dwt", "matrix_filter"}
        for app in result.snr_db.values():
            assert len(app[0]) == 16 and len(app[1]) == 16

    def test_msb_errors_hurt_more(self, result):
        """The headline of Fig 2: SNR decreases toward the MSBs."""
        for app in ("dwt", "matrix_filter"):
            for stuck in (0, 1):
                series = result.series(app, stuck)
                assert series[15] < series[0] - 30

    def test_matrix_filter_below_dwt(self, result):
        """Fig 2's gap: matmul spreads single errors everywhere."""
        dwt = result.series("dwt", 1)
        mat = result.series("matrix_filter", 1)
        mid = slice(4, 12)
        assert np.mean(mat[mid]) < np.mean(dwt[mid])

    def test_series_unknown_app(self, result):
        with pytest.raises(ExperimentError):
            result.series("fft", 0)


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self, run_figure):
        return run_figure(
            fig4_params(("morphology",), (0.5, 0.6, 0.7, 0.8, 0.9))
        )

    def test_structure(self, result):
        assert result.voltages == [0.5, 0.6, 0.7, 0.8, 0.9]
        point = result.points["morphology"][0.9]
        assert set(point.snr_mean_db) == {"none", "dream", "secded"}
        assert point.n_runs == 3

    def test_high_voltage_is_error_free(self, result):
        for emt in ("none", "dream", "secded"):
            assert result.points["morphology"][0.9].snr_mean_db[emt] == 96.0

    def test_snr_degrades_with_voltage(self, result):
        series = result.series("morphology", "none")
        assert series[0] < series[-1] - 40

    def test_protection_ordering_at_mid_voltage(self, result):
        """At 0.7 V (single-error regime): ECC >= DREAM > none —
        the Fig 4 mid-range ordering."""
        point = result.points["morphology"][0.7]
        assert (
            point.snr_mean_db["secded"]
            >= point.snr_mean_db["dream"]
            > point.snr_mean_db["none"]
        )

    def test_dream_beats_ecc_at_deep_scaling(self, result):
        """Below 0.55 V multi-bit errors defeat SEC/DED (Fig 4c)."""
        point = result.points["morphology"][0.5]
        assert point.snr_mean_db["dream"] > point.snr_mean_db["secded"]

    def test_min_voltage_meeting(self, result):
        """The VI-C floor read off this sweep (unit energy per row)."""
        rows = [
            {"emt": emt, "voltage": v, "snr_db": snr, "energy_pj": 1.0}
            for v, point in result.points["morphology"].items()
            for emt, snr in point.snr_mean_db.items()
        ]
        floors = {
            p.emt_name: p.v_min_safe for p in extract_tradeoff(rows, 1.0)
        }
        assert floors["none"] >= 0.7

    def test_reproducible(self, run_figure):
        params = fig4_params(("morphology",), (0.6,))
        a = run_figure(params)
        b = run_figure(params)
        assert (
            a.points["morphology"][0.6].snr_mean_db
            == b.points["morphology"][0.6].snr_mean_db
        )


class TestEnergyAnalysis:
    @pytest.fixture(scope="class")
    def analysis(self, run_figure):
        return run_figure(EnergyParams())

    def test_headline_overheads(self, analysis):
        assert analysis.mean_overhead("dream") == pytest.approx(0.34, abs=0.02)
        assert analysis.mean_overhead("secded") == pytest.approx(0.55, abs=0.02)

    def test_overhead_reduction_21_points(self, analysis):
        assert analysis.overhead_reduction_points() == pytest.approx(
            0.21, abs=0.02
        )

    def test_area_ratios(self, analysis):
        assert analysis.encoder_area_ratio == pytest.approx(1.28, abs=0.01)
        assert analysis.decoder_area_ratio == pytest.approx(2.20, abs=0.01)

    def test_requires_baseline(self):
        """Planning rejects it, before any grid point runs."""
        experiment = Experiment(
            name="energy", kind="figure",
            params=EnergyParams(emts=("dream", "secded")),
        )
        with pytest.raises(ExperimentError, match="baseline 'none'"):
            Session().plan(experiment)

    def test_energy_decreases_with_voltage(self, analysis):
        totals = [analysis.total_pj["none"][v] for v in analysis.voltages]
        assert all(a < b for a, b in zip(totals, totals[1:]))


class TestTradeoff:
    EMTS = ("none", "dream", "secded")

    @pytest.fixture(scope="class")
    def handle(self):
        return Session().run(Experiment(
            name="tradeoff", kind="figure",
            params=TradeoffParams(
                app="dwt", emts=self.EMTS, records=FAST.records,
                duration_s=FAST.duration_s, runs=FAST.n_runs,
                tolerance_db=30.0,
            ),
        ))

    def test_policy_structure(self, handle):
        result = handle.result()
        assert result.operating_points
        # Stronger protection sustains equal-or-deeper voltage scaling.
        floors = {p.emt_name: p.v_min_safe for p in result.operating_points}
        assert floors["secded"] <= floors["dream"] <= floors["none"]
        for point in result.operating_points:
            assert 0.0 <= point.saving_vs_nominal < 1.0
        # Policy ranges tile downward from the nominal voltage.
        assert result.policy[0].v_max == pytest.approx(0.9)
        for a, b in zip(result.policy, result.policy[1:]):
            assert a.v_min == pytest.approx(b.v_max)

    def test_unknown_app(self, handle):
        with pytest.raises(ExperimentError):
            tradeoff_from_records(
                handle.records, "fft", self.EMTS, 30.0, PAPER_VOLTAGE_GRID
            )

    def test_negative_tolerance(self, handle):
        with pytest.raises(ExperimentError):
            tradeoff_from_records(
                handle.records, "dwt", self.EMTS, -1.0, PAPER_VOLTAGE_GRID
            )

    def test_paper_example_savings_match_shape(self):
        """Measured savings at the paper's illustrative points must
        reproduce the published ordering and rough magnitudes
        (12.7 % / 30.6 % / 39.5 %)."""
        points = paper_example_savings()
        by_name = {p.emt_name: p.saving_vs_nominal * 100 for p in points}
        assert 5 < by_name["none"] < 20
        assert 22 < by_name["dream"] < 40
        assert 30 < by_name["secded"] < 52
        assert by_name["none"] < by_name["dream"] < by_name["secded"]


class TestOverheads:
    def test_paper_values_for_16_bits(self):
        rows = {
            (r.emt_name, r.data_bits): r for r in overhead_table((16,))
        }
        assert rows[("dream", 16)].extra_bits == 5
        assert rows[("secded", 16)].extra_bits == 6
        assert rows[("dream", 16)].safe_bits == 5
        assert rows[("secded", 16)].faulty_bits == 6

    def test_formula2_matches_implementation(self):
        for bits in (8, 16, 32):
            rows = {r.emt_name: r for r in overhead_table((bits,))}
            assert rows["dream"].extra_bits == formula2_dream(bits)
            assert rows["secded"].extra_bits == formula2_secded(bits)

    def test_formula2_validation(self):
        with pytest.raises(ExperimentError):
            formula2_dream(12)
        with pytest.raises(ExperimentError):
            formula2_secded(0)
