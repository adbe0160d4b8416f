"""Equivalence of the figure execution paths.

Figures run as ``kind = "figure"`` experiments through
:class:`repro.api.Session`, whose campaign points must equal a direct
in-process evaluation, be identical at any worker count, and resume
from a result store — the guarantees that let callers scale sweeps
without revalidating results.  The trial-batched :func:`run_fig2` must
equal the campaign path too.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.api.schema import EnergyParams, Experiment, Fig2Params, Fig4Params
from repro.apps.registry import make_app
from repro.campaign.evaluators import grid_seed
from repro.emt import make_emt
from repro.energy.technology import TECH_32NM_LP
from repro.errors import ExperimentError
from repro.exp import ExperimentConfig, fig2_spec, fig4_spec, run_fig2
from repro.exp.common import load_corpus, run_monte_carlo
from repro.exp.energy_table import (
    energy_analysis_from_records,
    measure_workload,
)
from repro.exp.fig4 import fig4_result_from_records
from repro.exp.tradeoff import run_tradeoff

FAST = ExperimentConfig(records=("100",), duration_s=3.0, n_runs=2)
VOLTAGES = (0.6, 0.8)


def fig4_params(apps=("morphology",), voltages=VOLTAGES,
                emts=("none", "dream", "secded")) -> Fig4Params:
    """Fig 4 params with the :data:`FAST` corpus and run count."""
    return Fig4Params(
        apps=apps, emts=emts, voltages=voltages, records=FAST.records,
        duration_s=FAST.duration_s, runs=FAST.n_runs,
    )


def figure(params, store: str | None = None) -> Experiment:
    return Experiment(name=params.KIND, kind="figure", params=params,
                      store=store)


class TestFig4Paths:
    @pytest.fixture(scope="class")
    def campaign_result(self, run_figure):
        return run_figure(fig4_params())

    def test_inline_instances_match_campaign(self, campaign_result):
        """A campaign point equals the Monte Carlo run directly on
        caller-built app/EMT instances with the point's grid seed."""
        corpus = load_corpus(FAST)
        app = make_app("morphology")
        emts = {n: make_emt(n) for n in ("none", "dream", "secded")}
        for voltage in VOLTAGES:
            inline = run_monte_carlo(
                app, emts, TECH_32NM_LP.ber(voltage), FAST, corpus,
                grid_seed("morphology", voltage),
            )
            assert (
                inline.snr_mean_db
                == campaign_result.points["morphology"][voltage].snr_mean_db
            )

    def test_worker_pool_matches_serial(self, campaign_result, run_figure):
        parallel = run_figure(fig4_params(), workers=2)
        for voltage in VOLTAGES:
            assert (
                parallel.points["morphology"][voltage].snr_mean_db
                == campaign_result.points["morphology"][voltage].snr_mean_db
            )

    def test_store_resume_round_trips(self, campaign_result, tmp_path):
        session = Session(store_dir=tmp_path)
        experiment = figure(fig4_params(), store="fig4")
        first = session.run(experiment)
        assert first.campaigns("main")[0].result.n_executed == len(VOLTAGES)
        resumed = session.run(experiment)
        assert resumed.campaigns("main")[0].result.n_executed == 0
        for voltage in VOLTAGES:
            point = resumed.result().points["morphology"][voltage]
            assert (
                point.snr_mean_db
                == first.result().points["morphology"][voltage].snr_mean_db
            )
            # JSON round-trip must preserve exact statistics.
            assert (
                point.snr_mean_db
                == campaign_result.points["morphology"][voltage].snr_mean_db
            )

    def test_unknown_app_fails_before_any_grid_work(self):
        """A typo'd name must not cost a full sweep of the valid points."""
        with pytest.raises(ExperimentError, match="fft"):
            Session().plan(figure(fig4_params(apps=("dwt", "fft"))))
        with pytest.raises(ExperimentError, match="bch"):
            Session().plan(figure(fig4_params(emts=("none", "bch"))))

    def test_degenerate_grids_return_empty_results(self):
        """Empty selections reduce to empty results, not errors."""
        assert fig4_result_from_records([], (), (0.9,)).points == {}
        no_voltages = fig4_result_from_records([], ("dwt",), ())
        assert no_voltages.points == {"dwt": {}}
        assert run_fig2(app_names=(), config=FAST).snr_db == {}
        analysis = energy_analysis_from_records(
            [], ("none", "dream", "secded"), ()
        )
        assert analysis.total_pj["none"] == {}
        assert analysis.encoder_area_ratio == pytest.approx(1.28, abs=0.01)
        # ... but name validation still runs before any grid work.
        with pytest.raises(ExperimentError, match="typo"):
            Session().plan(figure(EnergyParams(emts=("none", "typo"))))


class TestFig2Paths:
    def test_inline_instances_match_campaign(self, run_figure):
        """The trial-batched in-process sweep equals the campaign."""
        via_campaign = run_figure(Fig2Params(
            apps=("morphology",), records=("100",), duration_s=2.0,
        ))
        batched = run_fig2(
            app_names=("morphology",),
            config=ExperimentConfig(records=("100",), duration_s=2.0),
        )
        assert via_campaign.snr_db == batched.snr_db

    def test_spec_covers_the_full_grid(self):
        spec = fig2_spec(("dwt", "morphology"), FAST)
        assert spec.grid_size == 2 * 2 * 16


class TestTradeoffRegression:
    """``run_tradeoff`` operating points and policy on one fixed sweep,
    pinned to the values the Section VI-C rule gives there."""

    @pytest.fixture(scope="class")
    def inputs(self, run_figure):
        fig4 = run_figure(fig4_params(voltages=(0.55, 0.65, 0.75, 0.85, 0.9)))
        workload = measure_workload("morphology", record="100", duration_s=3.0)
        return fig4, workload

    #: tolerance -> (operating points in emt order, policy ranges).
    PINNED = {
        40.0: (
            [("none", 0.75, 0.3115780205210892),
             ("dream", 0.65, 0.3090522514668639),
             ("secded", 0.65, 0.19933581751896434)],
            [(0.75, 0.9, "none"), (0.65, 0.75, "dream")],
        ),
        5.0: (
            [("none", 0.75, 0.3115780205210892),
             ("dream", 0.75, 0.07664480823632491),
             ("secded", 0.65, 0.19933581751896434)],
            [(0.75, 0.9, "none"), (0.65, 0.75, "secded")],
        ),
    }

    def test_operating_points_match_pinned_values(self, inputs):
        fig4, workload = inputs
        for tolerance, (expected, policy) in self.PINNED.items():
            result = run_tradeoff(
                fig4, app_name="morphology", tolerance_db=tolerance,
                workload=workload,
            )
            assert result.reference_snr_db == 96.0
            assert [
                (p.emt_name, p.v_min_safe) for p in result.operating_points
            ] == [(name, v) for name, v, _saving in expected]
            for point, (_name, _v, saving) in zip(
                result.operating_points, expected
            ):
                assert point.saving_vs_nominal == pytest.approx(
                    saving, rel=1e-12
                )
            assert [
                (r.v_min, r.v_max, r.emt_name) for r in result.policy
            ] == policy

    def test_baseline_priced_when_not_a_candidate(self, inputs):
        """Without 'none' among the candidates the savings are still
        measured against it, and it joins neither ceiling nor policy."""
        fig4, workload = inputs
        result = run_tradeoff(
            fig4, app_name="morphology", tolerance_db=40.0,
            emt_names=("secded", "dream"), workload=workload,
        )
        assert [
            (p.emt_name, p.v_min_safe) for p in result.operating_points
        ] == [("secded", 0.65), ("dream", 0.65)]
        assert result.operating_points[1].saving_vs_nominal == (
            pytest.approx(0.3090522514668639, rel=1e-12)
        )
        assert [(r.v_min, r.v_max, r.emt_name) for r in result.policy] == [
            (0.65, 0.9, "secded"),
        ]


class TestSpecShapes:
    def test_fig4_spec_groups_emts_per_point(self):
        """Section V fairness: EMTs share defect samples, so they are a
        fixed parameter of each point, not an axis."""
        spec = fig4_spec(("dwt",), config=FAST, voltages=VOLTAGES)
        assert "emts" in spec.fixed
        assert set(spec.axes) == {"app", "voltage"}

    def test_energy_analysis_unchanged_through_campaign(self, run_figure):
        analysis = run_figure(EnergyParams())
        assert analysis.mean_overhead("dream") == pytest.approx(0.34, abs=0.02)
        assert analysis.mean_overhead("secded") == pytest.approx(0.55, abs=0.02)
