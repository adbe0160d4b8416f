"""Equivalence of the figure execution paths.

Figures run as ``kind = "figure"`` experiments through
:class:`repro.api.Session`, whose campaign points must equal a direct
in-process evaluation, be identical at any worker count, and resume
from a result store — the guarantees that let callers scale sweeps
without revalidating results.  A Fig 2 point's single trial-batched
pass must equal one pipeline pass per (stuck value, position)
configuration.
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
    SweepParams,
    TradeoffParams,
)
from repro.apps.base import BiomedicalApp
from repro.apps.registry import cached_app, make_app
from repro.campaign import evaluators, runner
from repro.campaign.evaluators import (
    _cached_corpus,
    geometry_from_dict,
    geometry_to_dict,
    grid_seed,
)
from repro.emt import make_emt
from repro.emt.base import NoProtection
from repro.energy.technology import TECH_32NM_LP
from repro.errors import ExperimentError
from repro.exp import ExperimentConfig, fig2_spec, fig4_spec
from repro.exp.common import load_corpus, run_monte_carlo
from repro.exp.energy_table import energy_analysis_from_records
from repro.exp.fig2 import fig2_result_from_records
from repro.exp.fig4 import fig4_result_from_records
from repro.exp.tradeoff import tradeoff_from_records
from repro.mem.fabric import MemoryFabric
from repro.mem.faults import position_fault_map
from repro.signals.metrics import SNR_CAP_DB

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
        assert fig2_result_from_records([], ()).snr_db == {}
        analysis = energy_analysis_from_records(
            [], ("none", "dream", "secded"), ()
        )
        assert analysis.total_pj["none"] == {}
        assert analysis.encoder_area_ratio == pytest.approx(1.28, abs=0.01)
        # ... but name validation still runs before any grid work.
        with pytest.raises(ExperimentError, match="typo"):
            Session().plan(figure(EnergyParams(emts=("none", "typo"))))


def per_configuration_snr(params: dict) -> dict:
    """Fig 2 reference: one pipeline pass per (configuration, record).

    The body of the pre-1.12 ``bit_position`` evaluator, verbatim: one
    (app, stuck value, position) point averaged over its records.
    """
    geometry = geometry_from_dict(params.get("geometry"))
    data_bits = params.get("data_bits", 16)
    corpus = _cached_corpus(tuple(params["records"]), params["duration_s"])
    cap_db = params.get("snr_cap_db", SNR_CAP_DB)
    fault_map = position_fault_map(
        geometry.n_words, data_bits, params["position"], params["stuck_value"]
    )
    app = cached_app(params["app"])
    snrs = []
    for samples in corpus.values():
        fabric = MemoryFabric(
            NoProtection(), fault_map=fault_map, geometry=geometry
        )
        output = app.run(samples, fabric)
        snrs.append(app.output_snr(samples, output, cap_db=cap_db))
    return {"snr_db": float(np.mean(snrs))}


class TestFig2Paths:
    APPS = ("dwt", "matrix_filter", "compressed_sensing", "morphology",
            "delineation")
    CONFIG = ExperimentConfig(records=("100", "106", "118"), duration_s=2.0)

    @classmethod
    def params(cls) -> Fig2Params:
        return Fig2Params(
            apps=cls.APPS, records=cls.CONFIG.records,
            duration_s=cls.CONFIG.duration_s,
        )

    @pytest.fixture(scope="class")
    def inline(self, run_figure):
        return run_figure(self.params())

    def test_inline_instances_match_campaign(self, inline):
        """Every curve value equals the per-configuration reference —
        all five apps, including ``delineation``'s per-trial fallback
        and ``compressed_sensing``."""
        fixed = {
            "records": self.CONFIG.records,
            "duration_s": self.CONFIG.duration_s,
            "snr_cap_db": self.CONFIG.snr_cap_db,
            "geometry": geometry_to_dict(self.CONFIG.geometry),
            "data_bits": 16,
        }
        reference = {
            app: {
                stuck: [
                    per_configuration_snr({
                        **fixed, "app": app, "stuck_value": stuck,
                        "position": position,
                    })["snr_db"]
                    for position in range(16)
                ]
                for stuck in (0, 1)
            }
            for app in self.APPS
        }
        assert inline.snr_db == reference

    def test_worker_pool_matches_inline(self, inline, run_figure):
        assert run_figure(self.params(), workers=2) == inline

    def test_one_pipeline_pass_per_app_and_record(self, monkeypatch):
        calls = []
        original = BiomedicalApp.run_batch

        def spy(app, samples, fabric):
            calls.append((app.name, fabric.n_trials))
            return original(app, samples, fabric)

        monkeypatch.setattr(BiomedicalApp, "run_batch", spy)
        Session().run(figure(Fig2Params(
            apps=("dwt", "delineation"), records=("100", "106"),
            duration_s=2.0,
        )))
        assert sorted(calls) == [
            ("delineation", 32), ("delineation", 32),
            ("dwt", 32), ("dwt", 32),
        ]

    def test_spec_covers_the_full_grid(self):
        spec = fig2_spec(("dwt", "morphology"), FAST)
        assert spec.grid_size == 2 * len(FAST.records)
        # A repeated record adds no point, as it added no corpus entry.
        repeated = ExperimentConfig(records=("100", "106", "100"))
        assert fig2_spec(("dwt",), repeated).grid_size == 2


class TestTradeoffRegression:
    """``tradeoff_from_records`` operating points and policy on one fixed
    sweep, pinned to the values the Section VI-C rule gives there."""

    VOLTAGES = (0.55, 0.65, 0.75, 0.85, 0.9)

    @pytest.fixture(scope="class")
    def records(self, tmp_path_factory):
        # A sweep plans exactly the reducer's inputs: the Fig 4 quality
        # grid plus the energy grid priced on morphology's record-100,
        # 3 s workload.
        experiment = Experiment(
            name="tradeoff-regression", kind="sweep",
            params=SweepParams(
                apps=("morphology",), voltages=self.VOLTAGES,
                records=FAST.records, duration_s=FAST.duration_s,
                runs=FAST.n_runs,
            ),
        )
        session = Session(store_dir=tmp_path_factory.mktemp("stores"))
        return session.run(experiment).records

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

    def test_operating_points_match_pinned_values(self, records):
        for tolerance, (expected, policy) in self.PINNED.items():
            result = tradeoff_from_records(
                records, "morphology", ("none", "dream", "secded"),
                tolerance, self.VOLTAGES,
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

    def test_baseline_priced_when_not_a_candidate(self, records):
        """Without 'none' among the candidates the savings are still
        measured against it, and it joins neither ceiling nor policy."""
        result = tradeoff_from_records(
            records, "morphology", ("secded", "dream"), 40.0, self.VOLTAGES,
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


class TestTradeoffSinglePath:
    """A trade-off is two campaigns run by the session — the app's
    quality grid and its energy grid — and reducing them runs nothing."""

    def test_stored_run_resumes_and_attach_reduces_without_evaluating(
        self, tmp_path, monkeypatch
    ):
        experiment = Experiment(
            name="tradeoff", kind="figure", store="tradeoff",
            params=TradeoffParams(
                app="morphology", records=FAST.records,
                duration_s=FAST.duration_s, runs=FAST.n_runs,
                tolerance_db=40.0,
            ),
        )
        session = Session(store_dir=tmp_path)
        first = session.run(experiment)
        # 9 voltages of quality points, 3 EMTs x 9 voltages of energy.
        assert [run.role for run in first.runs] == ["quality", "energy"]
        assert (first.n_executed, first.n_cached) == (36, 0)
        expected = first.result()
        second = session.run(experiment)
        assert (second.n_executed, second.n_cached) == (0, 36)

        calls = []
        real = evaluators.evaluate_point

        def spy(point):
            calls.append(point.kind)
            return real(point)

        monkeypatch.setattr(evaluators, "evaluate_point", spy)
        monkeypatch.setattr(runner, "evaluate_point", spy)
        assert session.attach(experiment).result() == expected
        assert second.result() == expected
        assert calls == []


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
