"""The Session facade: backends, stores, and the uniform ResultHandle."""

from __future__ import annotations

import pytest

from repro.api.results import ResultHandle
from repro.api.schema import (
    EnergyParams,
    Experiment,
    Fig2Params,
    experiment_from_payload,
)
from repro.api.session import (
    BACKENDS,
    MultiprocessingBackend,
    Session,
    backend_names,
    make_backend,
    register_backend,
)
from repro.errors import ExperimentSpecError, ReproError


def tiny_fig2(name: str = "tiny", **top) -> Experiment:
    """One Fig 2 point: morphology on record 100."""
    return Experiment(
        name=name,
        kind="figure",
        params=Fig2Params(
            apps=("morphology",), records=("100",), duration_s=2.0
        ),
        **top,
    )


@pytest.fixture(scope="module")
def executed(tmp_path_factory):
    """One stored fig2 run shared by the read-only assertions."""
    store_dir = tmp_path_factory.mktemp("api-stores")
    experiment = tiny_fig2(store="tiny-fig2")
    session = Session(store_dir=store_dir)
    return experiment, session, session.run(experiment)


class TestBackends:
    def test_builtins_registered(self):
        assert {"inline", "multiprocessing"} <= set(backend_names())

    def test_make_backend(self):
        inline = make_backend("inline", 4)
        assert isinstance(inline, MultiprocessingBackend)
        assert inline.workers == 1
        backend = make_backend("multiprocessing", 3)
        assert isinstance(backend, MultiprocessingBackend)
        assert backend.workers == 3

    def test_unknown_backend_rejected(self):
        with pytest.raises(ExperimentSpecError, match="unknown execution"):
            make_backend("ray", 2)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ExperimentSpecError, match=">= 1"):
            MultiprocessingBackend(0)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ExperimentSpecError, match="already registered"):
            register_backend("inline", lambda workers: MultiprocessingBackend(1))

    def test_custom_backend_selected_per_experiment(self):
        calls = []

        class Recording(MultiprocessingBackend):
            name = "recording"

            def execute(self, spec, store=None, resume=True, progress=None):
                calls.append(spec.name)
                return super().execute(spec, store, resume, progress)

        if "recording" not in BACKENDS:
            register_backend("recording", lambda workers: Recording(1))
        experiment = tiny_fig2("custom-backend", backend="recording")
        handle = Session().run(experiment)
        assert handle.ok
        assert calls == ["custom-backend"]

    def test_registered_backend_receives_planned_spec_unchanged(self):
        captured = []

        class Capturing(MultiprocessingBackend):
            name = "capturing"

            def execute(self, spec, store=None, resume=True, progress=None):
                captured.append(spec)
                return super().execute(spec, store, resume, progress)

        if "capturing" not in BACKENDS:
            register_backend("capturing", lambda workers: Capturing(1))
        experiment = tiny_fig2("spec-passthrough", backend="capturing")
        assert Session().run(experiment).ok
        planned = Session().plan(experiment)
        assert [spec.name for spec in captured] == [
            campaign.spec.name for campaign in planned
        ]
        for spec, campaign in zip(captured, planned):
            assert spec.kind == campaign.spec.kind
            assert spec.axes == campaign.spec.axes
            assert spec.fixed == campaign.spec.fixed

    def test_resolution_precedence(self):
        session = Session(backend="inline", workers=1)
        experiment = tiny_fig2(
            "prec", backend="multiprocessing", workers=8
        )
        # Session settings override the experiment's.
        assert session.resolve_backend(experiment) == ("inline", 1)
        # Without session overrides the experiment decides.
        assert Session().resolve_backend(experiment) == (
            "multiprocessing", 8
        )
        # With neither: one worker, inline.
        assert Session().resolve_backend(tiny_fig2("bare")) == ("inline", 1)

    def test_validate_rejects_unknown_backend(self):
        with pytest.raises(ExperimentSpecError, match="unknown execution"):
            Session().validate(tiny_fig2("bad-backend", backend="ray"))


class TestRunAndResume:
    def test_first_run_executes_and_persists(self, executed):
        _experiment, _session, handle = executed
        assert handle.ok
        assert handle.n_executed == 1
        assert handle.n_cached == 0
        assert handle.campaigns("main")[0].store is not None
        assert handle.campaigns("main")[0].store.path.exists()

    def test_second_run_resumes_fully(self, executed):
        experiment, session, first = executed
        second = session.run(experiment)
        assert second.n_executed == 0
        assert second.n_cached == 1
        assert [r["result"] for r in second.records] == [
            r["result"] for r in first.records
        ]

    def test_attach_is_a_pure_store_view(self, executed):
        experiment, session, first = executed
        view = session.attach(experiment)
        assert view.n_executed == 0
        assert view.n_cached == 1
        assert view.point_hashes() == first.point_hashes()
        # The reducer still works on attached records.
        assert len(view.result().series("morphology", 0)) == 16

    def test_attach_without_store_is_empty(self):
        view = Session().attach(tiny_fig2("ephemeral"))
        assert view.records == []

    def test_fresh_reexecutes(self, executed):
        experiment, session, _first = executed
        handle = session.run(experiment, fresh=True)
        assert handle.n_executed == 1
        assert handle.n_cached == 0

    def test_run_accepts_a_path(self, tmp_path):
        from repro.api.schema import dump_experiment

        path = tmp_path / "tiny.toml"
        dump_experiment(tiny_fig2("from-path"), path)
        assert Session().run(str(path)).ok

    def test_validate_surfaces_plan_errors(self):
        experiment = experiment_from_payload({
            "version": 1, "kind": "mission", "name": "bad",
            "mission": {"scenario": "mars"},
        })
        with pytest.raises(ReproError, match="unknown scenario"):
            Session().validate(experiment)

    def test_validate_rejects_unknown_policy_before_running(self):
        experiment = experiment_from_payload({
            "version": 1, "kind": "mission", "name": "bad",
            "mission": {"scenario": "overnight", "policies": ["pid"]},
        })
        with pytest.raises(ReproError, match="unknown policy"):
            Session().validate(experiment)


@pytest.fixture(scope="module")
def energy_handle():
    """A figure whose points carry scalar results, framed generically."""
    return Session().run(Experiment(
        name="tiny-energy",
        kind="figure",
        params=EnergyParams(
            emts=("none", "dream"), voltages=(0.9,), workload_duration_s=1.0
        ),
    ))


class TestResultHandle:
    def test_frame_rows_join_coords_and_scalars(self, energy_handle):
        rows = energy_handle.frame()
        assert len(rows) == 2
        for row, record in zip(rows, energy_handle.records):
            assert row["campaign"] == "tiny-energy"
            assert row["role"] == "main"
            assert row["kind"] == "energy"
            assert row["hash"] == record["hash"]
            assert row["emt"] == record["coords"]["emt"]
            assert row["voltage"] == 0.9
            assert row["total_pj"] == record["result"]["total_pj"]

    def test_fig2_frame_has_one_row_per_plotted_value(self, executed):
        _experiment, _session, handle = executed
        rows = handle.frame()
        assert len(rows) == 32
        curves = handle.result().snr_db["morphology"]
        assert rows == [
            {"app": "morphology", "stuck_value": stuck, "position": position,
             "snr_db": curves[stuck][position]}
            for stuck in (0, 1)
            for position in range(16)
        ]

    def test_fig2_frame_keeps_apps_whose_records_all_succeeded(
        self, monkeypatch
    ):
        from repro.campaign.evaluators import EVALUATORS

        evaluate = EVALUATORS["bit_position"]

        def flaky(params):
            if params["app"] == "morphology":
                raise RuntimeError("injected failure")
            return evaluate(params)

        monkeypatch.setitem(EVALUATORS, "bit_position", flaky)
        handle = Session().run(Experiment(
            name="partial-fig2",
            kind="figure",
            params=Fig2Params(
                apps=("morphology", "dwt"), records=("100",),
                duration_s=2.0,
            ),
        ))
        assert len(handle.failures()) == 1
        rows = handle.frame()
        assert len(rows) == 32
        assert {row["app"] for row in rows} == {"dwt"}
        with pytest.raises(ReproError, match="missing grid point"):
            handle.result()

    def test_pareto_over_frame(self, executed):
        _experiment, _session, handle = executed
        frontier = handle.pareto("position", "snr_db")
        assert frontier
        positions = [row["position"] for row in frontier]
        assert positions == sorted(positions)

    def test_summary_carries_identity_and_counts(self, executed):
        experiment, _session, handle = executed
        summary = handle.summary()
        assert summary["experiment"] == experiment.name
        assert summary["hash"] == experiment.content_hash()
        assert summary["n_points"] == 1
        assert summary["figure"] == "fig2"

    def test_describe_names_campaigns_and_stores(self, executed):
        experiment, session, _handle = executed
        text = session.describe(experiment)
        assert "tiny-fig2" in text
        assert "kind=bit_position, 1 point ->" in text
        assert text.splitlines()[-1] == "  total: 1 point"

    def test_handle_reduces_once(self, executed):
        _experiment, _session, handle = executed
        assert handle.result() is handle.result()

    def test_bare_handle_without_reducer(self, executed):
        experiment, _session, _handle = executed
        bare = ResultHandle(experiment, [])
        assert bare.result() is None
        assert bare.frame() == []
        assert bare.summary()["n_points"] == 0


class TestCohortExecutionGrain:
    """Cohort experiments fan out at the patient level, like the
    historical CLI — unless a backend is named explicitly."""

    @pytest.fixture
    def tiny_cohort(self):
        return experiment_from_payload({
            "version": 1, "kind": "cohort", "name": "grain",
            "cohort": {"size": 2, "policies": ["hysteresis"],
                       "duration_scale": 0.01, "probe_runs": 2,
                       "probe_duration_s": 2.0},
        })

    def _recorded_workers(self, monkeypatch):
        import repro.cohort.fleet as fleet_module

        seen = []
        original = fleet_module.FleetSimulator.run

        def recording(self, policy, n_workers=1, **kwargs):
            seen.append(n_workers)
            return original(self, policy, n_workers=n_workers, **kwargs)

        monkeypatch.setattr(fleet_module.FleetSimulator, "run", recording)
        return seen

    def test_session_workers_reach_the_fleet(self, tiny_cohort, monkeypatch):
        seen = self._recorded_workers(monkeypatch)
        handle = Session(workers=2).run(tiny_cohort)
        assert handle.ok
        assert seen == [2]

    def test_explicit_backend_keeps_point_grain(
        self, tiny_cohort, monkeypatch
    ):
        seen = self._recorded_workers(monkeypatch)
        handle = Session(backend="inline", workers=2).run(tiny_cohort)
        assert handle.ok
        assert seen == [1]

    def test_hints_do_not_leak(self, tiny_cohort):
        from repro.campaign.evaluators import EVALUATION_HINTS

        Session(workers=2).run(tiny_cohort)
        assert "cohort_workers" not in EVALUATION_HINTS

    def test_worker_counts_are_bit_identical(self, tiny_cohort):
        serial = Session(workers=1).run(tiny_cohort)
        parallel = Session(workers=2).run(tiny_cohort)
        assert [r["result"] for r in serial.records] == [
            r["result"] for r in parallel.records
        ]


class TestCohortDegradedMode:
    """A failed patient degrades the fleet point instead of voiding it."""

    def _failing_experiment(self):
        return experiment_from_payload({
            "version": 1, "kind": "cohort", "name": "degraded",
            "cohort": {"size": 3, "policies": ["hysteresis"],
                       "duration_scale": 0.01, "probe_runs": 2,
                       "probe_duration_s": 2.0},
        })

    @pytest.fixture
    def one_failing_patient(self, monkeypatch):
        import repro.cohort.fleet as fleet_module
        from repro.errors import MissionError

        original = fleet_module.MissionSimulator.run

        def flaky(self, policy):
            if "p00001" in self.spec.name:
                raise MissionError("injected patient failure")
            return original(self, policy)

        monkeypatch.setattr(fleet_module.MissionSimulator, "run", flaky)

    def test_experiment_point_survives_with_partial_statistics(
        self, one_failing_patient
    ):
        handle = Session().run(self._failing_experiment())
        assert handle.ok  # the point itself is not failed
        summary = handle.result()["summaries"][0]
        assert summary["n_failed"] == 1
        assert summary["n_patients"] == 3
        assert "survival_fraction" in summary  # stats over the survivors
        assert summary["failures"][0]["patient"] == 1
        assert "injected patient failure" in summary["failures"][0]["error"]

    def test_raw_campaign_points_still_fail_hard(self, one_failing_patient):
        """Without the experiment-API opt-in, the PR-3 evaluator
        contract holds: any failed patient fails the point."""
        from repro.api.session import cohort_spec_for
        from repro.campaign.evaluators import evaluate_point
        from repro.campaign.spec import CampaignSpec
        from repro.errors import CampaignError

        experiment = self._failing_experiment()
        spec = CampaignSpec(
            name="strict", kind="cohort",
            axes={"policy": ("hysteresis",)},
            fixed={"cohort": cohort_spec_for(experiment).to_dict(),
                   "n_probe": 2, "probe_duration_s": 2.0},
        )
        with pytest.raises(CampaignError, match="patients failed"):
            evaluate_point(spec.expand()[0])


class TestValidateMatchesRun:
    """`repro validate` must reject exactly what `repro run` rejects."""

    def test_unknown_backend_fails_validation(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad-backend.toml"
        path.write_text(
            'version = 1\nkind = "mission"\nname = "x"\n'
            'backend = "bogus"\n\n[mission]\nscenario = "overnight"\n',
            encoding="utf-8",
        )
        assert main(["validate", str(path)]) == 1
        assert "unknown execution backend" in capsys.readouterr().err
        assert main(["run", str(path)]) == 1
