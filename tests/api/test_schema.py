"""The versioned Experiment schema: defaults, validation, round trips."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import serde
from repro.api.schema import (
    SCHEMA_VERSION,
    CohortParams,
    EnergyParams,
    Experiment,
    Fig2Params,
    Fig4Params,
    MissionParams,
    SweepParams,
    TradeoffParams,
    dump_experiment,
    experiment_from_payload,
    load_experiment,
)
from repro.energy.technology import PAPER_VOLTAGE_GRID
from repro.errors import ExperimentSpecError


def _exp(kind: str, section: dict, **top) -> Experiment:
    payload = {"version": 1, "kind": kind, "name": f"{kind}-t", **top,
               kind: section}
    return experiment_from_payload(payload)


class TestVersioning:
    def test_missing_version_rejected(self):
        with pytest.raises(ExperimentSpecError, match="version"):
            experiment_from_payload({"kind": "sweep", "name": "x", "sweep": {}})

    def test_unknown_version_rejected_with_clear_error(self):
        with pytest.raises(
            ExperimentSpecError,
            match=f"version 99; this build supports version {SCHEMA_VERSION}",
        ):
            experiment_from_payload(
                {"version": 99, "kind": "sweep", "name": "x", "sweep": {}}
            )

    def test_direct_construction_checks_version_too(self):
        with pytest.raises(ExperimentSpecError, match="version"):
            Experiment(name="x", kind="sweep", params=SweepParams(), version=2)


class TestStructuralValidation:
    def test_unknown_kind(self):
        with pytest.raises(ExperimentSpecError, match="unknown experiment kind"):
            experiment_from_payload(
                {"version": 1, "kind": "bench", "name": "x", "bench": {}}
            )

    def test_missing_name(self):
        with pytest.raises(ExperimentSpecError, match="'name'"):
            experiment_from_payload({"version": 1, "kind": "sweep", "sweep": {}})

    def test_missing_section(self):
        with pytest.raises(ExperimentSpecError, match=r"\[sweep\] section"):
            experiment_from_payload(
                {"version": 1, "kind": "sweep", "name": "x"}
            )

    def test_unknown_top_level_key(self):
        with pytest.raises(ExperimentSpecError, match="threads"):
            experiment_from_payload(
                {"version": 1, "kind": "sweep", "name": "x", "threads": 4,
                 "sweep": {}}
            )

    def test_unknown_section_key_lists_allowed(self):
        with pytest.raises(ExperimentSpecError, match="allowed"):
            _exp("mission", {"scenari": "overnight"})

    def test_figure_requires_figure_key(self):
        with pytest.raises(ExperimentSpecError, match="'figure' key"):
            _exp("figure", {"apps": ["dwt"]})

    def test_unknown_figure(self):
        with pytest.raises(ExperimentSpecError, match="unknown figure"):
            _exp("figure", {"figure": "fig9"})

    def test_per_figure_key_sets(self):
        # runs is a fig4 knob; fig2 is deterministic and must reject it.
        with pytest.raises(ExperimentSpecError, match="unknown keys"):
            _exp("figure", {"figure": "fig2", "runs": 5})

    def test_bad_value_types_are_located(self):
        with pytest.raises(ExperimentSpecError, match="sweep.runs"):
            _exp("sweep", {"runs": "many"})
        with pytest.raises(ExperimentSpecError, match="cohort.size"):
            _exp("cohort", {"size": 1.5})

    def test_store_and_name_must_be_path_safe(self):
        with pytest.raises(ExperimentSpecError, match="path-safe"):
            Experiment(name="a/b", kind="sweep", params=SweepParams())
        with pytest.raises(ExperimentSpecError, match="path-safe"):
            Experiment(
                name="a", kind="sweep", params=SweepParams(), store="x/y"
            )

    def test_workers_must_be_positive(self):
        with pytest.raises(ExperimentSpecError, match="workers"):
            Experiment(name="a", kind="sweep", params=SweepParams(), workers=0)

    def test_params_type_must_match_kind(self):
        with pytest.raises(ExperimentSpecError, match="needs params"):
            Experiment(name="a", kind="mission", params=SweepParams())

    def test_policy_mapping_needs_name(self):
        with pytest.raises(ExperimentSpecError, match="'name'"):
            _exp("mission", {"policies": [{"params": {}}]})


class TestDefaultsMatchTheLegacyCli:
    """A file with only the keys you care about reproduces the defaults
    of the per-artefact subcommands removed in 1.8.0."""

    def test_sweep_defaults(self):
        params = SweepParams()
        assert params.apps == ("dwt",)
        assert params.emts == ("none", "dream", "secded")
        assert params.voltages == PAPER_VOLTAGE_GRID
        assert params.records == ("100", "106")
        assert params.duration_s == 8.0
        assert params.runs == 6
        assert params.tolerance_db == 5.0

    def test_mission_defaults(self):
        params = MissionParams()
        assert params.scenario == "active_day"
        assert params.policies == (
            "static-ladder", "quality", "soc", "hysteresis",
        )
        assert params.duration_scale == 1.0
        assert params.probe_runs == 3
        assert params.probe_duration_s == 4.0

    def test_cohort_defaults(self):
        params = CohortParams()
        assert params.size == 200
        assert params.policies == ("static", "soc", "hysteresis")
        assert serde.format_mix(params.scenarios) == (
            "active_day:0.7,overnight:0.3"
        )

    def test_figure_defaults(self):
        params = Fig4Params()
        assert params.apps == (
            "dwt", "matrix_filter", "compressed_sensing", "morphology",
            "delineation",
        )
        assert params.emts == ("none", "dream", "secded")
        assert params.runs == 12
        assert params.records == ("100", "106")
        assert params.duration_s == 8.0


class TestRoundTrips:
    CASES = [
        _exp("figure", {"figure": "fig2", "apps": ["dwt"]}),
        _exp("figure", {"figure": "fig4", "voltages": [0.55, 0.9],
                        "runs": 2}),
        _exp("figure", {"figure": "energy", "workload_app": "morphology"}),
        _exp("figure", {"figure": "tradeoff", "app": "dwt",
                        "tolerance_db": 2.5}),
        _exp("sweep", {"apps": ["dwt", "morphology"]},
             seed=7, workers=4, backend="multiprocessing", store="s"),
        _exp("mission", {
            "scenario": "overnight", "window_s": 4.0,
            "policies": ["static-ladder", "static:secded@0.65",
                         {"name": "hysteresis", "params": {"dwell": 3}}],
        }),
        _exp("cohort", {
            "size": 9, "scenarios": "pvc_ward:1.0",
            "pathology": [["106", 0.5], ["119", 0.5]],
            "environment": [[1.0, 0.5], [2.5, 0.5]],
            "shielding": [[1.0, 1.0]],
            "battery_cv": 0.2, "battery_clip": [0.6, 1.4],
        }),
    ]

    @pytest.mark.parametrize(
        "experiment", CASES,
        ids=lambda e: f"{e.kind}-{getattr(e.params, 'KIND', '')}",
    )
    @pytest.mark.parametrize("suffix", [".toml", ".json"])
    def test_dump_reload_is_bit_identical(self, experiment, suffix, tmp_path):
        path = tmp_path / f"exp{suffix}"
        dump_experiment(experiment, path)
        reloaded = load_experiment(path)
        assert reloaded == experiment
        assert reloaded.canonical_json() == experiment.canonical_json()
        assert reloaded.content_hash() == experiment.content_hash()

    def test_hash_is_format_independent(self, tmp_path):
        experiment = self.CASES[4]
        dump_experiment(experiment, tmp_path / "a.toml")
        dump_experiment(experiment, tmp_path / "b.json")
        assert (
            load_experiment(tmp_path / "a.toml").content_hash()
            == load_experiment(tmp_path / "b.json").content_hash()
        )

    def test_payload_equivalence_across_containers(self):
        """Tuples, lists and numpy arrays describe the same experiment."""
        literal = Experiment(
            name="np", kind="sweep",
            params=SweepParams(voltages=(0.5, 0.7, 0.9)),
        )
        numpy_built = Experiment(
            name="np", kind="sweep",
            params=SweepParams(
                voltages=tuple(np.linspace(0.5, 0.9, 3))
            ),
        )
        assert literal.canonical_json() == numpy_built.canonical_json()
        assert literal.content_hash() == numpy_built.content_hash()

    def test_numpy_values_in_payload_coerce(self):
        experiment = experiment_from_payload({
            "version": np.int64(1), "kind": "sweep", "name": "np",
            "seed": np.int64(7),
            "sweep": {"voltages": np.asarray([0.55, 0.9]),
                      "runs": np.int64(3)},
        })
        assert experiment.seed == 7
        assert experiment.params.voltages == (0.55, 0.9)
        assert experiment.params.runs == 3

    def test_mix_string_and_pair_forms_are_equivalent(self):
        a = _exp("cohort", {"scenarios": "active_day:0.7,overnight:0.3"})
        b = _exp("cohort", {"scenarios": [["active_day", 0.7],
                                          ["overnight", 0.3]]})
        assert a.canonical_json() == b.canonical_json()

    def test_with_seed(self):
        experiment = _exp("sweep", {})
        assert experiment.with_seed(None) is experiment
        assert experiment.with_seed(9).seed == 9

    def test_load_error_names_the_file(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("version = 99\n", encoding="utf-8")
        with pytest.raises(ExperimentSpecError, match="bad.toml"):
            load_experiment(path)


class TestParamsCoverage:
    def test_all_param_classes_expose_kind(self):
        for cls in (Fig2Params, Fig4Params, EnergyParams, TradeoffParams,
                    SweepParams, MissionParams, CohortParams):
            assert cls.KIND

    def test_energy_payload_keys(self):
        payload = EnergyParams().to_payload()
        assert payload["figure"] == "energy"
        assert payload["workload_app"] == "dwt"

    def test_battery_clip_must_be_a_pair(self):
        with pytest.raises(ExperimentSpecError, match="battery_clip"):
            _exp("cohort", {"battery_clip": [0.5, 1.0, 1.5]})
