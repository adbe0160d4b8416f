"""Golden-equivalence: the API redesign is a pure re-plumbing.

Three layers of pinning, per workload kind:

1. **API == file**: the experiment built in Python with the values the
   removed per-artefact subcommands passed is canonically identical to
   the equivalent committed-style experiment file — so every golden
   statement about ``repro run`` holds for the Python API and vice
   versa.
2. **Plan == pre-redesign grids**: the campaign specs a sweep/figure
   experiment plans into expand to exactly the point content hashes the
   pre-redesign code paths (``fig4_spec`` + the historical ``repro
   sweep`` energy-spec construction) produce — stored results carry
   over, store keys don't shift.
3. **Results == direct simulators**: mission and cohort experiments
   produce bit-identical metrics to calling ``MissionSimulator`` /
   ``FleetSimulator`` directly, and a Python-API session writes the
   same store content hashes as ``repro run`` on the equivalent file.
"""

from __future__ import annotations

import json

import pytest

from repro.api.schema import (
    CohortParams,
    Experiment,
    MissionParams,
    SweepParams,
    dump_experiment,
    load_experiment,
)
from repro.api.session import Session, resolved_mission_spec
from repro.campaign.spec import CampaignSpec
from repro.cli import main

SWEEP_EXPERIMENT = Experiment(
    name="sweep",
    kind="sweep",
    params=SweepParams(
        apps=("morphology",),
        emts=("none", "dream", "secded"),
        voltages=(0.55, 0.9),
        records=("100",),
        duration_s=3.0,
        runs=2,
        tolerance_db=40.0,
    ),
    workers=2,
    store="sweep",
)

SWEEP_FILE_TOML = """\
version = 1
kind = "sweep"
name = "sweep"
store = "sweep"
workers = 2

[sweep]
apps = ["morphology"]
emts = ["none", "dream", "secded"]
voltages = [0.55, 0.9]
records = ["100"]
duration_s = 3.0
runs = 2
tolerance_db = 40.0
"""

MISSION_EXPERIMENT = Experiment(
    name="mission-overnight",
    kind="mission",
    params=MissionParams(
        scenario="overnight",
        policies=("static:secded@0.65", "hysteresis"),
        duration_scale=0.02,
        probe_runs=2,
        probe_duration_s=2.0,
    ),
)

MISSION_FILE_TOML = """\
version = 1
kind = "mission"
name = "mission-overnight"

[mission]
scenario = "overnight"
policies = ["static:secded@0.65", "hysteresis"]
duration_scale = 0.02
probe_runs = 2
probe_duration_s = 2.0
"""

COHORT_EXPERIMENT = Experiment(
    name="cohort",
    kind="cohort",
    params=CohortParams(
        size=4,
        policies=("hysteresis",),
        scenarios=(("active_day", 0.7), ("overnight", 0.3)),
        duration_scale=0.01,
        probe_runs=2,
        probe_duration_s=2.0,
    ),
    workers=1,
)

COHORT_FILE_TOML = """\
version = 1
kind = "cohort"
name = "cohort"
workers = 1

[cohort]
size = 4
policies = ["hysteresis"]
scenarios = [["active_day", 0.7], ["overnight", 0.3]]
duration_scale = 0.01
probe_runs = 2
probe_duration_s = 2.0
"""


def _store_hashes(path) -> dict[str, dict]:
    records = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            records[record["hash"]] = record
    return records


class TestShimEqualsFile:
    """Layer 1: the Python API and files construct the same experiment."""

    def test_sweep(self, tmp_path):
        path = tmp_path / "sweep.toml"
        path.write_text(SWEEP_FILE_TOML, encoding="utf-8")
        assert (
            load_experiment(path).canonical_json()
            == SWEEP_EXPERIMENT.canonical_json()
        )

    def test_mission(self, tmp_path):
        path = tmp_path / "mission.toml"
        path.write_text(MISSION_FILE_TOML, encoding="utf-8")
        assert (
            load_experiment(path).canonical_json()
            == MISSION_EXPERIMENT.canonical_json()
        )

    def test_cohort(self, tmp_path):
        path = tmp_path / "cohort.toml"
        path.write_text(COHORT_FILE_TOML, encoding="utf-8")
        assert (
            load_experiment(path).canonical_json()
            == COHORT_EXPERIMENT.canonical_json()
        )

    @pytest.mark.parametrize("suffix", [".toml", ".json"])
    def test_dumped_shim_experiments_reload(self, suffix, tmp_path):
        for experiment in (
            SWEEP_EXPERIMENT, MISSION_EXPERIMENT, COHORT_EXPERIMENT,
        ):
            out = tmp_path / f"{experiment.kind}{suffix}"
            dump_experiment(experiment, out)
            assert load_experiment(out) == experiment


class TestPlanEqualsPreRedesignGrids:
    """Layer 2: planned point hashes match the historical constructions."""

    def test_sweep_plan_matches_pr4_era_spec_construction(self):
        from repro.exp.common import ExperimentConfig
        from repro.exp.fig4 import fig4_spec

        experiment = SWEEP_EXPERIMENT
        params = experiment.params
        planned = Session().plan(experiment)
        planned_hashes = {
            point.content_hash()
            for campaign in planned
            for point in campaign.spec.expand()
        }

        # The construction the `sweep` subcommand shipped before the
        # redesign, reproduced literally.
        config = ExperimentConfig(
            records=params.records, duration_s=params.duration_s,
            n_runs=params.runs,
        )
        quality_spec = fig4_spec(
            app_names=params.apps,
            emt_names=params.emts,
            voltages=params.voltages,
            config=config,
            name=f"{experiment.name}-quality",
        )
        energy_specs = [
            CampaignSpec(
                name=f"{experiment.name}-energy",
                kind="energy",
                axes={"emt": params.emts, "voltage": params.voltages},
                fixed={
                    "workload_app": app,
                    "workload_record": params.records[0],
                    "workload_duration_s": params.duration_s,
                },
            )
            for app in params.apps
        ]
        historical_hashes = {
            point.content_hash()
            for spec in (quality_spec, *energy_specs)
            for point in spec.expand()
        }
        assert planned_hashes == historical_hashes

    def test_fig4_figure_plan_matches_fig4_spec(self):
        from repro.exp.common import ExperimentConfig
        from repro.exp.fig4 import fig4_spec

        from repro.api.schema import Fig4Params

        experiment = Experiment(
            name="fig4",
            kind="figure",
            params=Fig4Params(
                apps=("morphology",), records=("100",), duration_s=3.0,
                runs=2,
            ),
        )
        planned = Session().plan(experiment)
        config = ExperimentConfig(
            records=("100",), duration_s=3.0, n_runs=2
        )
        historical = fig4_spec(("morphology",), config=config)
        assert {
            p.content_hash()
            for c in planned
            for p in c.spec.expand()
        } == {p.content_hash() for p in historical.expand()}


class TestResultsEqualDirectSimulators:
    """Layer 3: executed metrics are bit-identical to the subsystems."""

    def test_mission_session_equals_direct_simulator(self):
        from repro.runtime import MissionSimulator, policy_from_dict

        experiment = MISSION_EXPERIMENT
        handle = Session().run(experiment)
        assert handle.ok

        spec = resolved_mission_spec(experiment.params, experiment.seed)
        simulator = MissionSimulator(spec, n_probe=2, probe_duration_s=2.0)
        direct = [
            simulator.run(policy_from_dict(payload)).to_dict()
            for payload in (
                {"name": "static",
                 "params": {"emt": "secded", "voltage": 0.65}},
                "hysteresis",
            )
        ]
        assert [rec["result"] for rec in handle.records] == direct

    def test_cohort_session_equals_direct_fleet(self):
        from repro.api.session import cohort_spec_for
        from repro.cohort import FleetSimulator, survival_curve

        experiment = COHORT_EXPERIMENT
        handle = Session().run(experiment)
        assert handle.ok

        fleet = FleetSimulator(
            cohort_spec_for(experiment), n_probe=2, probe_duration_s=2.0
        )
        direct = fleet.run("hysteresis")
        expected = direct.summary()
        for volatile in ("elapsed_s", "patients_per_s", "cache"):
            expected.pop(volatile, None)
        expected["survival"] = [
            [t, alive]
            for t, alive in survival_curve(direct.ok_rows(), n_points=9)
        ]
        assert handle.records[0]["result"] == expected

    def test_sweep_shim_and_run_write_identical_stores(self, tmp_path):
        """The acceptance gate: a Python-API session and `repro run
        <equivalent file>` produce byte-comparable result stores —
        same content-hash keys, same kinds, same result payloads."""
        shim_dir = tmp_path / "shim"
        file_dir = tmp_path / "file"
        spec_path = tmp_path / "sweep.toml"
        spec_path.write_text(SWEEP_FILE_TOML, encoding="utf-8")

        assert Session(store_dir=shim_dir).run(SWEEP_EXPERIMENT).ok
        assert main(
            ["run", str(spec_path), "--store-dir", str(file_dir)]
        ) == 0

        for store in ("sweep-quality.jsonl", "sweep-energy.jsonl"):
            shim_records = _store_hashes(shim_dir / store)
            file_records = _store_hashes(file_dir / store)
            assert set(shim_records) == set(file_records)
            for point_hash, record in shim_records.items():
                other = file_records[point_hash]
                assert record["result"] == other["result"]
                assert record["params"] == other["params"]
                assert record["kind"] == other["kind"]

    def test_mission_shim_and_run_write_identical_stores(self, tmp_path):
        """Mission runs persist when a store is attached; the Python-API
        experiment and the file produce the same keys and results."""
        shim_dir = tmp_path / "shim"
        file_dir = tmp_path / "file"
        spec_path = tmp_path / "mission.toml"
        spec_path.write_text(MISSION_FILE_TOML, encoding="utf-8")

        from dataclasses import replace

        shim_exp = replace(
            MISSION_EXPERIMENT, store="mission-golden"
        )
        Session(store_dir=shim_dir).run(shim_exp)
        assert main([
            "run", str(spec_path), "--store-dir", str(file_dir),
            "--store", "mission-golden",
        ]) == 0

        shim_records = _store_hashes(shim_dir / "mission-golden.jsonl")
        file_records = _store_hashes(file_dir / "mission-golden.jsonl")
        assert set(shim_records) == set(file_records)
        for point_hash, record in shim_records.items():
            assert record["result"] == file_records[point_hash]["result"]
