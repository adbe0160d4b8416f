"""Characterisation of the experiment-spec payload codec.

Pins what a reader of an experiment file can observe, so the parsing and
dumping machinery behind it can change freely:

* the exact error text for a table of malformed payloads (located
  ``where`` paths, sorted ``allowed`` key lists, coercion messages);
* the exact TOML dump and content hash of every shipped example file
  (the dumps live in ``data/example_dumps/``);
* the TOML key order of a mission and a cohort with optional keys set.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.api import serde
from repro.api.schema import experiment_from_payload, load_experiment
from repro.errors import ExperimentSpecError

REPO_ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = REPO_ROOT / "examples" / "experiments"
DUMPS = Path(__file__).resolve().parent / "data" / "example_dumps"


def _env(kind: str, section, **top) -> dict:
    return {"version": 1, "kind": kind, "name": "t", **top, kind: section}


_MIX = "expected 'name:weight,...' or [[name, weight], ...] pairs, got"
_KINDS = "['cohort', 'figure', 'mission', 'sweep']"
_FIGURES = "['energy', 'fig2', 'fig4', 'tradeoff']"

MALFORMED = [
    # Unknown keys, one case per section.
    pytest.param(
        _env("sweep", {"runz": 2}),
        "sweep: unknown keys ['runz']; allowed: ['apps', 'duration_s', "
        "'emts', 'records', 'runs', 'tolerance_db', 'voltages']",
        id="sweep-unknown",
    ),
    pytest.param(
        _env("mission", {"scenari": "overnight"}),
        "mission: unknown keys ['scenari']; allowed: ['duration_scale', "
        "'policies', 'probe_duration_s', 'probe_runs', 'scenario', "
        "'window_s']",
        id="mission-unknown",
    ),
    pytest.param(
        _env("cohort", {"sizes": 3, "zeta": 1}),
        "cohort: unknown keys ['sizes', 'zeta']; allowed: "
        "['allow_failed_patients', 'battery_clip', 'battery_cv', "
        "'duration_scale', 'environment', 'pathology', 'policies', "
        "'probe_duration_s', 'probe_runs', 'scenarios', 'shielding', "
        "'size']",
        id="cohort-unknown",
    ),
    pytest.param(
        _env("figure", {"figure": "fig2", "runs": 5}),
        "figure: unknown keys ['runs']; allowed: ['apps', 'duration_s', "
        "'figure', 'records']",
        id="fig2-unknown",
    ),
    pytest.param(
        _env("figure", {"figure": "fig4", "app": "dwt"}),
        "figure: unknown keys ['app']; allowed: ['apps', 'duration_s', "
        "'emts', 'figure', 'records', 'runs', 'voltages']",
        id="fig4-unknown",
    ),
    pytest.param(
        _env("figure", {"figure": "energy", "apps": ["dwt"]}),
        "figure: unknown keys ['apps']; allowed: ['emts', 'figure', "
        "'voltages', 'workload_app', 'workload_duration_s', "
        "'workload_record']",
        id="energy-unknown",
    ),
    pytest.param(
        _env("figure", {"figure": "tradeoff", "voltages": [0.5]}),
        "figure: unknown keys ['voltages']; allowed: ['app', 'duration_s', "
        "'emts', 'figure', 'records', 'runs', 'tolerance_db']",
        id="tradeoff-unknown",
    ),
    pytest.param(
        _env("sweep", {}, threads=4),
        "experiment: unknown keys ['threads']; allowed: ['backend', "
        "'kind', 'name', 'seed', 'store', 'sweep', 'version', 'workers']",
        id="envelope-unknown",
    ),
    # Integers.
    pytest.param(_env("sweep", {"runs": 1.5}),
                 "sweep.runs: expected an integer, got 1.5", id="runs-float"),
    pytest.param(_env("sweep", {"runs": True}),
                 "sweep.runs: expected an integer, got True", id="runs-bool"),
    pytest.param(_env("sweep", {"runs": None}),
                 "sweep.runs: expected an integer, got None", id="runs-null"),
    pytest.param(_env("sweep", {"runs": "many"}),
                 "sweep.runs: expected an integer, got 'many'",
                 id="runs-str"),
    pytest.param(_env("cohort", {"size": 1.5}),
                 "cohort.size: expected an integer, got 1.5",
                 id="size-float"),
    pytest.param(_env("mission", {"probe_runs": 2.5}),
                 "mission.probe_runs: expected an integer, got 2.5",
                 id="probe-runs-float"),
    pytest.param(_env("figure", {"figure": "fig4", "runs": "2"}),
                 "figure.runs: expected an integer, got '2'",
                 id="fig4-runs-str"),
    # Floats.
    pytest.param(_env("sweep", {"duration_s": "abc"}),
                 "sweep.duration_s: expected a number, got 'abc'",
                 id="duration-str"),
    pytest.param(_env("sweep", {"duration_s": None}),
                 "sweep.duration_s: expected a number, got None",
                 id="duration-null"),
    pytest.param(_env("figure", {"figure": "tradeoff", "tolerance_db": [1.0]}),
                 "figure.tolerance_db: expected a number, got [1.0]",
                 id="tolerance-list"),
    pytest.param(_env("mission", {"window_s": "x"}),
                 "mission.window_s: expected a number, got 'x'",
                 id="window-str"),
    pytest.param(_env("cohort", {"battery_cv": "x"}),
                 "cohort.battery_cv: expected a number, got 'x'",
                 id="battery-cv-str"),
    pytest.param(
        _env("figure", {"figure": "energy", "workload_duration_s": "long"}),
        "figure.workload_duration_s: expected a number, got 'long'",
        id="workload-duration-str",
    ),
    # Lists.
    pytest.param(_env("sweep", {"voltages": "0.5"}),
                 "sweep.voltages: expected a list of numbers, got '0.5'",
                 id="voltages-str"),
    pytest.param(_env("sweep", {"voltages": 3}),
                 "sweep.voltages: expected a list of numbers, got 3",
                 id="voltages-scalar"),
    pytest.param(_env("figure", {"figure": "fig4", "voltages": [0.5, "x"]}),
                 "figure.voltages: expected a list of numbers, "
                 "got [0.5, 'x']",
                 id="voltages-bad-item"),
    pytest.param(_env("sweep", {"apps": 5}),
                 "sweep.apps: expected a list of strings, got 5",
                 id="apps-scalar"),
    pytest.param(_env("figure", {"figure": "fig2", "records": 100}),
                 "figure.records: expected a list of strings, got 100",
                 id="records-scalar"),
    pytest.param(_env("sweep", {"apps": {"dwt": 1}}),
                 "sweep.apps: expected a list of strings, got {'dwt': 1}",
                 id="apps-mapping"),
    # List-of-string elements follow the scalar string rule.
    pytest.param(_env("sweep", {"apps": [None, True]}),
                 "sweep.apps[0]: expected a string, got None",
                 id="apps-item-null"),
    pytest.param(_env("sweep", {"apps": ["dwt", True]}),
                 "sweep.apps[1]: expected a string, got True",
                 id="apps-item-bool"),
    pytest.param(_env("figure", {"figure": "fig4", "emts": [["none"]]}),
                 "figure.emts[0]: expected a string, got ['none']",
                 id="emts-item-list"),
    pytest.param(_env("sweep", {"records": ["100", {"a": 1}]}),
                 "sweep.records[1]: expected a string, got {'a': 1}",
                 id="records-item-mapping"),
    # Policies.
    pytest.param(_env("mission", {"policies": 5}),
                 "mission.policies: expected a list of policies, got 5",
                 id="policies-scalar"),
    pytest.param(_env("cohort", {"policies": {"name": "static"}}),
                 "cohort.policies: expected a list of policies, "
                 "got {'name': 'static'}",
                 id="policies-mapping"),
    pytest.param(_env("cohort", {"battery_clip": [0.5, 1.0, 1.5]}),
                 "cohort.battery_clip: expected [low, high], "
                 "got (0.5, 1.0, 1.5)",
                 id="battery-clip-triple"),
    pytest.param(_env("cohort", {"battery_clip": [0.5]}),
                 "cohort.battery_clip: expected [low, high], got (0.5,)",
                 id="battery-clip-single"),
    pytest.param(_env("cohort", {"battery_clip": "x"}),
                 "cohort.battery_clip: expected a list of numbers, got 'x'",
                 id="battery-clip-str"),
    # Booleans.
    pytest.param(_env("cohort", {"allow_failed_patients": 1}),
                 "cohort.allow_failed_patients: expected a boolean, got 1",
                 id="allow-failed-int"),
    pytest.param(_env("cohort", {"allow_failed_patients": "yes"}),
                 "cohort.allow_failed_patients: expected a boolean, "
                 "got 'yes'",
                 id="allow-failed-str"),
    # Mixes.
    pytest.param(_env("cohort", {"scenarios": "active_day"}),
                 "mix entries are 'name:weight', got 'active_day'",
                 id="scenarios-no-weight"),
    pytest.param(_env("cohort", {"scenarios": "active_day:x"}),
                 "bad mix entry 'active_day:x': could not convert string "
                 "to float: 'x'",
                 id="scenarios-bad-weight"),
    pytest.param(_env("cohort", {"scenarios": [["active_day"]]}),
                 f"cohort.scenarios: {_MIX} [['active_day']]",
                 id="scenarios-short-pair"),
    pytest.param(_env("cohort", {"scenarios": 5}),
                 f"cohort.scenarios: {_MIX} 5", id="scenarios-scalar"),
    pytest.param(_env("cohort", {"pathology": [["106", "x"]]}),
                 f"cohort.pathology: {_MIX} [['106', 'x']]",
                 id="pathology-bad-weight"),
    pytest.param(_env("cohort", {"environment": [["loud", 0.5]]}),
                 f"cohort.environment: {_MIX} [['loud', 0.5]]",
                 id="environment-bad-gain"),
    pytest.param(_env("cohort", {"environment": "loud:0.5"}),
                 "bad mix entry 'loud:0.5': could not convert string to "
                 "float: 'loud'",
                 id="environment-str-bad-gain"),
    pytest.param(_env("cohort", {"shielding": 2.0}),
                 f"cohort.shielding: {_MIX} 2.0", id="shielding-scalar"),
    # Policies.
    pytest.param(_env("mission", {"policies": []}),
                 "mission.policies: at least one policy is required",
                 id="policies-empty"),
    pytest.param(_env("cohort", {"policies": ""}),
                 "cohort.policies: at least one policy is required",
                 id="policies-empty-str"),
    pytest.param(_env("mission", {"policies": [5]}),
                 "mission.policies: policies are tokens or {name, params} "
                 "mappings, got 5",
                 id="policies-bad-item"),
    pytest.param(_env("mission", {"policies": [{"params": {}}]}),
                 "mission.policies: policy mapping needs a 'name': "
                 "{'params': {}}",
                 id="policies-no-name"),
    pytest.param(_env("cohort", {"policies": ["soc", 1.5]}),
                 "cohort.policies: policies are tokens or {name, params} "
                 "mappings, got 1.5",
                 id="policies-cohort-bad-item"),
    # The envelope.
    pytest.param(_env("sweep", {}, seed="x"),
                 "experiment.seed: expected an integer, got 'x'",
                 id="seed-str"),
    pytest.param(_env("sweep", {}, seed=1.5),
                 "experiment.seed: expected an integer, got 1.5",
                 id="seed-float"),
    pytest.param(_env("sweep", {}, seed=True),
                 "experiment.seed: expected an integer, got True",
                 id="seed-bool"),
    pytest.param(_env("sweep", {}, workers="two"),
                 "experiment.workers: expected an integer, got 'two'",
                 id="workers-str"),
    pytest.param(_env("sweep", {}, workers=0),
                 "workers must be >= 1, got 0", id="workers-zero"),
    pytest.param(_env("sweep", {}, store="a/b"),
                 "store name must be a non-empty path-safe string, "
                 "got 'a/b'",
                 id="store-slash"),
    pytest.param(_env("sweep", {}, store=""),
                 "store name must be a non-empty path-safe string, got ''",
                 id="store-empty"),
    pytest.param(_env("sweep", {}) | {"name": ""},
                 "experiment name must be a non-empty path-safe string, "
                 "got ''",
                 id="name-empty"),
    pytest.param(_env("sweep", {}) | {"name": "a/b"},
                 "experiment name must be a non-empty path-safe string, "
                 "got 'a/b'",
                 id="name-slash"),
    pytest.param(_env("sweep", {}) | {"version": 2},
                 "unsupported experiment schema version 2; this build "
                 "supports version 1",
                 id="version-2"),
    pytest.param(_env("sweep", {}) | {"version": "1"},
                 "unsupported experiment schema version '1'; this build "
                 "supports version 1",
                 id="version-str"),
    pytest.param({"kind": "sweep", "name": "x", "sweep": {}},
                 "experiment payload must declare 'version = 1'",
                 id="version-missing"),
    pytest.param({"version": 1, "name": "x", "sweep": {}},
                 f"experiment payload must declare a 'kind' (one of {_KINDS})",
                 id="kind-missing"),
    pytest.param({"version": 1, "kind": "bench", "name": "x", "bench": {}},
                 f"unknown experiment kind 'bench'; available: {_KINDS}",
                 id="kind-unknown"),
    pytest.param({"version": 1, "kind": "sweep", "sweep": {}},
                 "experiment payload must declare a 'name'",
                 id="name-missing"),
    pytest.param({"version": 1, "kind": "sweep", "name": "x"},
                 "experiment payload needs a [sweep] section (a mapping), "
                 "got NoneType",
                 id="section-missing"),
    pytest.param({"version": 1, "kind": "sweep", "name": "x", "sweep": 5},
                 "experiment payload needs a [sweep] section (a mapping), "
                 "got int",
                 id="section-scalar"),
    pytest.param(_env("figure", {"apps": ["dwt"]}),
                 f"figure: a figure experiment needs a 'figure' key; "
                 f"available: {_FIGURES}",
                 id="figure-missing"),
    pytest.param(_env("figure", {"figure": "fig9"}),
                 f"figure: unknown figure 'fig9'; available: {_FIGURES}",
                 id="figure-unknown"),
    pytest.param([1, 2], "an experiment payload must be a mapping, got list",
                 id="payload-list"),
    # String keys reject null, booleans and containers.
    pytest.param(_env("sweep", {}) | {"name": None},
                 "experiment.name: expected a string, got None",
                 id="name-null"),
    pytest.param(_env("sweep", {}) | {"name": ["a"]},
                 "experiment.name: expected a string, got ['a']",
                 id="name-list"),
    pytest.param(_env("sweep", {}, backend=True),
                 "experiment.backend: expected a string, got True",
                 id="backend-bool"),
    pytest.param(_env("sweep", {}, store={"a": 1}),
                 "experiment.store: expected a string, got {'a': 1}",
                 id="store-mapping"),
    pytest.param(_env("figure", {"figure": "tradeoff", "app": ["dwt"]}),
                 "figure.app: expected a string, got ['dwt']",
                 id="app-list"),
    pytest.param(_env("figure", {"figure": "energy", "workload_app": None}),
                 "figure.workload_app: expected a string, got None",
                 id="workload-app-null"),
    pytest.param(_env("mission", {"scenario": False}),
                 "mission.scenario: expected a string, got False",
                 id="scenario-bool"),
]


@pytest.mark.parametrize("payload, message", MALFORMED)
def test_malformed_payload_error_text(payload, message):
    with pytest.raises(ExperimentSpecError) as info:
        experiment_from_payload(payload)
    assert str(info.value) == message


EXAMPLE_HASHES = {
    "cohort_pilot.toml":
        "f29ced1f2d8a26e335da1cb395c5576fa4e1b554f978c4ed445b81d1d3af1f53",
    "cohort_ward.json":
        "baf047ea26cea01f67455c4fc6dbcd9280ca0156c9aaad12c5d8f1e6887b547c",
    "energy_table.toml":
        "fa2470e407c14fe5ed11d6692c3cc6edd6da79becc6d1da9cc94a01308fd9d8d",
    "fig2_paper.toml":
        "3704b327f5d5b47f68089621a22e54ce6691d962aa6d2b4048d7f8751935298b",
    "fig2_quick.toml":
        "6a36c737925739d9fe2379046dcf5193831fe5e913efd7231635012c8c2f96b9",
    "fig4_paper.toml":
        "48f883faf71bdb2f7f6dfee80e827173444a72c6446d4522864806cff961abae",
    "fig4_quick.json":
        "b120c019203387e10ee366b6c9eda73de39491a4e9759d2de3da3e01e662399a",
    "mission_active_day.toml":
        "d2bfb6d08f13f282213198d333731e21b46f73efdef23cf01435c1915655449e",
    "mission_quick.toml":
        "f688e9d81960e2080a061a948f1cb793c7c00332d37092a36de74ca5093fe3aa",
    "sweep_paper.toml":
        "81e0ea9cccaaaa1c43a7ceed7b2c0edb8211129355aebc7495c9c8e7b531c87d",
    "sweep_quick.toml":
        "2bbcd8cc3202d925487966b2e484a86a588f9ced6d64791345d86ca0ff4a958e",
    "tradeoff_quick.toml":
        "ef33568a24adb9a2346b7dfb95a3735453ce24fbcb02fc81d38735481580beaa",
}


@pytest.mark.parametrize("name", sorted(EXAMPLE_HASHES))
def test_example_dump_and_hash_are_pinned(name):
    experiment = load_experiment(EXAMPLES / name)
    expected = (DUMPS / f"{Path(name).stem}.toml").read_text(encoding="utf-8")
    assert serde.dumps_toml(experiment.to_payload()) == expected
    assert experiment.content_hash() == EXAMPLE_HASHES[name]


def test_mission_optionals_dump_last():
    experiment = experiment_from_payload({
        "version": 1, "kind": "mission", "name": "opt-mission", "seed": 3,
        "backend": "multiprocessing",
        "mission": {
            "scenario": "overnight", "window_s": 4.0, "probe_runs": 2,
            "policies": ["static:secded@0.65",
                         {"name": "hysteresis", "params": {"dwell": 3}}],
        },
    })
    assert serde.dumps_toml(experiment.to_payload()) == """\
version = 1
kind = "mission"
name = "opt-mission"
seed = 3
backend = "multiprocessing"

[mission]
scenario = "overnight"
policies = ["static:secded@0.65", {name = "hysteresis", params = {dwell = 3}}]
duration_scale = 1.0
probe_runs = 2
probe_duration_s = 4.0
window_s = 4.0
"""


def test_cohort_optionals_dump_last():
    experiment = experiment_from_payload({
        "version": 1, "kind": "cohort", "name": "opt-cohort", "workers": 2,
        "store": "opt",
        "cohort": {
            "size": 9, "scenarios": "pvc_ward:1.0",
            "pathology": [["106", 0.5], ["119", 0.5]],
            "environment": "1:0.5,2.5:0.5", "shielding": [[1, 1]],
            "battery_cv": 0.2, "battery_clip": [0.6, 1.4],
            "allow_failed_patients": False,
        },
    })
    assert serde.dumps_toml(experiment.to_payload()) == """\
version = 1
kind = "cohort"
name = "opt-cohort"
workers = 2
store = "opt"

[cohort]
size = 9
policies = ["static", "soc", "hysteresis"]
scenarios = [["pvc_ward", 1.0]]
duration_scale = 1.0
probe_runs = 3
probe_duration_s = 4.0
allow_failed_patients = false
pathology = [["106", 0.5], ["119", 0.5]]
environment = [[1.0, 0.5], [2.5, 0.5]]
shielding = [[1.0, 1.0]]
battery_cv = 0.2
battery_clip = [0.6, 1.4]
"""


def test_numbers_coerce_to_string_keys():
    experiment = experiment_from_payload(_env(
        "figure", {"figure": "energy", "workload_record": 100}
    ) | {"name": 7})
    assert experiment.name == "7"
    assert experiment.params.workload_record == "100"
    sweep = experiment_from_payload(_env("sweep", {"records": [100, 106]}))
    assert sweep.params.records == ("100", "106")


@pytest.mark.parametrize("kind, section, top", [
    ("mission", {"window_s": None}, {}),
    ("cohort", {"pathology": None, "environment": None, "shielding": None,
                "battery_cv": None, "battery_clip": None}, {}),
    ("sweep", {}, {"seed": None, "workers": None, "backend": None,
                   "store": None}),
], ids=["mission", "cohort", "envelope"])
def test_null_optional_key_means_absent(kind, section, top):
    assert experiment_from_payload(_env(kind, section, **top)) == (
        experiment_from_payload(_env(kind, {}))
    )
