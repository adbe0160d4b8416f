"""The declarative, versioned :class:`Experiment` schema.

One :class:`Experiment` describes any workload the repo can run:

* ``kind = "figure"`` — a paper artefact (:class:`Fig2Params`,
  :class:`Fig4Params`, :class:`EnergyParams`, :class:`TradeoffParams`);
* ``kind = "sweep"`` — a voltage x EMT x application Monte-Carlo
  campaign with Pareto/trade-off extraction (:class:`SweepParams`);
* ``kind = "mission"`` — a closed-loop adaptive-runtime policy
  comparison on one scenario (:class:`MissionParams`);
* ``kind = "cohort"`` — a population fleet simulation
  (:class:`CohortParams`).

Experiments load from TOML or JSON files (:func:`load_experiment`) and
dump back (:func:`dump_experiment`); the payload form is canonicalised
through the same :func:`repro.api.serde.canonical_json` machinery the
campaign stores key by, so an experiment has a stable
:meth:`Experiment.content_hash` and a dump -> reload round trip is bit
identical.  Schema versioning is strict: a payload must declare
``version = 1`` and unknown versions (or unknown keys anywhere) are
rejected with a clear error before anything runs.

The file layout mirrors the dataclasses::

    version = 1
    kind = "sweep"
    name = "paper-sweep"
    seed = 7            # optional: master Monte-Carlo seed
    workers = 4         # optional: default worker count
    backend = "multiprocessing"   # optional: execution backend
    store = "paper-sweep"         # optional: result-store basename

    [sweep]
    apps = ["dwt"]
    emts = ["none", "dream", "secded"]
    voltages = [0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9]
    runs = 6
    tolerance_db = 5.0

Defaults match the flags of the per-artefact CLI subcommands removed in
1.8.0, so a file with only the keys you care about reproduces what the
equivalent ``repro sweep``/``repro mission``/... invocation always did
(``tests/api/test_schema.py`` pins this).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, ClassVar, Union

from ..energy.technology import PAPER_VOLTAGE_GRID
from ..errors import ExperimentSpecError
from . import serde

__all__ = [
    "SCHEMA_VERSION",
    "EXPERIMENT_KINDS",
    "PAPER_APP_NAMES",
    "Fig2Params",
    "Fig4Params",
    "EnergyParams",
    "TradeoffParams",
    "FigureParams",
    "SweepParams",
    "MissionParams",
    "CohortParams",
    "Experiment",
    "experiment_from_payload",
    "load_experiment",
    "dump_experiment",
]

#: The schema version this build reads and writes.
SCHEMA_VERSION = 1

#: The paper's five case-study applications (the figure-driver default).
PAPER_APP_NAMES = (
    "dwt",
    "matrix_filter",
    "compressed_sensing",
    "morphology",
    "delineation",
)

#: Fig 4's three techniques, the default EMT comparison everywhere.
_DEFAULT_EMTS = ("none", "dream", "secded")

#: The historical CLI record/duration defaults (``--records``/``--duration``).
_DEFAULT_RECORDS = ("100", "106")
_DEFAULT_DURATION_S = 8.0


# --------------------------------------------------------------------------
# Payload coercion helpers (shared by every params class)
# --------------------------------------------------------------------------


def _fail(where: str, message: str) -> ExperimentSpecError:
    return ExperimentSpecError(f"{where}: {message}")


def _check_keys(payload: Mapping[str, Any], allowed: tuple, where: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise _fail(
            where,
            f"unknown keys {unknown}; allowed: {sorted(allowed)}",
        )


def _str_tuple(value: Any, where: str) -> tuple[str, ...]:
    if isinstance(value, str):
        return tuple(v.strip() for v in value.split(",") if v.strip())
    try:
        return tuple(str(v) for v in value)
    except TypeError as exc:
        raise _fail(where, f"expected a list of strings, got {value!r}") from exc


def _float_tuple(value: Any, where: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in value)
    except (TypeError, ValueError) as exc:
        raise _fail(where, f"expected a list of numbers, got {value!r}") from exc


def _float(value: Any, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise _fail(where, f"expected a number, got {value!r}") from exc


def _int(value: Any, where: str) -> int:
    if isinstance(value, bool):
        raise _fail(where, f"expected an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise _fail(where, f"expected an integer, got {value!r}")


def _mix(value: Any, where: str, value_type=str) -> tuple:
    """Coerce a mix given as ``"a:0.7,b:0.3"`` or ``[["a", 0.7], ...]``."""
    if isinstance(value, str):
        return serde.parse_mix(value, value_type)
    try:
        return tuple(
            (value_type(name), float(weight)) for name, weight in value
        )
    except (TypeError, ValueError) as exc:
        raise _fail(
            where,
            "expected 'name:weight,...' or [[name, weight], ...] pairs, "
            f"got {value!r}",
        ) from exc


def _policies(value: Any, where: str) -> tuple:
    """Coerce a policy list: tokens and/or ``{"name", "params"}`` dicts."""
    if isinstance(value, str):
        value = _str_tuple(value, where)
    out = []
    for item in value:
        if isinstance(item, str):
            out.append(item.strip())
        elif isinstance(item, Mapping):
            if "name" not in item:
                raise _fail(where, f"policy mapping needs a 'name': {item!r}")
            out.append(
                {
                    "name": str(item["name"]),
                    "params": dict(item.get("params", {})),
                }
            )
        else:
            raise _fail(
                where,
                f"policies are tokens or {{name, params}} mappings, "
                f"got {item!r}",
            )
    if not out:
        raise _fail(where, "at least one policy is required")
    return tuple(out)


def _mix_payload(mix: tuple) -> list:
    return [[name, weight] for name, weight in mix]


# --------------------------------------------------------------------------
# Kind-specific parameter blocks
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig2Params:
    """Fig 2 bit-significance sweep (``figure = "fig2"``).

    Attributes:
        apps: applications to characterise.
        records: catalog records averaged over.
        duration_s: seconds of each record to process.
    """

    KIND: ClassVar[str] = "fig2"

    apps: tuple[str, ...] = PAPER_APP_NAMES
    records: tuple[str, ...] = _DEFAULT_RECORDS
    duration_s: float = _DEFAULT_DURATION_S

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any], where: str) -> "Fig2Params":
        """Parse the ``[figure]`` section keys applicable to fig 2."""
        _check_keys(payload, ("figure", "apps", "records", "duration_s"), where)
        kwargs: dict[str, Any] = {}
        if "apps" in payload:
            kwargs["apps"] = _str_tuple(payload["apps"], f"{where}.apps")
        if "records" in payload:
            kwargs["records"] = _str_tuple(payload["records"], f"{where}.records")
        if "duration_s" in payload:
            kwargs["duration_s"] = _float(
                payload["duration_s"], f"{where}.duration_s"
            )
        return cls(**kwargs)

    def to_payload(self) -> dict[str, Any]:
        """The JSON-safe ``[figure]`` section, fully resolved."""
        return {
            "figure": self.KIND,
            "apps": list(self.apps),
            "records": list(self.records),
            "duration_s": self.duration_s,
        }


@dataclass(frozen=True)
class Fig4Params:
    """Fig 4 SNR-vs-voltage Monte-Carlo sweep (``figure = "fig4"``).

    Attributes:
        apps / emts / voltages: the (app, EMT, voltage) grid; EMTs share
            each run's defect sample, per the paper's fairness rule.
        records / duration_s: the averaged signal corpus.
        runs: Monte-Carlo runs per grid point (the paper uses 200).
    """

    KIND: ClassVar[str] = "fig4"

    apps: tuple[str, ...] = PAPER_APP_NAMES
    emts: tuple[str, ...] = _DEFAULT_EMTS
    voltages: tuple[float, ...] = PAPER_VOLTAGE_GRID
    records: tuple[str, ...] = _DEFAULT_RECORDS
    duration_s: float = _DEFAULT_DURATION_S
    runs: int = 12

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any], where: str) -> "Fig4Params":
        """Parse the ``[figure]`` section keys applicable to fig 4."""
        _check_keys(
            payload,
            ("figure", "apps", "emts", "voltages", "records", "duration_s",
             "runs"),
            where,
        )
        kwargs: dict[str, Any] = {}
        if "apps" in payload:
            kwargs["apps"] = _str_tuple(payload["apps"], f"{where}.apps")
        if "emts" in payload:
            kwargs["emts"] = _str_tuple(payload["emts"], f"{where}.emts")
        if "voltages" in payload:
            kwargs["voltages"] = _float_tuple(
                payload["voltages"], f"{where}.voltages"
            )
        if "records" in payload:
            kwargs["records"] = _str_tuple(payload["records"], f"{where}.records")
        if "duration_s" in payload:
            kwargs["duration_s"] = _float(
                payload["duration_s"], f"{where}.duration_s"
            )
        if "runs" in payload:
            kwargs["runs"] = _int(payload["runs"], f"{where}.runs")
        return cls(**kwargs)

    def to_payload(self) -> dict[str, Any]:
        """The JSON-safe ``[figure]`` section, fully resolved."""
        return {
            "figure": self.KIND,
            "apps": list(self.apps),
            "emts": list(self.emts),
            "voltages": list(self.voltages),
            "records": list(self.records),
            "duration_s": self.duration_s,
            "runs": self.runs,
        }


@dataclass(frozen=True)
class EnergyParams:
    """Section VI-B energy/area analysis (``figure = "energy"``).

    Attributes:
        emts / voltages: the (EMT, voltage) accounting grid.
        workload_app / workload_record / workload_duration_s: the
            application run the memory-activity workload is measured
            from (the historical ``repro energy`` defaults).
    """

    KIND: ClassVar[str] = "energy"

    emts: tuple[str, ...] = _DEFAULT_EMTS
    voltages: tuple[float, ...] = PAPER_VOLTAGE_GRID
    workload_app: str = "dwt"
    workload_record: str = "100"
    workload_duration_s: float = 10.0

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any], where: str) -> "EnergyParams":
        """Parse the ``[figure]`` section keys applicable to energy."""
        _check_keys(
            payload,
            ("figure", "emts", "voltages", "workload_app", "workload_record",
             "workload_duration_s"),
            where,
        )
        kwargs: dict[str, Any] = {}
        if "emts" in payload:
            kwargs["emts"] = _str_tuple(payload["emts"], f"{where}.emts")
        if "voltages" in payload:
            kwargs["voltages"] = _float_tuple(
                payload["voltages"], f"{where}.voltages"
            )
        if "workload_app" in payload:
            kwargs["workload_app"] = str(payload["workload_app"])
        if "workload_record" in payload:
            kwargs["workload_record"] = str(payload["workload_record"])
        if "workload_duration_s" in payload:
            kwargs["workload_duration_s"] = _float(
                payload["workload_duration_s"], f"{where}.workload_duration_s"
            )
        return cls(**kwargs)

    def to_payload(self) -> dict[str, Any]:
        """The JSON-safe ``[figure]`` section, fully resolved."""
        return {
            "figure": self.KIND,
            "emts": list(self.emts),
            "voltages": list(self.voltages),
            "workload_app": self.workload_app,
            "workload_record": self.workload_record,
            "workload_duration_s": self.workload_duration_s,
        }


@dataclass(frozen=True)
class TradeoffParams:
    """Section VI-C quality/energy trade-off (``figure = "tradeoff"``).

    Attributes:
        app: the application setting the quality requirement.
        emts: candidate techniques.
        records / duration_s / runs: the Fig 4 sweep the policy derives
            from.
        tolerance_db: allowed degradation below the error-free ceiling.
    """

    KIND: ClassVar[str] = "tradeoff"

    app: str = "dwt"
    emts: tuple[str, ...] = _DEFAULT_EMTS
    records: tuple[str, ...] = _DEFAULT_RECORDS
    duration_s: float = _DEFAULT_DURATION_S
    runs: int = 12
    tolerance_db: float = 1.0

    @classmethod
    def from_payload(
        cls, payload: Mapping[str, Any], where: str
    ) -> "TradeoffParams":
        """Parse the ``[figure]`` section keys applicable to tradeoff."""
        _check_keys(
            payload,
            ("figure", "app", "emts", "records", "duration_s", "runs",
             "tolerance_db"),
            where,
        )
        kwargs: dict[str, Any] = {}
        if "app" in payload:
            kwargs["app"] = str(payload["app"])
        if "emts" in payload:
            kwargs["emts"] = _str_tuple(payload["emts"], f"{where}.emts")
        if "records" in payload:
            kwargs["records"] = _str_tuple(payload["records"], f"{where}.records")
        if "duration_s" in payload:
            kwargs["duration_s"] = _float(
                payload["duration_s"], f"{where}.duration_s"
            )
        if "runs" in payload:
            kwargs["runs"] = _int(payload["runs"], f"{where}.runs")
        if "tolerance_db" in payload:
            kwargs["tolerance_db"] = _float(
                payload["tolerance_db"], f"{where}.tolerance_db"
            )
        return cls(**kwargs)

    def to_payload(self) -> dict[str, Any]:
        """The JSON-safe ``[figure]`` section, fully resolved."""
        return {
            "figure": self.KIND,
            "app": self.app,
            "emts": list(self.emts),
            "records": list(self.records),
            "duration_s": self.duration_s,
            "runs": self.runs,
            "tolerance_db": self.tolerance_db,
        }


#: Any figure parameter block.
FigureParams = Union[Fig2Params, Fig4Params, EnergyParams, TradeoffParams]

#: ``figure`` name -> parameter class.
_FIGURES: dict[str, type] = {
    cls.KIND: cls
    for cls in (Fig2Params, Fig4Params, EnergyParams, TradeoffParams)
}


def _figure_from_payload(payload: Mapping[str, Any], where: str) -> FigureParams:
    if "figure" not in payload:
        raise _fail(
            where,
            f"a figure experiment needs a 'figure' key; "
            f"available: {sorted(_FIGURES)}",
        )
    figure = str(payload["figure"])
    if figure not in _FIGURES:
        raise _fail(
            where,
            f"unknown figure {figure!r}; available: {sorted(_FIGURES)}",
        )
    return _FIGURES[figure].from_payload(payload, where)


@dataclass(frozen=True)
class SweepParams:
    """A design-space-exploration sweep campaign.

    Attributes:
        apps / emts / voltages: the exploration grid; ``emts`` must
            include the ``"none"`` baseline the savings are measured
            against.
        records / duration_s / runs: the Monte-Carlo corpus and depth.
        tolerance_db: quality tolerance for operating-point extraction.
    """

    KIND: ClassVar[str] = "sweep"

    apps: tuple[str, ...] = ("dwt",)
    emts: tuple[str, ...] = _DEFAULT_EMTS
    voltages: tuple[float, ...] = PAPER_VOLTAGE_GRID
    records: tuple[str, ...] = _DEFAULT_RECORDS
    duration_s: float = _DEFAULT_DURATION_S
    runs: int = 6
    tolerance_db: float = 5.0

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any], where: str) -> "SweepParams":
        """Parse the ``[sweep]`` section."""
        _check_keys(
            payload,
            ("apps", "emts", "voltages", "records", "duration_s", "runs",
             "tolerance_db"),
            where,
        )
        kwargs: dict[str, Any] = {}
        if "apps" in payload:
            kwargs["apps"] = _str_tuple(payload["apps"], f"{where}.apps")
        if "emts" in payload:
            kwargs["emts"] = _str_tuple(payload["emts"], f"{where}.emts")
        if "voltages" in payload:
            kwargs["voltages"] = _float_tuple(
                payload["voltages"], f"{where}.voltages"
            )
        if "records" in payload:
            kwargs["records"] = _str_tuple(payload["records"], f"{where}.records")
        if "duration_s" in payload:
            kwargs["duration_s"] = _float(
                payload["duration_s"], f"{where}.duration_s"
            )
        if "runs" in payload:
            kwargs["runs"] = _int(payload["runs"], f"{where}.runs")
        if "tolerance_db" in payload:
            kwargs["tolerance_db"] = _float(
                payload["tolerance_db"], f"{where}.tolerance_db"
            )
        return cls(**kwargs)

    def to_payload(self) -> dict[str, Any]:
        """The JSON-safe ``[sweep]`` section, fully resolved."""
        return {
            "apps": list(self.apps),
            "emts": list(self.emts),
            "voltages": list(self.voltages),
            "records": list(self.records),
            "duration_s": self.duration_s,
            "runs": self.runs,
            "tolerance_db": self.tolerance_db,
        }


@dataclass(frozen=True)
class MissionParams:
    """A closed-loop mission policy comparison.

    Attributes:
        scenario: scenario registry name
            (see :mod:`repro.runtime.scenarios`).
        policies: policy tokens (``"hysteresis"``,
            ``"static:secded@0.65"``, ``"static-ladder"`` for one static
            policy per lattice rung) or ``{"name", "params"}`` mappings.
        duration_scale: scale on segment durations and battery capacity.
        window_s: optional processing-window override.
        probe_runs / probe_duration_s: calibration fidelity knobs.
    """

    KIND: ClassVar[str] = "mission"

    scenario: str = "active_day"
    policies: tuple = ("static-ladder", "quality", "soc", "hysteresis")
    duration_scale: float = 1.0
    window_s: float | None = None
    probe_runs: int = 3
    probe_duration_s: float = 4.0

    @classmethod
    def from_payload(
        cls, payload: Mapping[str, Any], where: str
    ) -> "MissionParams":
        """Parse the ``[mission]`` section."""
        _check_keys(
            payload,
            ("scenario", "policies", "duration_scale", "window_s",
             "probe_runs", "probe_duration_s"),
            where,
        )
        kwargs: dict[str, Any] = {}
        if "scenario" in payload:
            kwargs["scenario"] = str(payload["scenario"])
        if "policies" in payload:
            kwargs["policies"] = _policies(
                payload["policies"], f"{where}.policies"
            )
        if "duration_scale" in payload:
            kwargs["duration_scale"] = _float(
                payload["duration_scale"], f"{where}.duration_scale"
            )
        if "window_s" in payload:
            kwargs["window_s"] = _float(payload["window_s"], f"{where}.window_s")
        if "probe_runs" in payload:
            kwargs["probe_runs"] = _int(
                payload["probe_runs"], f"{where}.probe_runs"
            )
        if "probe_duration_s" in payload:
            kwargs["probe_duration_s"] = _float(
                payload["probe_duration_s"], f"{where}.probe_duration_s"
            )
        return cls(**kwargs)

    def to_payload(self) -> dict[str, Any]:
        """The JSON-safe ``[mission]`` section, fully resolved."""
        payload: dict[str, Any] = {
            "scenario": self.scenario,
            "policies": [
                p if isinstance(p, str) else dict(p) for p in self.policies
            ],
            "duration_scale": self.duration_scale,
            "probe_runs": self.probe_runs,
            "probe_duration_s": self.probe_duration_s,
        }
        if self.window_s is not None:
            payload["window_s"] = self.window_s
        return payload


@dataclass(frozen=True)
class CohortParams:
    """A population fleet simulation.

    Attributes:
        size: number of synthetic patients.
        policies: policy tokens or mappings (see :class:`MissionParams`).
        scenarios: mission-template mix (``"name:weight,..."`` or pairs).
        pathology: optional catalog-record mix override.
        environment / shielding: optional noise-gain / BER-stress mixes.
        battery_cv / battery_clip: optional battery-lot spread overrides.
        duration_scale: scale on every patient mission.
        probe_runs / probe_duration_s: calibration fidelity knobs.
        allow_failed_patients: degrade gracefully when a patient's
            mission raises — population statistics cover the survivors
            and the failures are reported (the historical ``repro
            cohort`` behaviour, and the default).  When false, any
            failed patient fails the whole fleet point (and the
            campaign retries it on the next run).
    """

    KIND: ClassVar[str] = "cohort"

    size: int = 200
    policies: tuple = ("static", "soc", "hysteresis")
    scenarios: tuple = (("active_day", 0.7), ("overnight", 0.3))
    pathology: tuple | None = None
    environment: tuple | None = None
    shielding: tuple | None = None
    battery_cv: float | None = None
    battery_clip: tuple[float, float] | None = None
    duration_scale: float = 1.0
    probe_runs: int = 3
    probe_duration_s: float = 4.0
    allow_failed_patients: bool = True

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any], where: str) -> "CohortParams":
        """Parse the ``[cohort]`` section."""
        _check_keys(
            payload,
            ("size", "policies", "scenarios", "pathology", "environment",
             "shielding", "battery_cv", "battery_clip", "duration_scale",
             "probe_runs", "probe_duration_s", "allow_failed_patients"),
            where,
        )
        kwargs: dict[str, Any] = {}
        if "size" in payload:
            kwargs["size"] = _int(payload["size"], f"{where}.size")
        if "policies" in payload:
            kwargs["policies"] = _policies(
                payload["policies"], f"{where}.policies"
            )
        if "scenarios" in payload:
            kwargs["scenarios"] = _mix(
                payload["scenarios"], f"{where}.scenarios"
            )
        if payload.get("pathology") is not None:
            kwargs["pathology"] = _mix(
                payload["pathology"], f"{where}.pathology"
            )
        if payload.get("environment") is not None:
            kwargs["environment"] = _mix(
                payload["environment"], f"{where}.environment", float
            )
        if payload.get("shielding") is not None:
            kwargs["shielding"] = _mix(
                payload["shielding"], f"{where}.shielding", float
            )
        if payload.get("battery_cv") is not None:
            kwargs["battery_cv"] = _float(
                payload["battery_cv"], f"{where}.battery_cv"
            )
        if payload.get("battery_clip") is not None:
            clip = _float_tuple(payload["battery_clip"], f"{where}.battery_clip")
            if len(clip) != 2:
                raise _fail(
                    f"{where}.battery_clip", f"expected [low, high], got {clip}"
                )
            kwargs["battery_clip"] = clip
        if "duration_scale" in payload:
            kwargs["duration_scale"] = _float(
                payload["duration_scale"], f"{where}.duration_scale"
            )
        if "probe_runs" in payload:
            kwargs["probe_runs"] = _int(
                payload["probe_runs"], f"{where}.probe_runs"
            )
        if "probe_duration_s" in payload:
            kwargs["probe_duration_s"] = _float(
                payload["probe_duration_s"], f"{where}.probe_duration_s"
            )
        if "allow_failed_patients" in payload:
            value = payload["allow_failed_patients"]
            if not isinstance(value, bool):
                raise _fail(
                    f"{where}.allow_failed_patients",
                    f"expected a boolean, got {value!r}",
                )
            kwargs["allow_failed_patients"] = value
        return cls(**kwargs)

    def to_payload(self) -> dict[str, Any]:
        """The JSON-safe ``[cohort]`` section, fully resolved."""
        payload: dict[str, Any] = {
            "size": self.size,
            "policies": [
                p if isinstance(p, str) else dict(p) for p in self.policies
            ],
            "scenarios": _mix_payload(self.scenarios),
            "duration_scale": self.duration_scale,
            "probe_runs": self.probe_runs,
            "probe_duration_s": self.probe_duration_s,
            "allow_failed_patients": self.allow_failed_patients,
        }
        if self.pathology is not None:
            payload["pathology"] = _mix_payload(self.pathology)
        if self.environment is not None:
            payload["environment"] = _mix_payload(self.environment)
        if self.shielding is not None:
            payload["shielding"] = _mix_payload(self.shielding)
        if self.battery_cv is not None:
            payload["battery_cv"] = self.battery_cv
        if self.battery_clip is not None:
            payload["battery_clip"] = list(self.battery_clip)
        return payload


#: ``kind`` -> section parser.
_KIND_PARSERS = {
    "figure": _figure_from_payload,
    "sweep": SweepParams.from_payload,
    "mission": MissionParams.from_payload,
    "cohort": CohortParams.from_payload,
}

#: The workload kinds an experiment can describe.
EXPERIMENT_KINDS = tuple(_KIND_PARSERS)

_TOP_LEVEL_KEYS = (
    "version", "kind", "name", "seed", "workers", "backend", "store",
    *EXPERIMENT_KINDS,
)


# --------------------------------------------------------------------------
# The experiment envelope
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """One declarative, runnable exploration.

    Attributes:
        name: experiment identity — labels reports and, for kinds that
            persist results, names the result store(s).
        kind: one of :data:`EXPERIMENT_KINDS`.
        params: the kind-specific parameter block.
        seed: optional master Monte-Carlo seed (each kind's historical
            default applies when ``None``).
        workers: optional default worker count for the execution backend.
        backend: optional execution-backend name
            (see :mod:`repro.api.session`).
        store: optional result-store basename; ``None`` keeps figure,
            mission and cohort runs ephemeral (sweeps always persist,
            defaulting to the experiment name).
        version: schema version (always :data:`SCHEMA_VERSION`).
    """

    name: str
    kind: str
    params: Any
    seed: int | None = None
    workers: int | None = None
    backend: str | None = None
    store: str | None = None
    version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.version != SCHEMA_VERSION:
            raise ExperimentSpecError(
                f"unsupported experiment schema version {self.version!r}; "
                f"this build supports version {SCHEMA_VERSION}"
            )
        if not self.name or "/" in str(self.name):
            raise ExperimentSpecError(
                f"experiment name must be a non-empty path-safe string, "
                f"got {self.name!r}"
            )
        if self.kind not in _KIND_PARSERS:
            raise ExperimentSpecError(
                f"unknown experiment kind {self.kind!r}; "
                f"available: {sorted(_KIND_PARSERS)}"
            )
        expected = {
            "figure": (Fig2Params, Fig4Params, EnergyParams, TradeoffParams),
            "sweep": (SweepParams,),
            "mission": (MissionParams,),
            "cohort": (CohortParams,),
        }[self.kind]
        if not isinstance(self.params, expected):
            raise ExperimentSpecError(
                f"experiment kind {self.kind!r} needs params of type "
                f"{'/'.join(c.__name__ for c in expected)}, "
                f"got {type(self.params).__name__}"
            )
        if self.store is not None and (
            not self.store or "/" in str(self.store)
        ):
            raise ExperimentSpecError(
                f"store name must be a non-empty path-safe string, "
                f"got {self.store!r}"
            )
        if self.workers is not None and self.workers < 1:
            raise ExperimentSpecError(
                f"workers must be >= 1, got {self.workers}"
            )

    def to_payload(self) -> dict[str, Any]:
        """The JSON-safe file form, with every default materialised.

        Optional fields that are unset are omitted (TOML has no null),
        so ``from_payload(to_payload(e)) == e`` and the canonical JSON
        of the payload is the experiment's stable identity.
        """
        payload: dict[str, Any] = {
            "version": self.version,
            "kind": self.kind,
            "name": self.name,
        }
        for key in ("seed", "workers", "backend", "store"):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        payload[self.kind] = self.params.to_payload()
        return payload

    def canonical_json(self) -> str:
        """Canonical JSON of :meth:`to_payload` — the identity text."""
        return serde.canonical_json(self.to_payload())

    def content_hash(self) -> str:
        """SHA-256 of the canonical form; stable across file formats."""
        return serde.content_hash(self.to_payload())

    def with_seed(self, seed: int | None) -> "Experiment":
        """A copy with the master seed replaced (``None`` keeps it)."""
        if seed is None:
            return self
        return replace(self, seed=seed)


def experiment_from_payload(payload: Mapping[str, Any]) -> Experiment:
    """Build an :class:`Experiment` from a parsed TOML/JSON payload.

    Validation is strict and fails with located errors: a missing or
    unsupported ``version``, an unknown ``kind``, unknown keys at the
    top level or inside the kind section, and malformed values are all
    rejected before anything is planned.
    """
    if not isinstance(payload, Mapping):
        raise ExperimentSpecError(
            f"an experiment payload must be a mapping, "
            f"got {type(payload).__name__}"
        )
    payload = serde.canonicalise(payload)
    if "version" not in payload:
        raise ExperimentSpecError(
            f"experiment payload must declare 'version = {SCHEMA_VERSION}'"
        )
    version = payload["version"]
    if version != SCHEMA_VERSION:
        raise ExperimentSpecError(
            f"unsupported experiment schema version {version!r}; "
            f"this build supports version {SCHEMA_VERSION}"
        )
    if "kind" not in payload:
        raise ExperimentSpecError(
            f"experiment payload must declare a 'kind' "
            f"(one of {sorted(_KIND_PARSERS)})"
        )
    kind = str(payload["kind"])
    if kind not in _KIND_PARSERS:
        raise ExperimentSpecError(
            f"unknown experiment kind {kind!r}; "
            f"available: {sorted(_KIND_PARSERS)}"
        )
    allowed = ("version", "kind", "name", "seed", "workers", "backend",
               "store", kind)
    _check_keys(payload, allowed, "experiment")
    if "name" not in payload:
        raise ExperimentSpecError("experiment payload must declare a 'name'")
    section = payload.get(kind)
    if not isinstance(section, Mapping):
        raise ExperimentSpecError(
            f"experiment payload needs a [{kind}] section (a mapping), "
            f"got {type(section).__name__}"
        )
    params = _KIND_PARSERS[kind](section, kind)
    kwargs: dict[str, Any] = {}
    if payload.get("seed") is not None:
        kwargs["seed"] = _int(payload["seed"], "experiment.seed")
    if payload.get("workers") is not None:
        kwargs["workers"] = _int(payload["workers"], "experiment.workers")
    if payload.get("backend") is not None:
        kwargs["backend"] = str(payload["backend"])
    if payload.get("store") is not None:
        kwargs["store"] = str(payload["store"])
    return Experiment(
        name=str(payload["name"]), kind=kind, params=params, **kwargs
    )


def load_experiment(path: Path | str) -> Experiment:
    """Load an experiment from a ``.toml`` or ``.json`` file."""
    payload = serde.load_payload(path)
    try:
        return experiment_from_payload(payload)
    except ExperimentSpecError as exc:
        raise ExperimentSpecError(f"{path}: {exc}") from exc


def dump_experiment(experiment: Experiment, path: Path | str) -> None:
    """Write an experiment to a ``.toml`` or ``.json`` file.

    The dump is the fully-resolved payload (defaults materialised), so
    reloading it reproduces the experiment bit for bit — including its
    :meth:`Experiment.content_hash`.
    """
    serde.dump_payload(experiment.to_payload(), path)
