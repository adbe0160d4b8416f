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

A section's keys are its dataclass fields, parsed and dumped by one codec
(:class:`_Section`): a new key is a new field with a default, coerced by
its annotation; a key with an irregular form (policies, mixes, the
battery clip) adds a ``codec`` hook to its field's metadata.  ``null``
for an optional (``X | None``) key means absent, and string keys accept
strings and numbers only.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, fields, replace
from operator import itemgetter
from pathlib import Path
from typing import Any, ClassVar, TypeVar, Union, get_args, get_type_hints

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


def _str(value: Any, where: str) -> str:
    # Numbers coerce (``workload_record = 100``); null, booleans and
    # containers are mistakes, not names.
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise _fail(where, f"expected a string, got {value!r}")
    return str(value)


def _str_tuple(value: Any, where: str) -> tuple[str, ...]:
    if isinstance(value, str):
        return tuple(v.strip() for v in value.split(",") if v.strip())
    if not isinstance(value, (list, tuple)):
        raise _fail(where, f"expected a list of strings, got {value!r}")
    # Each element follows the scalar string rule.
    return tuple(_str(v, f"{where}[{i}]") for i, v in enumerate(value))


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


def _bool(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise _fail(where, f"expected a boolean, got {value!r}")
    return value


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


_float_mix = functools.partial(_mix, value_type=float)


def _clip(value: Any, where: str) -> tuple[float, float]:
    clip = _float_tuple(value, where)
    if len(clip) != 2:
        raise _fail(where, f"expected [low, high], got {clip}")
    return clip


def _policies(value: Any, where: str) -> tuple:
    """Coerce a policy list: tokens and/or ``{"name", "params"}`` dicts."""
    if isinstance(value, str):
        value = _str_tuple(value, where)
    if not isinstance(value, (list, tuple)):
        raise _fail(where, f"expected a list of policies, got {value!r}")
    out = []
    for item in value:
        if isinstance(item, str):
            out.append(item.strip())
        elif isinstance(item, Mapping):
            if "name" not in item:
                raise _fail(where, f"policy mapping needs a 'name': {item!r}")
            out.append({"name": str(item["name"]),
                        "params": dict(item.get("params", {}))})
        else:
            raise _fail(
                where,
                f"policies are tokens or {{name, params}} mappings, "
                f"got {item!r}",
            )
    if not out:
        raise _fail(where, "at least one policy is required")
    return tuple(out)


# --------------------------------------------------------------------------
# The section codec: payload form = the dataclass fields
# --------------------------------------------------------------------------

#: Field annotation -> ``coerce(value, where)``; a field's
#: ``metadata["codec"]`` overrides the table.
_CODECS: dict[Any, Callable[[Any, str], Any]] = {
    str: _str,
    int: _int,
    float: _float,
    bool: _bool,
    tuple[str, ...]: _str_tuple,
    tuple[float, ...]: _float_tuple,
}


@functools.cache
def _plan(cls: type) -> tuple[tuple[str, ...], tuple]:
    """A section's allowed keys and per-field ``(key, coerce, optional)``.

    Computed once per class: :func:`dataclasses.fields` and the type
    hints are too slow to re-derive on every payload.
    """
    hints = get_type_hints(cls)
    plan = []
    for spec in fields(cls):
        hint = hints[spec.name]
        optional = type(None) in get_args(hint)
        if optional:
            hint = get_args(hint)[0]
        coerce = spec.metadata.get("codec") or _CODECS[hint]
        plan.append((spec.name, coerce, optional))
    keys = tuple(key for key, _, _ in plan)
    return (*keys, cls._TAG) if cls._TAG else keys, tuple(plan)


_S = TypeVar("_S", bound="_Section")


class _Section:
    """A parameter section whose payload form is its dataclass fields.

    Parsing accepts exactly the field names (plus the ``_TAG`` key) and
    coerces each present key by its annotation through :data:`_CODECS`
    or the field's ``codec`` hook; ``null`` for an ``X | None`` field
    means absent.  Dumping emits the tag, then every required field,
    then the optional fields that are set, each in declaration order.
    """

    KIND: ClassVar[str]
    #: Payload key naming the section variant (``None``: no tag key).
    _TAG: ClassVar[str | None] = None

    @classmethod
    def from_payload(
        cls: type[_S], payload: Mapping[str, Any], where: str
    ) -> _S:
        """Parse the section, locating errors under ``where``."""
        keys, plan = _plan(cls)
        _check_keys(payload, keys, where)
        kwargs: dict[str, Any] = {}
        for key, coerce, optional in plan:
            if key in payload and not (optional and payload[key] is None):
                kwargs[key] = coerce(payload[key], f"{where}.{key}")
        return cls(**kwargs)

    def to_payload(self) -> dict[str, Any]:
        """The JSON-safe section, fully resolved."""
        payload: dict[str, Any] = {self._TAG: self.KIND} if self._TAG else {}
        _, plan = _plan(type(self))
        for key, _, optional in sorted(plan, key=itemgetter(2)):
            value = getattr(self, key)
            if not (optional and value is None):
                payload[key] = serde.canonicalise(value)
        return payload


class _Figure(_Section):
    """A ``[figure]`` section: the ``figure`` key names the artefact."""

    _TAG = "figure"


# --------------------------------------------------------------------------
# Kind-specific parameter blocks
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig2Params(_Figure):
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


@dataclass(frozen=True)
class Fig4Params(_Figure):
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


@dataclass(frozen=True)
class EnergyParams(_Figure):
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


@dataclass(frozen=True)
class TradeoffParams(_Figure):
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
class SweepParams(_Section):
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


@dataclass(frozen=True)
class MissionParams(_Section):
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
    policies: tuple = field(
        default=("static-ladder", "quality", "soc", "hysteresis"),
        metadata={"codec": _policies},
    )
    duration_scale: float = 1.0
    window_s: float | None = None
    probe_runs: int = 3
    probe_duration_s: float = 4.0


@dataclass(frozen=True)
class CohortParams(_Section):
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
    policies: tuple = field(
        default=("static", "soc", "hysteresis"),
        metadata={"codec": _policies},
    )
    scenarios: tuple = field(
        default=(("active_day", 0.7), ("overnight", 0.3)),
        metadata={"codec": _mix},
    )
    pathology: tuple | None = field(default=None, metadata={"codec": _mix})
    environment: tuple | None = field(
        default=None, metadata={"codec": _float_mix}
    )
    shielding: tuple | None = field(
        default=None, metadata={"codec": _float_mix}
    )
    battery_cv: float | None = None
    battery_clip: tuple[float, float] | None = field(
        default=None, metadata={"codec": _clip}
    )
    duration_scale: float = 1.0
    probe_runs: int = 3
    probe_duration_s: float = 4.0
    allow_failed_patients: bool = True


#: ``kind`` -> section parser.
_KIND_PARSERS = {
    "figure": _figure_from_payload,
    "sweep": SweepParams.from_payload,
    "mission": MissionParams.from_payload,
    "cohort": CohortParams.from_payload,
}

#: The workload kinds an experiment can describe.
EXPERIMENT_KINDS = tuple(_KIND_PARSERS)

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
    for key, coerce in (("seed", _int), ("workers", _int),
                        ("backend", _str), ("store", _str)):
        if payload.get(key) is not None:
            kwargs[key] = coerce(payload[key], f"experiment.{key}")
    return Experiment(
        name=_str(payload["name"], "experiment.name"), kind=kind,
        params=params, **kwargs,
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
