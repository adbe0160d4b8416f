"""Synthetic patient populations: who is wearing the device?

The paper evaluates one device on a handful of catalog records; a
deployed product ships to a *population*, and the design question —
which (voltage, EMT) point survives the field — depends on how heart
rates, pathology prevalence, noise environments and battery lots are
distributed across wearers.  This module models that spread:

* a :class:`PatientModel` holds the cohort-level distributions — a mix
  of mission templates (from :mod:`repro.runtime.scenarios`), a
  prevalence-weighted catalog-record pool (each record fixes a
  phenotype: mean heart rate, amplitude, ectopy), a discrete
  noise-environment mix, a discrete enclosure-shielding mix (scaling the
  environmental BER stress), and a continuous battery-capacity spread;
* a :class:`CohortSpec` binds a model to a population size and a master
  seed, and materialises any patient *in isolation*:
  :meth:`CohortSpec.patient` derives patient ``k``'s draws from
  ``(seed, k)`` alone, so the same patient is bit-identical whether
  sampled alone, in any fleet order, or on any worker.

Why the physiological/environmental mixes are **discrete**: the fleet
simulator shares calibrated quality models across patients keyed by
``(app, record, noise gain, EMT, effective BER)``.  Discrete mixes keep
that key set finite — a few dozen calibrations serve a fleet of
thousands — while the battery spread, which never enters a calibration
key, stays continuous.

Example:
    >>> spec = CohortSpec(name="demo", size=100)
    >>> p = spec.patient(7)
    >>> p == spec.patient(7)  # reproducible in isolation
    True
    >>> 0.5 <= p.battery_scale <= 1.5
    True
"""

from __future__ import annotations

import zlib
from dataclasses import asdict, dataclass, field, replace
from typing import Any

import numpy as np

from ..api.serde import canonicalise
from ..errors import CohortError
from ..runtime.mission import MissionSpec
from ..runtime.scenarios import SCENARIOS, scenario_spec
from ..signals.dataset import CATALOG

__all__ = ["PatientModel", "PatientProfile", "CohortSpec"]

#: A discrete mix: ``((value, weight), ...)`` with positive weights.
Mix = tuple[tuple[Any, float], ...]


def _validate_mix(name: str, mix: Mix) -> None:
    if not mix:
        raise CohortError(f"{name} mix must name at least one option")
    for value, weight in mix:
        if weight < 0:
            raise CohortError(
                f"{name} mix weight for {value!r} is negative: {weight}"
            )
    if not sum(weight for _, weight in mix) > 0:
        raise CohortError(f"{name} mix weights sum to zero")


def _draw(rng: np.random.Generator, mix: Mix) -> Any:
    """One weighted draw from a discrete mix."""
    values = [value for value, _ in mix]
    weights = np.asarray([weight for _, weight in mix], dtype=float)
    index = int(rng.choice(len(values), p=weights / weights.sum()))
    return values[index]


@dataclass(frozen=True)
class PatientModel:
    """Cohort-level distributions each synthetic patient is drawn from.

    Attributes:
        scenario_mix: mission templates (scenario registry names) and
            their weights — the activity/stress timeline of a patient's
            day.
        record_mix: catalog records and their prevalence.  A record is a
            phenotype — heart rate, amplitude, pathology — so a
            PVC-heavy cohort simply weights records ``106``/``119`` up.
        environment_mix: noise-gain multipliers (applied on top of each
            template segment's own gain) and their weights — home,
            ambulatory and industrial wearers hear different noise
            floors.  Discrete by design (see the module docstring).
        shielding_mix: BER-stress multipliers (enclosure/placement
            quality; applied to each segment's ``ber_multiplier``) and
            their weights.  Discrete by design.
        battery_cv: relative standard deviation of the battery-capacity
            lot spread (a truncated Gaussian around the template cell).
        battery_clip: hard (low, high) bounds on the capacity scale —
            cells outside the lot tolerance fail incoming inspection.
    """

    scenario_mix: Mix = (("active_day", 0.7), ("overnight", 0.3))
    record_mix: Mix = (
        ("100", 0.45),
        ("101", 0.20),
        ("103", 0.15),
        ("106", 0.12),
        ("119", 0.08),
    )
    environment_mix: Mix = ((1.0, 0.6), (1.5, 0.3), (2.5, 0.1))
    shielding_mix: Mix = ((1.0, 0.7), (2.0, 0.3))
    battery_cv: float = 0.10
    battery_clip: tuple[float, float] = (0.5, 1.5)

    def __post_init__(self) -> None:
        _validate_mix("scenario", self.scenario_mix)
        _validate_mix("record", self.record_mix)
        _validate_mix("environment", self.environment_mix)
        _validate_mix("shielding", self.shielding_mix)
        for name, _ in self.scenario_mix:
            if name not in SCENARIOS:
                raise CohortError(
                    f"scenario mix names unknown scenario {name!r}; "
                    f"available: {sorted(SCENARIOS)}"
                )
        for record, _ in self.record_mix:
            if record not in CATALOG:
                raise CohortError(
                    f"record mix names unknown record {record!r}; "
                    f"available: {sorted(CATALOG)}"
                )
        if self.battery_cv < 0:
            raise CohortError(
                f"battery spread must be non-negative, got {self.battery_cv}"
            )
        low, high = self.battery_clip
        if not 0 < low <= high:
            raise CohortError(
                f"battery clip must satisfy 0 < low <= high, "
                f"got {self.battery_clip}"
            )

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form, for campaign parameters and stores."""
        return canonicalise(asdict(self))

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "PatientModel":
        """Rebuild a model produced by :meth:`to_dict`."""
        try:
            return cls(
                scenario_mix=tuple(
                    (name, float(w)) for name, w in payload["scenario_mix"]
                ),
                record_mix=tuple(
                    (name, float(w)) for name, w in payload["record_mix"]
                ),
                environment_mix=tuple(
                    (float(g), float(w))
                    for g, w in payload["environment_mix"]
                ),
                shielding_mix=tuple(
                    (float(s), float(w))
                    for s, w in payload["shielding_mix"]
                ),
                battery_cv=float(payload["battery_cv"]),
                battery_clip=tuple(payload["battery_clip"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CohortError(
                f"malformed patient-model payload: {exc}"
            ) from exc


@dataclass(frozen=True)
class PatientProfile:
    """One sampled patient: everything that makes their mission theirs.

    Attributes:
        index: patient number within the cohort.
        scenario: mission template (scenario registry name).
        record: the patient's catalog-record phenotype.
        noise_gain: environmental noise multiplier.
        ber_factor: enclosure-shielding BER-stress multiplier.
        battery_scale: this unit's capacity relative to the template
            cell.
        seed: the patient's mission seed (environment draws).
        heart_rate_bpm: the phenotype's mean heart rate (derived from
            the record, surfaced for population analytics).
        description: the record's clinical description.
    """

    index: int
    scenario: str
    record: str
    noise_gain: float
    ber_factor: float
    battery_scale: float
    seed: int
    heart_rate_bpm: float
    description: str

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form, carried into fleet result rows."""
        return {
            "patient": self.index,
            "scenario": self.scenario,
            "record": self.record,
            "noise_gain": self.noise_gain,
            "ber_factor": self.ber_factor,
            "battery_scale": self.battery_scale,
            "seed": self.seed,
            "heart_rate_bpm": self.heart_rate_bpm,
            "description": self.description,
        }


@dataclass(frozen=True)
class CohortSpec:
    """A named patient population plus the fleet's shared configuration.

    Attributes:
        name: cohort identity (result labels, mission names, seeds).
        size: number of patients in the fleet.
        model: the :class:`PatientModel` distributions.
        duration_scale: scale applied to every patient mission (segment
            durations *and* battery, via :meth:`MissionSpec.scaled`) —
            sweeps and tests explore scaled fleets, reports run full
            ones.
        voltages / emts / window_s / app: optional overrides of the
            corresponding mission-template fields, applied uniformly so
            the whole fleet shares one operating-point lattice (and
            therefore one calibration set).
        seed: master seed; patient ``k``'s draws depend on ``(seed, k)``
            only.
    """

    name: str
    size: int
    model: PatientModel = field(default_factory=PatientModel)
    duration_scale: float = 1.0
    voltages: tuple[float, ...] | None = None
    emts: tuple[str, ...] | None = None
    window_s: float | None = None
    app: str | None = None
    seed: int = 2016

    def __post_init__(self) -> None:
        if not self.name:
            raise CohortError("cohort name must be non-empty")
        if self.size < 1:
            raise CohortError(
                f"cohort size must be at least 1, got {self.size}"
            )
        if self.duration_scale <= 0:
            raise CohortError(
                f"duration scale must be positive, got {self.duration_scale}"
            )

    # -- sampling ----------------------------------------------------------

    def patient(self, index: int) -> PatientProfile:
        """Sample patient ``index``'s profile, independent of all others.

        The draws come from a generator seeded with ``(seed, index)``
        and happen in a fixed order, so a profile never depends on the
        cohort size, the order patients are simulated in, or the worker
        that simulates them.
        """
        if not 0 <= index < self.size:
            raise CohortError(
                f"patient index {index} outside cohort of {self.size}"
            )
        rng = np.random.default_rng((self.seed, index))
        model = self.model
        scenario = _draw(rng, model.scenario_mix)
        record = _draw(rng, model.record_mix)
        noise_gain = float(_draw(rng, model.environment_mix))
        ber_factor = float(_draw(rng, model.shielding_mix))
        low, high = model.battery_clip
        battery_scale = float(
            np.clip(
                1.0 + model.battery_cv * rng.standard_normal(), low, high
            )
        )
        phenotype = CATALOG[record]
        # The mission seed derives from (cohort seed, index) only — the
        # cohort *name* is a label, so renamed-but-otherwise-identical
        # cohorts stay paired patient by patient.
        return PatientProfile(
            index=index,
            scenario=scenario,
            record=record,
            noise_gain=noise_gain,
            ber_factor=ber_factor,
            battery_scale=battery_scale,
            seed=zlib.crc32(f"cohort-patient:{self.seed}:{index}".encode()),
            heart_rate_bpm=float(phenotype.rhythm.mean_hr_bpm),
            description=phenotype.description,
        )

    def patients(self) -> list[PatientProfile]:
        """Every profile of the cohort, in index order."""
        return [self.patient(index) for index in range(self.size)]

    def mission_for(self, profile: PatientProfile) -> MissionSpec:
        """The patient's personal mission: template x phenotype.

        The template contributes the activity/stress timeline; the
        profile contributes physiology (its record replaces every
        segment's), environment (noise gains multiply), shielding (BER
        multipliers multiply) and the battery lot draw.  The mission
        seed is the patient's, so environmental draws differ patient to
        patient even within one template.
        """
        base = scenario_spec(profile.scenario)
        overrides: dict[str, Any] = {
            "name": f"{self.name}-p{profile.index:05d}",
            "seed": profile.seed,
            "segments": tuple(
                replace(
                    segment,
                    record=profile.record,
                    noise_gain=segment.noise_gain * profile.noise_gain,
                    ber_multiplier=(
                        segment.ber_multiplier * profile.ber_factor
                    ),
                )
                for segment in base.segments
            ),
            "battery": replace(
                base.battery,
                capacity_mah=(
                    base.battery.capacity_mah * profile.battery_scale
                ),
            ),
        }
        if self.voltages is not None:
            overrides["voltages"] = tuple(self.voltages)
        if self.emts is not None:
            overrides["emts"] = tuple(self.emts)
        if self.window_s is not None:
            overrides["window_s"] = self.window_s
        if self.app is not None:
            overrides["app"] = self.app
        spec = replace(base, **overrides)
        if self.duration_scale != 1.0:
            spec = spec.scaled(self.duration_scale)
        return spec

    # -- JSON round-trip (campaign transport) -----------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form, for campaign parameters and stores."""
        return {
            "name": self.name,
            "size": self.size,
            "model": self.model.to_dict(),
            "duration_scale": self.duration_scale,
            "voltages": list(self.voltages) if self.voltages else None,
            "emts": list(self.emts) if self.emts else None,
            "window_s": self.window_s,
            "app": self.app,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "CohortSpec":
        """Rebuild a spec produced by :meth:`to_dict`."""
        try:
            data = dict(payload)
            model = PatientModel.from_dict(data.pop("model"))
            for key in ("voltages", "emts"):
                if data.get(key) is not None:
                    data[key] = tuple(data[key])
            return cls(model=model, **data)
        except (KeyError, TypeError) as exc:
            raise CohortError(f"malformed cohort payload: {exc}") from exc
