"""Closed-loop mission simulation: policy -> memory -> battery -> policy.

:class:`MissionSimulator` runs a :class:`~repro.runtime.mission.MissionSpec`
under an operating-point policy.  A naive implementation would run the
full fault-injection pipeline for every window — hours of wall-clock for
a 24 h mission.  Instead the simulator factors the loop into

* a **calibration layer** (cached per process): for each distinct
  ``(app, segment signature, operating point)`` the real pipeline runs —
  segment trace synthesised by :mod:`repro.signals`, stuck-at fault maps
  drawn at the segment's effective BER, application executed against the
  faulty fabric — yielding a quality model (mean/std SNR).  Since the
  trial-batched pipeline landed, :class:`BatchCalibrator` runs all
  ``n_probe`` Monte-Carlo probes of one model as a single stacked
  ``(n_probe, n_words)`` pass (bit-identical to the historical probe
  loop, so cached models never shift).  Energy per window is likewise
  priced once per operating point with the Section VI-B accounting
  model, with leakage integrated over the whole window;
* a **streaming layer**: each of the mission's thousands of windows then
  costs one policy decision, one truncated-Gaussian quality draw from
  the calibrated model, and one battery withdrawal.

Both layers are deterministic: calibration seeds derive from the
configuration's content (CRC-32, like the campaign grid seeds), the
streaming draws from the mission seed — so the same mission under the
same policy always produces the same :class:`MissionResult`, regardless
of which process ran it or what was cached.

Calibrations are cached at two levels: a per-process ``lru_cache`` memo
for the hot path, backed by the shared on-disk
:class:`~repro.cache.DiskCache` so repeated mission experiments — and
every worker of a :class:`~repro.cohort.FleetSimulator` fleet — compute
each (segment signature, operating point) model exactly once machine-wide
(``REPRO_CACHE_DIR`` moves the cache, ``REPRO_CACHE_DISABLE=1`` turns
the disk layer off).
"""

from __future__ import annotations

import time
import zlib
from dataclasses import replace
from functools import lru_cache
from typing import Any

import numpy as np

from .. import obs
from ..cache import shared_cache
from ..emt import make_emt
from ..energy.accounting import EnergySystemModel
from ..energy.battery import BatteryState
from ..energy.technology import TECH_32NM_LP, Technology
from ..errors import MissionError
from ..exp.common import validate_registry_names
from ..mem.fabric import MemoryFabric
from ..mem.faults import sample_fault_map, sample_fault_map_batch
from ..signals.dataset import CATALOG, synthesize_record
from ..signals.metrics import SNR_CAP_DB
from .mission import MissionResult, MissionSpec, SegmentSpec
from .policy import LadderPoint, Observation, Policy, PolicyContext

__all__ = ["BatchCalibrator", "MissionSimulator", "calibration_cache_info"]

#: Fault maps are Bernoulli per bit; past ~0.4 the array is noise and the
#: calibration result saturates, so effective BERs clamp there.
_MAX_BER = 0.4

#: Seed domain of the calibration layer (disjoint from mission seeds so
#: calibrations are shared by every mission that needs the same model).
_CALIBRATION_SEED = 20160131

#: Quality draws are truncated at +/-2.5 sigma: the calibration std comes
#: from a handful of probes, and an unbounded tail would let a single
#: synthetic outlier dominate a mission's worst-window statistic.
_TRUNCATE_SIGMA = 2.5


# Per-process application instances (their reference-output caches make
# repeated calibration against the same probe trace cheap); shared with
# every other driver through the registry-level memo.
from ..apps.registry import cached_app as _cached_app  # noqa: E402


@lru_cache(maxsize=64)
def _probe_samples(
    record: str, noise_gain: float, duration_s: float
) -> np.ndarray:
    """Synthesise a segment's probe trace (noise-scaled catalog record)."""
    if record not in CATALOG:
        raise MissionError(
            f"unknown segment record {record!r}; "
            f"available: {sorted(CATALOG)}"
        )
    base = CATALOG[record]
    spec = replace(
        base,
        wander_mv=base.wander_mv * noise_gain,
        mains_mv=base.mains_mv * noise_gain,
        emg_rms_mv=base.emg_rms_mv * noise_gain,
    )
    samples = synthesize_record(spec, duration_s=duration_s).samples
    samples.setflags(write=False)
    return samples


@lru_cache(maxsize=4096)
def _calibrated_quality(
    app_name: str,
    record: str,
    noise_gain: float,
    emt_name: str,
    ber: float,
    n_probe: int,
    probe_duration_s: float,
    snr_cap_db: float,
) -> tuple[float, float]:
    """Quality model of one (segment signature, operating point) pair.

    The ``lru_cache`` is the per-process memory layer; behind it the
    shared disk cache (:func:`repro.cache.shared_cache`) makes the
    underlying fault-injection run (:func:`_probe_quality`) a
    once-per-machine event, shared by every mission, fleet worker and
    CLI invocation that needs the same model.
    """
    payload = {
        "kind": "mission-quality",
        "v": 1,
        "app": app_name,
        "record": record,
        "noise_gain": noise_gain,
        "emt": emt_name,
        "ber": ber,
        "n_probe": n_probe,
        "probe_duration_s": probe_duration_s,
        "snr_cap_db": snr_cap_db,
    }
    mean, std = shared_cache().get_or_compute(
        payload,
        lambda: list(
            _probe_quality(
                app_name, record, noise_gain, emt_name, ber,
                n_probe, probe_duration_s, snr_cap_db,
            )
        ),
    )
    return float(mean), float(std)


#: Words of the calibration probe array (the paper's 32 kB geometry).
_PROBE_WORDS = 16384


class BatchCalibrator:
    """Trial-batched calibration of one (segment, operating-point) model.

    Replaces the historical per-probe Python loop: all ``n_probe``
    stuck-at fault maps are drawn as one stacked batch (consuming the
    calibration RNG stream in the exact per-probe order) and the whole
    Monte-Carlo batch flows through EMT encode -> faulty SRAM -> decode
    as 2-D ``(n_probe, n_words)`` arrays, one vectorised pass per
    pipeline stage.  The (mean, std) it returns is bit-identical to the
    sequential loop (property-tested), so disk-cache entries written by
    either implementation are interchangeable — and the cache *keys*
    never see the implementation at all.

    Args:
        n_probe: fault-injection probes per quality model.
        probe_duration_s: seconds of segment signal per probe.
        snr_cap_db: SNR ceiling for bit-exact windows.

    Example:
        >>> cal = BatchCalibrator(n_probe=2, probe_duration_s=2.0)
        >>> mean, std = cal.calibrate("dwt", "100", 1.0, "none", 0.0)
        >>> (mean, std) == (96.0, 0.0)
        True
    """

    def __init__(
        self,
        n_probe: int = 3,
        probe_duration_s: float = 4.0,
        snr_cap_db: float = SNR_CAP_DB,
    ) -> None:
        if n_probe < 1:
            raise MissionError(f"n_probe must be >= 1, got {n_probe}")
        if probe_duration_s <= 0:
            raise MissionError(
                f"probe duration must be positive, got {probe_duration_s}"
            )
        self.n_probe = n_probe
        self.probe_duration_s = probe_duration_s
        self.snr_cap_db = snr_cap_db

    def calibrate(
        self,
        app_name: str,
        record: str,
        noise_gain: float,
        emt_name: str,
        ber: float,
    ) -> tuple[float, float]:
        """(mean, std) window SNR of one (segment, operating point)."""
        samples = _probe_samples(record, noise_gain, self.probe_duration_s)
        app = _cached_app(app_name)
        emt = make_emt(emt_name)
        key = f"{app_name}:{record}:{noise_gain!r}:{emt_name}:{ber!r}"
        rng = np.random.default_rng(
            (_CALIBRATION_SEED, zlib.crc32(key.encode()))
        )
        fault_map = sample_fault_map_batch(
            self.n_probe, _PROBE_WORDS, emt.stored_bits,
            min(ber, _MAX_BER), rng,
        )
        fabric = MemoryFabric(
            emt, fault_map=fault_map, collect_decode_stats=False
        )
        outputs = app.run_batch(samples, fabric)
        snrs = app.output_snr_batch(samples, outputs, cap_db=self.snr_cap_db)
        return float(snrs.mean()), float(snrs.std())

    def calibrate_sequential(
        self,
        app_name: str,
        record: str,
        noise_gain: float,
        emt_name: str,
        ber: float,
    ) -> tuple[float, float]:
        """The historical probe-by-probe loop, kept as the executable
        reference the property suite pins :meth:`calibrate` against."""
        samples = _probe_samples(record, noise_gain, self.probe_duration_s)
        app = _cached_app(app_name)
        emt = make_emt(emt_name)
        key = f"{app_name}:{record}:{noise_gain!r}:{emt_name}:{ber!r}"
        rng = np.random.default_rng(
            (_CALIBRATION_SEED, zlib.crc32(key.encode()))
        )
        snrs = []
        for _ in range(self.n_probe):
            fault_map = sample_fault_map(
                _PROBE_WORDS, emt.stored_bits, min(ber, _MAX_BER), rng
            )
            fabric = MemoryFabric(
                emt, fault_map=fault_map, collect_decode_stats=False
            )
            output = app.run(samples, fabric)
            snrs.append(app.output_snr(samples, output, cap_db=self.snr_cap_db))
        arr = np.asarray(snrs)
        return float(arr.mean()), float(arr.std())


def _probe_quality(
    app_name: str,
    record: str,
    noise_gain: float,
    emt_name: str,
    ber: float,
    n_probe: int,
    probe_duration_s: float,
    snr_cap_db: float,
) -> tuple[float, float]:
    """The real calibration work behind :func:`_calibrated_quality`.

    Runs the paper's Section V fault-injection protocol — fresh fault
    map per probe — as one :class:`BatchCalibrator` batch and returns
    the (mean, std) window SNR.  Keyed by the *effective* BER, so
    segments whose stress lands two lattice voltages on the same BER
    share one calibration.
    """
    calibrator = BatchCalibrator(
        n_probe=n_probe,
        probe_duration_s=probe_duration_s,
        snr_cap_db=snr_cap_db,
    )
    # This only runs on a full cache miss, so the span marks exactly
    # the expensive fault-injection work a trace should surface.
    with obs.span(
        "calibrate", app=app_name, record=record, emt=emt_name,
        ber=ber, n_probe=n_probe,
    ):
        return calibrator.calibrate(
            app_name, record, noise_gain, emt_name, ber
        )


@lru_cache(maxsize=512)
def _window_energy_pj(
    app_name: str,
    emt_name: str,
    voltage: float,
    window_s: float,
    tech: Technology,
) -> float:
    """Memory-system energy of one window at one operating point.

    ``tech`` is a frozen (and therefore hashable) dataclass, so two
    nodes differing in any constant cache separately even if they share
    a name; its full serialised form is part of the disk-cache key for
    the same reason.
    """
    from ..campaign.evaluators import technology_to_dict

    payload = {
        "kind": "window-energy",
        "v": 1,
        "app": app_name,
        "emt": emt_name,
        "voltage": voltage,
        "window_s": window_s,
        "tech": technology_to_dict(tech),
    }
    return float(
        shared_cache().get_or_compute(
            payload,
            lambda: _price_window(app_name, emt_name, voltage, window_s, tech),
        )
    )


def _price_window(
    app_name: str,
    emt_name: str,
    voltage: float,
    window_s: float,
    tech: Technology,
) -> float:
    """The real pricing work behind :func:`_window_energy_pj`.

    The access counts come from a measured run of the application on one
    window's worth of signal; leakage integrates over the *full* window
    (the array retains state between bursts), so energy keeps its supply
    dependence even for sparse workloads.
    """
    from ..campaign.evaluators import measured_workload

    with obs.span(
        "price_window", app=app_name, emt=emt_name, voltage=voltage
    ):
        workload = replace(
            measured_workload(
                app_name=app_name, record="100", duration_s=window_s
            ),
            duration_s=window_s,
        )
        model = EnergySystemModel(make_emt(emt_name), tech=tech)
        return model.evaluate(voltage, workload).total_pj


def calibration_cache_info() -> dict[str, Any]:
    """Diagnostic view of the calibration caches.

    ``quality``/``energy``/``probes`` are the per-process memory memos;
    ``shared`` is the machine-wide disk layer both are backed by.
    """
    return {
        "quality": str(_calibrated_quality.cache_info()),
        "energy": str(_window_energy_pj.cache_info()),
        "probes": str(_probe_samples.cache_info()),
        "shared": shared_cache().info(),
    }


class MissionSimulator:
    """Run missions: one calibration pass, then streaming windows.

    Args:
        spec: the mission to simulate.
        tech: technology node (default: the paper's 32 nm LP node).
        n_probe: fault-injection probes per calibrated quality model.
        probe_duration_s: seconds of segment signal per probe run.
        snr_cap_db: SNR ceiling for bit-exact windows.
        keep_trace: attach per-window records to the result (memory
            scales with mission length; off by default).

    Example:
        >>> from repro.runtime import MissionSimulator, make_policy
        >>> from repro.runtime.scenarios import scenario_spec
        >>> sim = MissionSimulator(scenario_spec("overnight").scaled(0.02))
        >>> result = sim.run(make_policy("hysteresis"))
        >>> result.n_processed == result.n_windows
        True
    """

    def __init__(
        self,
        spec: MissionSpec,
        tech: Technology = TECH_32NM_LP,
        n_probe: int = 3,
        probe_duration_s: float = 4.0,
        snr_cap_db: float = SNR_CAP_DB,
        keep_trace: bool = False,
    ) -> None:
        if n_probe < 1:
            raise MissionError(f"n_probe must be >= 1, got {n_probe}")
        if probe_duration_s <= 0:
            raise MissionError(
                f"probe duration must be positive, got {probe_duration_s}"
            )
        validate_registry_names(
            app_names=(spec.app,), emt_names=tuple(spec.emts)
        )
        for voltage in spec.voltages:
            tech.check_voltage(voltage)
        for segment in spec.segments:
            if segment.record not in CATALOG:
                raise MissionError(
                    f"segment {segment.name!r} names unknown record "
                    f"{segment.record!r}; available: {sorted(CATALOG)}"
                )
        self.spec = spec
        self.tech = tech
        self.n_probe = n_probe
        self.probe_duration_s = probe_duration_s
        self.snr_cap_db = snr_cap_db
        self.keep_trace = keep_trace
        self._ladder = self._build_ladder()
        self._schedule = self._build_schedule()

    # -- construction ------------------------------------------------------

    def _build_ladder(self) -> tuple[LadderPoint, ...]:
        """The energy-sorted operating-point ladder of this mission."""
        spec = self.spec
        seen: dict[tuple[str, float], float] = {}
        for emt_name in spec.emts:
            for voltage in spec.voltages:
                seen.setdefault(
                    (emt_name, voltage),
                    _window_energy_pj(
                        spec.app, emt_name, voltage, spec.window_s,
                        self.tech,
                    ),
                )
        ordered = sorted(seen.items(), key=lambda item: item[1])
        return tuple(
            LadderPoint(
                index=i,
                emt_name=emt_name,
                voltage=voltage,
                energy_per_window_pj=energy,
            )
            for i, ((emt_name, voltage), energy) in enumerate(ordered)
        )

    def _build_schedule(self) -> tuple[SegmentSpec, ...]:
        """Active segment per window, resolved once up front."""
        spec = self.spec
        schedule = tuple(
            spec.segment_at(w * spec.window_s)
            for w in range(spec.n_windows)
        )
        # Hot-path companions: the stress vector feeds the batched hint
        # draw; the per-window segment ids key the per-run quality-model
        # memo without hashing SegmentSpec objects window by window.
        self._stress = np.asarray([seg.stress for seg in schedule])
        unique: dict[int, int] = {}
        self._segment_ids = tuple(
            unique.setdefault(id(seg), len(unique)) for seg in schedule
        )
        return schedule

    @property
    def ladder(self) -> tuple[LadderPoint, ...]:
        """The mission's operating-point ladder (cheapest rung first)."""
        return self._ladder

    def context(self) -> PolicyContext:
        """The :class:`PolicyContext` policies are reset with."""
        return PolicyContext(
            ladder=self._ladder,
            window_s=self.spec.window_s,
            quality_floor_db=self.spec.quality_floor_db,
            snr_cap_db=self.snr_cap_db,
        )

    # -- the loop ----------------------------------------------------------

    def _quality_model(
        self, segment: SegmentSpec, point: LadderPoint
    ) -> tuple[float, float]:
        """The calibrated (mean, std) SNR of one (segment, rung) pair."""
        ber = self.tech.ber(point.voltage) * segment.ber_multiplier
        return _calibrated_quality(
            self.spec.app,
            segment.record,
            segment.noise_gain,
            point.emt_name,
            min(ber, _MAX_BER),
            self.n_probe,
            self.probe_duration_s,
            self.snr_cap_db,
        )

    def _draw_quality(self, mean: float, std: float, z: float) -> float:
        """One truncated-Gaussian quality draw from a calibrated model."""
        quality = mean + std * float(
            np.clip(z, -_TRUNCATE_SIGMA, _TRUNCATE_SIGMA)
        )
        return min(quality, self.snr_cap_db)

    def _window_quality(
        self, segment: SegmentSpec, point: LadderPoint, z: float
    ) -> float:
        """One window's output quality at one operating point."""
        mean, std = self._quality_model(segment, point)
        return self._draw_quality(mean, std, z)

    def run(self, policy: Policy) -> MissionResult:
        """Simulate the full mission under ``policy``.

        The environment's random draws are seeded from the mission alone
        (not the policy), so every policy faces the *same* stress-hint
        and quality-noise streams — cross-policy comparisons are paired,
        and a dominance result reflects the controller, not draw luck.
        """
        with obs.span(
            "mission",
            mission=self.spec.name,
            policy=policy.describe(),
            windows=self.spec.n_windows,
        ):
            traced = obs.enabled()
            started = time.perf_counter() if traced else 0.0
            result = self._simulate(policy)
            if traced:
                elapsed = time.perf_counter() - started
                obs.counter("mission.windows", result.n_processed)
                obs.counter("mission.violations", result.n_violations)
                obs.counter("battery.steps", result.n_processed)
                obs.counter(
                    "mission.rng_draws", 2 * self.spec.n_windows
                )
                if elapsed > 0:
                    obs.gauge(
                        "mission.windows_per_s",
                        result.n_processed / elapsed,
                    )
            return result

    def _simulate(self, policy: Policy) -> MissionResult:
        """The streaming loop of :meth:`run` (under its mission span)."""
        spec = self.spec
        rng = np.random.default_rng(spec.seed)
        policy.reset(self.context())
        battery = BatteryState(spec.battery)
        top = len(self._ladder) - 1

        # The environment's draws are batched up front — two per window,
        # in the same order scalar calls would consume them, so results
        # are bit-identical to the window-by-window formulation at a
        # fraction of the RNG cost.  Window pricing is likewise resolved
        # to a per-rung vector once, and quality models to a per-run
        # memo keyed by (segment id, rung).
        draws = rng.standard_normal(2 * spec.n_windows)
        hints = np.clip(
            self._stress + draws[0::2] * spec.hint_noise, 0.0, 1.0
        )
        zs = draws[1::2]
        window_pj_by_rung = tuple(
            point.energy_per_window_pj
            + spec.platform_power_uw * spec.window_s * 1e6
            for point in self._ladder
        )
        models: dict[tuple[int, int], tuple[float, float]] = {}

        current = top  # boot on the most capable rung, like real firmware
        last_snr: float | None = None
        qualities: list[float] = []
        dwell = np.zeros(len(self._ladder), dtype=np.int64)
        trace: list[dict] = []
        n_switches = 0
        n_violations = 0
        energy_j = 0.0
        survived = True
        depleted_at_s = 0.0

        for w, segment in enumerate(self._schedule):
            time_s = w * spec.window_s
            hint = float(hints[w])
            z = zs[w]
            decision = int(
                policy.decide(
                    Observation(
                        window_index=w,
                        time_s=time_s,
                        soc=battery.state_of_charge,
                        last_snr_db=last_snr,
                        stress_hint=hint,
                        current_index=current,
                    )
                )
            )
            decision = max(0, min(top, decision))
            point = self._ladder[decision]
            window_pj = window_pj_by_rung[decision]
            # A window the cell cannot fully fund is never processed:
            # the node browns out at this window's start.
            if battery.remaining_j < window_pj * 1e-12:
                survived = False
                depleted_at_s = time_s
                break
            if w > 0 and decision != current:
                n_switches += 1
            current = decision
            dwell[current] += 1

            model_key = (self._segment_ids[w], decision)
            model = models.get(model_key)
            if model is None:
                model = self._quality_model(segment, point)
                models[model_key] = model
            quality = self._draw_quality(*model, z)
            qualities.append(quality)
            if quality < spec.quality_floor_db:
                n_violations += 1
            last_snr = quality

            energy_j += window_pj * 1e-12
            battery.drain(window_pj * 1e-12)
            if self.keep_trace:
                trace.append(
                    {
                        "window": w,
                        "time_s": time_s,
                        "segment": segment.name,
                        "op_point": point.label,
                        "snr_db": quality,
                        "soc": battery.state_of_charge,
                        "stress_hint": hint,
                    }
                )

        n_processed = len(qualities)
        if n_processed == 0:
            raise MissionError(
                f"battery of mission {spec.name!r} cannot fund a single "
                f"window at the policy's starting operating point"
            )
        processed_s = n_processed * spec.window_s
        average_power_w = energy_j / processed_s
        if survived:
            lifetime_s = spec.battery.usable_energy_j / average_power_w
        else:
            lifetime_s = depleted_at_s
        arr = np.asarray(qualities)
        return MissionResult(
            mission_name=spec.name,
            policy_name=policy.describe(),
            n_windows=spec.n_windows,
            n_processed=n_processed,
            survived=survived,
            lifetime_days=lifetime_s / 86_400.0,
            mean_snr_db=float(arr.mean()),
            worst_snr_db=float(arr.min()),
            p5_snr_db=float(np.percentile(arr, 5.0)),
            n_switches=n_switches,
            n_violations=n_violations,
            energy_mj=energy_j * 1e3,
            average_power_uw=average_power_w * 1e6,
            op_point_share={
                self._ladder[i].label: float(dwell[i]) / n_processed
                for i in range(len(self._ladder))
                if dwell[i]
            },
            trace=tuple(trace) if self.keep_trace else None,
        )
