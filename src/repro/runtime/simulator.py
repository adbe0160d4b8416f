"""Closed-loop mission simulation: policy -> memory -> battery -> policy.

:class:`MissionSimulator` runs a :class:`~repro.runtime.mission.MissionSpec`
under an operating-point policy.  A naive implementation would run the
full fault-injection pipeline for every window — hours of wall-clock for
a 24 h mission.  Instead the simulator factors the loop into

* a **calibration layer** (cached, see below): for each distinct
  ``(app, segment signature, operating point)`` the real pipeline runs —
  segment trace synthesised by :mod:`repro.signals`, stuck-at fault maps
  drawn at the segment's effective BER, application executed against the
  faulty fabric — yielding a quality model (mean/std SNR).
  :class:`BatchCalibrator` runs all ``n_probe`` Monte-Carlo probes of
  one model through the shared Section V driver,
  :func:`~repro.exp.common.run_monte_carlo`, as a single stacked
  ``(n_probe, n_words)`` pass.  Energy per window is likewise
  priced once per operating point with the Section VI-B accounting
  model, with leakage integrated over the whole window;
* a **streaming layer**: one plain Python loop that every policy, built
  in or custom, goes through.  The environment's draws are made and
  clipped as whole vectors up front and the battery is a float drained
  inline, so each window costs one fresh :class:`Observation` (a named
  tuple, built positionally), one policy decision and a few float
  operations.

Both layers are deterministic: calibration seeds derive from the
configuration's content (CRC-32, like the campaign grid seeds), the
streaming draws from the mission seed — so the same mission under the
same policy always produces the same :class:`MissionResult`, regardless
of which process ran it or what was cached.

Calibrations are cached at two levels: a per-run ``[segment][rung]``
table inside the loop, and the shared :class:`~repro.cache.DiskCache`,
whose memory layer answers repeats within a process and whose disk
layer lets repeated mission experiments — and every worker of a
:class:`~repro.cohort.FleetSimulator` fleet — compute each (segment
signature, operating point) model exactly once machine-wide
(``REPRO_CACHE_DIR`` moves the cache, ``REPRO_CACHE_DISABLE=1`` turns
the disk layer off).
"""

from __future__ import annotations

import time
import zlib
from dataclasses import replace
from functools import lru_cache

import numpy as np

from .. import obs
from ..cache import shared_cache
from ..emt import make_emt
from ..energy.accounting import EnergySystemModel
from ..energy.technology import TECH_32NM_LP
from ..errors import MissionError
from ..exp.common import (
    ExperimentConfig,
    run_monte_carlo,
    validate_registry_names,
)
from ..signals.dataset import CATALOG, synthesize_record
from ..signals.metrics import SNR_CAP_DB
from .mission import MissionResult, MissionSpec, SegmentSpec
from .policy import LadderPoint, Observation, Policy, PolicyContext

__all__ = ["BatchCalibrator", "MissionSimulator"]

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

    The shared cache (:func:`repro.cache.shared_cache`) is the one memo:
    its memory layer answers repeats within a process, and its disk
    layer makes the underlying fault-injection run a once-per-machine
    event, shared by every mission, fleet worker and CLI invocation that
    needs the same model.  Keyed by the *effective* BER, so segments
    whose stress lands two lattice voltages on the same BER share one
    calibration.
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

    def compute() -> list[float]:
        # This only runs on a full cache miss, so the span marks exactly
        # the expensive fault-injection work a trace should surface.
        with obs.span(
            "calibrate", app=app_name, record=record, emt=emt_name,
            ber=ber, n_probe=n_probe,
        ):
            calibrator = BatchCalibrator(
                n_probe=n_probe,
                probe_duration_s=probe_duration_s,
                snr_cap_db=snr_cap_db,
            )
            return list(
                calibrator.calibrate(
                    app_name, record, noise_gain, emt_name, ber
                )
            )

    mean, std = shared_cache().get_or_compute(payload, compute)
    return float(mean), float(std)


class BatchCalibrator:
    """Calibration of one (segment, operating-point) quality model.

    A calibration is the paper's Section V protocol restricted to one
    EMT and one record: :func:`~repro.exp.common.run_monte_carlo` draws
    all ``n_probe`` stuck-at fault maps as one stacked batch at the
    effective BER and runs the segment's probe trace through the faulty
    fabric, one vectorised pass per pipeline stage.  Only probes whose
    map holds a fault, plus one fault-free probe, run the pipeline.
    The seed derives from the model's content (CRC-32), so the same
    model always gets the same fault maps; :meth:`_protocol` builds the
    driver's arguments, which
    :func:`~repro.exp.common.run_monte_carlo_sequential` replays as the
    executable reference.

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

    def _protocol(
        self,
        app_name: str,
        record: str,
        noise_gain: float,
        emt_name: str,
        ber: float,
    ) -> tuple:
        """The :func:`~repro.exp.common.run_monte_carlo` arguments of one
        calibration: app, EMT, clamped BER, config, probe corpus, seed."""
        key = f"{app_name}:{record}:{noise_gain!r}:{emt_name}:{ber!r}"
        config = ExperimentConfig(
            records=(record,),
            duration_s=self.probe_duration_s,
            n_runs=self.n_probe,
            seed=_CALIBRATION_SEED,
            snr_cap_db=self.snr_cap_db,
        )
        corpus = {
            record: _probe_samples(record, noise_gain, self.probe_duration_s)
        }
        return (
            _cached_app(app_name),
            {emt_name: make_emt(emt_name)},
            min(ber, _MAX_BER),
            config,
            corpus,
            zlib.crc32(key.encode()),
        )

    def calibrate(
        self,
        app_name: str,
        record: str,
        noise_gain: float,
        emt_name: str,
        ber: float,
    ) -> tuple[float, float]:
        """(mean, std) window SNR of one (segment, operating point)."""
        result = run_monte_carlo(
            *self._protocol(app_name, record, noise_gain, emt_name, ber)
        )
        return result.snr_mean_db[emt_name], result.snr_std_db[emt_name]


def _window_energy_pj(
    app_name: str,
    emt_name: str,
    voltage: float,
    window_s: float,
) -> float:
    """Memory-system energy of one window at one operating point.

    Priced at the paper's 32 nm LP node, whose full serialised form
    stays part of the disk-cache key.  The access counts come from a
    measured run of the application on one window's worth of signal;
    leakage integrates over the *full* window (the array retains state
    between bursts), so energy keeps its supply dependence even for
    sparse workloads.
    """
    from ..campaign.evaluators import measured_workload, technology_to_dict

    payload = {
        "kind": "window-energy",
        "v": 1,
        "app": app_name,
        "emt": emt_name,
        "voltage": voltage,
        "window_s": window_s,
        "tech": technology_to_dict(TECH_32NM_LP),
    }

    def compute() -> float:
        with obs.span(
            "price_window", app=app_name, emt=emt_name, voltage=voltage
        ):
            workload = replace(
                measured_workload(
                    app_name=app_name, record="100", duration_s=window_s
                ),
                duration_s=window_s,
            )
            model = EnergySystemModel(make_emt(emt_name))
            return model.evaluate(voltage, workload).total_pj

    return float(shared_cache().get_or_compute(payload, compute))


class MissionSimulator:
    """Run missions: one calibration pass, then streaming windows.

    Args:
        spec: the mission to simulate (priced at the paper's 32 nm LP
            node).
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
            TECH_32NM_LP.check_voltage(voltage)
        for segment in spec.segments:
            if segment.record not in CATALOG:
                raise MissionError(
                    f"segment {segment.name!r} names unknown record "
                    f"{segment.record!r}; available: {sorted(CATALOG)}"
                )
        self.spec = spec
        self.n_probe = n_probe
        self.probe_duration_s = probe_duration_s
        self.snr_cap_db = snr_cap_db
        self.keep_trace = keep_trace
        self._ladder = self._build_ladder()
        self._segment_index, self._stress = self._build_schedule()

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
                        spec.app, emt_name, voltage, spec.window_s
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

    def _build_schedule(self) -> tuple[list[int], np.ndarray]:
        """Segment index and stress of every window.

        A window belongs to the segment whose span holds its start time,
        as :meth:`MissionSpec.segment_at` assigns it (the last segment
        takes any start at or past the end).  ``np.cumsum`` adds the
        durations in order, as a forward walk would, so the boundaries
        are the same floats and ``searchsorted`` places every window
        start exactly as the walk did.
        """
        spec = self.spec
        segments = spec.segments
        ends = np.cumsum([segment.duration_s for segment in segments])
        starts = np.arange(spec.n_windows) * spec.window_s
        indices = np.minimum(
            np.searchsorted(ends, starts, side="right"), len(segments) - 1
        )
        stress = np.asarray([segment.stress for segment in segments])
        return indices.tolist(), stress[indices]

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
        ber = TECH_32NM_LP.ber(point.voltage) * segment.ber_multiplier
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
        ladder = self._ladder
        segments = spec.segments
        window_s = spec.window_s
        rng = np.random.default_rng(spec.seed)
        policy.reset(self.context())
        decide = policy.decide
        top = len(ladder) - 1

        # Two draws per window, in the order scalar calls would consume
        # them; the vector clips equal the scalar clips elementwise.
        draws = rng.standard_normal(2 * spec.n_windows)
        hints = np.clip(
            self._stress + draws[0::2] * spec.hint_noise, 0.0, 1.0
        ).tolist()
        zs = np.clip(draws[1::2], -_TRUNCATE_SIGMA, _TRUNCATE_SIGMA).tolist()
        platform_pj = spec.platform_power_uw * window_s * 1e6
        window_j_by_rung = [
            (point.energy_per_window_pj + platform_pj) * 1e-12
            for point in ladder
        ]
        models: list[list] = [[None] * len(ladder) for _ in segments]
        remaining_j = usable_j = spec.battery.usable_energy_j
        soc = remaining_j / usable_j
        cap = self.snr_cap_db
        quality_floor_db = spec.quality_floor_db
        keep_trace = self.keep_trace

        current = top  # boot on the most capable rung, like real firmware
        last_snr: float | None = None
        qualities: list[float] = []
        dwell = [0] * len(ladder)
        trace: list[dict] = []
        n_switches = 0
        n_violations = 0
        energy_j = 0.0
        survived = True
        depleted_at_s = 0.0

        for w, (segment_index, hint, z) in enumerate(
            zip(self._segment_index, hints, zs)
        ):
            time_s = w * window_s
            decision = int(
                decide(Observation(w, time_s, soc, last_snr, hint, current))
            )
            if decision < 0:
                decision = 0
            elif decision > top:
                decision = top
            window_j = window_j_by_rung[decision]
            # A window the cell cannot fully fund is never processed:
            # the node browns out at this window's start.
            if remaining_j < window_j:
                survived = False
                depleted_at_s = time_s
                break
            if w and decision != current:
                n_switches += 1
            current = decision
            dwell[decision] += 1

            row = models[segment_index]
            model = row[decision]
            if model is None:
                model = row[decision] = self._quality_model(
                    segments[segment_index], ladder[decision]
                )
            mean, std = model
            quality = mean + std * z
            if cap < quality:
                quality = cap
            qualities.append(quality)
            if quality < quality_floor_db:
                n_violations += 1
            last_snr = quality

            energy_j += window_j
            remaining_j -= window_j
            remaining_j = remaining_j if remaining_j > 0.0 else 0.0
            soc = remaining_j / usable_j
            if keep_trace:
                trace.append(
                    {
                        "window": w,
                        "time_s": time_s,
                        "segment": segments[segment_index].name,
                        "op_point": ladder[decision].label,
                        "snr_db": quality,
                        "soc": soc,
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
                ladder[i].label: dwell[i] / n_processed
                for i in range(len(ladder))
                if dwell[i]
            },
            trace=tuple(trace) if self.keep_trace else None,
        )
