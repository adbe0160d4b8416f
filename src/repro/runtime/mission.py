"""Mission descriptions for the adaptive runtime (`repro.runtime`).

The paper explores energy vs. reliability as a *static* design space; a
deployed wearable lives in a *dynamic* one.  A :class:`MissionSpec`
captures that dynamics as a timeline of :class:`SegmentSpec` segments —
"asleep", "commuting", "PVC storm" — each naming the signal it produces
(a catalog rhythm with optionally amplified noise) and the environmental
stress it puts on the voltage-scaled memory.  The stress is modelled as a
Bit-Error-Rate multiplier: motion artifacts, radio bursts and supply
droop all raise the effective BER of low-voltage SRAM above its bench
calibration, which is exactly the disturbance a run-time operating-point
policy has to absorb.

A mission also fixes the *operating-point lattice* the policy may choose
from (supply voltages x EMTs), the processing window, and the battery;
:mod:`repro.runtime.simulator` closes the loop.  Everything here is
JSON-serialisable (:meth:`MissionSpec.to_dict`), so missions travel
through :mod:`repro.campaign` grids unchanged.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any

from ..api.serde import canonicalise
from ..energy.battery import BatteryModel
from ..errors import MissionError

__all__ = ["SegmentSpec", "MissionSpec", "MissionResult"]


@dataclass(frozen=True)
class SegmentSpec:
    """One contiguous episode of a mission timeline.

    Attributes:
        name: label used in reports and traces.
        duration_s: episode length in seconds.
        record: catalog record supplying the episode's rhythm (pathology
            episodes name PVC-rich records like ``"106"``/``"119"``).
        noise_gain: multiplier on the record's baseline-wander, mains and
            EMG noise amplitudes (a motion burst is ``> 1``).
        stress: observable environmental stress in ``[0, 1]`` — what a
            node can sense cheaply (accelerometer, supply monitor) before
            processing a window.  Policies may read it as a feed-forward
            hint.
        ber_multiplier: factor applied to the technology's calibrated
            BER(V) during this episode (supply droop / interference /
            temperature); ``1`` is bench conditions.
    """

    name: str
    duration_s: float
    record: str = "100"
    noise_gain: float = 1.0
    stress: float = 0.0
    ber_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise MissionError("segment name must be non-empty")
        if self.duration_s <= 0:
            raise MissionError(
                f"segment duration must be positive, got {self.duration_s}"
            )
        if self.noise_gain < 0:
            raise MissionError(
                f"noise gain must be non-negative, got {self.noise_gain}"
            )
        if not 0.0 <= self.stress <= 1.0:
            raise MissionError(
                f"stress must be in [0, 1], got {self.stress}"
            )
        if self.ber_multiplier < 0:
            raise MissionError(
                f"BER multiplier must be non-negative, "
                f"got {self.ber_multiplier}"
            )

    @property
    def signature(self) -> tuple:
        """What makes two segments *physically* identical.

        Segments sharing a signature share calibrated quality models in
        the simulator regardless of their name/position in the timeline.
        """
        return (self.record, self.noise_gain, self.ber_multiplier)


@dataclass(frozen=True)
class MissionSpec:
    """A complete device mission: timeline, lattice, window, battery.

    Attributes:
        name: mission identity (scenario registry key, report label).
        segments: the timeline, in order; total mission duration is the
            sum of segment durations.
        app: application processing each window (registry name).
        window_s: processing-window length in seconds; the policy picks
            one operating point per window.
        voltages: supply voltages of the operating-point lattice.
        emts: EMT registry names of the lattice; the lattice is the
            ``voltages x emts`` product, energy-sorted into a ladder.
        battery: the energy source being drained.
        platform_power_uw: constant EMT-independent platform draw added
            to every window (0 isolates the memory subsystem, the
            paper's comparative framing).
        quality_floor_db: per-window SNR requirement; windows below it
            count as quality violations.
        hint_noise: standard deviation of the observation noise on the
            per-window stress hint.
        seed: master seed of the mission's stochastic draws.
    """

    name: str
    segments: tuple[SegmentSpec, ...]
    app: str = "morphology"
    window_s: float = 8.0
    voltages: tuple[float, ...] = (0.65, 0.70, 0.80)
    emts: tuple[str, ...] = ("secded",)
    battery: BatteryModel = field(
        default_factory=lambda: BatteryModel(capacity_mah=0.25)
    )
    platform_power_uw: float = 0.0
    quality_floor_db: float = 30.0
    hint_noise: float = 0.02
    seed: int = 2016

    def __post_init__(self) -> None:
        if not self.name:
            raise MissionError("mission name must be non-empty")
        if not self.segments:
            raise MissionError("a mission needs at least one segment")
        if self.window_s <= 0:
            raise MissionError(
                f"window must be positive, got {self.window_s}"
            )
        if not self.voltages or not self.emts:
            raise MissionError(
                "the operating-point lattice needs at least one voltage "
                "and one EMT"
            )
        if self.platform_power_uw < 0:
            raise MissionError(
                f"platform power must be non-negative, "
                f"got {self.platform_power_uw}"
            )
        if self.hint_noise < 0:
            raise MissionError(
                f"hint noise must be non-negative, got {self.hint_noise}"
            )
        if self.total_duration_s < self.window_s:
            raise MissionError(
                f"mission ({self.total_duration_s} s) is shorter than one "
                f"window ({self.window_s} s)"
            )

    @property
    def total_duration_s(self) -> float:
        """Mission length: the sum of segment durations."""
        return sum(segment.duration_s for segment in self.segments)

    @property
    def n_windows(self) -> int:
        """Whole processing windows in the mission."""
        return int(self.total_duration_s // self.window_s)

    def segment_at(self, time_s: float) -> SegmentSpec:
        """The segment active at ``time_s`` (windows are assigned by
        their start time; the final instant belongs to the last segment).
        """
        if time_s < 0:
            raise MissionError(f"time must be non-negative, got {time_s}")
        elapsed = 0.0
        for segment in self.segments:
            elapsed += segment.duration_s
            if time_s < elapsed:
                return segment
        if time_s <= elapsed:
            return self.segments[-1]
        raise MissionError(
            f"time {time_s} s is past the mission end ({elapsed} s)"
        )

    def scaled(self, factor: float) -> "MissionSpec":
        """A copy with durations *and* battery capacity scaled by ``factor``.

        Scaling preserves the mission's *shape*: segment proportions and
        the stress schedule, but also the state-of-charge trajectory and
        any mid-mission depletion, because the battery shrinks with the
        timeline.  Campaign sweeps and tests explore scaled missions
        (absolute lifetimes scale by ``factor``; every between-policy
        ordering is preserved), reports run full ones.
        """
        if factor <= 0:
            raise MissionError(f"scale factor must be positive, got {factor}")
        return replace(
            self,
            segments=tuple(
                replace(seg, duration_s=seg.duration_s * factor)
                for seg in self.segments
            ),
            battery=replace(
                self.battery,
                capacity_mah=self.battery.capacity_mah * factor,
            ),
        )

    # -- JSON round-trip (campaign transport) -----------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form, for campaign parameters and stores."""
        return canonicalise(asdict(self))

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "MissionSpec":
        """Rebuild a spec produced by :meth:`to_dict`."""
        data = dict(payload)
        try:
            segments = tuple(
                SegmentSpec(**seg) for seg in data.pop("segments")
            )
            battery = BatteryModel(**data.pop("battery"))
            data["voltages"] = tuple(data["voltages"])
            data["emts"] = tuple(data["emts"])
            return cls(segments=segments, battery=battery, **data)
        except (KeyError, TypeError) as exc:
            raise MissionError(f"malformed mission payload: {exc}") from exc


@dataclass(frozen=True)
class MissionResult:
    """Outcome of one simulated mission under one policy.

    Attributes:
        mission_name / policy_name: what ran.
        n_windows: windows the timeline holds.
        n_processed: windows actually processed (fewer if the battery
            died mid-mission).
        survived: True if the battery outlasted the timeline.
        lifetime_days: battery lifetime — the actual depletion time when
            the cell died during the mission, otherwise the projection of
            the mission's average power onto the full usable capacity
            (assumes the mission profile repeats; SoC-dependent policies
            make this a first-order figure).
        mean_snr_db / worst_snr_db / p5_snr_db: per-window output quality
            statistics over processed windows.
        n_switches: operating-point changes after the initial choice.
        n_violations: windows whose quality fell below the mission's
            ``quality_floor_db``.
        energy_mj: total energy drained.
        average_power_uw: ``energy / processed time``.
        op_point_share: fraction of processed windows spent at each
            lattice point, keyed ``"emt@V"``.
        trace: optional per-window records (``keep_trace=True`` runs).
    """

    mission_name: str
    policy_name: str
    n_windows: int
    n_processed: int
    survived: bool
    lifetime_days: float
    mean_snr_db: float
    worst_snr_db: float
    p5_snr_db: float
    n_switches: int
    n_violations: int
    energy_mj: float
    average_power_uw: float
    op_point_share: dict[str, float] = field(default_factory=dict)
    trace: tuple[dict, ...] | None = None

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "MissionResult":
        """Rebuild a result from its :meth:`to_dict` form.

        Stored ``mission`` campaign records and experiment-API result
        handles carry mission outcomes in the JSON-safe dict form; this
        restores the dataclass (without a trace — traces are never
        serialised).
        """
        data = dict(payload)
        try:
            return cls(
                mission_name=data.pop("mission"),
                policy_name=data.pop("policy"),
                op_point_share=dict(data.pop("op_point_share", {})),
                **data,
            )
        except (KeyError, TypeError) as exc:
            raise MissionError(
                f"malformed mission-result payload: {exc}"
            ) from exc

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form (the trace, when kept, is excluded)."""
        return {
            "mission": self.mission_name,
            "policy": self.policy_name,
            "n_windows": self.n_windows,
            "n_processed": self.n_processed,
            "survived": self.survived,
            "lifetime_days": self.lifetime_days,
            "mean_snr_db": self.mean_snr_db,
            "worst_snr_db": self.worst_snr_db,
            "p5_snr_db": self.p5_snr_db,
            "n_switches": self.n_switches,
            "n_violations": self.n_violations,
            "energy_mj": self.energy_mj,
            "average_power_uw": self.average_power_uw,
            "op_point_share": dict(self.op_point_share),
        }
