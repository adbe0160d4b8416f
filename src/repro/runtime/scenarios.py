"""Shipped mission scenarios: reference timelines for the adaptive runtime.

Each scenario is a deterministic :class:`~repro.runtime.mission.MissionSpec`
factory capturing one day-in-the-life of a wearable ECG node:

* ``overnight`` — 8 h of sleep monitoring with brief motion episodes;
* ``active_day`` — a full 24 h with commute/gym/walk stress bursts;
* ``pvc_ward`` — a 12 h clinical shift mixing PVC-storm pathology
  episodes (which coincide with patient motion) with calm monitoring,
  on a DREAM + SEC/DED lattice;
* ``harvester`` — 24 h on a tiny harvesting buffer that *cannot* sustain
  the top operating point, the state-of-charge scheduler's home turf.

Stress levels are deliberately bimodal (quiet segments stay at or below
0.2, episodes at or above 0.7) — a node's cheap sensors can tell "moving
hard" from "still", not grade a continuum, and the gap keeps
feed-forward policies out of their own hysteresis region.

Batteries are thin-film/printed micro-cells (µAh class), sized so that a
mission consumes a visible fraction of the charge: lifetime differences
between policies then show up in days, not abstract percentages.

Register custom scenarios with :func:`register_scenario`; campaign grids
reference every scenario by name.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import replace

from ..energy.battery import BatteryModel
from ..errors import MissionError
from .mission import MissionSpec, SegmentSpec

__all__ = [
    "SCENARIOS",
    "register_scenario",
    "scenario_spec",
    "scenario_names",
    "resolve_mission",
]

#: Registry of scenario factories, keyed by scenario name.
SCENARIOS: dict[str, Callable[[], MissionSpec]] = {}

_HOUR = 3600.0


def register_scenario(
    name: str,
) -> Callable[[Callable[[], MissionSpec]], Callable[[], MissionSpec]]:
    """Decorator registering a mission factory under ``name``."""

    def _register(
        factory: Callable[[], MissionSpec],
    ) -> Callable[[], MissionSpec]:
        if name in SCENARIOS:
            raise MissionError(f"scenario {name!r} already registered")
        SCENARIOS[name] = factory
        return factory

    return _register


def scenario_spec(name: str) -> MissionSpec:
    """Build the registered scenario ``name``."""
    if name not in SCENARIOS:
        raise MissionError(
            f"unknown scenario {name!r}; available: {scenario_names()}"
        )
    return SCENARIOS[name]()


def scenario_names() -> list[str]:
    """Names of all registered scenarios, sorted."""
    return sorted(SCENARIOS)


def resolve_mission(
    base: MissionSpec | str,
    duration_scale: float = 1.0,
    seed: int | None = None,
    window_s: float | None = None,
) -> MissionSpec:
    """The mission a run simulates, in one resolution order.

    ``base`` (a scenario name or a spec), then
    :meth:`~repro.runtime.mission.MissionSpec.scaled` by
    ``duration_scale``, then the ``seed``/``window_s`` overrides that
    are not ``None``.  Mission experiments, the ``mission`` campaign
    evaluator and the CLI's mission header all resolve through here.
    """
    spec = scenario_spec(base) if isinstance(base, str) else base
    if duration_scale != 1.0:
        spec = spec.scaled(duration_scale)
    overrides = {
        key: value
        for key, value in (("seed", seed), ("window_s", window_s))
        if value is not None
    }
    return replace(spec, **overrides) if overrides else spec


@register_scenario("overnight")
def _overnight() -> MissionSpec:
    """8 h of sleep monitoring: long quiet stretches, two motion bursts."""
    return MissionSpec(
        name="overnight",
        app="morphology",
        segments=(
            SegmentSpec("sleep-early", 3.0 * _HOUR, record="100"),
            SegmentSpec(
                "rem-motion", 0.5 * _HOUR, record="100",
                noise_gain=2.5, stress=0.8, ber_multiplier=30.0,
            ),
            SegmentSpec("sleep-late", 3.5 * _HOUR, record="101"),
            SegmentSpec(
                "waking", 1.0 * _HOUR, record="100",
                noise_gain=1.5, stress=0.7, ber_multiplier=10.0,
            ),
        ),
        voltages=(0.65, 0.70, 0.80),
        emts=("secded",),
        battery=BatteryModel(capacity_mah=0.25),
    )


@register_scenario("active_day")
def _active_day() -> MissionSpec:
    """A full 24 h: commute, gym and walk episodes between calm blocks."""
    return MissionSpec(
        name="active_day",
        app="morphology",
        segments=(
            SegmentSpec("night", 5.0 * _HOUR, record="100"),
            SegmentSpec("morning", 3.0 * _HOUR, record="100", stress=0.1),
            SegmentSpec(
                "commute", 1.0 * _HOUR, record="100",
                noise_gain=2.0, stress=0.8, ber_multiplier=30.0,
            ),
            SegmentSpec("office", 6.0 * _HOUR, record="103", stress=0.1),
            SegmentSpec(
                "gym", 1.0 * _HOUR, record="200",
                noise_gain=3.0, stress=0.9, ber_multiplier=50.0,
            ),
            SegmentSpec("afternoon", 4.0 * _HOUR, record="100", stress=0.1),
            SegmentSpec(
                "walk", 2.0 * _HOUR, record="101",
                noise_gain=1.5, stress=0.7, ber_multiplier=10.0,
            ),
            SegmentSpec("evening", 2.0 * _HOUR, record="100", stress=0.05),
        ),
        voltages=(0.65, 0.70, 0.80),
        emts=("secded",),
        battery=BatteryModel(capacity_mah=0.25),
    )


@register_scenario("pvc_ward")
def _pvc_ward() -> MissionSpec:
    """12 h clinical shift: PVC storms (with patient motion) and calm
    stretches, on the mixed DREAM + SEC/DED lattice."""
    return MissionSpec(
        name="pvc_ward",
        app="morphology",
        segments=(
            SegmentSpec("ward-calm", 4.0 * _HOUR, record="100", stress=0.05),
            SegmentSpec(
                "pvc-storm", 1.0 * _HOUR, record="119",
                noise_gain=1.5, stress=0.7, ber_multiplier=20.0,
            ),
            SegmentSpec("ward-calm-2", 3.0 * _HOUR, record="103", stress=0.05),
            SegmentSpec("bigeminy", 2.0 * _HOUR, record="106", stress=0.1),
            SegmentSpec(
                "rounds", 1.0 * _HOUR, record="100",
                noise_gain=2.0, stress=0.7, ber_multiplier=10.0,
            ),
            SegmentSpec("ward-night", 1.0 * _HOUR, record="100"),
        ),
        voltages=(0.65, 0.70, 0.80),
        emts=("dream", "secded"),
        battery=BatteryModel(capacity_mah=0.25),
    )


@register_scenario("harvester")
def _harvester() -> MissionSpec:
    """24 h on a harvesting buffer too small for the top rung: policies
    that ignore the state of charge die before the day ends."""
    return MissionSpec(
        name="harvester",
        app="morphology",
        segments=(
            SegmentSpec("morning", 6.0 * _HOUR, record="100"),
            SegmentSpec("midday", 6.0 * _HOUR, record="103", stress=0.1),
            SegmentSpec(
                "burst", 1.0 * _HOUR, record="100",
                noise_gain=2.0, stress=0.8, ber_multiplier=30.0,
            ),
            SegmentSpec("afternoon", 5.0 * _HOUR, record="100", stress=0.1),
            SegmentSpec(
                "errand", 1.0 * _HOUR, record="101",
                noise_gain=1.5, stress=0.7, ber_multiplier=10.0,
            ),
            SegmentSpec("night", 5.0 * _HOUR, record="100"),
        ),
        voltages=(0.65, 0.70, 0.80),
        emts=("secded",),
        battery=BatteryModel(capacity_mah=0.09),
    )
