"""Policies precompute their ladder rungs at reset; re-binding must redo it.

The streaming loop also builds :class:`Observation` positionally, so its
field order is pinned here.
"""

from __future__ import annotations

import dataclasses

from repro.runtime.policy import (
    HysteresisPolicy,
    LadderPoint,
    Observation,
    PolicyContext,
    SoCSchedulerPolicy,
)


def context(n: int) -> PolicyContext:
    ladder = tuple(
        LadderPoint(
            index=i,
            emt_name="secded",
            voltage=0.5 + 0.05 * i,
            energy_per_window_pj=1e6 * (i + 1),
        )
        for i in range(n)
    )
    return PolicyContext(
        ladder=ladder, window_s=8.0, quality_floor_db=30.0, snr_cap_db=96.0
    )


def observation(soc: float = 1.0, stress: float = 0.0) -> Observation:
    return Observation(
        window_index=3,
        time_s=24.0,
        soc=soc,
        last_snr_db=50.0,
        stress_hint=stress,
        current_index=0,
    )


def test_soc_scheduler_rebinds_to_a_longer_ladder():
    policy = SoCSchedulerPolicy()
    policy.reset(context(3))
    assert policy.decide(observation(soc=1.0)) == 2
    policy.reset(context(9))
    assert policy.decide(observation(soc=1.0)) == 8
    assert policy.decide(observation(soc=0.3)) == 4
    policy.reset(context(3))
    assert policy.decide(observation(soc=1.0)) == 2


def test_hysteresis_stress_floor_rebinds_to_a_longer_ladder():
    policy = HysteresisPolicy(stress_fraction=1.0)
    policy.reset(context(3))
    assert policy.decide(observation(stress=0.9)) == 2
    policy.reset(context(9))
    assert policy.decide(observation(stress=0.9)) == 8
    half = HysteresisPolicy(stress_fraction=0.5)
    half.reset(context(3))
    assert half.decide(observation(stress=0.9)) == 1
    half.reset(context(9))
    assert half.decide(observation(stress=0.9)) == 4


def test_observation_field_order_is_pinned():
    assert [field.name for field in dataclasses.fields(Observation)] == [
        "window_index",
        "time_s",
        "soc",
        "last_snr_db",
        "stress_hint",
        "current_index",
    ]
