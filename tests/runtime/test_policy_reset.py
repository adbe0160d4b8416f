"""Policies precompute their ladder rungs at reset; re-binding must redo it.

The streaming loop also builds :class:`Observation` positionally, so its
field order is pinned here, along with the named-tuple behaviour policies
may rely on.
"""

from __future__ import annotations

import pytest

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
    assert Observation._fields == (
        "window_index",
        "time_s",
        "soc",
        "last_snr_db",
        "stress_hint",
        "current_index",
    )


def test_observation_keyword_and_positional_construction_agree():
    positional = Observation(3, 24.0, 1.0, 50.0, 0.0, 0)
    assert positional == observation()
    assert positional.window_index == 3
    assert positional.last_snr_db == 50.0
    assert tuple(positional) == (3, 24.0, 1.0, 50.0, 0.0, 0)
    window, *_, current = positional
    assert (window, current) == (3, 0)


def test_observation_is_immutable():
    obs = observation()
    with pytest.raises(AttributeError):
        obs.soc = 0.5  # type: ignore[misc]
    with pytest.raises(AttributeError):
        obs.new_field = 1  # type: ignore[attr-defined]
    assert obs.soc == 1.0


def test_observation_replace_and_asdict():
    obs = observation()
    later = obs._replace(window_index=4, soc=0.25)
    assert later.window_index == 4 and later.soc == 0.25
    assert later.time_s == obs.time_s
    assert obs.window_index == 3  # the original is untouched
    assert later != obs
    assert obs._asdict() == {
        "window_index": 3,
        "time_s": 24.0,
        "soc": 1.0,
        "last_snr_db": 50.0,
        "stress_hint": 0.0,
        "current_index": 0,
    }
