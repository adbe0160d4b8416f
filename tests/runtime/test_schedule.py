"""The vectorised window schedule against its forward-walk reference.

:func:`reference_schedule` is the historical per-window loop of
:meth:`MissionSimulator._build_schedule`, kept verbatim as the
executable reference.  The ``cumsum`` + ``searchsorted`` form must
assign every window of every shipped scenario, every cohort patient
mission and arbitrary inexact timelines to the same segment, with the
same stress.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cohort import CohortSpec
from repro.runtime import MissionSimulator, MissionSpec, SegmentSpec
from repro.runtime.scenarios import scenario_names, scenario_spec


def reference_schedule(spec: MissionSpec) -> tuple[list[int], np.ndarray]:
    """Segment index and stress of every window, in one forward walk
    that repeats :meth:`MissionSpec.segment_at`'s float arithmetic."""
    segments = spec.segments
    last = len(segments) - 1
    index, elapsed = 0, segments[0].duration_s
    indices: list[int] = []
    for w in range(spec.n_windows):
        time_s = w * spec.window_s
        while index < last and not time_s < elapsed:
            index += 1
            elapsed += segments[index].duration_s
        indices.append(index)
    stress = np.asarray([segment.stress for segment in segments])
    return indices, stress[indices]


def schedule(spec: MissionSpec) -> tuple[list[int], np.ndarray]:
    """The simulator's schedule, without pricing its ladder."""
    sim = object.__new__(MissionSimulator)
    sim.spec = spec
    return sim._build_schedule()


def assert_same_schedule(spec: MissionSpec) -> None:
    indices, stress = schedule(spec)
    expected_indices, expected_stress = reference_schedule(spec)
    assert type(indices) is list
    assert indices == expected_indices
    assert np.array_equal(stress, expected_stress)


@pytest.mark.parametrize("name", scenario_names())
@pytest.mark.parametrize("scale", [1.0, 0.02, 0.01])
def test_every_scenario(name, scale):
    spec = scenario_spec(name)
    assert_same_schedule(spec if scale == 1.0 else spec.scaled(scale))


@pytest.mark.parametrize("scale", [1.0, 0.01])
def test_cohort_patient_missions(scale):
    cohort = CohortSpec(name="schedule", size=24, duration_scale=scale)
    for profile in cohort.patients():
        assert_same_schedule(cohort.mission_for(profile))


def mission(window_s: float, durations: list[float]) -> MissionSpec:
    return MissionSpec(
        name="schedule",
        segments=tuple(
            SegmentSpec(f"s{i}", duration, record="100", stress=0.1 * (i % 7))
            for i, duration in enumerate(durations)
        ),
        app="dwt",
        window_s=window_s,
        voltages=(0.8,),
        emts=("none",),
    )


def test_boundaries_a_rounding_error_from_a_window_start():
    # 0.1 * k sums drift off the 0.1 s window grid in both directions.
    assert_same_schedule(mission(0.1, [0.1 * k for k in range(1, 30)]))


@settings(max_examples=60, deadline=None)
@given(
    window_s=st.sampled_from([0.1, 0.3, 1.0, 8.0]),
    tenths=st.lists(
        st.integers(min_value=1, max_value=400), min_size=1, max_size=8
    ),
)
def test_random_timelines(window_s, tenths):
    durations = [0.1 * k for k in tenths]
    if sum(durations) < window_s:
        durations.append(window_s)
    assert_same_schedule(mission(window_s, durations))
