"""The streaming loop against its window-by-window reference.

:func:`reference_simulate` is the historical formulation of
:meth:`MissionSimulator._simulate`, kept verbatim as the executable
reference: a :class:`BatteryState` drained per window, a scalar
``np.clip`` per quality draw, a keyword-built :class:`Observation` and
one :meth:`MissionSpec.segment_at` lookup per window.  The lean loop
must reproduce its :class:`MissionResult` exactly — trace included —
for every shipped policy, for custom policies the simulator has to
clamp, through battery depletion, and on segment boundaries that land
exactly on (or a rounding error away from) a window start.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.energy.battery import BatteryModel, BatteryState
from repro.errors import MissionError
from repro.runtime import (
    MissionSimulator,
    MissionSpec,
    SegmentSpec,
    make_policy,
)
from repro.runtime.mission import MissionResult
from repro.runtime.policy import (
    POLICIES,
    Observation,
    Policy,
    StaticPolicy,
    register_policy,
)
from repro.runtime.simulator import _TRUNCATE_SIGMA


def reference_simulate(sim: MissionSimulator, policy: Policy) -> MissionResult:
    """The window-by-window streaming loop the simulator must match."""
    spec = sim.spec
    rng = np.random.default_rng(spec.seed)
    policy.reset(sim.context())
    battery = BatteryState(spec.battery)
    ladder = sim.ladder
    top = len(ladder) - 1

    schedule = tuple(
        spec.segment_at(w * spec.window_s) for w in range(spec.n_windows)
    )
    stress = np.asarray([seg.stress for seg in schedule])
    unique: dict[int, int] = {}
    segment_ids = tuple(
        unique.setdefault(id(seg), len(unique)) for seg in schedule
    )

    draws = rng.standard_normal(2 * spec.n_windows)
    hints = np.clip(stress + draws[0::2] * spec.hint_noise, 0.0, 1.0)
    zs = draws[1::2]
    window_pj_by_rung = tuple(
        point.energy_per_window_pj
        + spec.platform_power_uw * spec.window_s * 1e6
        for point in ladder
    )
    models: dict[tuple[int, int], tuple[float, float]] = {}

    current = top
    last_snr: float | None = None
    qualities: list[float] = []
    dwell = np.zeros(len(ladder), dtype=np.int64)
    trace: list[dict] = []
    n_switches = 0
    n_violations = 0
    energy_j = 0.0
    survived = True
    depleted_at_s = 0.0

    for w, segment in enumerate(schedule):
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
        point = ladder[decision]
        window_pj = window_pj_by_rung[decision]
        if battery.remaining_j < window_pj * 1e-12:
            survived = False
            depleted_at_s = time_s
            break
        if w > 0 and decision != current:
            n_switches += 1
        current = decision
        dwell[current] += 1

        model_key = (segment_ids[w], decision)
        model = models.get(model_key)
        if model is None:
            model = sim._quality_model(segment, point)
            models[model_key] = model
        mean, std = model
        quality = mean + std * float(
            np.clip(z, -_TRUNCATE_SIGMA, _TRUNCATE_SIGMA)
        )
        quality = min(quality, sim.snr_cap_db)
        qualities.append(quality)
        if quality < spec.quality_floor_db:
            n_violations += 1
        last_snr = quality

        energy_j += window_pj * 1e-12
        battery.drain(window_pj * 1e-12)
        if sim.keep_trace:
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
            ladder[i].label: float(dwell[i]) / n_processed
            for i in range(len(ladder))
            if dwell[i]
        },
        trace=tuple(trace) if sim.keep_trace else None,
    )


class WildPolicy(Policy):
    """A custom policy that leans on the simulator's clamp.

    It steps out of range on both sides and returns numpy integers, and
    records every observation it is handed, so a test can compare what
    the policy saw window by window as well as the final result.
    """

    name = "wild-clamp-probe"

    def __init__(self) -> None:
        super().__init__()
        self.seen: list[Observation] = []

    def reset(self, context) -> None:
        super().reset(context)
        self.seen = []

    def decide(self, obs: Observation) -> int:
        top = self._require_context().top()
        self.seen.append(obs)
        step = obs.window_index % 5
        if step == 0:
            return top + 1
        if step == 1:
            return np.int64(-1)
        if step == 2:
            return np.int64(top + 4)
        if step == 3:
            return -3
        if obs.last_snr_db is not None and obs.last_snr_db < 60.0:
            return obs.current_index + 1
        return round(obs.soc * top)


@pytest.fixture(scope="module")
def wild_registered():
    register_policy(WildPolicy)
    yield WildPolicy.name
    POLICIES.pop(WildPolicy.name, None)


def mission(**overrides) -> MissionSpec:
    """Three segments with a stressed middle, small enough for units."""
    defaults = dict(
        name="identity",
        segments=(
            SegmentSpec("calm", 160.0, record="100"),
            SegmentSpec(
                "burst", 48.0, record="100",
                noise_gain=2.0, stress=0.8, ber_multiplier=30.0,
            ),
            SegmentSpec("rest", 120.0, record="106", stress=0.1),
        ),
        app="morphology",
        window_s=8.0,
        voltages=(0.60, 0.65, 0.80),
        emts=("secded",),
        battery=BatteryModel(capacity_mah=0.25),
    )
    defaults.update(overrides)
    return MissionSpec(**defaults)


def simulator(spec: MissionSpec, **kwargs) -> MissionSimulator:
    kwargs.setdefault("n_probe", 2)
    kwargs.setdefault("probe_duration_s", 2.0)
    kwargs.setdefault("keep_trace", True)
    return MissionSimulator(spec, **kwargs)


def assert_identical(sim: MissionSimulator, factory) -> MissionResult:
    expected = reference_simulate(sim, factory())
    got = sim.run(factory())
    assert got == expected
    assert got.trace is not None and len(got.trace) == got.n_processed
    return got


#: A cell that funds roughly a dozen top-rung windows of :func:`mission`.
SMALL_CELL = BatteryModel(capacity_mah=1.5e-4)


class TestShippedPolicies:
    @pytest.mark.parametrize(
        "factory",
        [
            StaticPolicy,
            lambda: StaticPolicy(index=0),
            lambda: make_policy("quality"),
            lambda: make_policy("soc"),
            lambda: make_policy("hysteresis"),
            lambda: make_policy("hysteresis", stress_fraction=0.5, dwell=2),
        ],
        ids=["static", "static-0", "quality", "soc", "hysteresis",
             "hysteresis-tuned"],
    )
    def test_matches_reference(self, factory):
        assert_identical(simulator(mission()), factory)

    @pytest.mark.parametrize("name", ["static", "soc", "hysteresis"])
    def test_depletes_mid_run_identically(self, name):
        sim = simulator(mission(battery=SMALL_CELL))
        result = assert_identical(sim, lambda: make_policy(name))
        assert not result.survived
        assert 0 < result.n_processed < result.n_windows

    def test_truncated_tails_and_cap(self):
        # The cheapest rung's calm-segment model is wide enough that a
        # long static run hits both the +/-2.5 sigma truncation and the
        # SNR cap many times over.
        spec = mission(
            window_s=1.0,
            segments=(SegmentSpec("calm", 4000.0, record="100"),),
            battery=BatteryModel(capacity_mah=5.0),
        )
        sim = simulator(spec)
        result = assert_identical(sim, lambda: StaticPolicy(index=0))
        mean, std = sim._quality_model(spec.segments[0], sim.ladder[0])
        assert std > 0
        assert result.worst_snr_db == mean - _TRUNCATE_SIGMA * std
        snrs = [row["snr_db"] for row in result.trace]
        assert snrs.count(sim.snr_cap_db) > 100

    def test_platform_power(self):
        sim = simulator(mission(platform_power_uw=3.5))
        for name in ("static", "quality", "soc", "hysteresis"):
            assert_identical(sim, lambda: make_policy(name))

    def test_unfunded_first_window_still_raises(self):
        sim = simulator(mission(battery=BatteryModel(capacity_mah=1.2e-7)))
        with pytest.raises(MissionError, match="cannot fund a single"):
            reference_simulate(sim, StaticPolicy())
        with pytest.raises(MissionError, match="cannot fund a single"):
            sim.run(StaticPolicy())


class TestCustomPolicy:
    def test_clamped_numpy_rungs_match_reference(self, wild_registered):
        sim = simulator(mission())
        reference = make_policy(wild_registered)
        expected = reference_simulate(sim, reference)
        lean = make_policy(wild_registered)
        assert sim.run(lean) == expected
        # Every window hands the policy a fresh, equal Observation.
        assert lean.seen == reference.seen
        assert len({id(o) for o in lean.seen}) == len(lean.seen)
        assert all(type(o.current_index) is int for o in lean.seen)
        assert expected.n_switches > 0

    def test_clamped_policy_through_depletion(self, wild_registered):
        sim = simulator(mission(battery=SMALL_CELL))
        result = assert_identical(sim, lambda: make_policy(wild_registered))
        assert not result.survived


class TestSegmentBoundaries:
    def test_boundary_exactly_on_a_window_start(self):
        spec = mission(
            segments=(
                SegmentSpec("a", 16.0, record="100"),
                SegmentSpec("b", 8.0, record="100", stress=0.9,
                            ber_multiplier=30.0, noise_gain=2.0),
                SegmentSpec("c", 24.0, record="106"),
            ),
        )
        sim = simulator(spec)
        result = assert_identical(sim, lambda: make_policy("hysteresis"))
        segments = [row["segment"] for row in result.trace]
        assert segments == ["a", "a", "b", "c", "c", "c"]

    def test_inexact_tenths(self):
        spec = mission(
            window_s=0.1,
            segments=tuple(
                SegmentSpec(
                    f"s{k}", 0.1 * k, record="100",
                    stress=0.9 if k % 2 else 0.0,
                )
                for k in range(1, 8)
            ),
        )
        sim = simulator(spec)
        result = assert_identical(sim, lambda: make_policy("hysteresis"))
        expected = [
            spec.segment_at(w * spec.window_s).name
            for w in range(spec.n_windows)
        ]
        assert [row["segment"] for row in result.trace] == expected

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        window_s=st.sampled_from([0.1, 0.3, 1.0, 8.0]),
        tenths=st.lists(
            st.integers(min_value=1, max_value=40), min_size=1, max_size=5
        ),
        policy=st.sampled_from(["static", "quality", "soc", "hysteresis"]),
        small_cell=st.booleans(),
    )
    def test_random_timelines(
        self, seed, window_s, tenths, policy, small_cell
    ):
        segments = tuple(
            SegmentSpec(
                f"s{i}", 0.1 * k, record="100",
                stress=0.7 if i % 2 else 0.0,
                ber_multiplier=30.0 if i % 2 else 1.0,
                noise_gain=2.0 if i % 2 else 1.0,
            )
            for i, k in enumerate(tenths)
        )
        if sum(s.duration_s for s in segments) < window_s:
            segments += (SegmentSpec("tail", window_s, record="100"),)
        spec = mission(
            seed=seed,
            window_s=window_s,
            segments=segments,
            battery=(
                BatteryModel(capacity_mah=1e-5 * window_s)
                if small_cell else BatteryModel(capacity_mah=0.25)
            ),
        )
        sim = simulator(spec)
        try:
            expected = reference_simulate(sim, make_policy(policy))
        except MissionError:
            with pytest.raises(MissionError, match="cannot fund a single"):
                sim.run(make_policy(policy))
            return
        assert sim.run(make_policy(policy)) == expected
