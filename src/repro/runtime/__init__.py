"""Adaptive runtime: closed-loop DVS/EMT mission simulation.

The paper answers "which (voltage, EMT) operating point should a
biomedical node use?" at *design time*; this package answers it at *run
time*.  A mission — a timeline of signal conditions, pathology episodes
and environmental stress — streams through an application window by
window while an operating-point policy picks a rung of the voltage x EMT
ladder, the Section VI-B energy model prices every window, and the
battery drains:

* :mod:`repro.runtime.mission` — :class:`MissionSpec` /
  :class:`SegmentSpec` timelines and the :class:`MissionResult` metrics
  (lifetime, mean/worst quality, switch counts);
* :mod:`repro.runtime.policy` — the :class:`Policy` engine and the four
  shipped controllers (static, quality-reactive, state-of-charge
  scheduler, hysteresis with stress feed-forward) behind a registry;
* :mod:`repro.runtime.simulator` — :class:`MissionSimulator`, which
  calibrates per-operating-point quality/energy models once with the
  real fault-injection pipeline and then streams missions at thousands
  of windows per second;
* :mod:`repro.runtime.scenarios` — shipped day-in-the-life scenarios.

Campaign integration: the ``mission`` evaluator kind
(:mod:`repro.campaign.evaluators`) runs policy x scenario grids through
the parallel campaign runner, store and Pareto analysis; a ``kind =
"mission"`` experiment file is the CLI front-end (``repro run``).
"""

from .mission import MissionResult, MissionSpec, SegmentSpec
from .policy import (
    POLICIES,
    HysteresisPolicy,
    LadderPoint,
    Observation,
    Policy,
    PolicyContext,
    QualityThresholdPolicy,
    SoCSchedulerPolicy,
    StaticPolicy,
    make_policy,
    policy_from_dict,
    policy_from_token,
    register_policy,
)
from .scenarios import (
    SCENARIOS,
    register_scenario,
    resolve_mission,
    scenario_names,
    scenario_spec,
)
from .simulator import BatchCalibrator, MissionSimulator

__all__ = [
    "MissionResult",
    "MissionSpec",
    "SegmentSpec",
    "Policy",
    "PolicyContext",
    "Observation",
    "LadderPoint",
    "StaticPolicy",
    "QualityThresholdPolicy",
    "SoCSchedulerPolicy",
    "HysteresisPolicy",
    "POLICIES",
    "register_policy",
    "make_policy",
    "policy_from_dict",
    "policy_from_token",
    "BatchCalibrator",
    "MissionSimulator",
    "SCENARIOS",
    "register_scenario",
    "scenario_names",
    "scenario_spec",
    "resolve_mission",
]
