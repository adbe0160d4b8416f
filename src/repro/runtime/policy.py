"""Operating-point policies: the decision layer of the adaptive runtime.

A policy closes the paper's Section VI-C loop at run time: every window
it observes the node's state — battery state of charge, last window's
output quality, a cheap environmental stress hint — and picks one rung
of the mission's *operating-point ladder* (the voltage x EMT lattice,
energy-sorted ascending, so "step up" always means "spend more for more
reliability").

Shipped policies:

* ``static`` — one fixed rung; the paper's design-time answer and the
  baseline every adaptive policy is judged against;
* ``quality`` — reactive threshold control on the observed quality:
  degrade a window, climb a rung; exceed the target comfortably, descend;
* ``soc`` — a battery-state-of-charge scheduler that spends charge on
  quality while the cell is full and throttles as it empties;
* ``hysteresis`` — a dead-band controller with an optional feed-forward
  term on the stress hint: it climbs immediately on degradation (or on a
  sensed stress episode, *before* processing the window) but descends
  only after the quality has held above the upper band for a dwell,
  suppressing the oscillation pure threshold control exhibits.

Custom policies register with :func:`register_policy` and then work
everywhere — the simulator, the ``mission`` campaign evaluator kind and
the CLI — by name.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, NamedTuple

from ..errors import MissionError

__all__ = [
    "LadderPoint",
    "PolicyContext",
    "Observation",
    "Policy",
    "StaticPolicy",
    "QualityThresholdPolicy",
    "SoCSchedulerPolicy",
    "HysteresisPolicy",
    "POLICIES",
    "register_policy",
    "make_policy",
    "policy_from_dict",
    "policy_from_token",
]


@dataclass(frozen=True)
class LadderPoint:
    """One rung of the energy-sorted operating-point ladder.

    Attributes:
        index: position in the ladder (0 = cheapest).
        emt_name: protection scheme at this rung.
        voltage: data-memory supply voltage.
        energy_per_window_pj: predicted memory-system energy of one
            processing window at this rung.
    """

    index: int
    emt_name: str
    voltage: float
    energy_per_window_pj: float

    @property
    def label(self) -> str:
        """Short ``emt@V`` form used in reports and share tables."""
        return f"{self.emt_name}@{self.voltage:.2f}"


@dataclass(frozen=True)
class PolicyContext:
    """What a policy may know about the mission before it starts."""

    ladder: tuple[LadderPoint, ...]
    window_s: float
    quality_floor_db: float
    snr_cap_db: float

    @property
    def n_levels(self) -> int:
        """Number of ladder rungs."""
        return len(self.ladder)

    def top(self) -> int:
        """Index of the most capable (most expensive) rung."""
        return len(self.ladder) - 1


class Observation(NamedTuple):
    """Per-window runtime state presented to a policy.

    A named tuple, so the streaming loop builds one per window cheaply:
    fields read by name as before, and the tuple API (``_fields``,
    ``_replace``, ``_asdict``, equality, unpacking) comes with it.

    Attributes:
        window_index: zero-based window number.
        time_s: mission time at the window's start.
        soc: battery state of charge in ``[0, 1]``.
        last_snr_db: previous window's output quality (None on the first
            window — nothing has been processed yet).
        stress_hint: noisy observation of the environment's stress level
            for the *upcoming* window (sensed before processing).
        current_index: ladder rung the node is currently configured for.
    """

    window_index: int
    time_s: float
    soc: float
    last_snr_db: float | None
    stress_hint: float
    current_index: int


class Policy(ABC):
    """Base class of operating-point policies.

    Lifecycle: the simulator calls :meth:`reset` once with the mission's
    :class:`PolicyContext`, then :meth:`decide` once per window.  The
    returned rung index is clamped to the ladder by the simulator, so
    policies may step past the ends without guarding.
    """

    #: Registry key; overridden by subclasses.
    name: str = "abstract"

    def __init__(self) -> None:
        self.context: PolicyContext | None = None

    def reset(self, context: PolicyContext) -> None:
        """Bind the policy to a mission's ladder; clears internal state."""
        if not context.ladder:
            raise MissionError("policy context has an empty ladder")
        self.context = context

    @abstractmethod
    def decide(self, obs: Observation) -> int:
        """Choose the ladder rung for the window ``obs`` describes."""

    def describe(self) -> str:
        """Human-readable label for reports (default: the registry name)."""
        return self.name

    def _require_context(self) -> PolicyContext:
        if self.context is None:
            raise MissionError(
                f"policy {self.name!r} used before reset(context)"
            )
        return self.context


#: Registry of policy classes, populated by :func:`register_policy`.
POLICIES: dict[str, type[Policy]] = {}


def register_policy(cls: type[Policy]) -> type[Policy]:
    """Class decorator registering a policy under its ``name``."""
    if not cls.name or cls.name == "abstract":
        raise MissionError("a registered policy needs a concrete name")
    if cls.name in POLICIES:
        raise MissionError(f"policy {cls.name!r} already registered")
    POLICIES[cls.name] = cls
    return cls


def make_policy(name: str, **params: Any) -> Policy:
    """Instantiate a registered policy by name."""
    if name not in POLICIES:
        raise MissionError(
            f"unknown policy {name!r}; available: {sorted(POLICIES)}"
        )
    try:
        return POLICIES[name](**params)
    except TypeError as exc:
        raise MissionError(
            f"bad parameters for policy {name!r}: {exc}"
        ) from exc


def policy_from_dict(payload: str | dict[str, Any]) -> Policy:
    """Build a policy from its campaign form.

    Accepts a bare registry name or ``{"name": ..., "params": {...}}`` —
    the JSON-safe shape mission campaign grids sweep.
    """
    if isinstance(payload, str):
        return make_policy(payload)
    try:
        name = payload["name"]
    except (KeyError, TypeError) as exc:
        raise MissionError(
            f"policy payload needs a 'name': {payload!r}"
        ) from exc
    return make_policy(name, **payload.get("params", {}))


def policy_from_token(token: str) -> Policy:
    """Parse a CLI policy token.

    ``"hysteresis"`` is a bare registry name; ``"static:dream@0.65"``
    pins the static policy to an operating point.
    """
    name, _, arg = token.partition(":")
    name = name.strip()
    if not arg:
        return make_policy(name)
    if name != "static":
        raise MissionError(
            f"only 'static' takes an operating-point argument, got {token!r}"
        )
    emt_name, sep, voltage = arg.partition("@")
    if not sep:
        raise MissionError(
            f"static operating point must be 'emt@voltage', got {arg!r}"
        )
    try:
        return StaticPolicy(emt=emt_name.strip(), voltage=float(voltage))
    except ValueError as exc:
        raise MissionError(f"bad voltage in {token!r}: {exc}") from exc


def _fraction_to_index(fraction: float, n_levels: int) -> int:
    """Map a ladder fraction in [0, 1] to the nearest rung index."""
    return max(0, min(n_levels - 1, round(fraction * (n_levels - 1))))


@register_policy
class StaticPolicy(Policy):
    """The design-time answer: one fixed operating point.

    Pin the rung with ``emt``/``voltage`` (resolved against the ladder at
    reset) or ``index``; with neither, the top (most capable) rung is
    used — the conservative product default.
    """

    name = "static"

    def __init__(
        self,
        emt: str | None = None,
        voltage: float | None = None,
        index: int | None = None,
    ) -> None:
        super().__init__()
        if index is not None and (emt is not None or voltage is not None):
            raise MissionError(
                "give either an index or an (emt, voltage) pair, not both"
            )
        if (emt is None) != (voltage is None):
            raise MissionError(
                "emt and voltage must be given together"
            )
        self._emt = emt
        self._voltage = voltage
        self._requested_index = index
        self._index = 0

    def reset(self, context: PolicyContext) -> None:
        super().reset(context)
        if self._emt is not None:
            for point in context.ladder:
                if (
                    point.emt_name == self._emt
                    and abs(point.voltage - float(self._voltage)) < 1e-9
                ):
                    self._index = point.index
                    break
            else:
                raise MissionError(
                    f"operating point {self._emt}@{self._voltage} is not on "
                    f"the ladder: {[p.label for p in context.ladder]}"
                )
        elif self._requested_index is not None:
            if not 0 <= self._requested_index < context.n_levels:
                raise MissionError(
                    f"ladder index {self._requested_index} out of range "
                    f"[0, {context.n_levels})"
                )
            self._index = self._requested_index
        else:
            self._index = context.top()

    def decide(self, obs: Observation) -> int:
        self._require_context()
        return self._index

    def describe(self) -> str:
        context = self.context
        if context is not None:
            return f"static:{context.ladder[self._index].label}"
        if self._emt is not None:
            return f"static:{self._emt}@{self._voltage:.2f}"
        return "static"


@register_policy
class QualityThresholdPolicy(Policy):
    """Reactive threshold control on the observed window quality.

    If the last window degraded below ``target_db``, climb one rung; if
    it exceeded ``target_db + margin_db``, descend one.  Purely reactive:
    the first window of a disturbance is always processed at the old
    rung, which is the lag the hysteresis controller's feed-forward term
    removes.
    """

    name = "quality"

    def __init__(self, target_db: float = 40.0, margin_db: float = 30.0):
        super().__init__()
        if margin_db < 0:
            raise MissionError(
                f"margin must be non-negative, got {margin_db}"
            )
        self.target_db = target_db
        self.margin_db = margin_db

    def decide(self, obs: Observation) -> int:
        self._require_context()
        if obs.last_snr_db is None:
            return obs.current_index
        if obs.last_snr_db < self.target_db:
            return obs.current_index + 1
        if obs.last_snr_db > self.target_db + self.margin_db:
            return obs.current_index - 1
        return obs.current_index


@register_policy
class SoCSchedulerPolicy(Policy):
    """Battery-state-of-charge scheduler.

    ``bands`` maps a minimum state of charge to a ladder fraction,
    descending: with the default ``((0.5, 1.0), (0.2, 0.5), (0.0, 0.0))``
    the node runs the top rung while more than half the charge remains,
    the mid-ladder down to 20 %, and the cheapest rung on the last dregs
    — graceful quality degradation instead of an early death.
    """

    name = "soc"

    def __init__(
        self,
        bands: tuple[tuple[float, float], ...] = (
            (0.5, 1.0),
            (0.2, 0.5),
            (0.0, 0.0),
        ),
    ) -> None:
        super().__init__()
        bands = tuple((float(s), float(f)) for s, f in bands)
        if not bands:
            raise MissionError("the scheduler needs at least one band")
        if any(not 0.0 <= s <= 1.0 or not 0.0 <= f <= 1.0 for s, f in bands):
            raise MissionError(
                f"band thresholds and fractions must be in [0, 1]: {bands}"
            )
        if list(bands) != sorted(bands, key=lambda b: -b[0]):
            raise MissionError(
                f"bands must be sorted by descending SoC threshold: {bands}"
            )
        if bands[-1][0] != 0.0:
            raise MissionError("the last band must cover SoC 0.0")
        self.bands = bands
        self._rungs: tuple[tuple[float, int], ...] = ()

    def reset(self, context: PolicyContext) -> None:
        super().reset(context)
        self._rungs = tuple(
            (min_soc, _fraction_to_index(fraction, context.n_levels))
            for min_soc, fraction in self.bands
        )

    def decide(self, obs: Observation) -> int:
        self._require_context()
        for min_soc, rung in self._rungs:
            if obs.soc >= min_soc:
                return rung
        return 0  # pragma: no cover - last band covers soc 0


@register_policy
class HysteresisPolicy(Policy):
    """Dead-band controller with stress feed-forward.

    Control law, evaluated before each window:

    * feed-forward: if the stress hint is at or above
      ``stress_threshold``, jump to at least the ``stress_fraction``
      rung *now* — the disturbance is handled before it corrupts a
      window;
    * climb: if the last window fell below ``low_db``, step up one rung;
    * descend: only after the quality has held above ``high_db`` for
      ``dwell`` consecutive windows, step down one rung.

    The asymmetric band plus the dwell is what keeps the switch count
    low: threshold controllers without it oscillate around the band
    edge, and every switch costs reconfiguration energy on real silicon.
    """

    name = "hysteresis"

    def __init__(
        self,
        low_db: float = 35.0,
        high_db: float = 70.0,
        dwell: int = 5,
        stress_threshold: float = 0.5,
        stress_fraction: float = 1.0,
    ) -> None:
        super().__init__()
        if high_db < low_db:
            raise MissionError(
                f"dead band is inverted: low {low_db} > high {high_db}"
            )
        if dwell < 1:
            raise MissionError(f"dwell must be >= 1, got {dwell}")
        if not 0.0 <= stress_fraction <= 1.0:
            raise MissionError(
                f"stress fraction must be in [0, 1], got {stress_fraction}"
            )
        self.low_db = low_db
        self.high_db = high_db
        self.dwell = dwell
        self.stress_threshold = stress_threshold
        self.stress_fraction = stress_fraction
        self._held = 0
        self._stress_floor = 0

    def reset(self, context: PolicyContext) -> None:
        super().reset(context)
        self._held = 0
        self._stress_floor = _fraction_to_index(
            self.stress_fraction, context.n_levels
        )

    def decide(self, obs: Observation) -> int:
        self._require_context()
        if obs.stress_hint >= self.stress_threshold:
            self._held = 0
            return max(obs.current_index, self._stress_floor)
        if obs.last_snr_db is None:
            return obs.current_index
        if obs.last_snr_db < self.low_db:
            self._held = 0
            return obs.current_index + 1
        if obs.last_snr_db > self.high_db:
            self._held += 1
            if self._held >= self.dwell:
                self._held = 0
                return obs.current_index - 1
        else:
            self._held = 0
        return obs.current_index


#: Convenience alias: signature of a policy factory.
PolicyFactory = Callable[[], Policy]
