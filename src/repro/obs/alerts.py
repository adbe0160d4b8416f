"""Threshold alert rules over the trace-event schema.

Rules are declarative bounds on a run's folded metrics — a quality
floor per phenotype, a minimum fleet throughput, a maximum failed-point
count, a minimum cache hit rate — loaded from TOML and evaluated two
ways against the *same* :class:`~repro.obs.report.TraceFold`:

* **post-hoc** — ``repro report <run> --alerts rules.toml`` evaluates
  the finished trace and exits non-zero when any rule is breached (the
  CI gate);
* **live** — ``repro watch ... --alerts rules.toml`` re-evaluates every
  frame as events stream in, so a degrading fleet flags while it runs.

A rules file is a list of ``[[rule]]`` tables::

    [[rule]]
    name = "quality-floor-pvc"
    metric = "fleet.quality_p10_db"
    min = 2.0
    attrs = { phenotype = "119" }

    [[rule]]
    name = "no-failed-patients"
    metric = "fleet.patients_failed"
    max = 0

    [[rule]]
    name = "cache-warm"
    metric = "cache.hit_rate"
    min = 0.25
    severity = "warning"        # report, but never fail the exit code

``metric`` names a folded metric series (the ``series`` view of
:class:`repro.obs.report.TraceFold` — counters summed, gauges keep
their latest write, histograms merged, per ``(name, attrs)``) or one of
the derived metrics ``cache.hit_rate``, ``spans.failed`` and
``wall_s``.  Histogram metrics compare their mean; append
``.count``/``.sum``/``.min``/``.max`` to bound another facet.
``attrs`` restricts the rule to series carrying those attributes
(subset match); a derived metric is computed over the whole trace, so
it rejects ``attrs``.  When several series match — e.g. one gauge per
phenotype — a ``min`` bound is checked against the *worst* (smallest)
series and a ``max`` bound against the largest: an alert fires when
*any* series breaches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..errors import ObsError
from .report import TraceFold

__all__ = [
    "AlertRule",
    "AlertOutcome",
    "DERIVED_METRICS",
    "load_rules",
    "rules_from_payload",
    "evaluate_rules",
    "breached",
    "render_outcomes",
]

#: Metrics computed from the trace rather than read from one series.
DERIVED_METRICS = ("cache.hit_rate", "spans.failed", "wall_s")

#: Valid rule severities; only ``error`` breaches affect exit codes.
SEVERITIES = ("error", "warning")

#: Histogram facet suffixes a rule's metric name may carry.
_HIST_FACETS = ("count", "sum", "min", "max", "mean")


@dataclass(frozen=True)
class AlertRule:
    """One declarative bound on a run metric.

    Attributes:
        name: rule identifier (shown in every report line).
        metric: folded metric name, derived metric, or
            ``<histogram>.<facet>``.
        min / max: the bound(s); at least one must be set.  The rule
            fires when the observed value falls below ``min`` or rises
            above ``max``.
        attrs: attribute subset a metric series must carry to be
            considered (e.g. ``{"phenotype": "119"}``).
        severity: ``"error"`` (default; breaches gate the exit code) or
            ``"warning"`` (reported only).
        require: when true, a missing metric is itself a breach —
            for CI rules that must never silently skip.
        description: free-form context echoed in reports.
    """

    name: str
    metric: str
    min: float | None = None
    max: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    severity: str = "error"
    require: bool = False
    description: str = ""


@dataclass(frozen=True)
class AlertOutcome:
    """One rule's evaluation against one set of events.

    ``status`` is ``"ok"``, ``"breached"`` or ``"missing"`` (no series
    matched).  ``value`` is the bound-relevant observation (worst
    series for ``min``, largest for ``max``), ``None`` when missing.
    """

    rule: AlertRule
    status: str
    value: float | None
    message: str

    @property
    def fired(self) -> bool:
        """True when this outcome should gate an exit code."""
        if self.rule.severity != "error":
            return False
        return self.status == "breached" or (
            self.status == "missing" and self.rule.require
        )


def rules_from_payload(payload: dict[str, Any]) -> list[AlertRule]:
    """Parse a rules payload (the parsed TOML) into validated rules."""
    tables = payload.get("rule")
    if not isinstance(tables, list) or not tables:
        raise ObsError(
            "alert rules must be a non-empty list of [[rule]] tables"
        )
    rules: list[AlertRule] = []
    seen: set[str] = set()
    for index, table in enumerate(tables):
        if not isinstance(table, dict):
            raise ObsError(f"rule[{index}] is not a table")
        where = f"rule[{index}]"
        name = table.get("name")
        if not isinstance(name, str) or not name:
            raise ObsError(f"{where} needs a non-empty 'name'")
        if name in seen:
            raise ObsError(f"duplicate rule name {name!r}")
        seen.add(name)
        metric = table.get("metric")
        if not isinstance(metric, str) or not metric:
            raise ObsError(f"rule {name!r} needs a non-empty 'metric'")
        lo, hi = table.get("min"), table.get("max")
        if lo is None and hi is None:
            raise ObsError(f"rule {name!r} needs a 'min' and/or 'max' bound")
        for label, bound in (("min", lo), ("max", hi)):
            if bound is not None and not isinstance(
                bound, (int, float)
            ):
                raise ObsError(f"rule {name!r} {label} must be numeric")
        if lo is not None and hi is not None and float(lo) > float(hi):
            raise ObsError(f"rule {name!r} has min > max")
        severity = table.get("severity", "error")
        if severity not in SEVERITIES:
            raise ObsError(
                f"rule {name!r} severity {severity!r} not in {SEVERITIES}"
            )
        attrs = table.get("attrs", {})
        if not isinstance(attrs, dict):
            raise ObsError(f"rule {name!r} attrs must be a table")
        if attrs and metric in DERIVED_METRICS:
            raise ObsError(
                f"rule {name!r}: derived metric {metric!r} is computed "
                "over the whole trace and takes no attrs"
            )
        unknown = set(table) - {
            "name", "metric", "min", "max", "attrs", "severity",
            "require", "description",
        }
        if unknown:
            raise ObsError(
                f"rule {name!r} has unknown keys {sorted(unknown)}"
            )
        rules.append(
            AlertRule(
                name=name,
                metric=metric,
                min=None if lo is None else float(lo),
                max=None if hi is None else float(hi),
                attrs=dict(attrs),
                severity=severity,
                require=bool(table.get("require", False)),
                description=str(table.get("description", "")),
            )
        )
    return rules


def load_rules(path: Path | str) -> list[AlertRule]:
    """Load and validate a TOML alert-rules file."""
    import tomllib

    source = Path(path)
    try:
        text = source.read_text(encoding="utf-8")
    except OSError as exc:
        raise ObsError(f"cannot read alert rules {source}: {exc}") from exc
    try:
        payload = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ObsError(f"{source} is not valid TOML: {exc}") from exc
    try:
        return rules_from_payload(payload)
    except ObsError as exc:
        raise ObsError(f"{source}: {exc}") from exc


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------


def _split_facet(metric: str) -> tuple[str, str | None]:
    """Peel an optional histogram facet suffix off a metric name."""
    base, _, facet = metric.rpartition(".")
    if base and facet in _HIST_FACETS:
        return base, facet
    return metric, None


def _series_value(slot: dict[str, Any], facet: str | None) -> float | None:
    """One folded series as a comparable scalar."""
    value = slot["value"]
    if slot["kind"] != "histogram":
        return float(value)
    if facet is None or facet == "mean":
        return value["sum"] / value["count"] if value["count"] else None
    return float(value[facet])


def _matching_values(
    rule: AlertRule,
    series: dict[tuple[str, tuple], dict[str, Any]],
    metric: str,
    facet: str | None,
) -> list[float]:
    values: list[float] = []
    required = rule.attrs.items()
    for (name, _attr_key), slot in series.items():
        if name != metric:
            continue
        attrs = slot["attrs"]
        if any(attrs.get(key) != want for key, want in required):
            continue
        value = _series_value(slot, facet)
        if value is not None:
            values.append(value)
    return values


def _derived_value(metric: str, fold: TraceFold) -> float | None:
    if metric == "wall_s":
        return float(fold.wall_s)
    if metric == "spans.failed":
        return float(len(fold.failed()))
    if metric == "cache.hit_rate":
        return fold.cache().get("hit_rate")
    return None


def evaluate_rules(
    rules: list[AlertRule], fold: TraceFold
) -> list[AlertOutcome]:
    """Evaluate every rule against one run's :class:`TraceFold`.

    Pure and side-effect-free: the watch loop re-invokes it per frame
    over the fold of everything tailed so far, the report path once
    over the full trace.
    """
    series = fold.series
    outcomes: list[AlertOutcome] = []
    for rule in rules:
        metric, facet = _split_facet(rule.metric)
        if rule.metric in DERIVED_METRICS:
            value = _derived_value(rule.metric, fold)
            values = [] if value is None else [value]
        else:
            values = _matching_values(rule, series, metric, facet)
            if not values and facet is not None:
                # Not a histogram facet after all — a plain metric whose
                # name happens to end in e.g. ".count".
                values = _matching_values(rule, series, rule.metric, None)
        if not values:
            outcomes.append(
                AlertOutcome(
                    rule, "missing", None,
                    f"{rule.metric}: no matching metric recorded",
                )
            )
            continue
        # Any-series-breaches semantics: a floor is judged against the
        # worst series, a ceiling against the largest.
        breaches: list[str] = []
        observed: float = values[0]
        if rule.min is not None:
            observed = min(values)
            if observed < rule.min:
                breaches.append(f"{observed:.6g} < min {rule.min:.6g}")
        if rule.max is not None:
            worst_high = max(values)
            if worst_high > rule.max:
                observed = worst_high
                breaches.append(f"{worst_high:.6g} > max {rule.max:.6g}")
            elif rule.min is None:
                observed = worst_high
        if breaches:
            outcomes.append(
                AlertOutcome(
                    rule, "breached", observed,
                    f"{rule.metric} = " + "; ".join(breaches)
                    + (f" over {len(values)} series"
                       if len(values) > 1 else ""),
                )
            )
        else:
            bounds = []
            if rule.min is not None:
                bounds.append(f">= {rule.min:.6g}")
            if rule.max is not None:
                bounds.append(f"<= {rule.max:.6g}")
            outcomes.append(
                AlertOutcome(
                    rule, "ok", observed,
                    f"{rule.metric} = {observed:.6g} ({', '.join(bounds)})",
                )
            )
    return outcomes


def breached(outcomes: list[AlertOutcome]) -> bool:
    """True when any outcome should gate a non-zero exit."""
    return any(outcome.fired for outcome in outcomes)


def render_outcomes(outcomes: list[AlertOutcome]) -> str:
    """The alert section text (report and watch render the same)."""
    n_fired = sum(1 for outcome in outcomes if outcome.fired)
    lines = [
        f"Alerts ({len(outcomes)} rule(s), {n_fired} firing):"
    ]
    for outcome in outcomes:
        rule = outcome.rule
        if outcome.status == "breached":
            marker = "ALERT" if rule.severity == "error" else "warn "
        elif outcome.status == "missing":
            marker = "ALERT" if outcome.fired else "  -  "
        else:
            marker = "  ok "
        suffix = f"  [{rule.description}]" if rule.description else ""
        lines.append(f"  {marker} {rule.name}: {outcome.message}{suffix}")
    return "\n".join(lines)
