"""Alert rules: TOML validation, evaluation semantics, exit codes.

Evaluation runs against the committed mini-traces, whose metric values
are fixed — every firing / not-firing assertion here is by construction,
not by tolerance.  The CLI tests pin the CI contract: a breached
``error`` rule is exit 1 from both ``repro report`` and ``repro
watch``; warnings and satisfied rules are exit 0.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ObsError
from repro.obs import TraceFold, load_rules, load_trace
from repro.obs.alerts import (
    AlertRule,
    breached,
    evaluate_rules,
    render_outcomes,
    rules_from_payload,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def events_b():
    return TraceFold(load_trace(DATA / "mini_b.jsonl"))


def write_rules(tmp_path, text: str) -> Path:
    path = tmp_path / "rules.toml"
    path.write_text(text, encoding="utf-8")
    return path


# --------------------------------------------------------------------------
# Loading and validation
# --------------------------------------------------------------------------


def test_load_rules_round_trip(tmp_path):
    path = write_rules(
        tmp_path,
        """
        [[rule]]
        name = "quality-floor"
        metric = "fleet.quality_p10_db"
        min = 2.0
        attrs = { phenotype = "119" }
        description = "worst-decile SNR floor"

        [[rule]]
        name = "no-failures"
        metric = "campaign.points_failed"
        max = 0
        severity = "warning"
        require = true
        """,
    )
    rules = load_rules(path)
    assert [rule.name for rule in rules] == ["quality-floor", "no-failures"]
    assert rules[0].min == 2.0 and rules[0].max is None
    assert rules[0].attrs == {"phenotype": "119"}
    assert rules[1].severity == "warning" and rules[1].require


@pytest.mark.parametrize(
    ("payload", "message"),
    [
        ({}, "non-empty list"),
        ({"rule": [{"metric": "m", "min": 1}]}, "non-empty 'name'"),
        ({"rule": [{"name": "r", "min": 1}]}, "non-empty 'metric'"),
        ({"rule": [{"name": "r", "metric": "m"}]}, "'min' and/or 'max'"),
        (
            {"rule": [{"name": "r", "metric": "m", "min": "low"}]},
            "must be numeric",
        ),
        (
            {"rule": [{"name": "r", "metric": "m", "min": 2, "max": 1}]},
            "min > max",
        ),
        (
            {"rule": [{"name": "r", "metric": "m", "min": 1,
                       "severity": "fatal"}]},
            "severity",
        ),
        (
            {"rule": [{"name": "r", "metric": "m", "min": 1,
                       "threshold": 2}]},
            "unknown keys",
        ),
        (
            {"rule": [
                {"name": "r", "metric": "m", "min": 1},
                {"name": "r", "metric": "m", "max": 2},
            ]},
            "duplicate rule name",
        ),
        (
            {"rule": [{"name": "r", "metric": "cache.hit_rate", "min": 0.5,
                       "attrs": {"policy": "no-such-policy"}}]},
            "takes no attrs",
        ),
    ],
)
def test_invalid_payloads_rejected(payload, message):
    with pytest.raises(ObsError, match=message):
        rules_from_payload(payload)


def test_load_rules_bad_toml(tmp_path):
    path = write_rules(tmp_path, "[[rule\nname=")
    with pytest.raises(ObsError, match="not valid TOML"):
        load_rules(path)


# --------------------------------------------------------------------------
# Evaluation semantics (values fixed by data/mini_b.jsonl)
# --------------------------------------------------------------------------


def outcome_of(rule: AlertRule, events) -> tuple[str, bool]:
    (outcome,) = evaluate_rules([rule], events)
    return outcome.status, outcome.fired


def test_floor_fires_on_worst_series(events_b):
    # quality_p10_db series: 3.0 (phenotype 100) and 1.5 (phenotype 119);
    # an unscoped floor of 2.0 is judged against the worst series.
    rule = AlertRule(name="floor", metric="fleet.quality_p10_db", min=2.0)
    (outcome,) = evaluate_rules([rule], events_b)
    assert outcome.status == "breached" and outcome.fired
    assert outcome.value == 1.5
    assert "over 2 series" in outcome.message


def test_attrs_scope_selects_one_series(events_b):
    ok_rule = AlertRule(
        name="floor-100", metric="fleet.quality_p10_db", min=2.0,
        attrs={"phenotype": "100"},
    )
    assert outcome_of(ok_rule, events_b) == ("ok", False)
    bad_rule = AlertRule(
        name="floor-119", metric="fleet.quality_p10_db", min=2.0,
        attrs={"phenotype": "119"},
    )
    assert outcome_of(bad_rule, events_b) == ("breached", True)


def test_ceiling_fires_above_max(events_b):
    rule = AlertRule(name="cap", metric="campaign.points_failed", max=0)
    assert outcome_of(rule, events_b) == ("breached", True)
    loose = AlertRule(name="cap", metric="campaign.points_failed", max=5)
    assert outcome_of(loose, events_b) == ("ok", False)


def test_warning_severity_never_gates(events_b):
    rule = AlertRule(
        name="soft", metric="fleet.quality_p10_db", min=200.0,
        severity="warning",
    )
    (outcome,) = evaluate_rules([rule], events_b)
    assert outcome.status == "breached" and not outcome.fired
    assert not breached([outcome])


def test_missing_metric_fires_only_with_require(events_b):
    absent = AlertRule(name="gone", metric="no.such.metric", min=1.0)
    assert outcome_of(absent, events_b) == ("missing", False)
    required = AlertRule(
        name="gone", metric="no.such.metric", min=1.0, require=True,
    )
    assert outcome_of(required, events_b) == ("missing", True)


def test_derived_metrics(events_b):
    # mini_b: 4 computed, 0 hits -> hit rate 0; wall 1.5 s; 1 failed span.
    assert outcome_of(
        AlertRule(name="warm", metric="cache.hit_rate", min=0.5), events_b
    ) == ("breached", True)
    assert outcome_of(
        AlertRule(name="wall", metric="wall_s", max=10.0), events_b
    ) == ("ok", False)
    assert outcome_of(
        AlertRule(name="spans", metric="spans.failed", max=0), events_b
    ) == ("breached", True)


def test_derived_hit_rate_missing_without_lookups():
    events = TraceFold(load_trace(DATA / "mini_partial.jsonl")[:2])  # no cache counters
    rule = AlertRule(name="warm", metric="cache.hit_rate", min=0.5)
    assert outcome_of(rule, events) == ("missing", False)


def test_histogram_facets(events_b):
    # store.append_s on the b side: {count: 2, sum: 0.06, max: 0.04}.
    assert outcome_of(
        AlertRule(name="mean", metric="store.append_s", max=0.01), events_b
    ) == ("breached", True)
    assert outcome_of(
        AlertRule(name="max", metric="store.append_s.max", max=0.05),
        events_b,
    ) == ("ok", False)
    assert outcome_of(
        AlertRule(name="count", metric="store.append_s.count", min=2),
        events_b,
    ) == ("ok", False)


def test_render_outcomes_markers(events_b):
    rules = [
        AlertRule(name="hard", metric="fleet.quality_p10_db", min=200.0),
        AlertRule(
            name="soft", metric="fleet.quality_p10_db", min=200.0,
            severity="warning",
        ),
        AlertRule(name="fine", metric="campaign.points_executed", min=1),
        AlertRule(name="gone", metric="no.such.metric", min=1),
    ]
    text = render_outcomes(evaluate_rules(rules, events_b))
    assert "4 rule(s), 1 firing" in text
    assert "ALERT hard" in text
    assert "warn  soft" in text
    assert "ok  fine" in text
    assert "-   gone" in text


# --------------------------------------------------------------------------
# CLI exit codes (the CI gating contract)
# --------------------------------------------------------------------------


def test_cli_report_alerts_breach_exits_one(tmp_path, capsys):
    rules = write_rules(
        tmp_path,
        """
        [[rule]]
        name = "quality-floor"
        metric = "fleet.quality_p10_db"
        min = 2.0
        """,
    )
    code = main(
        ["report", str(DATA / "mini_b.jsonl"), "--alerts", str(rules)]
    )
    assert code == 1
    assert "ALERT quality-floor" in capsys.readouterr().out


def test_cli_report_alerts_satisfied_exits_zero(tmp_path, capsys):
    rules = write_rules(
        tmp_path,
        """
        [[rule]]
        name = "quality-floor"
        metric = "fleet.quality_p10_db"
        min = 1.0
        """,
    )
    code = main(
        ["report", str(DATA / "mini_b.jsonl"), "--alerts", str(rules)]
    )
    assert code == 0
    assert "0 firing" in capsys.readouterr().out


def test_cli_report_diff_alerts_evaluate_second_run(tmp_path, capsys):
    # The floor holds on run a (worst series 2.5) but not on b (1.5):
    # --diff evaluates the rules against the second (newer) run.
    rules = write_rules(
        tmp_path,
        """
        [[rule]]
        name = "quality-floor"
        metric = "fleet.quality_p10_db"
        min = 2.0
        """,
    )
    code = main(
        ["report", "--diff", str(DATA / "mini_a.jsonl"),
         str(DATA / "mini_b.jsonl"), "--alerts", str(rules)]
    )
    assert code == 1
    assert "ALERT quality-floor" in capsys.readouterr().out

    code = main(
        ["report", "--diff", str(DATA / "mini_b.jsonl"),
         str(DATA / "mini_a.jsonl"), "--alerts", str(rules)]
    )
    assert code == 0


def test_cli_watch_alerts_exit_codes(tmp_path, capsys):
    breach = write_rules(
        tmp_path,
        """
        [[rule]]
        name = "throughput-floor"
        metric = "mission.windows_per_s"
        min = 5000.0
        """,
    )
    code = main(
        ["watch", str(DATA / "mini_a.jsonl"), "--once",
         "--alerts", str(breach), "--trace-dir", str(tmp_path)]
    )
    assert code == 1
    assert "ALERT throughput-floor" in capsys.readouterr().out
