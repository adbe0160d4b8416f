"""Cross-run diff: golden assertions over two committed mini-traces.

``data/mini_a.jsonl`` -> ``data/mini_b.jsonl`` is a deliberately
regressed pair: every shared span path slowed beyond the 25 %
threshold, one path is new on the b side, one point failed, and the
metrics moved in known ways — so every rendered feature of
``repro report --diff`` is pinned by value.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import TraceFold, diff_events, load_trace, render_diff

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def diff():
    return diff_events(
        TraceFold(load_trace(DATA / "mini_a.jsonl")),
        TraceFold(load_trace(DATA / "mini_b.jsonl")),
    )


def test_sides_identify_the_runs(diff):
    assert diff["a"]["run_id"] == "mini-a"
    assert diff["b"]["run_id"] == "mini-b"
    assert diff["a"]["wall_s"] == pytest.approx(1.0)
    assert diff["b"]["wall_s"] == pytest.approx(1.5)
    assert (diff["a"]["failed"], diff["b"]["failed"]) == (0, 1)
    assert diff["a"]["attrs"]["kind"] == "sweep"


def test_span_rows_cover_the_union_sorted_by_delta(diff):
    rows = {row["path"]: row for row in diff["spans"]}
    point = rows[("session.run", "campaign", "point")]
    assert (point["count_a"], point["count_b"]) == (2, 2)
    assert point["total_a"] == pytest.approx(0.45)
    assert point["total_b"] == pytest.approx(0.95)
    assert point["delta_s"] == pytest.approx(0.5)
    assert point["pct"] == pytest.approx(0.5 / 0.45)
    assert point["regression"]
    assert (point["failed_a"], point["failed_b"]) == (0, 1)

    # calibrate exists only on the b side: counts 0 there, pct None.
    calibrate = rows[("session.run", "campaign", "calibrate")]
    assert (calibrate["count_a"], calibrate["count_b"]) == (0, 1)
    assert calibrate["pct"] is None
    assert calibrate["regression"]  # new 0.3 s of work is a regression

    # Sorted by |delta|, biggest mover first.
    deltas = [abs(row["delta_s"]) for row in diff["spans"]]
    assert deltas == sorted(deltas, reverse=True)


def test_metric_rows_fold_both_sides(diff):
    rows = {row["name"]: row for row in diff["metrics"]}
    executed = rows["campaign.points_executed"]
    assert (executed["a"], executed["b"], executed["delta"]) == (2, 2, 0)

    failed = rows["campaign.points_failed"]  # b-side only
    assert failed["a"] is None
    assert failed["b"] == 1
    assert failed["delta"] is None

    throughput = rows["mission.windows_per_s"]
    assert throughput["delta"] == pytest.approx(-200.0)
    assert throughput["pct"] == pytest.approx(-0.2)

    # Histograms compare their mean: 0.02/2 -> 0.06/2.
    append = rows["store.append_s"]
    assert append["a"] == pytest.approx(0.01)
    assert append["b"] == pytest.approx(0.03)
    assert append["delta"] == pytest.approx(0.02)


def test_render_diff_golden(diff):
    text = render_diff(diff)
    assert "Run diff — a: mini-a  ->  b: mini-b" in text
    assert "wall time 1.000 s -> 1.500 s" in text
    assert "spans 4 -> 5" in text
    assert "failed 0 -> 1" in text
    assert "REGRESSION" in text
    assert "[failed 0->1]" in text
    assert "  (new)" in text  # the b-only calibrate path
    # All four paths (session.run, campaign, point, calibrate) slowed
    # beyond the 25% threshold.
    assert "4 span path(s) regressed more than 25%" in text


def test_top_limits_span_rows(diff):
    text = render_diff(diff, top=1)
    assert "top 1 by |delta|" in text


def test_identical_runs_have_no_regressions():
    events = TraceFold(load_trace(DATA / "mini_a.jsonl"))
    text = render_diff(diff_events(events, events))
    assert "No span-path regressions beyond 25%" in text
    assert "REGRESSION" not in text


def test_cli_report_diff(capsys):
    code = main(
        ["report", "--diff", str(DATA / "mini_a.jsonl"),
         str(DATA / "mini_b.jsonl")]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Run diff — a: mini-a  ->  b: mini-b" in out
    assert "REGRESSION" in out


def test_cli_report_diff_requires_two_targets(capsys):
    assert main(["report", "--diff", str(DATA / "mini_a.jsonl")]) == 1
    assert "exactly two" in capsys.readouterr().err
