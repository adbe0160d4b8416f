"""ASCII renderers: print the paper's tables and figure series.

Every experiment driver has a matching ``format_*`` function producing
the rows/series the paper reports, so the benchmark harness can print
paper-comparable output without any plotting dependency.
"""

from __future__ import annotations

from ..errors import ExperimentError
from .energy_table import EnergyAnalysis
from .fig2 import Fig2Result
from .fig4 import Fig4Result
from .overheads import OverheadRow
from .tradeoff import TradeoffResult

__all__ = [
    "format_fig2",
    "format_fig4",
    "format_energy_analysis",
    "format_tradeoff",
    "format_paper_example",
    "format_overheads",
    "format_frontier",
    "format_operating_points",
    "format_mission",
    "format_fleet",
    "format_survival",
]


def _table(header: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells: list[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))
    separator = "  ".join("-" * w for w in widths)
    return "\n".join([line(header), separator] + [line(r) for r in rows])


def format_fig2(result: Fig2Result) -> str:
    """Fig 2 as one table per stuck value: SNR(dB) x bit position."""
    blocks = []
    for stuck_value in (1, 0):
        header = ["bit"] + sorted(result.snr_db)
        rows = []
        for position in result.positions:
            row = [str(position)]
            for app in sorted(result.snr_db):
                row.append(f"{result.snr_db[app][stuck_value][position]:7.1f}")
            rows.append(row)
        blocks.append(
            f"Fig 2 — SNR (dB) vs bit position, stuck-at-{stuck_value}\n"
            + _table(header, rows)
        )
    return "\n\n".join(blocks)


def format_fig4(result: Fig4Result, emt_name: str) -> str:
    """One panel of Fig 4 (an EMT): SNR(dB) x voltage, per application."""
    apps = sorted(result.points)
    if not apps:
        raise ExperimentError("empty Fig 4 result")
    header = ["V"] + apps
    rows = []
    for voltage in result.voltages:
        row = [f"{voltage:.2f}"]
        for app in apps:
            row.append(
                f"{result.points[app][voltage].snr_mean_db[emt_name]:7.1f}"
            )
        rows.append(row)
    panel = {"none": "a (No protection)", "dream": "b (DREAM)",
             "secded": "c (ECC SEC/DED)"}.get(emt_name, emt_name)
    return f"Fig 4.{panel} — SNR (dB) vs supply voltage\n" + _table(header, rows)


def format_energy_analysis(analysis: EnergyAnalysis) -> str:
    """Section VI-B: overhead per voltage plus the headline ratios."""
    emts = [name for name in analysis.overhead if name != "none"]
    header = ["V"] + [f"{name} ovh%" for name in emts]
    rows = []
    for voltage in analysis.voltages:
        row = [f"{voltage:.2f}"]
        for name in emts:
            row.append(f"{analysis.overhead[name][voltage] * 100:6.1f}")
        rows.append(row)
    lines = ["Section VI-B — energy overhead vs no protection",
             _table(header, rows), ""]
    for name in emts:
        lines.append(
            f"mean {name} overhead: {analysis.mean_overhead(name) * 100:.1f}%"
            + (" (paper: ~34%)" if name == "dream" else "")
            + (" (paper: ~55%)" if name == "secded" else "")
        )
    if "dream" in emts and "secded" in emts:
        lines.append(
            "overhead reduction DREAM vs ECC: "
            f"{analysis.overhead_reduction_points() * 100:.1f} points "
            "(paper: ~21)"
        )
        lines.append(
            f"DREAM energy saving vs ECC: "
            f"{analysis.dream_saving_vs_ecc() * 100:.1f}%"
        )
        lines.append(
            f"encoder area ratio ECC/DREAM: {analysis.encoder_area_ratio:.2f} "
            "(paper: 1.28)"
        )
        lines.append(
            f"decoder area ratio ECC/DREAM: {analysis.decoder_area_ratio:.2f} "
            "(paper: 2.20)"
        )
    return "\n".join(lines)


def format_tradeoff(result: TradeoffResult) -> str:
    """Section VI-C: per-EMT safe voltages, savings and the policy."""
    header = ["EMT", "V_min safe", "saving vs 0.9V none"]
    rows = [
        [p.emt_name, f"{p.v_min_safe:.2f}", f"{p.saving_vs_nominal * 100:6.1f}%"]
        for p in result.operating_points
    ]
    lines = [
        f"Section VI-C — {result.app_name} @ -{result.tolerance_db:.1f} dB "
        f"tolerance (ref {result.reference_snr_db:.1f} dB)",
        _table(header, rows),
        "(paper: none@0.85 12.7%, DREAM@0.65 30.6%, ECC@0.55 39.5%)",
        "",
        "hybrid policy:",
    ]
    for entry in result.policy:
        saving = (
            f"  save {entry.saving_pct:5.1f}%" if entry.saving_pct is not None else ""
        )
        lines.append(
            f"  [{entry.v_min:.2f}; {entry.v_max:.2f}] V -> "
            f"{entry.emt_name}{saving}"
        )
    return "\n".join(lines)


def format_paper_example(points) -> str:
    """Savings at the paper's illustrative VI-C operating points."""
    from .tradeoff import PAPER_EXAMPLE_POINTS

    paper = {name: pct for name, _v, pct in PAPER_EXAMPLE_POINTS}
    header = ["EMT", "V", "measured saving", "paper saving"]
    rows = [
        [
            p.emt_name,
            f"{p.v_min_safe:.2f}",
            f"{p.saving_vs_nominal * 100:6.1f}%",
            f"{paper.get(p.emt_name, float('nan')):6.1f}%",
        ]
        for p in points
    ]
    return (
        "Section VI-C — savings at the paper's example operating points\n"
        + _table(header, rows)
    )


def format_frontier(app_name: str, rows: list[dict]) -> str:
    """A sweep experiment's Pareto frontier: one joined row per line.

    ``rows`` are :func:`repro.campaign.analysis.quality_energy_rows`
    dicts that survived the frontier extraction.
    """
    header = ["emt", "V", "SNR dB", "energy pJ"]
    body = [
        [
            row["emt"],
            f"{row['voltage']:.2f}",
            f"{row['snr_db']:7.1f}",
            f"{row['energy_pj']:11.1f}",
        ]
        for row in rows
    ]
    return (
        f"[{app_name}] Pareto frontier (minimise energy, maximise SNR)\n"
        + _table(header, body)
    )


def format_operating_points(
    app_name: str, points, tolerance_db: float
) -> str:
    """A sweep experiment's trade-off extraction (Section VI-C form).

    ``points`` are :class:`repro.campaign.analysis.OperatingPoint`
    objects (or anything with the same fields).
    """
    lines = [
        f"[{app_name}] operating points at -{tolerance_db:.1f} dB tolerance:"
    ]
    for point in points:
        lines.append(
            f"  {point.emt_name:>8s} down to {point.v_min_safe:.2f} V "
            f"-> save {point.saving_vs_nominal * 100:5.1f}%"
        )
    return "\n".join(lines)


def format_mission(mission_name: str, results) -> str:
    """A mission experiment's policy comparison: one row per policy.

    ``results`` are :class:`repro.runtime.MissionResult` objects (or
    anything with the same fields), typically one per policy over the
    same scenario.
    """
    header = [
        "policy", "lifetime", "survives", "mean dB", "worst dB",
        "p5 dB", "switches", "violations", "power",
    ]
    body = [
        [
            r.policy_name,
            f"{r.lifetime_days:7.2f} d",
            "yes" if r.survived else "NO",
            f"{r.mean_snr_db:6.1f}",
            f"{r.worst_snr_db:6.1f}",
            f"{r.p5_snr_db:6.1f}",
            str(r.n_switches),
            str(r.n_violations),
            f"{r.average_power_uw:5.2f} uW",
        ]
        for r in results
    ]
    return (
        f"[{mission_name}] adaptive-runtime mission — "
        "lifetime vs quality per policy\n" + _table(header, body)
    )


def format_overheads(rows: list[OverheadRow]) -> str:
    """Formula 2 / Section V: extra bits per word."""
    header = ["EMT", "data bits", "extra bits", "in faulty mem",
              "in safe mem", "overhead"]
    body = [
        [
            r.emt_name,
            str(r.data_bits),
            str(r.extra_bits),
            str(r.faulty_bits),
            str(r.safe_bits),
            f"{r.overhead_fraction * 100:5.1f}%",
        ]
        for r in rows
    ]
    return (
        "Section V — protection bits per word "
        "(paper: DREAM 5, ECC 6 for 16-bit words)\n" + _table(header, body)
    )


def format_fleet(cohort_name: str, summaries) -> str:
    """A cohort experiment's policy comparison: one row per fleet summary.

    ``summaries`` are :meth:`repro.cohort.FleetResult.summary` dicts
    (population tail statistics), typically one per policy over the
    same cohort.
    """
    header = [
        "policy", "survive", "p5 life", "p50 life", "p10 worst",
        "p50 worst", "mean dB", "viol/1k", "power",
    ]
    body = []
    for s in summaries:
        if "survival_fraction" not in s:
            body.append(
                [s.get("policy", "?"), "-", "-", "-", "-", "-", "-", "-",
                 f"({s.get('n_failed', '?')} failed)"]
            )
            continue
        body.append(
            [
                str(s["policy"]),
                f"{s['survival_fraction'] * 100:5.1f}%",
                f"{s['lifetime_p5_days']:6.2f} d",
                f"{s['lifetime_p50_days']:6.2f} d",
                f"{s['quality_p10_db']:6.1f}",
                f"{s['quality_p50_db']:6.1f}",
                f"{s['mean_snr_db']:6.1f}",
                f"{s['violations_per_1k_windows']:6.1f}",
                f"{s['average_power_uw']:5.2f} uW",
            ]
        )
    return (
        f"[{cohort_name}] population fleet — tail statistics per policy\n"
        + _table(header, body)
    )


def format_survival(policy_name: str, curve, width: int = 40) -> str:
    """Render a battery-survival curve as an ASCII step plot.

    ``curve`` is the ``(t_days, fraction_alive)`` sequence from
    :func:`repro.cohort.analytics.survival_curve`.
    """
    lines = [f"battery survival — {policy_name}"]
    for t_days, alive in curve:
        bar = "#" * round(alive * width)
        lines.append(f"  {t_days:7.2f} d |{bar:<{width}s}| {alive * 100:5.1f}%")
    return "\n".join(lines)
