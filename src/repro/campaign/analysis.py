"""Campaign analytics: Pareto frontiers, pivots, trade-off extraction.

Once a campaign's grid is in the result store, the interesting questions
are relational: which operating points are energy/quality optimal, how
does a metric vary across two axes, and which supply-voltage floors does
each EMT sustain for a given output tolerance (the paper's Section VI-C
question).  These helpers answer them over plain stored records — no
re-simulation — so analyses stay cheap to iterate on after an expensive
sweep.

Records are the runner/store dicts: values are looked up first among the
point's ``params`` (axis coordinates), then inside its ``result``.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import CampaignError

__all__ = [
    "OperatingPoint",
    "record_value",
    "pareto_frontier",
    "pivot_table",
    "format_pivot",
    "quality_energy_rows",
    "extract_tradeoff",
]


def record_value(record: dict, key: str):
    """Look ``key`` up in a record's params, result, or top level.

    The top-level fallback lets the same accessors work on flat joined
    rows (e.g. from :func:`quality_energy_rows`) as on raw store records.
    """
    params = record.get("params", {})
    if key in params:
        return params[key]
    result = record.get("result") or {}
    if key in result:
        return result[key]
    if key in record:
        return record[key]
    raise CampaignError(
        f"record has no value {key!r} (params: {sorted(params)}, "
        f"result: {sorted(result)})"
    )


def pareto_frontier(
    records: Iterable[dict],
    x_key: str,
    y_key: str,
    minimize_x: bool = True,
    maximize_y: bool = True,
) -> list[dict]:
    """Non-dominated records under (x, y) — by default min-x, max-y.

    A record is dominated when another is at least as good on both
    objectives and strictly better on one.  Returns the surviving
    records sorted by ``x_key`` (best-x first under the chosen sense).
    Records missing either key are ignored, so a mixed-kind store can be
    fed directly.
    """
    scored = []
    for record in records:
        try:
            x = float(record_value(record, x_key))
            y = float(record_value(record, y_key))
        except CampaignError:
            continue
        scored.append((x if minimize_x else -x, y if maximize_y else -y, record))

    frontier: list[dict] = []
    best_y = -np.inf
    for x, y, record in sorted(scored, key=lambda item: (item[0], -item[1])):
        if y > best_y:
            frontier.append(record)
            best_y = y
    return frontier


def pivot_table(
    records: Iterable[dict],
    row_key: str,
    col_key: str,
    value_key: str,
) -> tuple[list, list, dict]:
    """Aggregate ``value_key`` (mean) over a two-axis cross-tabulation.

    Returns ``(row_labels, col_labels, cells)`` with sorted labels and
    ``cells[(row, col)]`` holding the mean value of all matching records
    (multiple matches arise when the campaign sweeps further axes).
    """
    bucket: dict[tuple, list[float]] = defaultdict(list)
    for record in records:
        try:
            row = record_value(record, row_key)
            col = record_value(record, col_key)
            value = float(record_value(record, value_key))
        except CampaignError:
            continue
        bucket[(row, col)].append(value)
    cells = {key: float(np.mean(vals)) for key, vals in bucket.items()}
    rows = sorted({r for r, _ in cells})
    cols = sorted({c for _, c in cells})
    return rows, cols, cells


def format_pivot(
    rows: Sequence,
    cols: Sequence,
    cells: dict,
    corner: str = "",
    fmt: str = "{:.1f}",
) -> str:
    """Render a :func:`pivot_table` result as an aligned ASCII table."""
    header = [corner] + [str(c) for c in cols]
    body = []
    for row in rows:
        line = [str(row)]
        for col in cols:
            value = cells.get((row, col))
            line.append("-" if value is None else fmt.format(value))
        body.append(line)
    widths = [len(h) for h in header]
    for line in body:
        for i, cell in enumerate(line):
            widths[i] = max(widths[i], len(cell))

    def render(line: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(line))

    separator = "  ".join("-" * w for w in widths)
    return "\n".join(
        [render(header), separator] + [render(line) for line in body]
    )


@dataclass(frozen=True)
class OperatingPoint:
    """One EMT's deepest safe operating point and what it buys.

    Attributes:
        emt_name: the technique.
        v_min_safe: lowest contiguous voltage still meeting the quality
            requirement.
        saving_vs_nominal: fractional energy saving versus the baseline
            technique at nominal supply.
        snr_db: mean output SNR at the safe voltage.
        energy_pj: workload energy at the safe voltage.
    """

    emt_name: str
    v_min_safe: float
    saving_vs_nominal: float
    snr_db: float
    energy_pj: float


def quality_energy_rows(
    records: Iterable[dict], app_name: str
) -> list[dict]:
    """Join Monte-Carlo quality with energy by (EMT, voltage) for one app.

    ``montecarlo`` records carry per-EMT SNR statistics at an (app,
    voltage) point; ``energy`` records carry one EMT's energy at a
    voltage.  The join yields flat rows —
    ``{"app", "emt", "voltage", "snr_db", "energy_pj"}`` — the frontier
    and trade-off extractors consume.
    """
    records = list(records)
    energy: dict[tuple, float] = {}
    for record in records:
        if record.get("kind") == "energy" and record.get("status") == "ok":
            params = record["params"]
            # Keyed by the workload's application when the energy grid
            # swept one (``workload_app``), so a multi-app sweep joins
            # each app's quality with its own workload energy.
            key = (
                params.get("workload_app"),
                params["emt"],
                params["voltage"],
            )
            energy[key] = record["result"]["total_pj"]
    rows = []
    for record in records:
        if record.get("kind") != "montecarlo" or record.get("status") != "ok":
            continue
        params = record["params"]
        if params.get("app") != app_name:
            continue
        voltage = params["voltage"]
        for emt_name, snr in record["result"]["snr_mean_db"].items():
            total = energy.get((app_name, emt_name, voltage))
            if total is None:
                total = energy.get((None, emt_name, voltage))
            if total is not None:
                rows.append(
                    {
                        "app": app_name,
                        "emt": emt_name,
                        "voltage": voltage,
                        "snr_db": snr,
                        "energy_pj": total,
                    }
                )
    return rows


def extract_tradeoff(
    rows: Iterable[dict],
    tolerance_db: float,
    baseline_emt: str = "none",
    voltages: Iterable[float] | None = None,
) -> list[OperatingPoint]:
    """The Section VI-C policy question, answered from campaign rows.

    For each EMT in ``rows`` (as produced by
    :func:`quality_energy_rows`), find the lowest voltage whose SNR stays
    within ``tolerance_db`` of the error-free ceiling *contiguously from
    the top of the sweep* (a lower voltage that recovers by chance does
    not extend the safe range), and the energy saved there versus
    ``baseline_emt`` at nominal (highest swept) supply.

    Pass the sweep's intended ``voltages`` grid when rows may be
    incomplete (e.g. a sweep that tolerated failed points): the walk
    then covers the *planned* grid, so a voltage missing from the rows
    breaks contiguity instead of being silently skipped.  Without it the
    walk covers the union of voltages present in ``rows``, which cannot
    see a point that failed for every EMT at once.

    This is the one implementation of the VI-C rule: sweep experiments
    call it on their stored records, and
    :func:`repro.exp.tradeoff.run_tradeoff` on rows it joins from a
    Fig 4 result.
    """
    if tolerance_db < 0:
        raise CampaignError("tolerance must be non-negative")
    by_emt: dict[str, dict[float, dict]] = defaultdict(dict)
    for row in rows:
        by_emt[row["emt"]][row["voltage"]] = row
    if not by_emt:
        raise CampaignError("no joined quality/energy rows to analyse")

    # An unvalidated gap must not extend the safe range: walk the
    # intended grid when given, else the union of swept voltages (which
    # still catches per-EMT gaps).
    if voltages is not None:
        all_voltages = sorted({float(v) for v in voltages}, reverse=True)
    else:
        all_voltages = sorted(
            {v for grid in by_emt.values() for v in grid}, reverse=True
        )

    v_nominal = all_voltages[0]
    baseline_row = by_emt.get(baseline_emt, {}).get(v_nominal)
    if baseline_row is None:
        raise CampaignError(
            f"baseline {baseline_emt!r} has no row at {v_nominal} V"
        )
    baseline_energy = baseline_row["energy_pj"]
    reference_snr = max(
        grid[v_nominal]["snr_db"]
        for grid in by_emt.values()
        if v_nominal in grid
    )
    min_snr = reference_snr - tolerance_db
    points = []
    for emt_name, grid in by_emt.items():
        safe: dict | None = None
        for voltage in all_voltages:
            if voltage in grid and grid[voltage]["snr_db"] >= min_snr:
                safe = grid[voltage]
            else:
                break
        if safe is None:
            continue
        points.append(
            OperatingPoint(
                emt_name=emt_name,
                v_min_safe=safe["voltage"],
                saving_vs_nominal=1.0 - safe["energy_pj"] / baseline_energy,
                snr_db=safe["snr_db"],
                energy_pj=safe["energy_pj"],
            )
        )
    points.sort(key=lambda p: (-p.v_min_safe, p.emt_name))
    return points
