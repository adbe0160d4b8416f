"""Parallel design-space-exploration campaigns over the paper's grid.

The paper's contribution is an *exploration* of the energy-vs-reliability
space — supply voltage x EMT x application x fault model x record x SoC
configuration.  This package turns that exploration into a first-class,
scalable subsystem:

* :mod:`repro.campaign.spec` — a declarative :class:`CampaignSpec`
  naming the grid's axes and shared parameters;
* :mod:`repro.campaign.evaluators` — pure per-point scoring functions
  (Monte-Carlo quality, bit-position significance, energy accounting,
  closed-loop missions, population cohorts) with deterministic seeding;
* :mod:`repro.campaign.runner` — :func:`run_campaign`, fanning points
  across a ``multiprocessing`` pool with progress reporting and graceful
  failure capture;
* :mod:`repro.campaign.store` — an append-only JSONL
  :class:`ResultStore` keyed by each point's content hash, so re-running
  a campaign resumes instead of recomputing;
* :mod:`repro.campaign.analysis` — Pareto frontiers, pivot tables and
  Section VI-C trade-off extraction over stored results.

The experiment drivers in :mod:`repro.exp` express their grids as
campaign specs executed through this runner, and ``repro run`` executes
any experiment file (a ``kind = "sweep"`` one included) through it.
"""

from .analysis import (
    OperatingPoint,
    extract_tradeoff,
    format_pivot,
    pareto_frontier,
    pivot_table,
    quality_energy_rows,
    record_value,
)
from .evaluators import (
    EVALUATORS,
    evaluate_point,
    grid_seed,
    measured_workload,
    register_evaluator,
    technology_from_dict,
    technology_to_dict,
)
from .runner import CampaignResult, run_campaign
from .spec import CampaignPoint, CampaignSpec, canonical_json, content_hash
from .store import ResultStore, ShardedResultStore, default_store_root

__all__ = [
    "CampaignSpec",
    "CampaignPoint",
    "canonical_json",
    "content_hash",
    "CampaignResult",
    "run_campaign",
    "ResultStore",
    "ShardedResultStore",
    "default_store_root",
    "EVALUATORS",
    "register_evaluator",
    "evaluate_point",
    "grid_seed",
    "measured_workload",
    "technology_to_dict",
    "technology_from_dict",
    "OperatingPoint",
    "record_value",
    "pareto_frontier",
    "pivot_table",
    "format_pivot",
    "quality_energy_rows",
    "extract_tradeoff",
]
