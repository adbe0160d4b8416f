"""Experiment drivers reproducing every table and figure of the paper.

Each module reproduces one artefact of the evaluation (see DESIGN.md's
per-experiment index):

* :mod:`repro.exp.fig2` — Fig 2, SNR vs bit position of injected
  stuck-at errors (the significance characterisation, Section III);
* :mod:`repro.exp.fig4` — Fig 4a/b/c, SNR vs supply voltage per EMT
  (Section VI-A);
* :mod:`repro.exp.energy_table` — the Section VI-B energy-overhead and
  area analysis;
* :mod:`repro.exp.tradeoff` — the Section VI-C voltage-range policy and
  savings;
* :mod:`repro.exp.overheads` — Formula 2 / Section V memory overheads;
* :mod:`repro.exp.report` — ASCII renderers for all of the above;
* :mod:`repro.exp.common` — the shared Monte-Carlo machinery.

Each figure has one execution path: ``fig2_spec``/``fig4_spec``/
``energy_spec`` build its grids as :class:`repro.campaign.CampaignSpec`
s (a trade-off plans a Fig 4 quality grid plus an energy grid),
:class:`repro.api.Session` runs a ``kind = "figure"`` experiment through
the shared campaign runner (parallel, resumable, stored), and the
``*_from_records`` reducers turn the records into :class:`Fig2Result`/
:class:`Fig4Result`/:class:`EnergyAnalysis`/:class:`TradeoffResult`.
A Fig 2 point is one (app, record) pair scored in a single
trial-batched pass over all 32 stuck-bit configurations.
"""

from .common import ExperimentConfig, MonteCarloResult
from .energy_table import EnergyAnalysis, energy_spec
from .fig2 import Fig2Result, fig2_spec
from .fig4 import Fig4Result, fig4_spec
from .overheads import OverheadRow, overhead_table
from .tradeoff import TradeoffResult, tradeoff_from_records

__all__ = [
    "ExperimentConfig",
    "MonteCarloResult",
    "Fig2Result",
    "fig2_spec",
    "Fig4Result",
    "fig4_spec",
    "EnergyAnalysis",
    "energy_spec",
    "TradeoffResult",
    "tradeoff_from_records",
    "OverheadRow",
    "overhead_table",
]
