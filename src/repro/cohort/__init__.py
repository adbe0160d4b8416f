"""Population-scale fleet simulation over synthetic patient cohorts.

PR 1 built the campaign engine (explore a *design grid* in parallel);
PR 2 the adaptive runtime (simulate *one device* closed-loop).  This
package is the layer over both that deployment planning needs: simulate
*many devices at once, fast*, and reduce the fleet to population
reliability statistics.

* :mod:`repro.cohort.population` — :class:`PatientModel` /
  :class:`CohortSpec`: per-patient physiology and environment sampling
  (record phenotypes, noise environments, BER shielding, battery lot
  spread, mission templates) with deterministic per-patient seeding;
* :mod:`repro.cohort.fleet` — :class:`FleetSimulator`: thousands of
  patient missions through the :class:`~repro.runtime.MissionSimulator`,
  fanned over workers, with every calibration shared machine-wide
  through the :mod:`repro.cache` disk cache (exactly once per fleet);
* :mod:`repro.cohort.analytics` — battery-survival curves, quality
  percentile bands, and population Pareto frontiers over tail
  statistics.

Campaign integration: the ``cohort`` evaluator kind
(:mod:`repro.campaign.evaluators`) runs policy x cohort grids through
the parallel runner/store/resume machinery; a ``kind = "cohort"``
experiment file is the CLI front-end (``repro run``) and
``benchmarks/bench_cohort.py`` the throughput benchmark.
"""

from .analytics import (
    median_survival_days,
    population_frontier,
    quality_bands,
    survival_curve,
)
from .fleet import FleetResult, FleetSimulator, simulate_patient
from .population import CohortSpec, PatientModel, PatientProfile

__all__ = [
    "PatientModel",
    "PatientProfile",
    "CohortSpec",
    "FleetSimulator",
    "FleetResult",
    "simulate_patient",
    "survival_curve",
    "median_survival_days",
    "quality_bands",
    "population_frontier",
]
