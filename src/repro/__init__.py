"""repro — reproduction of Duch et al., "Energy vs. Reliability Trade-offs
Exploration in Biomedical Ultra-Low Power Devices" (DATE 2016).

The package implements the paper's contribution — the DREAM error
mitigation technique — together with every substrate its evaluation
depends on:

* :mod:`repro.emt` — DREAM, ECC SEC/DED, parity, and the hybrid
  voltage-triggered policy;
* :mod:`repro.mem` — the bit-accurate faulty (voltage-scaled) data
  memory: stuck-at fault maps, banked SRAM, the application-facing
  memory fabric;
* :mod:`repro.apps` — the five biomedical case studies (DWT, matrix
  filtering, compressed sensing, morphological filtering, wavelet
  delineation) plus the heartbeat classifier;
* :mod:`repro.signals` — the synthetic MIT-BIH-like ECG corpus;
* :mod:`repro.energy` — BER(V), CACTI-lite SRAM and codec-logic models;
* :mod:`repro.soc` — the VirtualSOC-lite MPSoC platform;
* :mod:`repro.exp` — drivers regenerating every figure and table;
* :mod:`repro.campaign` — the parallel design-space-exploration engine;
* :mod:`repro.runtime` — the adaptive runtime: closed-loop DVS/EMT
  mission simulation with operating-point policies;
* :mod:`repro.cohort` — population-scale fleet simulation over
  synthetic patient cohorts, with survival/percentile analytics;
* :mod:`repro.cache` — the process-safe disk calibration cache shared
  by missions and fleets;
* :mod:`repro.api` — the unified experiment API: one declarative,
  file-loadable :class:`~repro.api.Experiment` spec (TOML/JSON) and the
  :class:`~repro.api.Session` facade running every workload kind —
  figures, sweeps, missions, cohorts — through the campaign engine;
* :mod:`repro.obs` — observability: span-based tracing with
  worker-pool context propagation, counters/gauges/histograms, per-run
  JSONL trace sinks, and the ``repro report`` renderer;
* :mod:`repro.resilience` — supervised execution: the crash-tolerant
  worker pool behind campaigns and fleets (retry/timeout/backoff,
  poison-work quarantine, graceful cancellation) and the deterministic
  chaos harness (``REPRO_CHAOS`` / ``repro --chaos``).

Quickstart::

    import numpy as np
    from repro.emt import DreamEMT
    from repro.mem import MemoryFabric, sample_fault_map
    from repro.signals import load_record, snr_db

    record = load_record("106", duration_s=10.0)
    emt = DreamEMT()
    faults = sample_fault_map(16384, emt.stored_bits, ber=1e-3,
                              rng=np.random.default_rng(7))
    fabric = MemoryFabric(emt, fault_map=faults)
    stored = fabric.roundtrip("ecg", record.samples)
    print(snr_db(record.samples, stored))
"""

from . import (
    api,
    apps,
    campaign,
    emt,
    energy,
    exp,
    mem,
    obs,
    resilience,
    runtime,
    signals,
    soc,
)
from .errors import ReproError

__version__ = "1.8.0"

__all__ = [
    "api",
    "apps",
    "campaign",
    "emt",
    "energy",
    "exp",
    "mem",
    "obs",
    "resilience",
    "runtime",
    "signals",
    "soc",
    "ReproError",
    "__version__",
]
