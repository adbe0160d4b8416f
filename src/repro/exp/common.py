"""Shared machinery of the experiment drivers.

The paper's Monte-Carlo protocol (Section V):

* the amount of injected stuck-at faults follows the BER profiled for
  each voltage (here: :meth:`repro.energy.technology.Technology.ber`);
* every run uses "a different random fault-location map", justified by
  logical/physical address randomisation;
* "all the EMTs are tested reusing the same set of error
  locations/mappings" — for fairness, run ``r`` of every EMT shares one
  defect sample, drawn at the widest codeword and restricted to each
  technique's stored width;
* 200 runs per voltage point, averaging the SNRs in dB.

:func:`run_monte_carlo` implements exactly that protocol for one
application and one voltage across a set of EMTs.  By default all
``n_runs`` defect samples are drawn as one stacked batch and flow
through the pipeline as a 2-D ``(n_runs, n_words)`` block — the
trial-batched hot path (see PERFORMANCE.md) — which is bit-identical to
the historical run-by-run loop (kept as
:func:`run_monte_carlo_sequential`, the property-test reference) because
the batched draw consumes the RNG stream in the same per-run order.
Runs whose map holds no fault for a technique all produce the clean
output, so :func:`trial_snrs` computes it once and copies it to the rest.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .._bitops import bit_mask
from ..apps.base import BiomedicalApp
from ..emt.base import EMT
from ..errors import ExperimentError
from ..mem.fabric import MemoryFabric
from ..mem.faults import FaultMap, sample_fault_map, sample_fault_map_batch
from ..mem.layout import PAPER_GEOMETRY, MemoryGeometry
from ..signals.dataset import load_record
from ..signals.metrics import SNR_CAP_DB

__all__ = [
    "ExperimentConfig",
    "MonteCarloResult",
    "corpus_footprint",
    "default_runs",
    "load_corpus",
    "run_monte_carlo",
    "run_monte_carlo_sequential",
    "trial_snrs",
    "validate_registry_names",
]


def validate_registry_names(
    app_names: tuple[str, ...] = (), emt_names: tuple[str, ...] = ()
) -> None:
    """Reject unknown application/EMT names before any grid work starts.

    A campaign captures per-point failures instead of raising, which is
    right for transient faults but wrong for typos: a misspelt name at
    the end of the grid would only surface after the valid points — a
    potentially hours-long sweep — had already executed.
    """
    from ..apps.registry import EXTENSION_APPS, PAPER_APPS
    from ..emt import PAPER_EMTS

    known_apps = {**PAPER_APPS, **EXTENSION_APPS}
    for name in app_names:
        if name not in known_apps:
            raise ExperimentError(
                f"unknown application {name!r}; "
                f"available: {sorted(known_apps)}"
            )
    for name in emt_names:
        if name not in PAPER_EMTS:
            raise ExperimentError(
                f"unknown EMT {name!r}; available: {sorted(PAPER_EMTS)}"
            )


def default_runs(paper_value: int = 200) -> int:
    """Monte-Carlo run count, overridable via ``REPRO_RUNS``.

    The paper uses 200 runs per voltage point; set ``REPRO_RUNS=200`` for
    a full-fidelity reproduction or a smaller value for quick iteration.
    """
    raw = os.environ.get("REPRO_RUNS")
    if raw is None:
        return paper_value
    try:
        value = int(raw)
    except ValueError as exc:
        raise ExperimentError(f"REPRO_RUNS must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ExperimentError(f"REPRO_RUNS must be >= 1, got {value}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by the quality experiments.

    Attributes:
        records: catalog record names to average over ("different ECG
            signals with different pathologies", Section III).
        duration_s: seconds of each record to process.
        n_runs: Monte-Carlo runs per grid point (the paper uses 200).
        seed: master seed; every (voltage, run) pair derives its own
            child seed, so grid points are independent but reproducible.
        snr_cap_db: ceiling for bit-exact outputs (Fig 4's dashed line).
        geometry: data-memory organisation.
    """

    records: tuple[str, ...] = ("100", "106", "109", "118", "200")
    duration_s: float = 10.0
    n_runs: int = 25
    seed: int = 20160314
    snr_cap_db: float = SNR_CAP_DB
    geometry: MemoryGeometry = PAPER_GEOMETRY

    def __post_init__(self) -> None:
        if not self.records:
            raise ExperimentError("at least one record is required")
        if self.duration_s <= 0:
            raise ExperimentError("duration must be positive")
        if self.n_runs < 1:
            raise ExperimentError("n_runs must be >= 1")


@dataclass
class MonteCarloResult:
    """Per-EMT SNR statistics at one grid point."""

    snr_mean_db: dict[str, float] = field(default_factory=dict)
    snr_std_db: dict[str, float] = field(default_factory=dict)
    n_runs: int = 0

    def snr_sem_db(self, emt_name: str) -> float:
        """Standard error of the mean SNR for one technique."""
        if emt_name not in self.snr_std_db:
            raise ExperimentError(f"no statistics for EMT {emt_name!r}")
        if self.n_runs < 1:
            raise ExperimentError("no runs recorded")
        return self.snr_std_db[emt_name] / float(np.sqrt(self.n_runs))

    def snr_ci95_db(self, emt_name: str) -> tuple[float, float]:
        """Normal-approximation 95 % confidence interval of the mean.

        With the paper's 200 runs the normal approximation is accurate;
        at small pilot scales treat the interval as indicative.
        """
        mean = self.snr_mean_db.get(emt_name)
        if mean is None:
            raise ExperimentError(f"no statistics for EMT {emt_name!r}")
        half = 1.96 * self.snr_sem_db(emt_name)
        return (mean - half, mean + half)


def load_corpus(config: ExperimentConfig) -> dict[str, np.ndarray]:
    """Load the configured records' 16-bit sample streams."""
    return {
        name: load_record(name, duration_s=config.duration_s).samples
        for name in config.records
    }


def run_monte_carlo(
    app: BiomedicalApp,
    emts: dict[str, EMT],
    ber: float,
    config: ExperimentConfig,
    corpus: dict[str, np.ndarray],
    grid_seed: int,
) -> MonteCarloResult:
    """The paper's Section V protocol at one (app, BER) grid point.

    All ``config.n_runs`` defect samples are drawn as one stacked batch
    at the widest stored width among ``emts`` and restricted to each
    technique's width, so all EMTs face the same error locations.  The
    draw covers only the words the application's buffers occupy
    (:func:`corpus_footprint`), skipping the stream past the rest, so a
    run whose faults all lie outside them counts as fault-free; every
    (EMT, record) pair then makes a single trial-batched pipeline pass
    through :func:`trial_snrs`, which runs only the runs whose
    restricted map holds a fault plus one fault-free run.  The per-run
    SNR is the application's quality metric averaged over the record
    corpus; per-EMT statistics are computed over runs, averaging SNRs
    "in dB" as the paper specifies.

    Bit-identical to :func:`run_monte_carlo_sequential` (property-tested
    per EMT x voltage x trial count): the batched draw consumes the RNG
    stream in the sequential per-run order, every elided run gets the
    SNR its fault-free twin computed, and the per-run mean over records
    reduces the same values along the same axis order.
    """
    if not emts:
        raise ExperimentError("at least one EMT is required")
    widest = max(emt.stored_bits for emt in emts.values())
    rng = np.random.default_rng((config.seed, grid_seed))
    signals = tuple(corpus.values())

    shared_maps = sample_fault_map_batch(
        config.n_runs, config.geometry.n_words, widest, ber, rng,
        live_words=corpus_footprint(app, signals),
    )
    result = MonteCarloResult(n_runs=config.n_runs)
    for name, emt in emts.items():
        per_record = trial_snrs(
            app, emt, shared_maps, signals, config.snr_cap_db,
            config.geometry,
        )
        # (n_records, n_runs) -> per-run corpus mean, then run statistics.
        runs = np.mean(per_record, axis=0)
        result.snr_mean_db[name] = float(runs.mean())
        result.snr_std_db[name] = float(runs.std())
    return result


def corpus_footprint(
    app: BiomedicalApp, signals: tuple[np.ndarray, ...]
) -> int | None:
    """The words a fault map must cover for ``app`` over ``signals``.

    The largest :meth:`~repro.apps.base.BiomedicalApp.footprint_words`
    over the signals for an application that :attr:`supports_batch`;
    ``None`` (the whole array) for one whose allocations may depend on
    the corrupted data.
    """
    if not app.supports_batch:
        return None
    return max(app.footprint_words(samples) for samples in signals)


def trial_snrs(
    app: BiomedicalApp,
    emt: EMT,
    shared_maps: FaultMap,
    signals: tuple[np.ndarray, ...],
    cap_db: float,
    geometry: MemoryGeometry | None = None,
) -> np.ndarray:
    """Per-trial output SNR of ``app`` over ``emt`` for each signal.

    ``shared_maps`` is a batched map at least as wide as the EMT's
    stored word; trial ``t`` runs against its row restricted to that
    width.  Returns the ``(len(signals), n_trials)`` SNR block.

    Only trials whose restricted map holds a fault go through the
    pipeline, plus the first fault-free trial: every fault-free trial
    produces the same output, so that one row's SNR, computed rather
    than assumed, fills the others.  The block therefore holds the very
    floats a full batch would, in the same order.
    """
    n_trials = shared_maps.n_trials
    keep = np.int64(bit_mask(emt.stored_bits))
    # A trial's restricted map holds a fault iff one of its fault sites
    # meets the kept columns; the shared map's sites serve every EMT.
    _address, trial, set_bits, inv_clear = shared_maps.fault_sites()
    hit = ((set_bits | ~inv_clear) & keep) != 0
    faulty = np.zeros(n_trials, dtype=bool)
    faulty[trial[hit]] = True
    # Each trial reads the result of its own row, or, fault-free, of the
    # first fault-free trial's row (argmin finds it; unused if none).
    source = np.where(faulty, np.arange(n_trials), np.argmin(faulty))
    rows = np.unique(source)
    expand = np.searchsorted(rows, source)
    fault_map = shared_maps.restricted_trials(rows, emt.stored_bits)
    per_signal = []
    for samples in signals:
        # Each fabric is dropped as soon as its signal has run, before
        # the next one allocates its cells.
        outputs = app.run_batch(
            samples,
            MemoryFabric(
                emt,
                fault_map=fault_map,
                geometry=geometry,
                collect_decode_stats=False,
            ),
        )
        per_signal.append(
            app.output_snr_batch(samples, outputs, cap_db=cap_db)[expand]
        )
    return np.stack(per_signal, axis=0)


def run_monte_carlo_sequential(
    app: BiomedicalApp,
    emts: dict[str, EMT],
    ber: float,
    config: ExperimentConfig,
    corpus: dict[str, np.ndarray],
    grid_seed: int,
) -> MonteCarloResult:
    """The historical run-by-run form of :func:`run_monte_carlo`.

    One fresh fabric per (run, EMT, record) — the direct transcription
    of the Section V loop.  Kept as the executable reference the
    property suite pins the batched path against; prefer
    :func:`run_monte_carlo` everywhere else.
    """
    if not emts:
        raise ExperimentError("at least one EMT is required")
    widest = max(emt.stored_bits for emt in emts.values())
    rng = np.random.default_rng((config.seed, grid_seed))
    per_emt: dict[str, list[float]] = {name: [] for name in emts}

    for _ in range(config.n_runs):
        shared_map = sample_fault_map(
            config.geometry.n_words, widest, ber, rng
        )
        for name, emt in emts.items():
            fault_map = shared_map.restricted_to(emt.stored_bits)
            snrs = []
            for samples in corpus.values():
                fabric = MemoryFabric(
                    emt,
                    fault_map=fault_map,
                    geometry=config.geometry,
                    collect_decode_stats=False,
                )
                output = app.run(samples, fabric)
                snrs.append(
                    app.output_snr(samples, output, cap_db=config.snr_cap_db)
                )
            per_emt[name].append(float(np.mean(snrs)))

    result = MonteCarloResult(n_runs=config.n_runs)
    for name, values in per_emt.items():
        arr = np.asarray(values)
        result.snr_mean_db[name] = float(arr.mean())
        result.snr_std_db[name] = float(arr.std())
    return result
