"""Trial-batched pipeline benchmarks: the ISSUE 4 speedup evidence.

Every benchmark times the *same computation* twice — the historical
per-trial Python loop and the batched 2-D ``(n_trials, n_words)``
pipeline — asserts the results are bit-identical, and records the
speedup as a ``BENCH_*.json`` artefact through the shared harness
(``_harness.py``).  CI runs this file in fast mode and
``check_regression.py`` fails the job if any gated speedup falls more
than 30 % below the committed ``baselines.json``.

Fast-mode scale knobs (environment):

* ``REPRO_BENCH_PROBES`` — Monte-Carlo probes for the cold-calibration
  benchmark (default 16).
* ``REPRO_BENCH_SWEEP_RUNS`` — runs per point of the cold-sweep
  benchmark (default 12).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _harness import time_call, write_bench  # noqa: E402

from repro._bitops import HAS_BITWISE_COUNT, _popcount_swar, popcount  # noqa: E402
from repro.api import Session  # noqa: E402
from repro.api.schema import Experiment, Fig2Params  # noqa: E402
from repro.apps.registry import make_app  # noqa: E402
from repro.emt import make_emt  # noqa: E402
from repro.exp.common import (  # noqa: E402
    ExperimentConfig,
    load_corpus,
    run_monte_carlo,
    run_monte_carlo_sequential,
)
from repro.mem.fabric import MemoryFabric  # noqa: E402
from repro.mem.faults import (  # noqa: E402
    position_fault_map,
    sample_fault_map,
    sample_fault_map_batch,
)
from repro.runtime.simulator import BatchCalibrator  # noqa: E402


def _probes(default: int = 16) -> int:
    return int(os.environ.get("REPRO_BENCH_PROBES", default))


def _sweep_runs(default: int = 12) -> int:
    return int(os.environ.get("REPRO_BENCH_SWEEP_RUNS", default))


def test_cold_calibration_speedup():
    """Cold Fig 2-style calibration: seed implementation vs batched path.

    The seed implementation calibrated the 32 (stuck value, bit
    position) significance configurations of one application point by
    point — a fresh application instance per configuration (so the
    clean reference outputs were recomputed every time, exactly as the
    seed ``bit_position`` evaluator did) and one full pipeline pass per
    (configuration, record).  The batched leg runs the same sweep as a
    ``figure = "fig2"`` experiment through :class:`repro.api.Session`
    (no store): each (app, record) point stacks all 32 configurations
    into a single ``(32, n_words)`` fault-map batch, folds the window
    loop into the batch, and shares one cached application instance.
    Both produce identical curves (the sweep is deterministic; asserted
    here).

    Scale: the library-default reproduction configuration (the paper's
    five records, 10 s each).
    """
    config = ExperimentConfig()
    corpus = load_corpus(config)  # the record cache both legs share
    experiment = Experiment(
        name="cold-calibration",
        kind="figure",
        params=Fig2Params(
            apps=("dwt",),
            records=config.records,
            duration_s=config.duration_s,
        ),
    )

    def seed_path():
        per_value = {0: [], 1: []}
        for stuck_value in (0, 1):
            for position in range(16):
                # One self-contained point, as the seed evaluator ran it.
                app = make_app("dwt")
                fault_map = position_fault_map(
                    config.geometry.n_words, 16, position, stuck_value
                )
                snrs = []
                for samples in corpus.values():
                    fabric = MemoryFabric(
                        make_emt("none"),
                        fault_map=fault_map,
                        geometry=config.geometry,
                    )
                    output = app.run(samples, fabric)
                    snrs.append(
                        app.output_snr(
                            samples, output, cap_db=config.snr_cap_db
                        )
                    )
                per_value[stuck_value].append(float(np.mean(snrs)))
        return per_value

    seq_curves, seq_s = time_call(seed_path, repeat=2)
    batched, bat_s = time_call(
        lambda: Session().run(experiment).result(), repeat=2
    )
    assert batched.snr_db["dwt"] == seq_curves, "batched Fig 2 curves moved"

    n_configs = 32 * len(config.records)
    write_bench(
        "cold_calibration",
        metrics={
            "sequential_s": seq_s,
            "batched_s": bat_s,
            "speedup": seq_s / bat_s,
            "configs_per_s": n_configs / bat_s,
        },
        gate=("speedup",),
        meta={
            "app": "dwt",
            "style": "fig2 bit-significance, 32 stacked configurations",
            "records": list(config.records),
            "duration_s": config.duration_s,
        },
    )


def test_probe_calibration_speedup():
    """BatchCalibrator vs the per-probe loop on one cold quality model.

    This is the unit of work every cold ``repro mission`` / ``repro
    cohort`` / fleet worker pays per (app, segment, operating point);
    the disk cache only helps the *second* time.  At this BER every
    probe holds ~790 faults, close to where the batched sampler returns
    to the dense stuck-value draw, so the speedup is still bounded by
    Monte-Carlo map sampling.
    """
    n_probe = _probes()
    calibrator = BatchCalibrator(n_probe=n_probe, probe_duration_s=4.0)
    args = ("dwt", "100", 1.0, "dream", 3e-3)

    protocol = calibrator._protocol(*args)
    sequential, seq_s = time_call(
        lambda: run_monte_carlo_sequential(*protocol), repeat=2
    )
    batched, bat_s = time_call(lambda: calibrator.calibrate(*args), repeat=2)
    assert batched == (
        sequential.snr_mean_db["dream"], sequential.snr_std_db["dream"]
    ), "batched calibration changed the model"

    write_bench(
        "probe_calibration",
        metrics={
            "sequential_s": seq_s,
            "batched_s": bat_s,
            "speedup": seq_s / bat_s,
            "probes_per_s": n_probe / bat_s,
        },
        gate=("speedup",),
        meta={"app": "dwt", "emt": "dream", "ber": 3e-3, "n_probe": n_probe},
    )


def test_cold_sweep_speedup():
    """A cold ``repro sweep`` quality grid, batched vs run loop.

    The montecarlo evaluator behind ``repro sweep`` (and Fig 4) spends
    its time in :func:`run_monte_carlo`; this measures a fast-mode
    voltage grid — the paper's 0.90 V (error-free) down into the
    multi-error regime — exactly the per-point work a cold sweep pays.
    The sequential leg reconstructs the seed evaluator (fresh app
    instance per point, run-by-run Monte-Carlo loop); the batched leg
    is the shipped path (cached app, stacked trials and windows, stuck
    values read only at failed cells, fault-free trials elided).  The
    grid's own BER(V) profile decides how much each point saves: the
    batched leg samples faster wherever a trial holds few faults, and
    skips the pipeline for all but one fault-free trial per EMT.
    """
    from repro.apps.registry import cached_app
    from repro.campaign.evaluators import grid_seed
    from repro.energy.technology import TECH_32NM_LP

    config = ExperimentConfig(n_runs=_sweep_runs())
    corpus = load_corpus(config)
    emts = {name: make_emt(name) for name in ("none", "dream", "secded")}
    voltages = (0.9, 0.8, 0.7, 0.6, 0.5)

    def sweep(runner, app_for_point):
        return [
            runner(
                app_for_point(),
                emts,
                TECH_32NM_LP.ber(voltage),
                config,
                corpus,
                grid_seed("dwt", voltage),
            )
            for voltage in voltages
        ]

    sequential, seq_s = time_call(
        lambda: sweep(run_monte_carlo_sequential, lambda: make_app("dwt")),
        repeat=2,
    )
    batched, bat_s = time_call(
        lambda: sweep(run_monte_carlo, lambda: cached_app("dwt")), repeat=2
    )
    for seq_point, bat_point in zip(sequential, batched):
        assert bat_point.snr_mean_db == seq_point.snr_mean_db
        assert bat_point.snr_std_db == seq_point.snr_std_db

    n_pipeline_runs = (
        len(voltages) * config.n_runs * len(emts) * len(corpus)
    )
    write_bench(
        "cold_sweep",
        metrics={
            "sequential_s": seq_s,
            "batched_s": bat_s,
            "speedup": seq_s / bat_s,
            "pipeline_runs_per_s": n_pipeline_runs / bat_s,
        },
        gate=("speedup",),
        meta={
            "app": "dwt",
            "emts": sorted(emts),
            "voltages": list(voltages),
            "n_runs": config.n_runs,
            "records": list(config.records),
        },
    )


def test_fault_sampler_speedup():
    """Stuck-at map sampling: sequential draws vs the batched sampler.

    Both legs consume the same RNG stream and must produce the same
    masks.  The sequential leg draws a full stuck-value block per trial;
    the batched one reads stuck values only at the failed cells of
    trials with few faults.  Scale: 40 trials of the paper's 16,384 x 22
    SEC/DED array at 0.60 V (~360 faults per trial), 0.75 V (~0.5) and
    0.90 V (~0.0004).
    """
    from repro.energy.technology import TECH_32NM_LP

    n_trials, n_words, word_bits = 40, 16384, 22
    voltages = (0.6, 0.75, 0.9)

    def draw(sampler):
        maps = []
        for voltage in voltages:
            rng = np.random.default_rng((20160314, round(voltage * 100)))
            maps.append(sampler(TECH_32NM_LP.ber(voltage), rng))
        return maps

    def sequential(ber, rng):
        singles = [
            sample_fault_map(n_words, word_bits, ber, rng)
            for _ in range(n_trials)
        ]
        return (
            np.stack([single.set_mask for single in singles]),
            np.stack([single.clear_mask for single in singles]),
        )

    def batched(ber, rng):
        fault_map = sample_fault_map_batch(
            n_trials, n_words, word_bits, ber, rng
        )
        return fault_map.set_mask, fault_map.clear_mask

    seq_maps, seq_s = time_call(lambda: draw(sequential), repeat=2)
    bat_maps, bat_s = time_call(lambda: draw(batched), repeat=2)
    for (seq_set, seq_clear), (bat_set, bat_clear) in zip(seq_maps, bat_maps):
        assert np.array_equal(seq_set, bat_set)
        assert np.array_equal(seq_clear, bat_clear)

    write_bench(
        "fault_sampler",
        metrics={
            "sequential_s": seq_s,
            "batched_s": bat_s,
            "speedup": seq_s / bat_s,
            "trials_per_s": len(voltages) * n_trials / bat_s,
        },
        gate=("speedup",),
        meta={
            "n_trials": n_trials,
            "n_words": n_words,
            "word_bits": word_bits,
            "voltages": list(voltages),
        },
    )


def test_fault_site_fabric(monkeypatch):
    """Codec words with and without the fault-site-only fabric.

    ``dwt`` under SEC/DED over 40 trials of the paper's 16,384-word
    array at 0.65 V (~0.3% of the words hold a fault), record 100 at
    8 s.  The dense leg forces every roundtrip down the whole-stack path
    by setting the fabric's density switch below zero; the shipped leg
    runs the codec only on fault-bearing words.  Outputs must be equal.
    The gated ``codec_word_reduction`` (dense codec words / site-only
    codec words) is deterministic; the times are reported, not gated.
    """
    from repro.emt import SecDedEMT
    from repro.energy.technology import TECH_32NM_LP
    from repro.mem import fabric as fabric_module
    from repro.signals.dataset import load_record

    class CountingSecDed(SecDedEMT):
        words = 0

        def encode(self, payload, checked=False):
            CountingSecDed.words += np.size(payload)
            return super().encode(payload, checked)

        def decode(self, stored, side, stats=None, checked=False):
            CountingSecDed.words += np.size(stored)
            return super().decode(stored, side, stats, checked)

    n_trials, voltage = 40, 0.65
    app = make_app("dwt")
    samples = load_record("100", duration_s=8.0).samples
    fault_map = sample_fault_map_batch(
        n_trials, 16384, 22, TECH_32NM_LP.ber(voltage),
        np.random.default_rng((20160314, 65)),
    )

    def run():
        CountingSecDed.words = 0
        fabric = MemoryFabric(
            CountingSecDed(), fault_map=fault_map, collect_decode_stats=False
        )
        return app.run_batch(samples, fabric), CountingSecDed.words

    (sparse_out, sparse_words), sparse_s = time_call(run, repeat=3)
    with monkeypatch.context() as patch:
        patch.setattr(fabric_module, "_SPARSE_WORD_RATIO", -1.0)
        (dense_out, dense_words), dense_s = time_call(run, repeat=3)
    assert np.array_equal(sparse_out, dense_out)

    write_bench(
        "fault_site_fabric",
        metrics={
            "dense_codec_words": dense_words,
            "sparse_codec_words": sparse_words,
            "codec_word_reduction": dense_words / sparse_words,
            "dense_s": dense_s,
            "sparse_s": sparse_s,
            "speedup": dense_s / sparse_s,
        },
        gate=("codec_word_reduction",),
        meta={
            "app": "dwt",
            "emt": "secded",
            "voltage": voltage,
            "n_trials": n_trials,
            "record": "100",
            "duration_s": 8.0,
        },
    )


def test_footprint_sampling():
    """Fault sampling over the app's footprint vs over the whole array.

    The ``sweep_mc``-shaped batch: ``dwt`` under none, DREAM and SEC/DED
    over 40 runs of the paper's 16,384-word array at 0.65 V, record 100
    at 8 s.  The bounded leg draws failure sites and stuck values only
    for the words dwt's buffers occupy and advances the generator past
    the rest; the full leg draws every word.  Both must leave the
    generator in the same state and give every EMT the same per-run
    SNRs.  The gated ``sampled_bit_reduction`` (failure-site bits drawn
    per run, full / bounded) is deterministic; the times are reported,
    not gated.
    """
    from repro.energy.technology import TECH_32NM_LP
    from repro.exp.common import corpus_footprint, trial_snrs
    from repro.signals.dataset import load_record
    from repro.signals.metrics import SNR_CAP_DB

    n_trials, voltage, n_words = 40, 0.65, 16384
    app = make_app("dwt")
    emts = [make_emt(name) for name in ("none", "dream", "secded")]
    widest = max(emt.stored_bits for emt in emts)
    signals = (load_record("100", duration_s=8.0).samples,)
    live_words = corpus_footprint(app, signals)
    ber = TECH_32NM_LP.ber(voltage)

    def draw(bound):
        rng = np.random.default_rng((20160314, 65))
        fault_map = sample_fault_map_batch(
            n_trials, n_words, widest, ber, rng, live_words=bound
        )
        return fault_map, rng.bit_generator.state

    (full_map, full_state), full_s = time_call(lambda: draw(None), repeat=3)
    (bounded_map, bounded_state), bounded_s = time_call(
        lambda: draw(live_words), repeat=3
    )
    assert bounded_state == full_state
    for emt in emts:
        assert np.array_equal(
            trial_snrs(app, emt, bounded_map, signals, SNR_CAP_DB),
            trial_snrs(app, emt, full_map, signals, SNR_CAP_DB),
        )

    full_bits = n_words * widest
    bounded_bits = bounded_map.live_words * widest
    write_bench(
        "footprint_sampling",
        metrics={
            "full_sampled_bits": full_bits,
            "bounded_sampled_bits": bounded_bits,
            "sampled_bit_reduction": full_bits / bounded_bits,
            "full_s": full_s,
            "bounded_s": bounded_s,
            "speedup": full_s / bounded_s,
        },
        gate=("sampled_bit_reduction",),
        meta={
            "app": "dwt",
            "emts": ["none", "dream", "secded"],
            "voltage": voltage,
            "n_trials": n_trials,
            "live_words": live_words,
            "record": "100",
            "duration_s": 8.0,
        },
    )


def test_popcount_native_vs_swar():
    """Micro-benchmark: ``np.bitwise_count`` vs the SWAR fallback.

    Proves the numpy >= 2.0 fast path is worth dispatching to — and
    that both implementations agree bit-for-bit on the codec workload
    (22-bit codewords, the widest the EMTs store).
    """
    rng = np.random.default_rng(20160131)
    words = rng.integers(0, 1 << 22, size=1_000_000, dtype=np.int64)

    swar_counts, swar_s = time_call(lambda: _popcount_swar(words), repeat=3)
    fast_counts, fast_s = time_call(lambda: popcount(words), repeat=3)
    assert np.array_equal(swar_counts, fast_counts)

    metrics = {
        "swar_s": swar_s,
        "dispatch_s": fast_s,
        "words_per_s": words.size / fast_s,
        "speedup": swar_s / fast_s,
    }
    # Gate only where the native ufunc exists; on numpy < 2.0 the
    # dispatcher *is* the SWAR path and the ratio is ~1 by construction.
    gate = ("speedup",) if HAS_BITWISE_COUNT else ()
    write_bench(
        "popcount",
        metrics=metrics,
        gate=gate,
        meta={
            "n_words": int(words.size),
            "native_bitwise_count": HAS_BITWISE_COUNT,
        },
    )
