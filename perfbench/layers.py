"""Per-layer time ledger, attached to the program from outside.

The traced repetition of a workload wraps the public functions of each
layer of ``repro`` in place (module attributes and class methods), so
the program itself carries no probes.  Every wrapped call is a span on
one stack: its *self* time (duration minus the spans it encloses) is
charged to its layer, so the layers partition the covered wall time and
``1 - sum(self) / wall`` is what no layer accounts for.  Counters are
read off arguments and return values after the span closes; the time
that takes is charged to no layer.

Only the calling thread is traced: every workload drives the program
from one thread (the service daemon is a separate, untraced process).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from collections.abc import Callable
from typing import Any

from repro.apps.base import BiomedicalApp
from repro.cache import DiskCache
from repro.campaign.store import ResultStore, ShardedResultStore
from repro.emt.base import EMT
from repro.mem.fabric import MemoryFabric
from repro.mem.sram import FaultySRAM
from repro.runtime.simulator import BatchCalibrator, MissionSimulator
from repro.service.client import ServiceClient

__all__ = ["Ledger", "import_modules", "install"]

#: A counter hook: ``(args, kwargs, result) -> {counter: increment}``.
CountFn = Callable[[tuple, dict, Any], dict[str, float]]


class Ledger:
    """Self time per layer and counters, accumulated across spans."""

    def __init__(self) -> None:
        self.busy: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        # One enclosed-time accumulator per open span.
        self._open: list[float] = []

    def wrap(
        self, layer: str, fn: Callable, count: CountFn | None = None
    ) -> Callable:
        """``fn`` timed as a span of ``layer``."""

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            self._open.append(0.0)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                self.busy[layer] += elapsed - self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
            if count is not None:
                counted = time.perf_counter()
                for name, value in count(args, kwargs, result).items():
                    self.counts[name] += value
                if self._open:
                    # Bookkeeping is nobody's self time.
                    self._open[-1] += time.perf_counter() - counted
            return result

        return span


def _patch_function(ledger: Ledger, module: str, name: str, layer: str,
                    count: CountFn | None = None) -> None:
    """Replace ``module.name`` and every ``repro`` alias of it."""
    original = getattr(importlib.import_module(module), name)
    wrapper = ledger.wrap(layer, original, count)
    for loaded in list(sys.modules.values()):
        if not getattr(loaded, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, attr, wrapper)


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _patch_methods(ledger: Ledger, base: type, names: tuple[str, ...],
                   layer: str, count: CountFn | None = None) -> None:
    """Wrap each named method wherever ``base`` or a subclass defines it."""
    for cls in _subclasses(base):
        for name in names:
            method = cls.__dict__.get(name)
            if callable(method):
                setattr(cls, name, ledger.wrap(layer, method, count))


# -- counter hooks -----------------------------------------------------------


def _fault_trials(args: tuple, kwargs: dict, fault_map: Any) -> dict:
    faulty = (fault_map.set_mask | fault_map.clear_mask).any(axis=-1)
    return {
        "faults.trials": fault_map.n_trials,
        "faults.faulty_trials": int(faulty.sum()),
    }


def _codec_words(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"emt.words": args[1].size}


def _appended(args: tuple, kwargs: dict, result: Any) -> dict:
    # A sharded store appends through its shard stores: count the leaves.
    if isinstance(args[0], ShardedResultStore):
        return {}
    return {"store.records": len(args[1])}


def _calibration(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"runtime.calibrations": 1}


def _mission(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"runtime.windows": result.n_processed}


def _status_call(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"service.status_calls": 1}


def _patch_cache(ledger: Ledger) -> None:
    """``DiskCache.get_or_compute``: lookup time excludes the compute."""
    original = DiskCache.get_or_compute

    def get_or_compute(self, payload, compute, *args, **kwargs):
        computed = []

        def tracked():
            computed.append(True)
            return compute()

        value = timed(self, payload, tracked, *args, **kwargs)
        ledger.counts["cache.lookups"] += 1
        ledger.counts["cache.hits"] += 0 if computed else 1
        return value

    timed = ledger.wrap("cache.lookup_s", original)
    DiskCache.get_or_compute = functools.wraps(original)(get_or_compute)


#: Every module a workload reaches, lazily imported ones included.
MODULES = (
    "repro.api.session", "repro.campaign.evaluators", "repro.campaign.runner",
    "repro.exp.common", "repro.exp.fig4", "repro.campaign.analysis",
    "repro.apps.registry", "repro.runtime.simulator", "repro.cohort.fleet",
    "repro.service",
)


def import_modules() -> None:
    """Import :data:`MODULES`, so traced and untraced runs time the same
    work and names bound by ``from x import y`` exist to be rebound."""
    for module in MODULES:
        importlib.import_module(module)


def install() -> Ledger:
    """Wrap every layer's public functions; returns the shared ledger.

    Irreversible: call it only in a process that exists to be traced.
    """
    import_modules()
    ledger = Ledger()
    _patch_function(ledger, "repro.mem.faults", "sample_fault_map_batch",
                    "faults.sample_s", _fault_trials)
    _patch_methods(ledger, EMT, ("encode",), "emt.encode_s", _codec_words)
    _patch_methods(ledger, EMT, ("decode",), "emt.decode_s", _codec_words)
    _patch_methods(ledger, FaultySRAM,
                   ("write", "read", "write_readback_stacked"),
                   "sram.corrupt_s")
    _patch_methods(ledger, MemoryFabric, ("roundtrip", "write", "read"),
                   "fabric.glue_s")
    _patch_methods(ledger, BiomedicalApp, ("run", "run_batch"),
                   "apps.compute_s")
    _patch_methods(ledger, BiomedicalApp, ("output_snr", "output_snr_batch"),
                   "signals.snr_s")
    _patch_function(ledger, "repro.signals.dataset", "synthesize_record",
                    "signals.synth_s")
    _patch_methods(ledger, ResultStore, ("append_many",), "store.append_s",
                   _appended)
    _patch_methods(ledger, ResultStore, ("load",), "store.load_s")
    _patch_methods(ledger, BatchCalibrator, ("calibrate",),
                   "runtime.calibrate_s", _calibration)
    _patch_methods(ledger, MissionSimulator, ("run",), "runtime.stream_s",
                   _mission)
    _patch_cache(ledger)
    _patch_methods(ledger, ServiceClient, ("submit_campaign",),
                   "service.submit_s")
    _patch_methods(ledger, ServiceClient, ("wait",), "service.wait_s")
    _patch_methods(ledger, ServiceClient, ("status",), "service.status_s",
                   _status_call)
    return ledger
