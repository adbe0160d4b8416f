"""Common protocol of the biomedical applications.

An application is a pure function from 16-bit samples to an integer
output buffer, *except* that every buffer it materialises along the way
round-trips through a :class:`~repro.mem.fabric.MemoryFabric` — the
voltage-scaled data memory.  Running the same app against a defect-free
fabric yields the "theoretical" output of the paper's Formula 1; running
it against a faulty fabric yields the "experimental" output, and
:meth:`BiomedicalApp.output_snr` compares the two.

Applications whose natural quality reference is not their own clean
output (compressed sensing measures quality on the *reconstructed*
signal) override :meth:`output_snr`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..emt.base import NoProtection
from ..errors import SignalError
from ..fixedpoint import Q15
from ..mem.fabric import MemoryFabric
from ..signals.metrics import SNR_CAP_DB, snr_db, snr_db_batch

__all__ = ["BiomedicalApp", "clean_fabric"]


def clean_fabric() -> MemoryFabric:
    """A defect-free, unprotected fabric for theoretical runs."""
    return MemoryFabric(NoProtection())


class BiomedicalApp(ABC):
    """Base class of the paper's case-study applications.

    Subclasses set :attr:`name` (registry key) and implement :meth:`run`.
    They must be *deterministic* given their constructor arguments: the
    experiment harness relies on a clean run and a faulty run computing
    the same thing apart from memory corruption.
    """

    #: Registry key; overridden by subclasses.
    name: str = "abstract"

    #: Human-readable summary for reports.
    description: str = ""

    #: Whether :meth:`run` is written shape-agnostically — every
    #: intermediate treats the word index as the *last* axis, so handing
    #: it a trial-batched fabric processes all ``(n_trials, n_words)``
    #: rows in single numpy passes.  Applications with data-dependent
    #: control flow (delineation, classifier) leave this False and fall
    #: back to a per-trial loop in :meth:`run_batch`.
    supports_batch: bool = False

    def __init__(self) -> None:
        # Samples -> (clean output, words its buffers occupied).
        self._reference_cache: dict[bytes, tuple[np.ndarray, int]] = {}

    # -- core ----------------------------------------------------------------

    @abstractmethod
    def run(self, samples: np.ndarray, fabric: MemoryFabric) -> np.ndarray:
        """Process ``samples`` with all buffers living in ``fabric``.

        Args:
            samples: signed 16-bit ECG samples (raw integers).
            fabric: the (possibly faulty) data-memory fabric.

        Returns:
            The application's output buffer as signed ``int64`` values.
        """

    def run_batch(self, samples: np.ndarray, fabric: MemoryFabric) -> np.ndarray:
        """Process one sample stream under every trial of a batched fabric.

        The trial-batched hot path of the fault-injection pipeline: the
        fabric stacks ``n_trials`` independent fault maps, and the
        result row ``t`` is bit-identical to a sequential
        :meth:`run` against trial ``t``'s single fault map
        (property-tested across all EMTs).

        Returns:
            ``(n_trials, output_length)`` signed ``int64`` array.
        """
        if not fabric.is_batched:
            out = self.run(samples, fabric)
            return out[None, :]
        if self.supports_batch:
            return self.run(samples, fabric)
        # Sequential fallback for apps with data-dependent control flow:
        # one fresh single-trial fabric per row, exactly the historical
        # Monte-Carlo loop.
        return np.stack(
            [
                self.run(samples, fabric.trial(t))
                for t in range(fabric.n_trials)
            ]
        )

    @staticmethod
    def _window_stack(
        arr: np.ndarray, window: int, fabric: MemoryFabric
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """Split samples into a stackable block of full windows + a tail.

        When the fabric supports window stacking (batched, untraced),
        returns ``(full, tail)`` where ``full`` is a ``(1, W, window)``
        array of the leading complete windows (``None`` when there are
        none) ready for a single stacked roundtrip, and ``tail`` is the
        remaining samples — processed window by window so partial
        windows keep their historical handling.
        """
        if not getattr(fabric, "window_stacking", False):
            return None, arr
        n_full = arr.shape[-1] // window
        if n_full < 1:
            return None, arr
        full = arr[: n_full * window].reshape(1, n_full, window)
        return full, arr[n_full * window :]

    def _run_in_windows(
        self,
        arr: np.ndarray,
        window: int,
        fabric: MemoryFabric,
        run_window,
        pad: bool = False,
        trim: bool = False,
    ) -> np.ndarray:
        """Drive ``run_window`` over ``arr`` in fixed windows.

        The shared chunking engine of the batchable applications: on a
        window-stacking fabric every complete window rides one stacked
        call, and the trailing partial window follows on its own —
        zero-padded first when ``pad`` is set, its padding trimmed from
        the output when ``trim`` is set.  Output
        windows concatenate along the last axis in window order,
        exactly as the historical loop emitted them.
        """
        full, tail = self._window_stack(arr, window, fabric)
        outputs = []
        if full is not None:
            stacked = run_window(full)
            outputs.append(stacked.reshape(stacked.shape[0], -1))
        for start in range(0, tail.shape[-1], window):
            chunk = tail[..., start : start + window]
            valid = chunk.shape[-1]
            if pad and valid < window:
                padded = np.pad(chunk, (0, window - valid))
                out = run_window(padded)
                outputs.append(out[..., :valid] if trim else out)
            else:
                outputs.append(run_window(chunk))
        if len(outputs) == 1:
            return outputs[0]
        return np.concatenate(outputs, axis=-1)

    def _check_samples(self, samples: np.ndarray) -> np.ndarray:
        arr = np.asarray(samples, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise SignalError("samples must be a non-empty 1-D array")
        if int(arr.min()) < Q15.min_int or int(arr.max()) > Q15.max_int:
            raise SignalError("samples must be 16-bit signed values")
        return arr

    # -- quality evaluation ----------------------------------------------------

    def _clean_run(self, samples: np.ndarray) -> tuple[np.ndarray, int]:
        """One cached run on :func:`clean_fabric`: output and footprint."""
        arr = self._check_samples(samples)
        key = arr.tobytes()
        cached = self._reference_cache.get(key)
        if cached is None:
            fabric = clean_fabric()
            cached = (self.run(arr, fabric), fabric.words_allocated)
            self._reference_cache[key] = cached
        return cached

    def reference_output(self, samples: np.ndarray) -> np.ndarray:
        """The error-free ("theoretical") output for ``samples``, cached."""
        return self._clean_run(samples)[0]

    def footprint_words(self, samples: np.ndarray) -> int:
        """Words the buffers of a run on ``samples`` occupy, cached.

        Read off the clean run behind :meth:`reference_output`.  For a
        :attr:`supports_batch` application the buffer sizes follow from
        the sample count alone, so every fabric — faulty, batched, any
        EMT — allocates exactly these words, and a Monte-Carlo fault map
        need only be sampled for them.  Applications with data-dependent
        control flow may allocate differently under faults.
        """
        return self._clean_run(samples)[1]

    def output_snr(
        self,
        samples: np.ndarray,
        corrupted_output: np.ndarray,
        cap_db: float = SNR_CAP_DB,
    ) -> float:
        """Formula 1 SNR of a corrupted output against the clean one."""
        reference = self.reference_output(samples)
        return snr_db(reference, corrupted_output, cap_db=cap_db)

    def output_snr_batch(
        self,
        samples: np.ndarray,
        corrupted_outputs: np.ndarray,
        cap_db: float = SNR_CAP_DB,
    ) -> np.ndarray:
        """Per-trial Formula 1 SNR of a :meth:`run_batch` result.

        Row ``t`` equals ``output_snr(samples, corrupted_outputs[t])``
        exactly; the reduction runs once over the whole
        ``(n_trials, k)`` stack instead of once per trial.
        """
        reference = self.reference_output(samples)
        return snr_db_batch(reference, corrupted_outputs, cap_db=cap_db)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
