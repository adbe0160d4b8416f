"""One repetition of one workload, in a fresh process.

``run.py`` starts one of these per repetition::

    python3 perfbench/repetition.py --workload sweep_mc --seed 1 \\
        --trace 0 --spawned-at <unix time> [--scale tiny]

The process starts cold: its campaign stores, calibration cache and
service root live in a new directory under ``.perfbench_work/`` that is
removed on exit, so no in-process memo or append-only store carries
over from another repetition.  It prints one JSON object: set-up and
timed-region seconds, peak RSS, the :class:`workloads.Outcome`, and —
with ``--trace 1`` — the per-layer ledger of :mod:`layers`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

WORK_ROOT = Path(".perfbench_work")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="rep-", dir=WORK_ROOT))
    os.environ["REPRO_CAMPAIGN_DIR"] = str((work_dir / "campaigns").resolve())
    os.environ["REPRO_CACHE_DIR"] = str((work_dir / "cache").resolve())
    os.environ["REPRO_SERVICE_DIR"] = os.path.relpath(work_dir / "service")
    try:
        import layers
        import workloads

        layers.import_modules()
        workload = workloads.WORKLOADS[args.workload](
            args.seed, args.scale, work_dir
        )
        try:
            workload.start()
            ledger = layers.install() if args.trace else None
            setup_s = time.time() - args.spawned_at
            started = time.perf_counter()
            workload.run()
            wall_s = time.perf_counter() - started
            outcome = workload.check(wall_s)
        finally:
            workload.close()
        # Kilobytes on Linux; the children term is the reaped daemon tree.
        peak_kb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
        result = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "peak_rss_mb": peak_kb / 1024.0,
            **asdict(outcome),
        }
        if ledger is not None:
            result["busy"] = dict(ledger.busy)
            result["counts"] = dict(ledger.counts)
        print(json.dumps(result))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
