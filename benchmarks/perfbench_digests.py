"""Repo-benchmark result digests at any seed, for one or two checkouts.

``perfbench/run.py`` checks a workload's result digest against
``perfbench/digests.json`` only at ``--seed 1``.  This script prints the
digest itself, at any seed, so two commits can be shown to compute the
same results::

    python benchmarks/perfbench_digests.py /path/to/other/checkout \\
        --seeds 2 3

Each (checkout, workload, seed) runs one untraced repetition of that
checkout's own ``perfbench/repetition.py`` in a fresh process (its
``src`` on ``PYTHONPATH``, no ``REPRO_*`` variable inherited), one at a
time.  With a second checkout every row says whether the two digests
match, and the exit code is 1 when any row differs or fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep_mc", "cohort_fleet", "service_burst")

#: Longer than any full-scale repetition takes.
TIMEOUT_S = 300.0


def digest(checkout: Path, workload: str, seed: int, scale: str) -> str:
    """One untraced repetition's result digest (or ``error: ...``)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(checkout / "src")
    command = [
        sys.executable, str(checkout / "perfbench" / "repetition.py"),
        "--workload", workload, "--seed", str(seed), "--trace", "0",
        "--scale", scale, "--spawned-at", repr(time.time()),
    ]
    # Its own process group, so a service daemon's fleet dies with it.
    proc = subprocess.Popen(
        command, cwd=checkout, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout, stderr = "", f"timed out after {TIMEOUT_S:.0f} s"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0 or not stdout.strip():
        return "error: " + (stderr.strip().splitlines() or ["no output"])[-1]
    report = json.loads(stdout.strip().splitlines()[-1])
    if report["failed"]:
        return f"error: {report['failed']} failed check(s)"
    return report["digest"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "checkouts", nargs="*", type=Path,
        help="up to two repository checkouts (default: this one)",
    )
    parser.add_argument(
        "--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS),
    )
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    checkouts = [path.resolve() for path in args.checkouts] or [ROOT]
    if len(checkouts) == 1 and checkouts[0] != ROOT:
        checkouts.insert(0, ROOT)
    if len(checkouts) > 2:
        parser.error("give at most two checkouts")

    for index, checkout in enumerate(checkouts):
        print(f"checkout {'ab'[index]}: {checkout}")
    ok = True
    for workload in args.workload:
        for seed in args.seeds:
            digests = [
                digest(checkout, workload, seed, args.scale)
                for checkout in checkouts
            ]
            row = f"{workload:<14} seed {seed:<3} " + "  ".join(digests)
            if any(d.startswith("error") for d in digests):
                ok = False
            elif len(digests) == 2:
                same = digests[0] == digests[1]
                ok &= same
                row += "  match" if same else "  DIFFER"
            print(row, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
