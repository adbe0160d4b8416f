"""Hybrid EMT policy — Section VI-C as a deployable object.

Derives a voltage-range policy from a (small) ``figure = "tradeoff"``
experiment on the DWT application, loads it into a
:class:`repro.emt.HybridEMT`, and walks the supply down from 0.90 V to
0.50 V showing which technique the policy engages at each point and
what it costs/saves.

Run:  python examples/hybrid_policy.py [n_runs]
"""

from __future__ import annotations

import sys

import numpy as np

from repro.api import Session
from repro.api.schema import Experiment, TradeoffParams
from repro.apps import DwtApp
from repro.campaign.evaluators import measured_workload
from repro.emt import DreamEMT, HybridEMT, NoProtection, SecDedEMT, make_emt
from repro.energy import EnergySystemModel, TECH_32NM_LP
from repro.energy.technology import PAPER_VOLTAGE_GRID
from repro.mem import MemoryFabric, sample_fault_map
from repro.mem.layout import PAPER_GEOMETRY
from repro.signals import load_record


def main(n_runs: int = 6) -> None:
    experiment = Experiment(
        name="hybrid-policy-sweep",
        kind="figure",
        params=TradeoffParams(
            app="dwt", records=("100",), duration_s=8.0, runs=n_runs,
            tolerance_db=5.0,
        ),
    )
    print("deriving the policy from a DWT voltage sweep ...")
    tradeoff = Session().run(experiment).result()

    print(f"\npolicy (DWT, -{tradeoff.tolerance_db:.0f} dB tolerance):")
    for entry in tradeoff.policy:
        print(f"  [{entry.v_min:.2f}; {entry.v_max:.2f}] V -> {entry.emt_name}"
              + (f"  (saves {entry.saving_pct:.1f}%)"
                 if entry.saving_pct is not None else ""))
    if not tradeoff.policy:
        print("  (no technique met the tolerance; relax it or add runs)")
        return

    members = {e.name: e for e in (NoProtection(), DreamEMT(), SecDedEMT())}
    hybrid = HybridEMT(members, tradeoff.policy, voltage=0.90)

    record = load_record("100", duration_s=8.0)
    app = DwtApp()
    workload = measured_workload("dwt", duration_s=8.0)
    nominal = EnergySystemModel(make_emt("none")).evaluate(0.90, workload).total_pj

    print(f"\n{'V':>5s} {'active EMT':>11s} {'SNR (dB)':>9s} {'energy':>7s}")
    for voltage in sorted(PAPER_VOLTAGE_GRID, reverse=True):
        try:
            hybrid.set_voltage(voltage)
        except Exception:
            print(f"{voltage:5.2f} {'(outside policy)':>11s}")
            continue
        rng = np.random.default_rng(int(voltage * 100))
        fault_map = sample_fault_map(
            PAPER_GEOMETRY.n_words,
            hybrid.active.stored_bits,
            TECH_32NM_LP.ber(voltage),
            rng,
        )
        fabric = MemoryFabric(hybrid.active, fault_map=fault_map)
        out = app.run(record.samples, fabric)
        snr = app.output_snr(record.samples, out)
        energy = (
            EnergySystemModel(hybrid.active).evaluate(voltage, workload).total_pj
            / nominal
        )
        print(f"{voltage:5.2f} {hybrid.active.name:>11s} {snr:9.1f} "
              f"{energy:6.2f}x")

    print("\nThe runtime switches techniques as the supply scales —")
    print("the paper's 'triggering, selectively, one or the other'.")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 6)
