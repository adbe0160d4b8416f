"""Voltage sweep — one application through the Fig 4 methodology.

Sweeps the data-memory supply from 0.90 V to 0.50 V for the DWT
application under all three EMTs, printing quality (mean SNR over
Monte-Carlo fault maps) next to the energy of each configuration — the
raw material of the paper's Section VI trade-off discussion.

Run:  python examples/voltage_sweep.py [n_runs]
"""

from __future__ import annotations

import sys

from repro.api import Session
from repro.api.schema import Experiment, Fig4Params
from repro.emt import make_emt
from repro.energy import EnergySystemModel, TECH_32NM_LP
from repro.exp.energy_table import measure_workload


def main(n_runs: int = 8) -> None:
    experiment = Experiment(
        name="voltage-sweep",
        kind="figure",
        params=Fig4Params(
            apps=("dwt",), records=("100", "106"), duration_s=8.0,
            runs=n_runs,
        ),
    )
    print(f"sweeping 0.50-0.90 V, {n_runs} Monte-Carlo runs per point ...\n")
    fig4 = Session().run(experiment).result()
    workload = measure_workload("dwt", duration_s=8.0)

    models = {
        name: EnergySystemModel(make_emt(name)) for name in
        ("none", "dream", "secded")
    }
    nominal = models["none"].evaluate(0.90, workload).total_pj

    header = f"{'V':>5s}  {'BER':>9s}"
    for name in models:
        header += f"  {name + ' SNR':>11s} {name + ' E':>9s}"
    print(header + "   (E = energy normalised to 0.9 V unprotected)")
    for voltage in fig4.voltages:
        row = f"{voltage:5.2f}  {TECH_32NM_LP.ber(voltage):9.1e}"
        point = fig4.points["dwt"][voltage]
        for name, model in models.items():
            energy = model.evaluate(voltage, workload).total_pj / nominal
            row += f"  {point.snr_mean_db[name]:9.1f}dB {energy:8.2f}x"
        print(row)

    print("\nReading the table (the paper's Section VI story):")
    print("  * >= 0.80 V: everything is error-free; protection only costs.")
    print("  * 0.60-0.70 V: SEC/DED corrects every single error; DREAM")
    print("    catches MSB faults only, but at ~21 points less overhead.")
    print("  * < 0.55 V: multi-bit errors defeat SEC/DED (detect-only),")
    print("    while DREAM keeps reconstructing the significant bits.")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 8)
