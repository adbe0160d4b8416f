"""Additional Fig 4 behaviours: extended EMT sets, VI-C contiguity."""

from __future__ import annotations

from repro.api.schema import Fig4Params
from repro.campaign import extract_tradeoff
from repro.exp.common import MonteCarloResult
from repro.exp.fig4 import Fig4Result


class TestExtendedEmtSet:
    def test_sweep_with_multi_error_emt(self, run_figure):
        """The registry extension slots straight into a Fig 4 sweep."""
        result = run_figure(Fig4Params(
            apps=("morphology",),
            emts=("none", "dream", "secded", "dream_secded"),
            voltages=(0.5, 0.9),
            records=("100",),
            duration_s=3.0,
            runs=2,
        ))
        point = result.points["morphology"][0.5]
        assert set(point.snr_mean_db) == {
            "none", "dream", "secded", "dream_secded",
        }
        # The composition dominates everything at the deep end.
        best = max(point.snr_mean_db, key=point.snr_mean_db.get)
        assert best == "dream_secded"


class TestMinVoltageContiguity:
    """The VI-C walk of :func:`extract_tradeoff` on hand-made curves."""

    @staticmethod
    def floor(series: dict[float, float]) -> float | None:
        """Lowest safe voltage of ``series`` against a 90 dB floor.

        A reference EMT pins the 96 dB ceiling at nominal supply, so a
        6 dB tolerance reads as the absolute 90 dB requirement.
        """
        rows = [
            {"emt": "none", "voltage": v, "snr_db": snr, "energy_pj": 1.0}
            for v, snr in series.items()
        ]
        rows.append({"emt": "ref", "voltage": max(series), "snr_db": 96.0,
                     "energy_pj": 1.0})
        points = {p.emt_name: p for p in extract_tradeoff(rows, 6.0)}
        return points["none"].v_min_safe if "none" in points else None

    def make_result(self, series: dict[float, float]) -> Fig4Result:
        result = Fig4Result(voltages=sorted(series))
        result.points["app"] = {
            v: MonteCarloResult(
                snr_mean_db={"none": snr}, snr_std_db={"none": 0.0}, n_runs=1
            )
            for v, snr in series.items()
        }
        return result

    def test_contiguous_descent(self):
        assert self.floor({0.9: 96.0, 0.8: 96.0, 0.7: 50.0}) == 0.8

    def test_recovery_by_chance_does_not_extend(self):
        """A lower voltage that recovers (by MC luck) must not extend
        the safe range across a failing gap."""
        assert self.floor({0.9: 96.0, 0.8: 50.0, 0.7: 96.0}) == 0.9

    def test_nothing_meets(self):
        assert self.floor({0.9: 10.0, 0.8: 5.0}) is None

    def test_series_roundtrip(self):
        result = self.make_result({0.9: 96.0, 0.8: 50.0})
        assert result.series("app", "none") == [50.0, 96.0]
