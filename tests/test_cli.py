"""Tests for the command-line interface.

Experiments run through ``repro run <file>``; the helpers below write
the small experiment files the tests drive.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main

EXPERIMENTS = Path(__file__).resolve().parents[1] / "examples" / "experiments"

#: The per-artefact verbs removed in 1.8.0 (each is an experiment file).
REMOVED_VERBS = ("fig2", "fig4", "energy", "tradeoff", "sweep", "mission",
                 "cohort")


def experiment_file(tmp_path, kind: str, section: str, body: str,
                    name: str | None = None, **top) -> str:
    """Write a ``kind`` experiment file with one ``[section]`` table."""
    lines = ["version = 1", f'kind = "{kind}"', f'name = "{name or kind}"']
    lines += [f"{key} = {value!r}" for key, value in top.items()]
    path = tmp_path / f"{name or kind}.toml"
    path.write_text(
        "\n".join(lines) + f"\n\n[{section}]\n" + body, encoding="utf-8"
    )
    return str(path)


def figure_file(tmp_path, body: str, name: str = "figure") -> str:
    return experiment_file(tmp_path, "figure", "figure", body, name=name)


def sweep_file(tmp_path, voltages: str, apps: str = '["morphology"]',
               emts: str = '["none", "dream", "secded"]',
               tolerance_db: float = 5.0, workers: int = 1,
               extra: str = "") -> str:
    """A sweep with the small-record settings every sweep test uses."""
    return experiment_file(
        tmp_path, "sweep", "sweep",
        f"apps = {apps}\nemts = {emts}\nvoltages = [{voltages}]\n"
        f'records = ["100"]\nduration_s = 3.0\nruns = 2\n'
        f"tolerance_db = {tolerance_db}\n" + extra,
        workers=workers,
    )


def mission_file(tmp_path, scenario: str = "overnight",
                 policies: str = '["static:secded@0.65", "hysteresis"]'
                 ) -> str:
    return experiment_file(
        tmp_path, "mission", "mission",
        f'scenario = "{scenario}"\npolicies = {policies}\n'
        "duration_scale = 0.02\nprobe_runs = 2\nprobe_duration_s = 2.0\n",
        name=f"mission-{scenario}",
    )


def cohort_file(tmp_path, size: int = 6,
                policies: str = '["static:secded@0.65", "hysteresis"]',
                scenarios: str = '[["active_day", 0.7], ["overnight", 0.3]]'
                ) -> str:
    return experiment_file(
        tmp_path, "cohort", "cohort",
        f"size = {size}\npolicies = {policies}\nscenarios = {scenarios}\n"
        "duration_scale = 0.01\nprobe_runs = 2\nprobe_duration_s = 2.0\n",
        workers=1,
    )


FIG4_SMALL = (
    'figure = "fig4"\napps = ["morphology"]\nrecords = ["100"]\n'
    "duration_s = 3.0\nruns = 2\n"
)


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fft"])

    @pytest.mark.parametrize("verb", REMOVED_VERBS)
    def test_removed_experiment_verbs_are_invalid_choices(
        self, verb, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([verb, "--runs", "2"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_defaults(self):
        args = build_parser().parse_args(["run", "x.toml"])
        assert args.experiment == "x.toml"
        assert args.workers is None
        assert args.backend is None
        assert args.store is None and args.store_dir is None
        assert not args.fresh
        assert args.seed is None

    def test_global_seed_option(self):
        args = build_parser().parse_args(["--seed", "7", "run", "x.toml"])
        assert args.seed == 7

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_chaos_spec_exports_env(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert main(["--chaos", "delay:0.0:0.0,seed:3", "overheads"]) == 0
        import os

        assert os.environ.get("REPRO_CHAOS") == "delay:0.0:0.0,seed:3"
        monkeypatch.delenv("REPRO_CHAOS", raising=False)

    def test_malformed_chaos_spec_errors_before_running(
        self, capsys, monkeypatch
    ):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert main(["--chaos", "kill:2.0", "overheads"]) == 1
        err = capsys.readouterr().err
        assert "malformed chaos clause" in err
        assert "expected kill:P" in err
        # The bad spec was rejected up front, never exported.
        import os

        assert "REPRO_CHAOS" not in os.environ


class TestCommands:
    def test_overheads(self, capsys):
        assert main(["overheads"]) == 0
        out = capsys.readouterr().out
        assert "DREAM 5, ECC 6" in out

    def test_energy(self, capsys):
        assert main(["run", str(EXPERIMENTS / "energy_table.toml")]) == 0
        out = capsys.readouterr().out
        assert "paper: ~34%" in out and "paper: ~55%" in out

    def test_record(self, capsys):
        assert main(["record", "106", "--duration", "4"]) == 0
        out = capsys.readouterr().out
        assert "record 106" in out
        assert "360 Hz" in out

    @pytest.mark.parametrize("top, message", [
        ("version = 99", "unsupported experiment schema version 99"),
        ('version = 1\nbackend = "bogus"', "unknown execution backend"),
    ], ids=["schema-error", "plan-error"])
    def test_validate_names_the_file_once(self, capsys, tmp_path, top,
                                          message):
        path = tmp_path / "broken.toml"
        path.write_text(f'{top}\nkind = "sweep"\nname = "x"\n\n[sweep]\n',
                        encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert err.count(str(path)) == 1

    def test_closed_stdout_exits_quietly(self):
        """``repro describe <file> | true``: no traceback, SIGPIPE's code."""
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "describe",
                 str(EXPERIMENTS / "sweep_paper.toml")],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 141

    def test_other_broken_pipe_is_an_error(self, monkeypatch, capsys):
        """A broken pipe that is not stdout's is reported, not hidden."""
        import repro.cli as cli

        def broken(_args):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setitem(cli._HANDLERS, "describe", broken)
        assert main(["describe", str(EXPERIMENTS / "sweep_paper.toml")]) == 1
        assert "error: broken pipe" in capsys.readouterr().err

    def test_record_unknown_returns_error(self, capsys):
        assert main(["record", "999"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_fig2_small(self, capsys, tmp_path):
        path = figure_file(
            tmp_path,
            'figure = "fig2"\napps = ["morphology"]\nrecords = ["100"]\n'
            "duration_s = 3.0\n",
        )
        assert main(["run", path]) == 0
        out = capsys.readouterr().out
        assert "stuck-at-1" in out and "stuck-at-0" in out

    def test_fig4_small(self, capsys, tmp_path):
        assert main(["run", figure_file(tmp_path, FIG4_SMALL)]) == 0
        out = capsys.readouterr().out
        assert "Fig 4.a" in out and "Fig 4.b" in out and "Fig 4.c" in out

    def test_tradeoff_small(self, capsys, tmp_path):
        path = figure_file(
            tmp_path,
            'figure = "tradeoff"\napp = "morphology"\nrecords = ["100"]\n'
            "duration_s = 3.0\nruns = 2\ntolerance_db = 40.0\n",
        )
        assert main(["run", path]) == 0
        out = capsys.readouterr().out
        assert "Section VI-C" in out
        assert "12.7" in out  # paper-example table is always appended

    def test_lifetime(self, capsys):
        assert main(["lifetime", "--voltage", "0.65", "--emt", "dream"]) == 0
        out = capsys.readouterr().out
        assert "lifetime" in out
        assert "dream @ 0.65 V" in out

    def test_lifetime_unknown_emt(self, capsys):
        assert main(["lifetime", "--emt", "bch"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_mission_small(self, capsys, tmp_path):
        assert main(["run", mission_file(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "scenario 'overnight'" in out
        assert "adaptive-runtime mission" in out
        assert "static:secded@0.65" in out
        assert "hysteresis" in out

    def test_mission_unknown_scenario(self, capsys, tmp_path):
        assert main(["run", mission_file(tmp_path, scenario="mars")]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_mission_bad_policy_token(self, capsys, tmp_path):
        path = mission_file(tmp_path, policies='["pid"]')
        assert main(["run", path]) == 1
        assert "unknown policy" in capsys.readouterr().err

    def test_fig4_seed_changes_output(self, capsys, tmp_path):
        argv = ["run", figure_file(tmp_path, FIG4_SMALL)]
        assert main(["--seed", "7", *argv]) == 0
        seed7 = capsys.readouterr().out
        assert main(["--seed", "7", *argv]) == 0
        assert capsys.readouterr().out == seed7  # reproducible
        assert main(["--seed", "8", *argv]) == 0
        assert capsys.readouterr().out != seed7  # seed actually threads


class TestSweep:
    def test_runs_resumes_and_extracts(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_DIR", str(tmp_path))
        argv = ["run", sweep_file(
            tmp_path, "0.55, 0.65, 0.75, 0.85, 0.9", tolerance_db=40.0,
            workers=2,
        )]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "5 points — 5 executed, 0 cached, 0 failed" in out
        assert "15 points — 15 executed, 0 cached, 0 failed" in out
        assert "Pareto frontier" in out
        assert "operating points at -40.0 dB" in out
        # The paper's Section VI-C operating points are always appended.
        assert "12.7" in out and "30.6" in out and "39.5" in out
        assert (tmp_path / "sweep-quality.jsonl").exists()
        assert (tmp_path / "sweep-energy.jsonl").exists()

        # Second invocation resumes from the store: zero new executions.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "5 points — 0 executed, 5 cached, 0 failed" in out
        assert "15 points — 0 executed, 15 cached, 0 failed" in out

    def test_fresh_reexecutes_but_still_writes_store(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CAMPAIGN_DIR", str(tmp_path))
        argv = ["run", sweep_file(tmp_path, "0.9"), "--fresh"]
        assert main(argv) == 0
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 cached" in out  # second --fresh run re-executed everything
        # ... but the recomputed records supersede the stored ones, so a
        # later non-fresh run resumes from fresh data.
        assert (tmp_path / "sweep-quality.jsonl").exists()
        assert main(argv[:-1]) == 0  # without --fresh
        out = capsys.readouterr().out
        assert "0 executed, 1 cached" in out

    def test_multi_app_sweep_prices_each_app_workload(
        self, capsys, tmp_path, monkeypatch
    ):
        """The energy grid sweeps the workload's app as an axis, so each
        application's operating points use its own workload energy."""
        monkeypatch.setenv("REPRO_CAMPAIGN_DIR", str(tmp_path))
        assert main(["run", sweep_file(
            tmp_path, "0.9", apps='["morphology", "dwt"]', tolerance_db=40.0,
        )]) == 0
        out = capsys.readouterr().out
        # 2 quality points (2 apps x 1 V); 6 energy points (3 EMTs x 1 V
        # x 2 workload apps).
        assert "2 points — 2 executed" in out
        assert "6 points — 6 executed" in out
        assert "[morphology]" in out and "[dwt]" in out

    def test_unknown_app_fails_cleanly(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_DIR", str(tmp_path))
        assert main(["run", sweep_file(tmp_path, "0.9", apps='["fft"]')]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_baseline_fails_before_the_campaign(
        self, capsys, tmp_path, monkeypatch
    ):
        stores = tmp_path / "stores"
        monkeypatch.setenv("REPRO_CAMPAIGN_DIR", str(stores))
        path = sweep_file(tmp_path, "0.9", emts='["dream", "secded"]')
        assert main(["run", path]) == 1
        assert "baseline 'none'" in capsys.readouterr().err
        assert not stores.exists()  # nothing ran or was stored

    def test_growing_app_list_keeps_cached_energy_points(
        self, capsys, tmp_path, monkeypatch
    ):
        """Energy point hashes depend only on their own app's workload,
        so extending the app list must not invalidate stored energy
        results."""
        monkeypatch.setenv("REPRO_CAMPAIGN_DIR", str(tmp_path))
        assert main(["run", sweep_file(
            tmp_path, "0.9", apps='["dwt"]', tolerance_db=40.0,
        )]) == 0
        capsys.readouterr()
        assert main(["run", sweep_file(
            tmp_path, "0.9", apps='["dwt", "morphology"]', tolerance_db=40.0,
        )]) == 0
        out = capsys.readouterr().out
        # dwt's 3 energy points resume from the store; morphology's 3 run.
        assert "6 points — 3 executed, 3 cached" in out

    def test_nominal_voltage_failure_skips_analysis_not_report(
        self, capsys, tmp_path, monkeypatch
    ):
        """A failed point at nominal supply must not abort the report:
        the app's analysis is skipped, the rest still prints, exit is 1."""
        from repro.campaign import evaluators, runner

        def flaky(point):
            if point.kind == "montecarlo" and point.params["voltage"] == 0.9:
                raise RuntimeError("injected fault at nominal")
            return evaluators.evaluate_point(point)

        monkeypatch.setattr(runner, "evaluate_point", flaky)
        monkeypatch.setenv("REPRO_CAMPAIGN_DIR", str(tmp_path))
        assert main(["run", sweep_file(
            tmp_path, "0.85, 0.9", tolerance_db=40.0,
        )]) == 1
        captured = capsys.readouterr()
        assert "analysis skipped" in captured.err
        assert "results above are partial" in captured.err
        assert "12.7" in captured.out  # paper-example table still printed

    def test_failed_points_give_partial_results_and_nonzero_exit(
        self, capsys, tmp_path, monkeypatch
    ):
        """A sweep with failed grid points must not exit 0: scripts
        consuming its output need to see the result is partial."""
        from repro.campaign import evaluators, runner

        def flaky(point):
            if point.kind == "montecarlo" and point.params["voltage"] == 0.75:
                raise RuntimeError("injected fault")
            return evaluators.evaluate_point(point)

        monkeypatch.setattr(runner, "evaluate_point", flaky)
        monkeypatch.setenv("REPRO_CAMPAIGN_DIR", str(tmp_path))
        assert main(["run", sweep_file(
            tmp_path, "0.65, 0.75, 0.85, 0.9", tolerance_db=40.0,
        )]) == 1
        captured = capsys.readouterr()
        assert "1 failed" in captured.out
        assert "results above are partial" in captured.err
        # The planned grid is threaded into the extraction, so no safe
        # range crosses the unvalidated 0.75 V gap.
        for line in captured.out.splitlines():
            if "down to" in line:
                assert "0.65" not in line


class TestCohortParser:
    def test_cache_flags(self):
        args = build_parser().parse_args(["cache", "--clear"])
        assert args.clear and not args.info
        args = build_parser().parse_args(["cache", "--info"])
        assert args.info and not args.clear


class TestCohortCommand:
    def test_population_report(self, capsys, tmp_path):
        assert main(["run", cohort_file(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "population fleet" in out
        assert "battery survival" in out
        assert "Pareto frontier" in out
        assert "static:secded@0.65" in out or "static(" in out

    def test_seed_threads_into_population(self, capsys, tmp_path):
        argv = ["run", cohort_file(tmp_path)]
        assert main(["--seed", "7", *argv]) == 0
        seed7 = capsys.readouterr().out
        assert main(["--seed", "7", *argv]) == 0
        assert capsys.readouterr().out == seed7  # reproducible
        assert main(["--seed", "8", *argv]) == 0
        assert capsys.readouterr().out != seed7

    def test_bad_mix_rejected(self, capsys, tmp_path):
        path = cohort_file(tmp_path, scenarios='"active_day"')
        assert main(["run", path]) == 1
        assert "name:weight" in capsys.readouterr().err

    def test_bad_policy_rejected_before_running(self, capsys, tmp_path):
        assert main(["run", cohort_file(tmp_path, policies='["pid"]')]) == 1
        assert "unknown policy" in capsys.readouterr().err


class TestCacheCommand:
    def test_info_and_clear(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.cache import shared_cache

        shared_cache().get_or_compute({"k": 1}, lambda: 1)
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "entries:    1" in out
        assert str(tmp_path) in out
        assert main(["cache", "--clear"]) == 0
        assert "cleared 1" in capsys.readouterr().out
        assert main(["cache", "--info"]) == 0
        assert "entries:    0" in capsys.readouterr().out


class TestGridFailureExitCodes:
    """`repro run` must exit non-zero when any grid point (or the
    mission itself, or a cohort patient) fails."""

    def test_sweep_failed_points_exit_nonzero(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CAMPAIGN_DIR", str(tmp_path))
        import repro.exp.common as common

        def boom(*args, **kwargs):
            raise RuntimeError("injected grid failure")

        monkeypatch.setattr(common, "run_monte_carlo", boom)
        assert main(["run", sweep_file(tmp_path, "0.9")]) == 1
        err = capsys.readouterr().err
        assert "failed" in err
        assert "injected grid failure" in err

    def test_mission_failure_exits_nonzero(self, capsys, monkeypatch, tmp_path):
        from repro.errors import MissionError
        from repro.runtime import MissionSimulator

        def boom(self, policy):
            raise MissionError("injected mission failure")

        monkeypatch.setattr(MissionSimulator, "run", boom)
        assert main(["run", mission_file(tmp_path)]) == 1
        assert "injected mission failure" in capsys.readouterr().err

    def test_cohort_failed_patients_exit_nonzero(
        self, capsys, monkeypatch, tmp_path
    ):
        import repro.cohort.fleet as fleet_module
        from repro.errors import MissionError

        original = fleet_module.MissionSimulator.run

        def flaky(self, policy):
            if "p00002" in self.spec.name:
                raise MissionError("injected patient failure")
            return original(self, policy)

        monkeypatch.setattr(fleet_module.MissionSimulator, "run", flaky)
        path = cohort_file(tmp_path, size=4, policies='["hysteresis"]')
        assert main(["run", path]) == 1
        err = capsys.readouterr().err
        assert "patients failed" in err or "failed: patient" in err
