"""CLI: listing, simulation and experiment commands."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_defaults_to_all(self):
        args = build_parser().parse_args(["list"])
        assert args.what == "all"

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.scenario == "cc1"
        assert "ours" in args.schemes


class TestListCommand:
    def test_list_workloads(self, capsys):
        assert main(["list", "workloads"]) == 0
        out = capsys.readouterr().out
        assert "alex" in out and "mcf" in out

    def test_list_scenarios(self, capsys):
        assert main(["list", "scenarios"]) == 0
        out = capsys.readouterr().out
        assert "cc1" in out and "finance" in out and "250" in out

    def test_list_schemes(self, capsys):
        assert main(["list", "schemes"]) == 0
        assert "bmf_unused_ours" in capsys.readouterr().out

    def test_list_experiments(self, capsys):
        assert main(["list", "experiments"]) == 0
        out = capsys.readouterr().out
        assert "fig15" in out and "tab_hw" in out


class TestSimulateCommand:
    def test_simulate_selected_scenario(self, capsys):
        code = main(
            [
                "simulate",
                "--scenario", "cc3",
                "--schemes", "conventional,ours",
                "--duration", "1500",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Conventional" in out and "Ours" in out

    def test_simulate_custom_workloads(self, capsys):
        code = main(
            [
                "simulate",
                "--workloads", "bw+mm+alex+ncf",
                "--schemes", "ours",
                "--duration", "1200",
            ]
        )
        assert code == 0
        assert "custom" in capsys.readouterr().out

    def test_simulate_bad_workload_combo(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--workloads", "bw+mm"])

    def test_simulate_unknown_scenario(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--scenario", "nope"])


class TestExperimentCommand:
    def test_tab_hw_is_analytic_and_fast(self, capsys):
        assert main(["experiment", "tab_hw"]) == 0
        assert "842B" in capsys.readouterr().out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_tab02_with_duration(self, capsys):
        assert main(["experiment", "tab02", "--duration", "1200"]) == 0
        assert "correct_prediction" in capsys.readouterr().out


class TestResilienceFlags:
    def test_flags_parse_on_every_fanout_command(self):
        for command in (["simulate"], ["experiment", "fig15"],
                        ["report"], ["faults"]):
            args = build_parser().parse_args(
                command + [
                    "--timeout", "30", "--retries", "2",
                    "--run-id", "r1", "--runs-dir", "/tmp/runs",
                ]
            )
            assert args.timeout == 30.0
            assert args.retries == 2
            assert args.run_id == "r1"
            assert args.runs_dir == "/tmp/runs"
            assert args.resume is None

    def test_no_flags_means_no_explicit_supervisor(self):
        from repro.cli import _supervisor

        args = build_parser().parse_args(["simulate"])
        assert _supervisor(args) is None

    def test_run_id_builds_journaling_supervisor(self, tmp_path):
        from repro.cli import _supervisor

        args = build_parser().parse_args(
            ["simulate", "--run-id", "r9", "--runs-dir", str(tmp_path)]
        )
        supervisor = _supervisor(args)
        assert supervisor is not None
        assert supervisor.checkpointing
        assert supervisor.run_id == "r9"
        assert supervisor.store_dir() == tmp_path / "store"

    def test_resume_flag_sets_resume_mode(self, tmp_path):
        from repro.cli import _supervisor

        args = build_parser().parse_args(
            ["simulate", "--resume", "r9", "--runs-dir", str(tmp_path)]
        )
        supervisor = _supervisor(args)
        # --resume ID is --run-id ID: the store decides what is reused.
        assert supervisor.run_id == "r9" and supervisor.checkpointing

    def test_timeout_alone_supervises_without_journal(self):
        from repro.cli import _supervisor

        args = build_parser().parse_args(["simulate", "--timeout", "5"])
        supervisor = _supervisor(args)
        assert supervisor is not None
        assert not supervisor.checkpointing
        assert supervisor.policy.timeout_seconds == 5.0

    def test_supervised_simulate_runs(self, capsys, tmp_path):
        code = main(
            [
                "simulate",
                "--scenario", "cc3",
                "--schemes", "conventional,ours",
                "--duration", "1200",
                "--run-id", "cli-test",
                "--runs-dir", str(tmp_path),
                "--jobs", "1",
            ]
        )
        assert code == 0
        assert (tmp_path / "cli-test").is_dir()
        blobs = list((tmp_path / "store").glob("*/*.json"))
        assert blobs, "no result was checkpointed"


class TestChaosCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.sample == 6
        assert args.duration == 800.0
        assert args.crash_rate == 0.2
        assert args.lost_rate == 0.0
        assert args.timeout == 15.0
        assert args.schemes == "conventional,ours"
        assert not args.skip_sweep and not args.skip_campaign

    def test_probe_only_run(self, capsys):
        # Hang-detection probe only: proves the command wiring without
        # paying for the full sweep/campaign chaos story.
        code = main(["chaos", "--skip-sweep", "--skip-campaign"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS] hang detection" in out
        assert "chaos CLEAN" in out


class TestPlotFlag:
    def test_fig17_plot_renders_cdf(self, capsys):
        code = main(
            [
                "experiment", "fig17",
                "--plot", "--sample", "2", "--duration", "1500",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "normalized execution time" in out
        assert "o=" in out  # legend glyphs
