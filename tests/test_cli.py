"""Tests for the experiment CLI (repro.harness.cli)."""

from __future__ import annotations

import csv

import pytest

from repro.harness.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["fig13"])
        assert args.experiment == "fig13"
        assert args.scale is None and args.csv is None

    def test_scale_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig13", "--scale", "huge"])

    def test_seed_flag_parsed(self):
        args = build_parser().parse_args(["fig13", "--seed", "7"])
        assert args.seed == 7
        assert build_parser().parse_args(["fig13"]).seed is None


class TestMain:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for figure in ("fig11", "fig20", "abl-gc"):
            assert figure in out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["figXX"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_runs_experiment_and_writes_csv(self, capsys, tmp_path,
                                            monkeypatch):
        # Pin the run to a tiny scale so the test stays fast: the CLI looks
        # the experiment up in ALL_EXPERIMENTS, which we can patch.
        from repro.harness import cli
        from tests.test_experiments import TINY
        real = cli.ALL_EXPERIMENTS["fig13"]
        monkeypatch.setitem(cli.ALL_EXPERIMENTS, "fig13",
                            lambda scale: real(TINY))
        path = tmp_path / "fig13.csv"
        assert main(["fig13", "--csv", str(path)]) == 0
        out = capsys.readouterr().out
        assert "fig13" in out
        assert "hb_upper" in out
        with open(path) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 3          # TINY sweeps 1/3/5 s bounds

    def test_list_prints_23_ids_with_summaries(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert len(lines) == 23
        assert all(len(line.split(None, 1)) == 2 for line in lines)

    @pytest.mark.parametrize("argv, names", [
        (["fig13", "--epoch", "0.5"], "--epoch"),
        (["all", "--csv", "out.csv"], "--csv"),
        (["fig13", "--out-dir", "out"], "--out-dir"),
    ])
    def test_flag_that_would_be_ignored_is_rejected(self, capsys,
                                                    monkeypatch, argv,
                                                    names):
        """A flag the chosen route cannot honour exits 2 with a one-line
        message before any engine is configured."""
        from repro.harness import cli
        monkeypatch.setattr(cli, "configure_engine", lambda *a: pytest.fail(
            "engine configured before the flags were checked"))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert names in err and len(err.splitlines()) == 1

    def test_removed_study_route_flags_are_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig13", "--list"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig13", "--run", "abl-ids"])

    def test_study_run_prints_notes(self, capsys, monkeypatch):
        # Route the registered entry to a tiny-scale run so the test
        # stays fast; a declaration's notes print below its rows.
        from repro.harness import cli
        from tests.test_experiments import TINY
        real = cli.ALL_EXPERIMENTS["abl-ids"]
        monkeypatch.setitem(cli.ALL_EXPERIMENTS, "abl-ids",
                            lambda scale: real(TINY))
        assert main(["abl-ids"]) == 0
        out = capsys.readouterr().out
        assert "abl-ids" in out
        assert "component deltas" in out

    def test_seed_flag_rebases_the_seed_list(self, capsys, monkeypatch):
        """--seed must reach the experiment as the scale's seed_base, so
        every run_seeds() call starts from the requested seed."""
        from repro.harness import cli
        seen = {}

        def probe(scale):
            seen["seeds"] = scale.seed_list()
            from repro.harness.experiments import ExperimentResult
            return ExperimentResult(experiment_id="fig13", title="probe",
                                    parameters={},
                                    rows=[{"reliability": 1.0}])

        monkeypatch.setitem(cli.ALL_EXPERIMENTS, "fig13", probe)
        assert main(["fig13", "--seed", "100"]) == 0
        assert seen["seeds"][0] == 100
        assert seen["seeds"] == sorted(seen["seeds"])
