"""Tests for the experiment CLI (repro.harness.cli)."""

from __future__ import annotations

import csv

import pytest

from repro.harness.cli import build_parser, main
from repro.sim.shard import ShardConfig


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
                            lambda scale, runner: real(TINY, runner))
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
        (["all", "--csv", "out.csv"], "--csv"),
        (["fig13", "--out-dir", "out"], "--out-dir"),
        (["loopback-bridge", "--shards", "2"], "--shards"),
    ])
    def test_flag_that_would_be_ignored_is_rejected(self, capsys,
                                                    monkeypatch, argv,
                                                    names):
        """A flag the chosen route cannot honour exits 2 with a one-line
        message before any runner is built."""
        from repro.harness import cli
        monkeypatch.setattr(cli, "build_runner", lambda *a: pytest.fail(
            "runner built before the flags were checked"))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert names in err and len(err.splitlines()) == 1

    def test_epoch_flag_is_unknown(self):
        """The sharded engine derives its barrier spacing; there is no
        flag to set it."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig13", "--shards", "2",
                                       "--epoch", "0.5"])

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
                            lambda scale, runner: real(TINY, runner))
        assert main(["abl-ids"]) == 0
        out = capsys.readouterr().out
        assert "abl-ids" in out
        assert "component deltas" in out

    def test_seed_flag_rebases_the_seed_list(self, capsys, monkeypatch):
        """--seed must reach the experiment as the scale's seed_base, so
        every run_seeds() call starts from the requested seed."""
        from repro.harness import cli
        seen = {}

        def probe(scale, runner):
            seen["seeds"] = scale.seed_list()
            from repro.harness.experiments import ExperimentResult
            return ExperimentResult(experiment_id="fig13", title="probe",
                                    parameters={},
                                    rows=[{"reliability": 1.0}])

        monkeypatch.setitem(cli.ALL_EXPERIMENTS, "fig13", probe)
        assert main(["fig13", "--seed", "100"]) == 0
        assert seen["seeds"][0] == 100
        assert seen["seeds"] == sorted(seen["seeds"])

    @pytest.mark.parametrize("argv, env", [
        (["fig13", "--jobs", "-2"], None),
        (["fig13"], "two"),
    ])
    def test_bad_worker_count_exits_2(self, capsys, monkeypatch, argv, env):
        """A negative --jobs or a non-integer REPRO_JOBS is one line on
        stderr and exit 2, before the experiment (or any pool) starts."""
        from repro.harness import cli
        monkeypatch.setitem(cli.ALL_EXPERIMENTS, "fig13",
                            lambda *a: pytest.fail("ran with a bad count"))
        if env is not None:
            monkeypatch.setenv("REPRO_JOBS", env)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "worker count" in err and len(err.splitlines()) == 1


def _probe_runs(monkeypatch, fail: bool):
    """Route ``fig13`` to a probe that records the runner it is handed,
    starts that runner's pool, and then returns a row or raises."""
    from repro.harness import cli
    from repro.harness.experiments import ExperimentResult
    seen = {}

    def probe(scale, runner):
        seen["runner"], seen["shards"] = runner, scale.shards
        seen["jobs"], seen["root"] = runner.jobs, runner.cache.root
        runner._ensure_pool()
        if fail:
            raise RuntimeError("probe failed")
        return ExperimentResult(experiment_id="fig13", title="probe",
                                parameters={}, rows=[{"reliability": 1.0}])

    monkeypatch.setitem(cli.ALL_EXPERIMENTS, "fig13", probe)
    return seen


class TestRunnerOwnership:
    def test_main_hands_its_runner_down_and_reaps_it(self, monkeypatch,
                                                     tmp_path):
        """The runner ``--jobs``/``--cache-dir`` describe reaches the
        experiment as an argument (and ``--shards`` on its scale), and
        ``main`` closes the runner's pool."""
        seen = _probe_runs(monkeypatch, fail=False)
        cache_dir = tmp_path / "D"
        assert main(["fig13", "--jobs", "2", "--cache-dir", str(cache_dir),
                     "--shards", "2x2"]) == 0
        assert seen["jobs"] == 2 and seen["root"] == cache_dir
        assert seen["shards"] == ShardConfig(shards=4, rows=2)
        assert seen["runner"]._pool is None

    def test_pool_is_reaped_when_the_experiment_raises(self, monkeypatch,
                                                       tmp_path):
        seen = _probe_runs(monkeypatch, fail=True)
        with pytest.raises(RuntimeError, match="probe failed"):
            main(["fig13", "--jobs", "2", "--cache-dir", str(tmp_path)])
        assert seen["runner"]._pool is None
