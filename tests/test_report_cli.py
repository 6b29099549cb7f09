"""Tests for the one-shot reproduction report and its CLI verb."""

import copy

import pytest

from repro.experiments.summary import build_report


@pytest.fixture
def replayed_suite(bench_snapshot, monkeypatch):
    """``bench`` invocations replay the session's one suite execution
    instead of re-simulating (the suite is deterministic —
    ``tests/test_ledger.py`` runs it twice to prove it)."""
    from repro.obs import ledger

    def replay(operations, seed):
        assert (operations, seed) == (
            bench_snapshot["operations"],
            bench_snapshot["seed"],
        )
        return copy.deepcopy(bench_snapshot)

    monkeypatch.setattr(ledger, "run_bench_suite", replay)


class TestBuildReport:
    def test_report_covers_every_experiment(self):
        report = build_report(include_simulation=False)
        from repro.experiments import REGISTRY

        for figure_id in REGISTRY:
            assert f"## {figure_id}" in report

    def test_report_verdict_counts_checks(self):
        report = build_report(include_simulation=False)
        assert "failed checks: none" in report
        assert "paper-claim checks evaluated:" in report

    def test_simulation_section_toggle(self):
        without = build_report(include_simulation=False)
        assert "(skipped)" in without

    def test_cli_report_to_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "REPORT.md"
        code = main(["report", "-o", str(path), "--no-simulation"])
        assert code == 0
        text = path.read_text()
        assert text.startswith("# Reproduction report")
        assert "failed checks: none" in text


class TestCliContract:
    """Exit codes and discoverability shared by every subcommand."""

    def test_help_epilog_lists_all_subcommands(self, capsys):
        from repro.cli import build_parser, main

        sub_names = sorted(
            next(
                action
                for action in build_parser()._actions
                if hasattr(action, "choices") and action.choices
            ).choices
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        helptext = capsys.readouterr().out
        assert "subcommands:" in helptext
        for name in sub_names:
            assert name in helptext
        assert "concurrent" in sub_names

    def test_unknown_subcommand_exits_2(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["not-a-verb"])
        assert excinfo.value.code == 2

    def test_concurrent_bad_mpl_exits_2(self, capsys):
        from repro.cli import main

        assert main(["concurrent", "--mpl", "0"]) == 2
        assert "must be integers >= 1" in capsys.readouterr().err
        assert main(["concurrent", "--mpl", "1,x"]) == 2

    def test_concurrent_bad_strategy_exits_2(self, capsys):
        from repro.cli import main

        assert main(["concurrent", "--strategy", "bogus"]) == 2
        assert "unknown strategy" in capsys.readouterr().err.lower()

    def test_profile_bad_strategy_exits_2(self, capsys):
        from repro.cli import main

        assert main(["profile", "--strategy", "bogus"]) == 2

    def test_chaos_bad_args_exit_2(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--mpl", "0"]) == 2
        assert "--mpl" in capsys.readouterr().err
        assert main(["chaos", "--mpl", "two"]) == 2
        assert main(["chaos", "--strategy", "bogus"]) == 2
        assert "unknown strategy" in capsys.readouterr().err.lower()
        assert main(["chaos", "--fault-events", "0"]) == 2
        assert "--fault-events" in capsys.readouterr().err

    def test_chaos_json_smoke(self, capsys):
        import json

        from repro.cli import main

        code = main(
            [
                "chaos",
                "--strategy",
                "ar",
                "--operations",
                "20",
                "--fault-events",
                "15",
                "--seed",
                "3",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "chaos_report"
        assert payload["oracle_ok"] is True
        run = payload["runs"][0]
        assert run["strategy"] == "always_recompute"
        assert run["attribution_consistent"] is True
        assert "fault_counts" in run and "database_digest" in run

    def test_concurrent_json_smoke(self, capsys):
        import json

        from repro.cli import main

        code = main(
            [
                "concurrent",
                "--mpl",
                "1",
                "--strategy",
                "ar",
                "--operations",
                "20",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "concurrent_sweep"
        assert payload["mpls"] == [1]
        assert payload["strategies"] == ["always_recompute"]
        run = payload["runs"][0]
        assert run["throughput_ops_per_s"] > 0
        assert run["access_latency"]["p95"] >= run["access_latency"]["p50"]


class TestJsonSchemaVersion:
    """Satellite contract: every CLI-emitted JSON carries schema_version."""

    def _json_out(self, capsys, argv):
        import json

        from repro.cli import main

        code = main(argv)
        return code, json.loads(capsys.readouterr().out)

    def test_profile_json(self, capsys):
        from repro.obs.flight import SCHEMA_VERSION

        code, payload = self._json_out(
            capsys,
            ["profile", "--strategy", "ci", "--operations", "20", "--json"],
        )
        assert code == 0
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["kind"] == "profile_report"

    def test_concurrent_json(self, capsys):
        from repro.obs.flight import SCHEMA_VERSION

        code, payload = self._json_out(
            capsys,
            ["concurrent", "--mpl", "1", "--strategy", "ar",
             "--operations", "20", "--json"],
        )
        assert code == 0
        assert payload["schema_version"] == SCHEMA_VERSION

    def test_chaos_json(self, capsys):
        from repro.obs.flight import SCHEMA_VERSION

        code, payload = self._json_out(
            capsys,
            ["chaos", "--strategy", "ar", "--operations", "20",
             "--fault-events", "15", "--json"],
        )
        assert code == 0
        assert payload["schema_version"] == SCHEMA_VERSION
        assert all(
            run["schema_version"] == SCHEMA_VERSION
            for run in payload["runs"]
        )


class TestBenchCli:
    """The perf-regression gate subcommand."""

    def test_bad_args_exit_2(self, capsys, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--operations", "0"]) == 2
        assert main(["bench", "--tolerance", "-1"]) == 2
        assert main(["bench", "--compare", "no-such-file.json"]) == 2
        assert "cannot load baseline" in capsys.readouterr().err

    def test_bench_writes_ledger_and_self_compares(
        self, capsys, tmp_path, monkeypatch, replayed_suite
    ):
        import json

        from repro.cli import main
        from repro.obs.flight import SCHEMA_VERSION

        monkeypatch.chdir(tmp_path)
        code = main(["bench", "--operations", "60", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["kind"] == "bench_snapshot"
        assert (tmp_path / "BENCH_latest.json").exists()
        history = (tmp_path / "BENCH_history.jsonl").read_text()
        assert len(history.splitlines()) == 1

        # Self-comparison against the just-written snapshot is clean.
        code = main(
            ["bench", "--operations", "60",
             "--compare", "BENCH_latest.json", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["comparison"]["regressions"] == []
        assert len((tmp_path / "BENCH_history.jsonl")
                   .read_text().splitlines()) == 2

    def test_bench_gate_trips_on_regression(
        self, capsys, tmp_path, monkeypatch, replayed_suite
    ):
        import json

        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--operations", "60"]) == 0
        capsys.readouterr()
        baseline = json.loads((tmp_path / "BENCH_latest.json").read_text())
        # Pretend the baseline was far cheaper: the fresh run regresses.
        key = "concurrent.cache_invalidate.mpl4.cost_per_access_ms"
        baseline["metrics"][key]["value"] /= 10.0
        (tmp_path / "doctored.json").write_text(json.dumps(baseline))
        code = main(
            ["bench", "--operations", "60", "--compare", "doctored.json"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "REGRESSED" in captured.out
        assert key in captured.err
