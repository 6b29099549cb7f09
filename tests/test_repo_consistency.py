"""Repository-consistency meta-tests: the documentation's promises are
checked against the code, so docs cannot silently rot."""

import pathlib
import re

from repro.experiments import REGISTRY

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestDesignDocument:
    def test_every_experiment_listed_in_design(self):
        design = (ROOT / "DESIGN.md").read_text()
        for figure_id in REGISTRY:
            if figure_id.startswith("fig"):
                short = f"Fig {int(figure_id[3:])}"
                assert short in design, f"{figure_id} missing from DESIGN.md"

    def test_bench_files_mentioned_in_design_exist(self):
        design = (ROOT / "DESIGN.md").read_text()
        for match in re.finditer(r"benchmarks/([\w.]+\.py)", design):
            path = ROOT / "benchmarks" / match.group(1)
            assert path.exists(), f"DESIGN.md references missing {path.name}"

    def test_modules_mentioned_in_design_import(self):
        design = (ROOT / "DESIGN.md").read_text()
        import importlib

        for match in set(re.finditer(r"`(repro(?:\.\w+)+)`", design)):
            name = match.group(1)
            # Strip attribute-level references (module.attr).
            parts = name.split(".")
            for depth in range(len(parts), 1, -1):
                try:
                    importlib.import_module(".".join(parts[:depth]))
                    break
                except ModuleNotFoundError:
                    continue
            else:
                raise AssertionError(f"DESIGN.md references unknown {name}")


class TestBenchCoverage:
    def test_one_bench_file_per_paper_figure(self):
        bench_dir = ROOT / "benchmarks"
        for figure_id in REGISTRY:
            if figure_id.startswith("fig"):
                assert (bench_dir / f"test_bench_{figure_id}.py").exists(), (
                    f"no bench file for {figure_id}"
                )
        assert (bench_dir / "test_bench_tables.py").exists()

    def test_bench_files_reference_their_figure(self):
        bench_dir = ROOT / "benchmarks"
        for figure_id in REGISTRY:
            if not figure_id.startswith("fig"):
                continue
            text = (bench_dir / f"test_bench_{figure_id}.py").read_text()
            assert f'"{figure_id}"' in text


class TestExperimentsDocument:
    def test_every_experiment_has_a_section(self):
        experiments = (ROOT / "EXPERIMENTS.md").read_text()
        for figure_id in REGISTRY:
            assert figure_id in experiments, (
                f"{figure_id} missing from EXPERIMENTS.md"
            )

    def test_result_artifacts_mentioned_exist_after_bench_run(self):
        """EXPERIMENTS.md points at results/*.txt files the bench suite
        writes; if a bench run has happened, they must all exist."""
        experiments = (ROOT / "EXPERIMENTS.md").read_text()
        results_dir = ROOT / "results"
        if not results_dir.exists():
            return  # benches not run yet in this checkout
        for match in set(re.finditer(r"results/([\w]+\.txt)", experiments)):
            assert (results_dir / match.group(1)).exists(), (
                f"EXPERIMENTS.md references missing results/{match.group(1)}"
            )


class TestBenchBaseline:
    """The committed perf baseline must stay loadable and schema-valid,
    or `bench --compare results/bench_baseline.json` rots in CI."""

    BASELINE = ROOT / "results" / "bench_baseline.json"

    def test_baseline_exists(self):
        assert self.BASELINE.exists(), (
            "committed bench baseline missing; regenerate with "
            "`repro-procs bench --history '' "
            "--latest results/bench_baseline.json`"
        )

    def test_baseline_matches_ledger_schema(self):
        from repro.obs.ledger import (
            SUITE_VERSION,
            load_snapshot,
            validate_snapshot,
        )

        snapshot = load_snapshot(str(self.BASELINE))
        assert validate_snapshot(snapshot) == []
        assert snapshot["suite_version"] == SUITE_VERSION, (
            "suite version changed; regenerate the committed baseline"
        )

    def test_baseline_is_gitignored_only_for_per_run_artifacts(self):
        """results/runs/ and the ledger outputs are ignored, but the
        committed baseline itself must not be."""
        gitignore = (ROOT / ".gitignore").read_text()
        assert "results/runs/" in gitignore
        assert "BENCH_history.jsonl" in gitignore
        assert "BENCH_latest.json" in gitignore
        assert "bench_baseline" not in gitignore


class TestReadme:
    def test_quickstart_numbers_match_model(self):
        """README quotes the default-point costs; they must stay true."""
        from repro.model import ModelParams, strategy_costs

        readme = (ROOT / "README.md").read_text()
        costs = strategy_costs(ModelParams(), model=1)
        for name, breakdown in costs.items():
            assert f"'{name}': {breakdown.total_ms:.1f}" in readme, (
                f"README quickstart quote for {name} is stale "
                f"(model now says {breakdown.total_ms:.1f})"
            )

    def test_examples_listed_in_readme_exist(self):
        readme = (ROOT / "README.md").read_text()
        for match in re.finditer(r"examples/(\w+\.py)", readme):
            assert (ROOT / "examples" / match.group(1)).exists()


class TestOneAssembly:
    """``build_stack`` is the only place a run is assembled and
    ``draw_update`` the only place a change-set is drawn — the per-driver
    copies they replaced must not grow back."""

    SRC = ROOT / "src" / "repro"

    def _call_sites(self, name: str) -> dict[str, int]:
        """``{file: count}`` of calls to ``name`` (definitions excluded)."""
        pattern = re.compile(rf"(?<!def )(?<!class )\b{name}\(")
        counts = {
            path.relative_to(self.SRC).as_posix(): len(
                pattern.findall(path.read_text())
            )
            for path in self.SRC.rglob("*.py")
        }
        return {path: n for path, n in counts.items() if n}

    def test_only_build_stack_assembles(self):
        for name in ("build_procedures", "make_sharded_strategy"):
            assert self._call_sites(name) == {"workload/runner.py": 1}, name
        # Managers are instantiated through build_stack's factory alone
        # (chaos hands it the one SupervisedManager constructor).
        assert self._call_sites("ProcedureManager") == {}
        assert self._call_sites("SupervisedManager") == {"faults/chaos.py": 1}

    def test_only_draw_update_draws_change_sets(self):
        draws = {
            path: n
            for path, n in self._call_sites("randrange").items()
            if path not in (
                "workload/database.py",    # initial table content
                "workload/procedures.py",  # procedure intervals
                "workload/generator.py",   # operation stream
            )
        }
        # One redraw rule per relation, all inside draw_update.
        assert draws == {"workload/runner.py": 3}
        assert self._call_sites("draw_update") == {
            "workload/runner.py": 1,   # perform_update
            "concurrent/engine.py": 1,  # _Engine._prepare_update
        }


    def test_only_fault_plan_schedules_a_shard_kill(self):
        # cli, obs/monitor and obs/ledger each used to splice the
        # ScheduledFault into a copied plan themselves.
        assert self._call_sites("ScheduledFault") == {
            "faults/injector.py": 2,  # with_shard_kill, for_shard
        }
        assert self._call_sites("with_shard_kill") == {
            "cli.py": 1, "obs/monitor.py": 1, "obs/ledger.py": 1,
        }


class TestOneHotPath:
    """Every inner loop that charges C1/C2/C3 has one implementation, the
    vectorised one: the runtime toggle that selected a dict-walking twin
    and the wall-clock lane that timed the two against each other must
    not grow back. (``benchmarks/wall/`` is outside the guard.)"""

    FORBIDDEN = (
        "columnar_enabled",
        "columnar_mode",
        "REPRO_COLUMNAR",
        "run_wallclock_suite",
    )

    def _guarded_files(self):
        for top in ("src", "tests", "scripts", ".github"):
            for path in (ROOT / top).rglob("*"):
                if path.is_file() and "__pycache__" not in path.parts:
                    yield path
        yield from (ROOT / "benchmarks").glob("*.py")

    def test_no_second_hot_path(self):
        this_file = pathlib.Path(__file__).resolve()
        found = {
            (path.relative_to(ROOT).as_posix(), name)
            for path in self._guarded_files()
            if path.resolve() != this_file
            for name in self.FORBIDDEN
            if name in path.read_text(errors="replace")
        }
        assert found == set()


class TestOneFlagVocabulary:
    """``repro.cli`` declares each flag once (``_FLAGS``), builds every
    subparser from that in one ``add_argument`` loop, and times every
    run in the one run → emit helper — the per-command copies they
    replaced must not grow back."""

    CLI = (ROOT / "src" / "repro" / "cli.py").read_text()

    def test_each_shared_flag_is_declared_once(self):
        for flag in (
            "--strategy", "--model", "--update-probability", "--operations",
            "--seed", "--batch-size", "--shards", "--mpl", "--replicas",
            "--kill-shard", "--fault-events", "--degrade",
            "--buffer-capacity", "--json", "--manifest", "--trace-out",
            "--span-log",
        ):
            # As a whole string literal, optionally behind a short alias
            # (``"-P --update-probability"``): the vocabulary key. The
            # ``@_command`` lists name flags inside longer strings.
            declared = re.findall(rf'"(?:-\w )?{flag}"', self.CLI)
            assert len(declared) == 1, (flag, declared)
        assert self.CLI.count("add_argument(") == 1

    def test_one_timed_run_path(self):
        assert self.CLI.count("time.perf_counter()") <= 2
        # _run_and_emit is the helper's one caller of the artifact writer.
        assert len(re.findall(r"(?<!def )_write_run_artifacts\(", self.CLI)) == 1
        assert 'print("error:' not in self.CLI and "int(args." not in self.CLI
