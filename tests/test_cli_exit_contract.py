"""The CLI-wide exit-code contract, as one parametrized table.

Every subcommand speaks the same three-valued protocol: **0** success,
**1** a run that executed but failed its gate, **2** invalid usage
(rejected before any simulation runs, with an ``error:`` line on
stderr and nothing on stdout). The usage-error rows for every typed flag
are generated from the parser ``repro.cli`` builds out of its one flag
vocabulary, so a flag that gains a subcommand gains its rows; the
hand-written rows pin the historical ids and the rules that span two
flags or depend on a file's content.

One documented exception: ``monitor`` also returns **2** when a run
completed but a shard *ended CRITICAL* (its CI step gates on that); the
stderr line then starts ``CRITICAL``, not ``error:``.
``tests/test_telemetry.py`` pins it.
"""

from __future__ import annotations

import argparse
import json
import pathlib

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.experiments import REGISTRY

# (id, argv) → must exit 2 with an error: line and no stdout output.
USAGE_ERRORS = [
    ("profile-bad-strategy", ["profile", "--strategy", "bogus"]),
    ("profile-bad-operations", ["profile", "--operations", "0"]),
    ("chaos-bad-strategy", ["chaos", "--strategy", "bogus"]),
    ("chaos-bad-operations", ["chaos", "--operations", "0"]),
    ("chaos-bad-mpl", ["chaos", "--mpl", "0"]),
    ("bench-bad-operations", ["bench", "--operations", "0"]),
    ("bench-bad-tolerance", ["bench", "--tolerance", "-0.1"]),
    ("monitor-bad-strategy", ["monitor", "--strategy", "bogus"]),
    ("monitor-bad-operations", ["monitor", "--operations", "0"]),
    ("monitor-bad-window", ["monitor", "--window-ms", "0"]),
    ("serve-bad-strategy", ["serve", "--strategy", "bogus"]),
    ("serve-bad-requests", ["serve", "--requests", "0"]),
    ("serve-bad-capacity", ["serve", "--capacity", "0"]),
    ("serve-bad-ttl", ["serve", "--ttl-ms", "0"]),
    ("serve-bad-mpl", ["serve", "--mpl", "0"]),
    ("serve-bad-rate", ["serve", "--rate", "0"]),
    ("serve-bad-zipf", ["serve", "--zipf-s", "-1"]),
    ("serve-bad-shards", ["serve", "--shards", "0"]),
    ("serve-bad-probability", ["serve", "-P", "1.5"]),
    ("simulate-bad-shards", ["simulate", "--shards", "0"]),
    ("profile-bad-shards", ["profile", "--shards", "0"]),
    ("concurrent-bad-shards", ["concurrent", "--shards", "0"]),
    ("simulate-bad-batch", ["simulate", "--batch-size", "0"]),
    ("concurrent-bad-batch", ["concurrent", "--batch-size", "0"]),
    ("chaos-bad-shards", ["chaos", "--shards", "0"]),
    # Rejected by build_stack / the drivers, mapped to exit 2 in main().
    ("chaos-replicas-unsharded", ["chaos", "--replicas", "1"]),
    ("monitor-bad-shards", ["monitor", "--shards", "0"]),
    ("shard-bad-shards", ["shard", "--shards", "0"]),
    # Rules that span two flags (cli._check_cross_flags).
    ("chaos-kill-unsharded", ["chaos", "--kill-shard", "0"]),
    ("chaos-kill-out-of-range", ["chaos", "--shards", "2", "--kill-shard", "2"]),
    ("monitor-mpl-needs-chaos", ["monitor", "--mpl", "2"]),
    ("monitor-kill-needs-chaos", ["monitor", "--kill-shard", "0"]),
    ("monitor-degrade-needs-chaos", ["monitor", "--degrade"]),
    ("monitor-chaos-with-batch", ["monitor", "--chaos", "--batch-size", "4"]),
    ("concurrent-trace-of-a-sweep", ["concurrent", "--trace-out", "t.json"]),
    ("chaos-trace-of-a-sweep", ["chaos", "--span-log", "s.jsonl"]),
    ("run-missing-experiment", ["run"]),
    # An output that cannot be written fails before anything runs.
    ("report-unwritable", ["report", "-o", "/proc/nope/r.md"]),
    ("export-unwritable", ["export", "fig05", "-o", "/proc/nope/f.csv"]),
    ("shard-report-unwritable", ["shard", "--report-out", "/proc/nope/s.json"]),
    ("profile-trace-unwritable", ["profile", "--trace-out", "/proc/nope/t.json"]),
    ("serve-stats-unwritable", ["serve", "--stats-out", "/proc/nope/s.json"]),
    ("monitor-export-unwritable", ["monitor", "--export", "/proc/nope/m.txt"]),
    ("monitor-series-unwritable", ["monitor", "--series-out", "/proc/nope/m.jsonl"]),
    ("bench-latest-unwritable", ["bench", "--latest", "/proc/nope/b.json"]),
]

# What each ``type=`` validator must reject; ``int``/``float`` cover the
# flags with no range of their own.
BAD_VALUES = {
    cli._positive_int: ("0", "x"),
    cli._positive_float: ("0", "x"),
    cli._non_negative_float: ("-1", "nan"),
    cli._probability: ("1", "-0.1"),
    cli._int_list: ("0", "a"),
    cli._strategy: ("bogus",),
    cli._strategy_list: ("bogus", ","),
    int: ("x",),
    float: ("x",),
}


def subcommands() -> dict[str, argparse.ArgumentParser]:
    return next(
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )


def generated_usage_errors():
    """``<cmd> <flag> <bad value>`` for every typed or enumerated flag of
    every subcommand."""
    for command, parser in subcommands().items():
        for action in parser._actions:
            bad_values = BAD_VALUES.get(action.type, ())
            if action.choices is not None:
                bad_values = (*bad_values, "no-such-choice")
            for bad in bad_values:
                name = action.option_strings[-1:]
                yield f"{command}{''.join(name) or '-' + action.dest}={bad}", [
                    command, *name, bad,
                ]


USAGE_ERRORS += generated_usage_errors()


@pytest.mark.parametrize(
    "argv", [argv for _, argv in USAGE_ERRORS],
    ids=[case_id for case_id, _ in USAGE_ERRORS],
)
def test_usage_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_usage_error_table_covers_the_operations_policy():
    """One ``--operations`` validator: every command that takes the flag
    rejects 0 (four of them used to simulate nothing and exit 0)."""
    rows = {tuple(argv) for _, argv in USAGE_ERRORS}
    takers = [
        command
        for command, parser in subcommands().items()
        if any(action.dest == "operations" for action in parser._actions)
    ]
    assert len(takers) == 9
    for command in takers:
        assert (command, "--operations", "0") in rows


BASELINE = pathlib.Path(__file__).parent.parent / "results" / "bench_baseline.json"


def doctored_baseline(mutate) -> str:
    snapshot = json.loads(BASELINE.read_text())
    mutate(next(iter(snapshot["metrics"].values())))
    return json.dumps(snapshot)


# (id, file content) → ``bench --compare <file>`` must exit 2, not crash.
BAD_BASELINES = [
    ("not-an-object", "[]"),
    ("truncated-json", '{"kind": "bench_snapshot", "metrics": {'),
    ("no-direction", doctored_baseline(lambda entry: entry.pop("direction"))),
    ("no-unit", doctored_baseline(lambda entry: entry.pop("unit"))),
    ("nan-value", doctored_baseline(lambda entry: entry.update(value=float("nan")))),
]


@pytest.mark.parametrize(
    "content", [content for _, content in BAD_BASELINES],
    ids=[case_id for case_id, _ in BAD_BASELINES],
)
def test_bad_baseline_files_exit_2(content, tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(content)
    assert main(["bench", "--compare", str(baseline)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot load baseline")
    assert captured.out == ""


def test_output_directories_are_created(tmp_path, capsys):
    """Every writer creates its parent directory (``report -o`` and
    ``shard --report-out`` used to call bare ``open``)."""
    report = tmp_path / "new" / "dir" / "r.md"
    assert main(["report", "--no-simulation", "-o", str(report)]) == 0
    assert report.read_text().startswith("# Reproduction report")
    capsys.readouterr()
    sizing = tmp_path / "other" / "s.json"
    argv = ["shard", "--shards", "1", "--operations", "10"]
    assert main([*argv, "--json", "--report-out", str(sizing)]) == 0
    assert json.loads(sizing.read_text()) == json.loads(capsys.readouterr().out)


# (id, argv) → a real (tiny) run that must exit 0.
SUCCESSES = [
    (
        "profile",
        ["profile", "--strategy", "ci", "--operations", "10",
         "--seed", "0"],
    ),
    (
        "monitor",
        ["monitor", "--strategy", "ci", "--operations", "20",
         "--seed", "3"],
    ),
    (
        "serve",
        ["serve", "--strategy", "ci", "--requests", "30", "--seed", "7"],
    ),
]


@pytest.mark.parametrize(
    "argv", [argv for _, argv in SUCCESSES],
    ids=[case_id for case_id, _ in SUCCESSES],
)
def test_tiny_runs_exit_0(argv, capsys):
    assert main(argv) == 0
    assert "error:" not in capsys.readouterr().err


def test_unknown_subcommand_is_argparse_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-verb"])
    assert excinfo.value.code == 2
    capsys.readouterr()


EXPERIMENTS = tuple(sorted(REGISTRY))
STRATEGIES = (
    "always_recompute",
    "cache_invalidate",
    "update_cache_avm",
    "update_cache_rvm",
    "hybrid",
)

# {command: {dest: (default, type-name, choices)}} as ``build_parser()``
# declared it before the flags moved into one vocabulary (type-name:
# ``flag`` for a store_true, else the ``type=`` callable's ``__name__``,
# ``None`` for a raw string), less ``bench --wall-clock``/``--wall-repeats``,
# deleted with the wall-clock lane.
PARENT_SURFACE = {
    "list": {},
    "run": {
        "experiment": (None, None, EXPERIMENTS),
        "no_checks": (False, "flag", None),
        "chart": (False, "flag", None),
        "manifest": (False, "flag", None),
    },
    "all": {
        "no_checks": (False, "flag", None),
        "manifest": (False, "flag", None),
    },
    "simulate": {
        "strategy": ("cache_invalidate", None, STRATEGIES),
        "model": (1, "int", (1, 2)),
        "update_probability": (0.5, "float", None),
        "operations": (400, "int", None),
        "seed": (7, "int", None),
        "batch_size": (None, "int", None),
        "shards": (None, "int", None),
    },
    "report": {
        "output": (None, None, None),
        "no_simulation": (False, "flag", None),
        "operations": (300, "int", None),
    },
    "export": {
        "experiment": (None, None, EXPERIMENTS),
        "output": (None, None, None),
    },
    "advise": {
        "update_probability": (0.5, "float", None),
        "selectivity": (0.001, "float", None),
        "sharing_factor": (0.5, "float", None),
        "model": (1, "int", (1, 2)),
        "uncertainty": (0.0, "float", None),
    },
    "sensitivity": {
        "update_probability": (0.5, "float", None),
        "model": (1, "int", (1, 2)),
        "top": (15, "int", None),
    },
    "profile": {
        "strategy": ("cache_invalidate", None, None),
        "model": (1, "int", (1, 2)),
        "update_probability": (0.5, "float", None),
        "operations": (400, "int", None),
        "seed": (7, "int", None),
        "buffer_capacity": (0, "int", None),
        "batch_size": (None, "int", None),
        "shards": (None, "int", None),
        "top": (5, "int", None),
        "json": (False, "flag", None),
        "attribution": (False, "flag", None),
        "manifest": (False, "flag", None),
        "trace_out": (None, None, None),
        "span_log": (None, None, None),
    },
    "compare": {
        "model": (1, "int", (1, 2)),
        "update_probability": (0.5, "float", None),
        "operations": (400, "int", None),
        "seed": (7, "int", None),
    },
    "concurrent": {
        "mpl": ("1,4,16", None, None),
        "strategy": ("all", None, None),
        "model": (1, "int", (1, 2)),
        "update_probability": (0.5, "float", None),
        "operations": (300, "int", None),
        "seed": (7, "int", None),
        "buffer_capacity": (0, "int", None),
        "batch_size": (None, "int", None),
        "shards": (None, "int", None),
        "json": (False, "flag", None),
        "manifest": (False, "flag", None),
        "trace_out": (None, None, None),
        "span_log": (None, None, None),
    },
    "chaos": {
        "strategy": ("all", None, None),
        "mpl": ("1", None, None),
        "model": (1, "int", (1, 2)),
        "update_probability": (0.5, "float", None),
        "operations": (120, "int", None),
        "seed": (7, "int", None),
        "fault_events": ("100", None, None),
        "shards": (None, "int", None),
        "replicas": (0, "int", None),
        "kill_shard": (None, "int", None),
        "degrade": (False, "flag", None),
        "json": (False, "flag", None),
        "manifest": (False, "flag", None),
        "trace_out": (None, None, None),
        "span_log": (None, None, None),
    },
    "monitor": {
        "strategy": ("cache_invalidate", None, None),
        "model": (1, "int", (1, 2)),
        "update_probability": (0.5, "float", None),
        "operations": (200, "int", None),
        "seed": (7, "int", None),
        "shards": (None, "int", None),
        "replicas": (0, "int", None),
        "batch_size": (None, "int", None),
        "window_ms": (100.0, "float", None),
        "chaos": (False, "flag", None),
        "mpl": ("1", None, None),
        "fault_events": ("25", None, None),
        "kill_shard": (None, "int", None),
        "degrade": (False, "flag", None),
        "warn_invalidation_rate": (0.5, "float", None),
        "critical_invalidation_rate": (2.0, "float", None),
        "warn_lock_wait": (0.5, "float", None),
        "critical_lock_wait": (0.9, "float", None),
        "series_out": (None, None, None),
        "export": (None, None, None),
        "json": (False, "flag", None),
        "manifest": (False, "flag", None),
        "trace_out": (None, None, None),
        "span_log": (None, None, None),
    },
    "serve": {
        "strategy": ("cache_invalidate", None, None),
        "model": (1, "int", (1, 2)),
        "requests": (400, "int", None),
        "seed": (7, "int", None),
        "update_probability": (0.1, "float", None),
        "shards": (None, "int", None),
        "capacity": (256, "int", None),
        "ttl_ms": (None, "float", None),
        "mpl": (None, "int", None),
        "rate": (None, "float", None),
        "zipf_s": (1.1, "float", None),
        "audit": (False, "flag", None),
        "stats_out": (None, None, None),
        "json": (False, "flag", None),
    },
    "shard": {
        "strategy": ("update_cache_rvm", None, None),
        "shards": ("1,8", None, None),
        "procedures": (None, "int", None),
        "p2": (0, "int", None),
        "model": (1, "int", (1, 2)),
        "update_probability": (0.5, "float", None),
        "operations": (60, "int", None),
        "seed": (7, "int", None),
        "batch_size": (None, "int", None),
        "json": (False, "flag", None),
        "report_out": (None, None, None),
    },
    "bench": {
        "operations": (120, "int", None),
        "seed": (7, "int", None),
        "history": ("BENCH_history.jsonl", None, None),
        "latest": ("BENCH_latest.json", None, None),
        "compare": (None, None, None),
        "tolerance": (0.1, "float", None),
        "json": (False, "flag", None),
    },
}

# The cells that were raw strings hand-parsed (or hand-resolved) in the
# command body and are now parsed by a ``type=`` validator; the default
# text is unchanged. Everything else must match ``PARENT_SURFACE``.
RETYPED = {
    ("profile", "strategy"): "_strategy",
    ("monitor", "strategy"): "_strategy",
    ("serve", "strategy"): "_strategy",
    ("shard", "strategy"): "_strategy",
    ("concurrent", "strategy"): "_strategy_list",
    ("chaos", "strategy"): "_strategy_list",
    ("concurrent", "mpl"): "_int_list",
    ("shard", "shards"): "_int_list",
    ("chaos", "mpl"): "int",
    ("chaos", "fault_events"): "int",
    ("monitor", "mpl"): "int",
    ("monitor", "fault_events"): "int",
}


def test_flag_surface_pinned():
    """No flag renamed, dropped, re-defaulted, re-typed, or leaked onto a
    subcommand that did not take it."""
    surface = {}
    for command, parser in subcommands().items():
        surface[command] = {}
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            type_name = getattr(action.type, "__name__", None)
            if isinstance(action, argparse._StoreTrueAction):
                type_name = "flag"
            choices = None if action.choices is None else tuple(action.choices)
            surface[command][action.dest] = (action.default, type_name, choices)
    expected = {
        command: {
            dest: (default, RETYPED.get((command, dest), type_name), choices)
            for dest, (default, type_name, choices) in flags.items()
        }
        for command, flags in PARENT_SURFACE.items()
    }
    assert surface == expected
