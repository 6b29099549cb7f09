"""The CLI-wide exit-code contract, as one parametrized table.

Every subcommand speaks the same three-valued protocol: **0** success,
**1** a run that executed but failed its gate, **2** invalid usage
(rejected before any simulation runs, with an ``error:`` line on
stderr). Scattered per-command tests each pin one cell; this table pins
the *policy* across simulate / profile / concurrent / chaos / bench /
monitor / serve / shard, so a new flag that validates inconsistently
fails here by name.
"""

from __future__ import annotations

import pytest

from repro.cli import main

# (id, argv) → must exit 2 with an error: line and no stdout output.
USAGE_ERRORS = [
    ("profile-bad-strategy", ["profile", "--strategy", "bogus"]),
    ("profile-bad-operations", ["profile", "--operations", "0"]),
    ("chaos-bad-strategy", ["chaos", "--strategy", "bogus"]),
    ("chaos-bad-operations", ["chaos", "--operations", "0"]),
    ("chaos-bad-mpl", ["chaos", "--mpl", "0"]),
    ("bench-bad-operations", ["bench", "--operations", "0"]),
    ("bench-bad-tolerance", ["bench", "--tolerance", "-0.1"]),
    ("bench-bad-repeats", ["bench", "--wall-repeats", "0"]),
    (
        "bench-compare-with-wallclock",
        ["bench", "--wall-clock", "--compare", "x.json"],
    ),
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
    # Rejected by build_stack / the drivers, mapped to exit 2 in main().
    ("simulate-bad-shards", ["simulate", "--shards", "0"]),
    ("profile-bad-shards", ["profile", "--shards", "0"]),
    ("concurrent-bad-shards", ["concurrent", "--shards", "0"]),
    ("simulate-bad-batch", ["simulate", "--batch-size", "0"]),
    ("concurrent-bad-batch", ["concurrent", "--batch-size", "0"]),
    ("chaos-bad-shards", ["chaos", "--shards", "0"]),
    ("chaos-replicas-unsharded", ["chaos", "--replicas", "1"]),
    ("monitor-bad-shards", ["monitor", "--shards", "0"]),
    ("shard-bad-shards", ["shard", "--shards", "0"]),
]


@pytest.mark.parametrize(
    "argv", [argv for _, argv in USAGE_ERRORS],
    ids=[case_id for case_id, _ in USAGE_ERRORS],
)
def test_usage_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


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
