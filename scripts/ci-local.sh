#!/usr/bin/env bash
# Run the same checks as .github/workflows/ci.yml on the local machine.
# Tools that aren't installed (ruff on an offline box) are skipped with a
# notice rather than failing the run.
set -u

cd "$(dirname "$0")/.."
export PYTHONPATH=src

status=0

run() {
    echo "==> $*"
    "$@"
    local code=$?
    if [ $code -ne 0 ]; then
        echo "FAILED ($code): $*" >&2
        status=1
    fi
}

if command -v ruff >/dev/null 2>&1; then
    run ruff check src tests benchmarks
    run ruff format --check src tests benchmarks
else
    echo "==> ruff not installed; skipping lint (pip install 'ruff>=0.4')"
fi

# Differential harnesses and hot-path goldens first, by name, mirroring
# CI: batched and sharded execution must match the legacy paths
# (bit-identical; sharded is result-identical above one shard) and the
# vectorised hot path must reproduce its pinned digests.
run python -m pytest tests/test_batch_differential.py -q
run python -m pytest tests/test_hot_path_golden.py -q
run python -m pytest tests/test_shard_differential.py -q
run python -m pytest tests/test_shard_chaos.py -q
run python -m pytest tests/test_serve_differential.py -q

# Interval registry properties, mirroring CI: CI, the serve cache and
# the shard router share one i-lock table.
run python -m pytest tests/test_ilocks_property.py \
    tests/test_serve_cache_property.py tests/test_shard_router.py -q

# Observability overhead gate, mirroring CI: calls/sample and
# objects/window of the telemetry receive side, counted, not timed.
run python -m pytest tests/test_obs_overhead.py -q

# Storage row-path gate, mirroring CI: Python calls inside repro/storage
# per moved tuple, counted, with the simulated side pinned.
run python -m pytest tests/test_storage_overhead.py -q

# Coverage flags mirror CI when pytest-cov is importable (offline boxes
# without it still run the plain suite).
cov_flags=()
if python -c "import pytest_cov" >/dev/null 2>&1; then
    cov_flags=(--cov=repro --cov-report=xml --cov-report=term
               --cov-fail-under=81)
fi

if [ "${CI_LOCAL_FAST:-0}" = "1" ]; then
    run python -m pytest -x -q -m "not slow" --durations=15 ${cov_flags[@]+"${cov_flags[@]}"}
else
    run python -m pytest -x -q --durations=15 ${cov_flags[@]+"${cov_flags[@]}"}
fi

run python -m pytest benchmarks -q --benchmark-disable

# CLI --help smoke, mirroring CI: every subcommand is generated from one
# flag vocabulary; an entry argparse rejects for just one surfaces here.
help_smoke() {
    python -c "
import argparse
from repro.cli import build_parser
parser = build_parser()
verbs = next(a.choices for a in parser._actions
             if isinstance(a, argparse._SubParsersAction))
for verb in verbs:
    try:
        parser.parse_args([verb, '--help'])
    except SystemExit as done:
        assert done.code == 0, verb
" > /dev/null
}
run help_smoke

# Shard-chaos smoke, mirroring the CI artifact step: a scheduled shard
# kill with a hot standby — the oracle must hold through the failover.
echo "==> python -m repro chaos --shards 2 --replicas 1 --kill-shard 0 (shard-chaos smoke)"
if ! python -m repro chaos --strategy ci --mpl 2 --operations 80 \
    --fault-events 40 --seed 3 --shards 2 --replicas 1 \
    --kill-shard 0 --json > shard-chaos-report.json; then
    echo "FAILED: shard-chaos smoke" >&2
    status=1
fi

# Telemetry monitor smoke, mirroring the CI artifact step: the chaos
# workload replayed behind the streaming bus — fails on reconciliation
# drift or a shard ending CRITICAL.
run python -m repro monitor --strategy ci --chaos --mpl 2 \
    --operations 80 --fault-events 40 --seed 3 --shards 2 \
    --replicas 1 --kill-shard 0 --export telemetry-series.txt

# Serving-tier smoke, mirroring the CI artifact step: open-loop Zipf
# burst at MPL 16 with audit recomparison — fails on any stale read.
run python -m repro serve --strategy ci --requests 300 --seed 7 \
    --mpl 16 --audit --stats-out serve-stats.json

# Shard sizing smoke, mirroring the CI artifact step (small population;
# the 10^5 sweep and its sublinearity gate run inside the bench suite).
run python -m repro shard --strategy rvm --shards 1,8 \
    --procedures 5000 --operations 30 --json \
    --report-out shard-sizing.json

run python -m repro bench --operations 120 --seed 7 \
    --compare results/bench_baseline.json --tolerance 0.5

exit $status
