"""Every workload, end to end, at a fiftieth of its size: each metric in
``BENCHMARK.json`` comes out once, finite, in its unit; nothing fails;
and the three RVM workloads consume one op stream."""

import json
import math
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "benchmarks" / "wall" / "run.py")]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = ["--scale", "0.02", "--seconds", "0.05"]


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    out = tmp_path_factory.mktemp("wall") / "ledger.json"
    done = subprocess.run(
        RUN + SMALL + ["--repeats", "1", "--json", str(out)],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout, json.loads(out.read_text())


def test_every_metric_is_printed_once_per_workload(ledger):
    stdout, _result = ledger
    seen = [
        tuple(line.split()[:2]) for line in stdout.splitlines()
        if line and not line.startswith("#")
    ]
    assert len(seen) == len(set(seen))
    metrics = MANIFEST["end_to_end"] + MANIFEST["per_layer"]
    for workload in MANIFEST["workloads"]:
        for metric in metrics:
            assert (workload["name"], metric["name"]) in seen


def test_values_are_finite_in_the_right_unit_and_nothing_failed(ledger):
    _stdout, result = ledger
    assert set(result["workloads"]) == {
        w["name"] for w in MANIFEST["workloads"]
    }
    for name, workload in result["workloads"].items():
        assert workload["failed"] == 0 and workload["attempted"] > 0
        for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
            row = workload["metrics"][metric["name"]]
            assert row["unit"] == metric["unit"]
            assert math.isfinite(row["value"]), (name, metric["name"])
        for metric in MANIFEST["end_to_end"]:
            assert workload["metrics"][metric["name"]]["value"] > 0
        shares = sum(
            row["value"] for metric, row in workload["metrics"].items()
            if metric.endswith(".share")
        )
        assert abs(shares - 1.0) < 0.05, (name, shares)


def test_rvm_workloads_share_one_op_stream(ledger):
    _stdout, result = ledger
    digests = [
        result["workloads"][name]["op_digests"]
        for name in ("maintain_rvm", "sharded_rvm_s8", "observed_rvm")
    ]
    shortest = min(len(d) for d in digests)
    assert shortest >= 1
    assert len({tuple(d[:shortest]) for d in digests}) == 1
    other = result["workloads"]["recompute_ar"]["op_digests"]
    assert other[:shortest] != digests[0][:shortest]


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_one_run_ends_with_the_drivers_json_object(trace, kind):
    done = subprocess.run(
        RUN + SMALL + ["--workload", "recompute_ar", "--seed", "11",
                       "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    assert {
        name: value["unit"] for name, value in last["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in MANIFEST[kind]}


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    bare = tmp_path / "benchmarks" / "wall"
    bare.mkdir(parents=True)
    for source in (ROOT / "benchmarks" / "wall").glob("*.py"):
        (bare / source.name).write_text(source.read_text())
    done = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "recompute_ar",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert done.stdout == ""
