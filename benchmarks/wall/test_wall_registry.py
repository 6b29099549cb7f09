"""The registry in ``wall.metrics``/``wall.workloads`` and the manifest
``BENCHMARK.json`` must name the same things, within the manifest's
limits."""

import json
import pathlib
import re

from wall.metrics import END_TO_END, PER_LAYER, RUN_SECONDS
from wall.workloads import BY_NAME, WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parents[2]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_manifest_points_at_this_directory():
    assert MANIFEST["paths"] == ["benchmarks/wall"]
    assert MANIFEST["command"] == ["python3", "benchmarks/wall/run.py"]
    assert MANIFEST["run_seconds"] == RUN_SECONDS


def test_workloads_match_both_ways():
    assert [(w["name"], w["why"]) for w in MANIFEST["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS
    ]
    assert 2 <= len(WORKLOADS) <= 8
    for workload in WORKLOADS:
        assert NAME.fullmatch(workload.name)
        assert 0 < len(workload.why) <= 200 and "\n" not in workload.why


def test_end_to_end_metrics_match_both_ways():
    assert MANIFEST["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert 1 <= len(END_TO_END) <= 16
    for metric in END_TO_END:
        assert 0 < metric.bound <= 0.25
    setup = MANIFEST["end_to_end"][0]
    assert (setup["name"], setup["unit"], setup["better"]) == (
        "setup_s", "s", "lower"
    )
    assert setup["bound"] == max(m.bound for m in END_TO_END)


def test_per_layer_metrics_match_both_ways():
    assert MANIFEST["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER
    ]
    assert 1 <= len(PER_LAYER) <= 128


def test_names_and_units_are_well_formed_and_unique():
    names = [m.name for m in END_TO_END + PER_LAYER]
    names += [w.name for w in WORKLOADS]
    assert len(names) == len(set(names))
    for metric in END_TO_END + PER_LAYER:
        assert NAME.fullmatch(metric.name), metric.name
        assert UNIT.fullmatch(metric.unit), metric.unit
        assert metric.better in ("lower", "higher")


def test_every_layer_metric_says_what_it_should_move_and_where():
    end_to_end = {m.name for m in END_TO_END}
    for metric in PER_LAYER:
        assert metric.moves in end_to_end, metric.name
        assert metric.on in BY_NAME, metric.name
