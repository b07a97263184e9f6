"""Tests of the benchmark itself, on small versions of its workloads.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gridscore import cli, domain, ingest  # noqa: E402

SMALL = {
    "compare-selections": dataclasses.replace(
        workloads.CompareSelections(), cells=200, periods=5, events_per_period=300,
        top_ks=(5, 10, 20), random_k=5),
    "evaluate-surfaces": dataclasses.replace(
        workloads.EvaluateSurfaces(), cells=100, periods=4, events_per_period=200),
    "alpha-units": dataclasses.replace(
        workloads.AlphaUnits(), units=400, events_per_period=4000),
}

#: A row the oracle checks, per workload: its value is the last field.
CHECKED_ROW = {
    "compare-selections": re.compile(r"^top0010,p3,hit_rate,(.*)$", re.M),
    "evaluate-surfaces": re.compile(r"^empirical,p3,als,(.*)$", re.M),
    "alpha-units": re.compile(r"^7,[^,]+,[^,]+,([^,]+),", re.M),
}


def build(name: str, directory: Path, seed: int = 1) -> list[str]:
    directory.mkdir(parents=True)
    workload = SMALL[name]
    return workload.build(directory, workload.draw(seed), run.gen_in_process, workloads.Clock())


def score(args: list[str], out: Path) -> str:
    assert cli.main([*args, "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(SMALL))
def test_oracle_fails_a_report_with_one_changed_digit(name, tmp_path):
    args = build(name, tmp_path / "in")
    report = score(args, tmp_path / "report.txt")
    assert SMALL[name].check(tmp_path / "in", report) == []

    match = CHECKED_ROW[name].search(report)
    assert match, f"no checked row in the {name} report"
    value = match.group(1)
    digit = re.search(r"[1-9]", value)
    changed = value[: digit.start()] + str(int(digit.group()) % 9 + 1) + value[digit.end():]
    start, end = match.span(1)
    tampered = report[:start] + changed + report[end:]
    assert SMALL[name].check(tmp_path / "in", tampered) != []


@pytest.mark.parametrize("name", sorted(SMALL))
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    first = build(name, tmp_path / "a", seed=7)
    again = build(name, tmp_path / "b", seed=7)
    build(name, tmp_path / "c", seed=8)
    digests = [run.file_digests(tmp_path / d) for d in "abc"]
    assert digests[0] == digests[1]
    assert [a.replace("/a/", "/b/") for a in first] == again
    assert digests[0]["events.csv"] != digests[2]["events.csv"]


def test_traced_self_times_add_up_to_the_root_span(tmp_path):
    args = build("evaluate-surfaces", tmp_path / "in")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        score(args, tmp_path / "report.txt")
    finally:
        tracer.uninstall()
    spans = tracer.spans
    roots = [i for i, span in enumerate(spans) if span[3] == -1]
    assert [spans[i][0] for i in roots] == ["cli.main"]
    root = spans[roots[0]]
    assert sum(tracing.self_times(spans)) == pytest.approx(root[2] - root[1], rel=1e-9)

    layer = tracing.invocation_metrics(spans, tracer.counters)
    reported = {*layer, *tracing.setup_metrics([]), "trace.overhead_share"}
    assert reported == set(run.metric_units("per_layer"))
    assert layer["ingest.surfaces_rows"] == 2 * 3 * 100
    assert layer["domain.cell_ids_calls"] >= layer["ingest.surfaces_rows"]
    assert layer["domain.contingency_calls"] == 3


def test_tracer_restores_every_patched_name():
    before = {
        (module.__name__, attr): obj
        for module in tracing.MODULES for attr, obj in vars(module).items()
    }
    methods = [domain.EventSet.__dict__[m] for m in tracing.EVENT_SCANS]
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.load_dataset is ingest.load_dataset
    assert cli.load_dataset.__wrapped__ is not None
    tracer.uninstall()
    after = {
        (module.__name__, attr): obj
        for module in tracing.MODULES for attr, obj in vars(module).items()
    }
    assert after == before
    assert [domain.EventSet.__dict__[m] for m in tracing.EVENT_SCANS] == methods


def test_benchmark_json_names_the_coded_workloads():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
