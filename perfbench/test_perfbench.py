"""Tests of the benchmark's own code: statistics, verdicts, tracing, contract, smoke."""

from __future__ import annotations

import importlib
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from measure import END_TO_END_UNITS  # noqa: E402
from stats import pairs_won, percentile, quartiles, spread, verdict  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_declares_exactly_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    assert {name: m["unit"] for name, m in end_to_end.items()} == END_TO_END_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert end_to_end["setup_s"]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == run.per_layer_units()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + list(
        w["name"] for w in spec["workloads"]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])


def test_nearest_rank_percentile_is_stable_on_bimodal_samples():
    # One slow operation in sixteen: p95 must land on the slow mode for
    # any number of passes, never between the modes.
    for passes in (2, 3, 4, 5, 8):
        sample = ([1.0] * 15 + [100.0]) * passes
        assert percentile(sample, 95) == 100.0
        assert percentile(sample, 50) == 1.0
    assert percentile([3.0], 95) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_quartiles_and_spread():
    assert quartiles([5.0]) == (5.0, 5.0, 5.0)
    q1, median, q3 = quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert median == 3.0 and q1 < median < q3
    assert spread([10.0] * 4) == 0.0
    assert spread([9.0, 10.0, 10.0, 11.0]) == pytest.approx(0.15)


def test_pairs_and_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    faster = [value * 0.8 for value in base]
    slower = [value * 1.3 for value in base]
    assert pairs_won(base, faster, "lower") == (10, 10)
    assert pairs_won(base, base, "lower") == (0, 10)
    assert verdict(base, faster, "lower", 0.1) == "improved"
    assert verdict(base, slower, "lower", 0.1) == "worse"
    assert verdict(base, [v * 1.01 for v in base], "lower", 0.1) == "unchanged"
    noisy = [5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0]
    assert verdict(base, noisy, "lower", 0.1) == "unresolved"
    assert verdict(base, [v * 1.3 for v in base], "higher", 0.1) == "improved"


def test_reference_task_scales_by_the_median_of_the_samples_since_a_mark():
    reference = hostspeed.ReferenceTask()
    reference.sample()
    mark = reference.mark()
    seconds = [reference.sample() for _ in range(5)]
    assert all(value > 0 for value in seconds)
    assert reference.samples[mark:] == seconds
    assert reference.spent_s == pytest.approx(sum(reference.samples))
    assert reference.factor(mark) == pytest.approx(
        hostspeed.NOMINAL_S / sorted(seconds)[2]
    )


def test_tracer_self_time_aggregates_and_coverage():
    tracer = layers.Tracer()

    def leaf():
        time.sleep(0.01)

    kernel = tracer.wrap(leaf, "relational.leaf", keep=False)

    def step():
        kernel()
        kernel()

    traced_step = tracer.wrap(step, "infine.step", keep=True)
    with tracer.span("op"):
        traced_step()
    table = tracer.operations()
    assert table["relational.leaf"]["calls"] == 2
    assert table["infine.step"]["calls"] == 1
    step_row = table["infine.step"]
    assert step_row["self_s"] == pytest.approx(step_row["s"] - table["relational.leaf"]["s"])
    assert step_row["self_s"] < 0.005
    self_s = tracer.layer_self_seconds()
    assert set(self_s) == {"relational", "infine", "untraced"}
    assert tracer.coverage() > 0.9
    (op_span,) = [span for span in tracer.spans() if span[2] == "op"]
    (step_span,) = [span for span in tracer.spans() if span[2] == "infine.step"]
    assert step_span[1] == op_span[0]


def test_install_wraps_every_binding_and_uninstall_restores_it():
    from repro.relational.partition import StrippedPartition

    # ``repro.infine`` is also the name of a function the package exports.
    engine = importlib.import_module("repro.infine.engine")
    algebra = importlib.import_module("repro.relational.algebra")

    original_join = algebra.equi_join
    original_from_columns = StrippedPartition.__dict__["from_columns"]
    tracer = layers.install(layers.Tracer())
    try:
        assert algebra.equi_join is not original_join
        assert engine.equi_join is algebra.equi_join
        from repro.datasets import load_all, paper_views
        from repro.session import Session

        catalog = load_all("tiny", 3)
        case = paper_views()[0]
        Session().infine(case.spec, catalog[case.database])
    finally:
        tracer.uninstall()
    assert algebra.equi_join is original_join and engine.equi_join is original_join
    assert StrippedPartition.__dict__["from_columns"] is original_from_columns
    table = tracer.operations()
    assert table["infine.run"]["calls"] == 1
    assert table["discovery.tane"]["calls"] >= 1
    assert tracer.kernel_totals()["partition_misses"] >= 0


def test_refuses_to_run_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "infine-views", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_smoke_mode_runs_every_workload_and_its_checks():
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-2000:]
    summary = json.loads(completed.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
    for workload in run.WORKLOADS:
        assert f"smoke {workload}: correct=True" in completed.stdout
