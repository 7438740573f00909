"""Tests of the benchmark itself.

Run with ``python3 -m pytest -q bench/selftest.py`` from the repository
root.  The file name keeps these tests out of the package suite's default
collection: they start benchmark processes and take about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

matseg = worker.import_matseg()

def _bindings() -> dict[tuple[str, str], object]:
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "matseg" or name.startswith("matseg.")
        for attr, value in vars(mod).items()
    }


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_workload_emits_every_end_to_end_metric(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(last["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert last["metrics"][m["name"]]["value"] > 0
    report = "\n".join(lines[:-1])
    for name in run.SEVEN:
        assert f"  {name} " in report


def test_traced_run_restores_every_binding():
    before = _bindings()
    seen = []

    class Probe(worker.Replicate):
        pool_size = 2

        def run(self, key):
            seen.append(matseg.threshold_cv.row_autocov is not before[("matseg.threshold_cv", "row_autocov")])
            return super().run(key)

    tracer = tracing.Tracer()
    raw = worker.measure(Probe(matseg, 0, ROOT), 0.3, tracer)
    after = _bindings()
    assert [k for k in before if after.get(k) is not before[k]] == []
    assert len(raw["records"]) >= 2
    assert seen[0] is True and seen[1] is False  # op 0 traced, op 1 not
    names = {s.name for s in tracer.spans}
    assert {"simulation.run_replication", "simulation.gen_factor_varma",
            "segmentation.segment", "estimators.row_autocov"} <= names


def test_traced_run_restores_bindings_when_an_operation_raises():
    before = _bindings()

    class Failing:
        pool_size = 1

        def run(self, key):
            matseg.segmentation.ratio_select([1.0])  # raises InvalidInput

        def check(self, key, out):
            raise AssertionError("check must not run for a failed operation")

    tracer = tracing.Tracer()
    raw = worker.measure(Failing(), 0.05, tracer)
    assert all(not ok for _, _, ok in raw["records"])
    assert [k for k, v in _bindings().items() if v is not before[k]] == []
    assert tracer.spans[0].name == "segmentation.ratio_select"


def test_self_time_on_a_hand_built_span_tree():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, None, 0),
        S("a", 1.0, 4.0, 0, 0),
        S("a.child", 2.0, 3.0, 1, 0),
        S("b", 5.0, 8.0, 0, 0),
        S("c", 9.0, 12.0, 0, 0),  # overruns its parent: only 9..10 is covered
        S("root2", 20.0, 21.0, None, 1),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 3.0, 3.0, 1.0]
    assert tracing.covered_length([(1.0, 4.0), (2.0, 5.0), (7.0, 8.0), (6.0, 6.0)]) == 5.0


def test_layer_metrics_are_per_operation():
    S = tracing.Span
    spans = [
        S("estimators.w_stat", 0.0, 0.010, None, 0),
        S("estimators.row_autocov", 0.002, 0.006, 0, 0),
        S("estimators.w_stat", 1.0, 1.010, None, 1),
        S("estimators.pair_autocov_all", 1.001, 1.003, 2, 1, gflop=0.5),
    ]
    out = tracing.layer_metrics(spans, n_ops=2, op_seconds=0.040)
    assert out["estimators.w_stat.self_ms"] == pytest.approx((6.0 + 8.0) / 2)
    assert out["estimators.row_autocov.calls"] == 0.5
    assert out["estimators.row_autocov.ms"] == pytest.approx(2.0)
    assert out["estimators.pair_autocov_all.gflop"] == 0.25
    assert out["estimators.self_share_pct"] == pytest.approx(50.0)
    assert out["trace.op_ms"] == pytest.approx(20.0)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.layer_metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(worker.WORKLOADS) == list(run.WORKLOADS)


def test_inputs_are_a_function_of_the_seed():
    def first_input(seed):
        return worker.SegmentCv(matseg, seed, ROOT).inputs[0][0].data

    assert (first_input(3) == first_input(3)).all()
    assert not (first_input(3) == first_input(4)).all()
