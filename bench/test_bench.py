"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracing import per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_spec_lists_what_the_runner_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == per_layer_metrics()


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_seed_changes_values_not_shape(workload):
    a, again, b = generate(workload, 3), generate(workload, 3), generate(workload, 4)
    assert [t.argv for t in a] == [t.argv for t in again]
    assert [t.id for t in a] == [t.id for t in b]
    assert [t.argv for t in a] != [t.argv for t in b]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_reduced_run_prints_every_metric(workload):
    report = run.run(workload, seed=7, seconds=0.2, trace=False, reduced=True)
    result = report["result"]
    assert report["info"]["seed"] == 7
    assert result["correct"] and result["failed"] == 0, report["info"]["failures"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == run.END_TO_END
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["pass_ratio"] == 1 and metrics["tasks"] == result["attempted"]
    assert all(v > 0 for v in metrics.values())


def test_traced_run_prints_every_per_layer_metric():
    report = run.run("polynomial-lnd", seed=7, seconds=0.2, trace=True, reduced=True)
    result = report["result"]
    assert result["correct"], report["info"]["failures"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == per_layer_metrics()
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["cli.calls"] == result["attempted"]
    assert metrics["smithhom.calls"] == 0 and metrics["polyring.mul.calls"] > 0
    assert sum(v for k, v in metrics.items() if k.endswith(".errors")) == 0
    spans = json.loads((run.ROOT / ".bench_out" / "spans-polynomial-lnd.json").read_text())
    assert len(spans["spans"]) == metrics["trace.spans"]


class _TamperingCli:
    """Runs the real CLI but flips RP^2's H_1 = Z/2 to 0, and crashes on one task."""

    def __init__(self, cli, crash_argv):
        self.cli = cli
        self.crash_argv = crash_argv

    def main(self, argv):
        if tuple(argv) == self.crash_argv:
            raise RuntimeError("boom")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(argv)
        print(out.getvalue().replace('"Z/2"', '"0"'), end="")
        return code


def test_wrong_output_and_crash_count_as_failures():
    cli = run.load_package()["cli"]
    tasks = generate("integer-linalg", 7, reduced=True)
    crash = next(t for t in tasks if t.id.startswith("snf/"))
    runner = run.Runner(_TamperingCli(cli, crash.argv), tasks)
    runner.measure(0)
    assert set(runner.failures) == {"homology/rp2", crash.id}
    assert "homology" in runner.failures["homology/rp2"]
    assert "boom" in runner.failures[crash.id]
