"""Smoke test of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload at the tiny criterion-7 model shape, traced and
untraced, plus one short traced step_64 run at the full shape, and checks
that every metric name is emitted with its unit and that the traced counts
are exact.  Takes about three minutes on two cores.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import catalog  # noqa: E402

SEED = 7

# Per train step at this commit.  At 16x16 the bottleneck map is 1x1, so the
# stage-4 FMCAB and ViTM convs count as pooled there.
STEP_COUNTS = {
    "full": {"engine.conv2d.dw3x3.calls": 8, "engine.conv2d.1x1.calls": 35,
             "engine.conv2d.3x3.calls": 16, "engine.conv2d.pooled.calls": 36,
             "engine.bilinear_resize.calls": 20, "engine.bilinear_resize.same_size": 8,
             "engine.bilinear_resize.useful_share": 0.4, "engine.backward.nodes": 871},
    "tiny": {"engine.conv2d.dw3x3.calls": 8, "engine.conv2d.1x1.calls": 26,
             "engine.conv2d.3x3.calls": 14, "engine.conv2d.pooled.calls": 47,
             "engine.bilinear_resize.calls": 20, "engine.bilinear_resize.same_size": 8,
             "engine.bilinear_resize.useful_share": 0.4, "engine.backward.nodes": 871},
}
# The five gradcheck suites at this commit (their shapes are fixed).
GRADCHECK_COUNTS = {"gradcheck.forward_evals": 3975, "engine.conv2d.dw3x3.calls": 4386,
                    "engine.conv2d.1x1.calls": 23996, "engine.conv2d.3x3.calls": 9166,
                    "engine.conv2d.pooled.calls": 33323}


def run(workload, trace, shape="tiny", seconds=1):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace),
         "--shape", shape],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, "out", f"report-{workload}-seed{SEED}-trace{trace}.json")) as fh:
        return line, json.load(fh)


@pytest.fixture(scope="module")
def runs():
    return {(w, t): run(w, t) for w in catalog.WORKLOADS for t in (0, 1)}


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _values(report):
    return {n: m["value"] for n, m in report["per_layer"].items()}


def test_result_lines_follow_benchmark_json(runs, bench):
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for (workload, trace), (line, _report) in runs.items():
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, workload
        want = layers if trace else e2e
        assert {n: m["unit"] for n, m in line["metrics"].items()} == want, (workload, trace)
        assert all(m["value"] is not None for m in line["metrics"].values())


def test_every_metric_named_with_unit(runs):
    e2e, layers = set(), set()
    for (workload, trace), (_line, report) in runs.items():
        if trace:
            layers |= set(report["per_layer"])
            assert all(m["unit"] for m in report["per_layer"].values())
        else:
            e2e |= set(report["end_to_end"])
            assert all(m["unit"] for m in report["end_to_end"].values())
            assert report["environment"]["seed"] == SEED
            assert report["environment"]["OPENBLAS_NUM_THREADS"] == "1"
    assert set(catalog.END_TO_END) <= e2e
    assert layers == set(catalog.PER_LAYER)


def test_tiny_step_counts_exact(runs):
    _line, report = runs[("step_64", 1)]
    values = _values(report)
    assert {n: values[n] for n in STEP_COUNTS["tiny"]} == STEP_COUNTS["tiny"]
    assert report["notes"]["fidelity_bitwise"] and report["notes"]["all_closures_traced"]


def test_gradcheck_counts_exact(runs):
    values = _values(runs[("gradcheck_f64", 1)][1])
    assert {n: values[n] for n in GRADCHECK_COUNTS} == GRADCHECK_COUNTS


def test_pipeline_traces_every_command(runs):
    _line, report = runs[("pipeline_32", 1)]
    values = _values(report)
    assert report["notes"]["traced_processes"] == 4
    assert values["metrics.evaluate.images"] == 10
    for cmd in ("synth", "train", "eval", "predict"):
        assert values[f"cli.{cmd}_s"] > 0


def test_full_step_counts_exact():
    _line, report = run("step_64", 1, shape="full")
    values = _values(report)
    assert {n: values[n] for n in STEP_COUNTS["full"]} == STEP_COUNTS["full"]
    assert report["notes"]["fidelity_bitwise"] and report["notes"]["all_closures_traced"]


def test_refuses_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (tmp_path / "perfbench" / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "step_64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
