"""Tests of the benchmark itself: the reference code on cases worked out by
hand, and the form of the record a run prints.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Layers only the CLI reaches; the library workloads report 0 for them.
CLI_ONLY = {
    "graph.load_s", "graph.write_s", "model.checkpoint_s", "eval.project_2d_s",
    "cli.artifact_bytes", "cli.self_s",
}

R6 = math.sqrt(6.0)


# --- reference code on a path graph 0 - 1 - 2 ---------------------------------
# degrees + 1 = (2, 3, 2), so P = [[1/2, 1/√6, 0], [1/√6, 1/3, 1/√6], [0, 1/√6, 1/2]]

EDGES = np.array([[0, 1], [1, 2]])


def test_propagate_three_node_path():
    h = np.array([[1.0], [2.0], [3.0]])
    want = np.array([[1 / 2 + 2 / R6], [1 / R6 + 2 / 3 + 3 / R6], [2 / R6 + 3 / 2]])
    np.testing.assert_allclose(reference.propagate(EDGES, 3, h), want, rtol=1e-15)


def test_encode_three_node_path_applies_relu_between_layers():
    h = np.array([[1.0], [2.0], [3.0]])
    # layer 1 gives [P·h, -P·h]; relu keeps P·h; layer 2 sums the columns
    weights = [np.array([[1.0, -1.0]]), np.array([[1.0], [1.0]])]
    ph = reference.propagate(EDGES, 3, h)
    want = np.array(
        [
            [ph[0, 0] / 2 + ph[1, 0] / R6],
            [ph[0, 0] / R6 + ph[1, 0] / 3 + ph[2, 0] / R6],
            [ph[1, 0] / R6 + ph[2, 0] / 2],
        ]
    )
    np.testing.assert_allclose(reference.encode(weights, EDGES, 3, h), want, rtol=1e-15)


def test_mmd2_three_points():
    # squared distances 1, 9, 4: median 4
    got = reference.mmd2(np.array([[0.0], [1.0]]), np.array([[3.0]]))
    want = (1 + math.exp(-1 / 4)) / 2 + 1 - (math.exp(-9 / 4) + math.exp(-1))
    assert got == pytest.approx(want, rel=1e-14)


def test_mmd2_of_identical_clouds_is_zero():
    v = np.array([[0.0, 1.0], [2.0, 0.5], [1.0, 1.0]])
    assert reference.mmd2(v, v.copy()) == pytest.approx(0.0, abs=1e-15)


def test_macro_f1_counts_an_absent_class_as_zero():
    truth, predicted = np.array([0, 0, 1]), np.array([0, 1, 1])
    assert reference.macro_f1(truth, predicted, 2) == pytest.approx(2 / 3)
    assert reference.macro_f1(truth, predicted, 3) == pytest.approx(4 / 9)


def test_loss_log_faults():
    good = [(10.0, 0.5, 0.5, 10.5), (9.0, 0.6, 0.45, 9.45)]
    assert reference.loss_log_faults(good, 1.0) == []
    below_floor = [(10.0, 0.5, 0.4, 10.4), (9.0, 0.5, 0.5, 9.5)]
    assert "< 1" in reference.loss_log_faults(below_floor, 1.0)[0]
    wrong_total = [(10.0, 0.5, 0.5, 10.0), (9.0, 0.5, 0.5, 9.5)]
    assert "l_total" in reference.loss_log_faults(wrong_total, 1.0)[0]
    no_progress = [(10.0, 0.5, 0.5, 10.5), (10.0, 0.5, 0.5, 10.5)]
    assert "epoch-0" in reference.loss_log_faults(no_progress, 1.0)[0]
    assert "non-finite" in reference.loss_log_faults([(math.nan, 0.5, 0.5, 1.0)], 1.0)[0]


# --- the record a run prints ----------------------------------------------------


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_record_names_every_metric_with_its_unit(workload, trace):
    proc = _run(
        ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--small"],
        ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1, proc.stdout
    record = json.loads(lines[0])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] is True
    assert isinstance(record["attempted"], int) and record["attempted"] >= 1
    # the CLI's eval fails every round: its projection.csv cannot be read
    expected_failed = record["attempted"] // 3 if workload == "cli_pipeline" else 0
    assert record["failed"] == expected_failed
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in record["metrics"].items()
    }
    for name, m in record["metrics"].items():
        value = m["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), name
        if trace and workload != "cli_pipeline" and name in CLI_ONLY:
            assert value == 0, name
        else:
            assert value > 0, name


def test_without_the_program_the_run_fails_quietly(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
