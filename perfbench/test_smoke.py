"""Smoke test of the benchmark harness on k4 and prism.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

ROOT = os.path.dirname(run.BENCH_DIR)


@pytest.fixture(scope="module")
def expected():
    with open(run.EXPECTED_PATH) as fh:
        return json.load(fh)


def test_smoke_run_matches_expected_reports(expected):
    line, detail = run.run_workload("smoke", 7, 0.1, False, ROOT, expected)
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == run.MIN_SWEEPS * len(run.WORKLOADS["smoke"].invocations)
    assert set(line["metrics"]) == {"sweep_s", "peak_rss_mb", "setup_s"}
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert detail["failed_frac"] == 0.0
    assert detail["provenance"]["expected_timeouts_at_parent"] == run.EXPECTED_TIMEOUTS


def test_hash_gate_fires_on_altered_expected_hash(expected):
    altered = copy.deepcopy(expected)
    altered["k4 pm count"]["sha256"] = "0" * 64
    line, detail = run.run_workload("smoke", 7, 0.1, False, ROOT, altered)
    assert not line["correct"] and line["failed"] == run.MIN_SWEEPS
    bad = [inv for inv in detail["invocations"] if inv["error"]]
    assert {inv["id"] for inv in bad} == {"k4 pm count"}
    assert {inv["error"] for inv in bad} == {"report sha256 differs from expected"}


def test_traced_run_reproduces_reports_and_reports_every_layer(expected):
    line, detail = run.run_workload("smoke", 7, 0.1, True, ROOT, expected)
    assert line["correct"] and line["attempted"] == 2 * len(run.WORKLOADS["smoke"].invocations)
    metrics = {k: m["value"] for k, m in line["metrics"].items()}
    assert set(metrics) == set(run.LAYER_METRICS)
    for layer in run.LAYERS:
        assert metrics[f"{layer}.self_ms"] > 0, layer
    assert metrics["matchings.enumerate.calls"] > 0
    assert metrics["graph.odd_shores.shores"] > 0
    assert metrics["decomposition.nodes"] > 0
    assert all(metrics[f"verifier.{pid}.ms"] > 0 for pid in run.PROPERTY_IDS)
    assert "k4 verify all" in detail["per_command"]


def test_exits_nonzero_without_a_checkout(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
                           "--workload", "smoke", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
