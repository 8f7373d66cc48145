"""Smoke-scale invariants of the end-to-end benchmark; no timing assertions.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = {"point_select", "broad_select", "sim_join", "mixed_rw"}


def _run(script, *args):
    return subprocess.run(
        [sys.executable, script, "--smoke", *args],
        capture_output=True,
        text=True,
        timeout=170,
    )


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_reports_every_metric(tmp_path, trace, section):
    out = tmp_path / "result.json"
    done = _run(os.path.join(HERE, "run.py"), "--trace", str(trace), "--out", str(out))
    assert done.returncode == 0, done.stderr
    runs = json.loads(out.read_text())["runs"]
    assert {run["workload"] for run in runs} == WORKLOADS
    expected = {metric["name"]: metric["unit"] for metric in _contract()[section]}
    for run in runs:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1, run["failures"]
        assert run["provenance"]["golden_checked"]
        reported = {name: metric["unit"] for name, metric in run["metrics"].items()}
        assert reported == expected
        if trace:
            assert run["metrics"]["harness.attributed_frac"]["value"] > 0
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_contract_names_the_harness_workloads():
    contract = _contract()
    assert {workload["name"] for workload in contract["workloads"]} == WORKLOADS
    assert contract["paths"] == ["benchmarks/e2e"]


def test_second_seed_passes_the_serial_identity_check(tmp_path):
    out = tmp_path / "result.json"
    done = _run(os.path.join(HERE, "run.py"), "--seed", "11", "--out", str(out))
    assert done.returncode == 0, done.stderr
    for run in json.loads(out.read_text())["runs"]:
        assert run["correct"] and not run["provenance"]["golden_checked"]


def test_corrupt_golden_digest_fails_the_command(tmp_path):
    """A copy of the benchmark with one pinned digest flipped exits non-zero."""
    copy = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    golden = copy / "golden" / "seed7_smoke.json"
    pinned = json.loads(golden.read_text())
    first = pinned["broad_select"]["answers"][0]
    pinned["broad_select"]["answers"][0] = ("0" if first[0] != "0" else "1") + first[1:]
    golden.write_text(json.dumps(pinned))
    done = _run(str(copy / "run.py"), "--workload", "broad_select")
    assert done.returncode == 1, done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is False
