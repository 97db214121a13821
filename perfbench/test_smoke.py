"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload at its shortest length, untraced and traced, and
checks the result line against ``BENCHMARK.json``: every named metric is
present with its unit, and no output check failed. Also checks that the
runner refuses to produce a result without the program's sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )


def test_catalog_matches_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: metric.unit for name, metric in END_TO_END.items()
    }
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: metric.unit for name, metric in PER_LAYER.items()
    }


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_reports_every_metric(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"])
        if trace == "0":
            assert reported["value"] > 0
    if trace == "1":
        for name, metric in PER_LAYER.items():
            if workload not in metric.workloads:
                assert result["metrics"][name]["value"] == 0, name
        assert result["metrics"]["setup.coverage"]["value"] > 0.97
        if workload == "design":
            assert result["metrics"]["design.call_coverage"]["value"] > 0.97


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "design", "--seconds", "1")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
