"""Smoke-sized self-test of the benchmark.

Every metric that BENCHMARK.json names is emitted, with its unit, on
every workload: the end-to-end ones untraced, the per-layer ones traced.
The workloads run at toy sizes in-process; one full-size command runs in
a copy of the checkout.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402

# Toy sizes train too little for the quality floors, which hold at full size.
TOY = {"patch-coinsP": dict(epochs=2, coarse=4, fine_per_coarse=2, z=2, reads=1),
       "blob-coins": dict(epochs=1, coarse=2, fine_per_coarse=4, z=4, reads=1,
                          min_coarse_top1=0.0),
       "blob-eval": dict(epochs=1, coarse=2, fine_per_coarse=4, z=4, reads=1,
                         min_coarse_top1=0.0)}


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_matches_contract():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(TOY)
    metrics = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(metrics) == len(set(metrics))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert 0 < max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


def test_readme_maps_every_layer_metric():
    readme = (HERE / "README.md").read_text()
    assert [m for m in units("per_layer") if f"`{m}`" not in readme] == []


@pytest.mark.parametrize("name", list(TOY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_with_unit(name, trace, tmp_path):
    w = dataclasses.replace(workloads.WORKLOADS[name], **TOY[name])
    run = workloads.Run(w, seed=3, workdir=tmp_path)
    run.setup()
    run.measure(0.0, trace)
    assert [(op.kind, op.failures) for op in run.ops if op.failures] == []
    got = run.per_layer() if trace else run.end_to_end()
    want = units("per_layer" if trace else "end_to_end")
    assert {k: u for k, (_, u) in got.items()} == want
    if trace:
        counts = {k: v for k, (v, u) in got.items() if u == "count"}
        assert counts["losses.wi_reads"] == run.expected_reads[0]
        assert (counts["data.augment_calls"] > 0) == (w.kind == "patch")
        assert abs(got["trace.remainder_s"][0]) < 0.05 * got["trace.wall_s"][0]
    else:
        assert all(v > 0 for v, _ in got.values())


def test_eval_below_quality_floor_fails(tmp_path):
    w = dataclasses.replace(workloads.WORKLOADS["blob-coins"],
                            **TOY["blob-coins"] | {"min_coarse_top1": 1.01})
    run = workloads.Run(w, seed=3, workdir=tmp_path)
    run.setup()
    run.measure(0.0, False)
    assert [op.kind for op in run.ops if op.failures] == ["eval"] * workloads.DATASETS
    assert "below the floor" in run.ops[1].failures[0]
    assert run.end_to_end()["ok_ratio"][0] == 0.75


def copy_checkout(dest: Path, with_source: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_source:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return dest


def run_command(cwd: Path, workload: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", "1",
                           "--seconds", "0", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def test_command_prints_result_last(tmp_path):
    out = run_command(copy_checkout(tmp_path, with_source=True), "blob-coins")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units("end_to_end")


def test_command_fails_without_source(tmp_path):
    out = run_command(copy_checkout(tmp_path, with_source=False), "blob-coins")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
