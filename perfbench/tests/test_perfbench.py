"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
from tracer import self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = "0.05"


def bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


GATED = [w["name"] for w in bench_json()["workloads"]]


def run_bench(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", TINY],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", GATED)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric_and_passes_checks(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout[-3000:]
    assert result["attempted"] >= 1
    declared = bench_json()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }


def test_catalogue_matches_benchmark_json():
    bench = bench_json()
    catalogue = json.loads((BENCH / "catalogue.json").read_text())
    for kind in ("end_to_end", "per_layer"):
        assert [m["name"] for m in bench[kind]] == list(catalogue[kind])
        for m in bench[kind]:
            entry = catalogue[kind][m["name"]]
            assert (m["unit"], m["better"]) == (entry["unit"], entry["better"])
            assert set(entry.get("moves", [])) <= set(catalogue["end_to_end"]) | set(
                catalogue["quality"]
            )
    for w in bench["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why


def test_bpe_workload_measures_the_bpe_layer():
    """nmt-bpe stays out of BENCHMARK.json while run_translate can raise
    SubwordFormatError on a BPE model; when it does, the run still reports
    the layer and counts the failure."""
    proc = run_bench("nmt-bpe", 1)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] == (result["failed"] == 0)
    metrics = {name: v["value"] for name, v in result["metrics"].items()}
    for name in ("bpe.learn_s", "bpe.merges", "bpe.apply_s", "bpe.apply_calls"):
        assert metrics[name] > 0, name


def write(tmp_path, name, seed):
    workload = WORKLOADS["smt-decode"]
    knobs = gen.Knobs(**{**workload.knobs.__dict__, "pairs": 60, "dev": 6, "eval": 12})
    gen.write_inputs(tmp_path / name, knobs, seed, workload.config())
    return tmp_path / name


def test_generator_is_deterministic_per_seed(tmp_path):
    a, b, c = write(tmp_path, "a", 7), write(tmp_path, "b", 7), write(tmp_path, "c", 8)
    names = sorted(os.listdir(a))
    assert "lexicon.tsv" in names and "train.src" in names and "pipeline.cfg" in names
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert match == names and not mismatch and not errors
    _, differ, _ = filecmp.cmpfiles(a, c, names, shallow=False)
    assert {"train.src", "train.tgt", "exclusive.src"} <= set(differ)


def test_self_times_under_a_stage_add_up_to_the_stage(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", "smt-decode",
         "--seed", "5", "--dir", str(tmp_path / "run"), "--out", str(tmp_path / "out.json"),
         "--trace", "--scale", TINY],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    trace = json.loads((tmp_path / "trace.json").read_text())
    selfs = self_times(trace)
    parent = {s[0]: s[4] for s in trace["spans"]}

    def stage_of(sid):
        while parent[sid] is not None:
            sid = parent[sid]
        return sid

    stages = [s for s in trace["spans"] if s[4] is None]
    assert {s[1] for s in stages} == {f"pipeline.{n}" for n in WORKLOADS["smt-decode"].stages}
    for sid, name, start, end, _ in stages:
        # counted calls are leaves: their whole time is their self time
        subtree = sum(t for s, t in selfs.items() if stage_of(s) == sid) + sum(
            total for parent, _, _, total in trace["calls"] if stage_of(parent) == sid
        )
        assert subtree == pytest.approx(end - start, rel=1e-9, abs=1e-9), name
        assert all(t >= -1e-6 for s, t in selfs.items() if stage_of(s) == sid)
    assert len(trace["spans"]) > len(stages)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("smt-decode", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
