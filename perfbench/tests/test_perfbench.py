"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The end-to-end cases start ``run.py`` in a subprocess with a one-second
run, so each does one or two passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Never used while the benchmark was tuned.
HELD_OUT_SEED = 424242


def run_bench(tmp_path: Path, workload: str, seed: int, trace: int,
              cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--out", str(tmp_path)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def test_spec_names_every_workload():
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("name", WORKLOADS)
def test_generators_are_deterministic_per_seed(name):
    w = workloads.WORKLOADS[name]
    assert w.generate(3) == w.generate(3)
    assert w.generate(3) != w.generate(4)
    json.dumps(w.generate(3))  # plain inputs only


def test_dsrem_mixes_are_one_to_four_distinct_apps():
    for seed in range(20):
        for op in workloads.WORKLOADS["dsrem_mix"].generate(seed):
            mix = op["mix"]
            assert 1 <= len(mix) <= 4
            assert len(set(mix)) == len(mix)
            assert set(mix) <= set(workloads.APPS)


def test_reference_matches_default_seed_inputs():
    for name in WORKLOADS:
        ref = workloads.load_reference(name)
        ops = workloads.WORKLOADS[name].generate(workloads.DEFAULT_SEED)
        assert [r["input"] for r in ref] == ops


@pytest.mark.parametrize("name", WORKLOADS)
def test_held_out_seed_runs_without_failures(tmp_path, name):
    proc = run_bench(tmp_path, name, HELD_OUT_SEED, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _traced(tmp_path, name):
    proc = run_bench(tmp_path, name, workloads.DEFAULT_SEED, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_separates_the_layers(tmp_path, name):
    m = _traced(tmp_path, name)
    assert 0 < m["trace.coverage_frac"] <= 1.0 + 1e-9
    assert m["thermal.build.self_s"] > 0
    if name == "dsrem_mix":
        assert m["apps.core_power.calls"] > 0
        assert m["mapping.ds_rem.self_s"] > 0
        assert m["thermal.steady.calls"] > 0
    if name == "boost_transient":
        assert m["apps.core_power.calls"] == 0
        assert m["thermal.transient.step.calls"] > 0
        assert m["boosting.total_powers.calls"] > 0
    else:
        assert m["thermal.transient.step.calls"] == 0
    if name == "runtime_stream":
        assert m["perf.cache_hit_frac"] > 0
        assert 0 < m["runtime.admit_frac"] < 1
        assert m["core.safe_frequency.calls"] > 0
    else:
        assert m["perf.cache_hit_frac"] == 0


def test_without_program_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench(tmp_path / "out", "dsrem_mix", 1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_host_speed_scale_is_reference_over_median_kernel_time():
    samples = hostspeed.calibrate(3)
    assert all(t > 0 for t in samples)
    assert hostspeed.scale([0.02, 0.01, 0.04]) == pytest.approx(
        hostspeed.REFERENCE_KERNEL_S / 0.02
    )


def test_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    pairs = lambda change: list(zip(parent, change))  # noqa: E731
    assert compare.verdict(parent, faster, pairs(faster), "lower", 0.1) == "better"
    assert compare.verdict(parent, slower, pairs(slower), "lower", 0.1) == "worse"
    assert compare.verdict(parent, parent, pairs(parent), "lower", 0.1) == "same"
    wide = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(parent, wide, pairs(wide), "lower", 0.1) == "unresolved"
    # "higher is better" flips the direction
    assert compare.verdict(parent, slower, pairs(slower), "higher", 0.1) == "better"
