"""Smoke test of the benchmark at a tiny size.

Run from the repository root: python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is printed with its unit, and
that the correctness checks flag outputs perturbed inside the checker's input
(the program itself is never altered).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import workloads  # noqa: E402


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_workload_registry_matches_benchmark_json():
    assert sorted(workloads.WORKLOADS) == sorted(WORKLOADS)


def _op(name: str, index: int = 0):
    wl = workloads.WORKLOADS[name]
    cfg = wl.build("tiny")
    seed = workloads.op_seed(7, index)
    return wl, cfg, seed, wl.op(cfg, seed)


@pytest.mark.parametrize("workload", ["noise-mcmc", "fullbayes-gibbs", "nonoise-analytic"])
def test_checker_flags_a_shifted_interval(workload):
    wl, cfg, seed, out = _op(workload)
    assert wl.check(cfg, seed, out, 0).ok
    lo, hi = ("mis_lower", "mis_upper") if workload == "fullbayes-gibbs" else ("hpd_lower", "hpd_upper")
    width = out[hi] - out[lo]
    shifted = {**out, lo: out[lo] + 0.5 * width, hi: out[hi] + 0.5 * width}
    chk = wl.check(cfg, seed, shifted, 0)
    assert not chk.ok and chk.err_sd > 1.0


def test_checker_flags_a_perturbed_estimate():
    wl, cfg, seed, out = _op("noisy-day-estimate")
    assert wl.check(cfg, seed, out, 0).ok
    assert not wl.check(cfg, seed, {**out, "theta_tilde": out["theta_tilde"] * (1 + 1e-6)}, 0).ok
    assert not wl.check(cfg, seed, {**out, "theta_hat": out["theta_hat"] * (1 + 1e-6)}, 0).ok


def test_checker_flags_a_wrong_tv():
    wl, cfg, seed, out = _op("nonoise-analytic")
    chk = wl.check(cfg, seed, {**out, "tv_to_reference": out["tv_to_reference"] + 1e-3}, 0)
    assert not chk.ok and any("tv_to_reference" in r for r in chk.reasons)


def test_run_refuses_a_tree_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": ""},
    )
    assert proc.returncode != 0 and proc.stdout == ""
