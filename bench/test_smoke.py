"""Smoke test of the benchmark itself at tiny sizes.

Run from the repository root::

    python3 -m pytest -q bench/test_smoke.py

Each case starts ``bench/run.py`` in its own process, as the benchmark
is meant to be run, with ``--size tiny`` so the whole file takes about
a minute and a half.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# turns is run by hand only (README, Workloads), but kept working
WORKLOADS = ["meeting", "turns", "simulate-score"]
# end-to-end figures of the full report, by the workloads they apply to
REPORTED = {
    "meeting": ("enhance_rtf", "sdr_gain_db"),
    "turns": ("enhance_rtf", "sdr_gain_db"),
    "simulate-score": ("simulate_s", "score_s", "rover_s"),
}
COMMON = ("setup_s", "setup_wall_s", "op_ref_ratio", "op_best_s", "op_median_s", "ref_mean_s", "peak_rss_mb")


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--seed", "3", "--seconds", "1"]
    proc = subprocess.run(cmd + list(args), cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_lines(proc):
    assert proc.returncode == 0, proc.stderr
    *_, report, result = proc.stdout.strip().splitlines()
    return json.loads(report)["report"], json.loads(result)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    report, result = result_lines(bench("--workload", workload, "--trace", "0", "--size", "tiny"))
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0
    assert sorted(report["figures"]) == sorted(COMMON + REPORTED[workload])
    assert report["fail_rate"] == 0.0
    env = report["environment"]
    for key in ("python", "numpy", "scipy", "blas", "blas_threads", "nproc", "seed",
                "held_out_seed", "git_commit"):
        assert key in env


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    report, result = result_lines(bench("--workload", workload, "--trace", "1", "--size", "tiny"))
    assert result["correct"]
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(spec["name"] for spec in SPEC["per_layer"])
    for spec in SPEC["per_layer"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
    if workload == "simulate-score":
        assert metrics["wpe.wpe.calls"]["value"] == 0
        assert metrics["gss.fit_cacgmm.calls"]["value"] == 0
        assert metrics["metrics.edit_distance.cells"]["value"] > 0
        assert metrics["rover.align_into_wtn.calls"]["value"] == 4
    else:
        assert metrics["gss.fit_cacgmm.calls"]["value"] == 3
        assert metrics["gss.fit_cacgmm.frames_per_session_frame"]["value"] > 0.5
        assert metrics["cli.main.self_s"]["value"] > 0
    if workload == "turns":
        assert metrics["wpe.wpe.calls"]["value"] == 0
    if workload == "meeting":
        assert metrics["wpe.wpe.calls"]["value"] == 3
        assert metrics["simulate.make_meeting.self_s"]["value"] > 0
    assert json.loads(Path(report["spans"]).read_text())["ops"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failure(workload):
    args = ("--workload", workload, "--trace", "0", "--size", "tiny", "--corrupt")
    report, result = result_lines(bench(*args))
    assert not result["correct"]
    assert result["failed"] > 0
    assert report["fail_rate"] > 0


def test_output_hash_repeats_across_processes():
    args = ("--workload", "turns", "--trace", "0", "--size", "tiny")
    first, _ = result_lines(bench(*args))
    second, _ = result_lines(bench(*args))
    assert first["output_sha256"] == second["output_sha256"] is not None


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
