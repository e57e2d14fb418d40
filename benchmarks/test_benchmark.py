"""Tests of the benchmark itself, on the tiny size of every workload, so the
runner, the output checks, the tracer and the compare command cannot rot.

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
from workloads import SIZES, WORKLOADS, check_step

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# Layers each workload must show in its traced run.
EXERCISED = {
    "file-pipeline": ["core.read_hypergraph.s", "core.write_hypergraph.s",
                      "core.count_ordered_quadruples.calls",
                      "constructions.gen_tournament_3hg.s",
                      "constructions.gen_oriented_4hg.s", "detectors.find_k4_minus.s",
                      "detectors.find_f4.s", "certifiers.weak_deviation.search.s",
                      "certifiers.quad_vertex_deviation.evaluations",
                      "cmd.detect.s", "cmd.certify.s"],
    "sweep-xyz": ["core.count_ordered_triples.calls", "detectors.count_k4_minus.s",
                  "certifiers.xyz_deviation.evaluations",
                  "certifiers.xyz_deviation.improve_hit_ratio",
                  "experiment.run_cell.s", "experiment.pool_wait_s",
                  "experiment.pool_busy_ratio", "cmd.experiment.s"],
    "exact-small": ["certifiers.weak_deviation.exact.subsets_per_s",
                    "certifiers.pair_deviation.exact.subsets_per_s",
                    "certifiers.bipartite_regularity_deviation.exact.subsets_per_s",
                    "multipartite.read_multipartite.s", "multipartite.half_split.s",
                    "multipartite.explore_extremal.s",
                    "multipartite.mean_square_profile.s",
                    "multipartite.find_triangle_mp.s",
                    "multipartite.proof_diagnostics.s", "cmd.multipartite.s"],
}


def run_bench(tmp_path: Path, workload: str, trace: int, cwd: Path = ROOT):
    record = tmp_path / "runs.jsonl"
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny",
         "--record", str(record)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc, record


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(tmp_path, workload):
    proc, record = run_bench(tmp_path, workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    rec = json.loads(record.read_text())
    # the default seed is checked against the pinned digests
    pinned = json.loads((BENCH_DIR / "pinned_digests.json").read_text())
    assert rec["digests"] == pinned["tiny"][workload]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_covers_layers_and_accounts_for_wall_time(tmp_path, workload):
    proc, record = run_bench(tmp_path, workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stderr
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in BENCH["per_layer"]}
    for name in EXERCISED[workload] + ["cli.startup_s", "cli.self_s"]:
        assert metrics[name] > 0, name
    rec = json.loads(record.read_text())
    for step in rec["setup_samples"] + [s for p in rec["traced_passes"] for s in p]:
        assert min(step["self_s"].values(), default=0.0) >= 0.0
        accounted = sum(step["self_s"].values()) + step["cli_self_s"]
        assert accounted == pytest.approx(step["wall"], abs=1e-6)
        assert 0.0 < step["cli_self_s"] <= step["wall"]


def test_checks_reject_wrong_outputs(tmp_path):
    wl = WORKLOADS["file-pipeline"](SIZES["tiny"], 0)
    detect = wl.steps[0]
    (tmp_path / "k4minus.json").write_text(json.dumps({"found": True}))
    assert "found" in check_step(detect, tmp_path)
    (tmp_path / "k4minus.json").unlink()
    assert "missing output" in check_step(detect, tmp_path)
    sweep = WORKLOADS["sweep-xyz"](SIZES["tiny"], 0).steps[0]
    rows = [{"n": 16, "seed": s, "error": "", "k4minus_ordered_found": 0,
             "k4minus_count": 0} for s in range(2)]
    csv_name, json_name = sweep.outputs
    (tmp_path / csv_name).write_text("")
    (tmp_path / json_name).write_text(json.dumps({"rows": rows}))
    assert check_step(sweep, tmp_path) is None
    rows[1]["error"] = "ValueError: boom"
    (tmp_path / json_name).write_text(json.dumps({"rows": rows}))
    assert "boom" in check_step(sweep, tmp_path)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = run_bench(tmp_path, "exact-small", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _records(path: Path, wall_values: list[float]) -> None:
    lines = []
    for seed, wall in enumerate(wall_values):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in BENCH["end_to_end"]}
        metrics["cpu_ref_s"]["value"] = wall
        lines.append(json.dumps({"workload": "exact-small", "seed": seed, "size": "full",
                                 "trace": 0, "result": {"failed": 0, "attempted": 9,
                                                        "metrics": metrics}}))
    path.write_text("\n".join(lines) + "\n")


def test_compare_verdicts(tmp_path, capsys):
    parent = [10.0 + 0.01 * i for i in range(10)]
    _records(tmp_path / "parent.jsonl", parent)
    _records(tmp_path / "faster.jsonl", [v * 0.8 for v in parent])
    _records(tmp_path / "slower.jsonl", [v * 1.3 for v in parent])
    assert compare.main([str(tmp_path / "parent.jsonl"), str(tmp_path / "faster.jsonl")]) == 0
    out = capsys.readouterr().out
    assert "won 10/10  improved" in out and "unchanged" in out
    assert compare.main([str(tmp_path / "parent.jsonl"), str(tmp_path / "slower.jsonl")]) == 1
    assert "regressed" in capsys.readouterr().out
