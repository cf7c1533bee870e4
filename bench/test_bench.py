"""Self-tests for the benchmark harness.

    python3 -m pytest -q bench/test_bench.py

Each workload runs one pass over a cheap slice of its requests, which still
covers every command the workload sends.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SLICES = {
    "cyclic-enum": lambda req: req.spec in ("z120", "z240"),
    "sums-search": lambda req: req.spec in ("z7x7", "z3x3x3", "z12"),
    "lattice-specs": lambda req: req.spec in ("sub_z8x4", "rand00", "rand01"),
}


def printed(outcome, capsys):
    run.report(outcome)
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
def test_every_metric_printed(workload, trace, capsys):
    outcome = run.measure(workload, run.DEFAULT_SEED, 0, trace, select=SLICES[workload])
    lines = printed(outcome, capsys)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.startswith(f"{metric['name']} ") for line in lines)
    assert any(line.startswith("error_rate 0 ") for line in lines)
    info = json.loads(lines[-2])["info"]
    for key in ("git_sha", "python", "nproc", "seed", "requests_per_pass"):
        assert key in info
    if trace:
        assert info["unwrapped"] == []


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("field", ["sha256", "exit"])
def test_corrupted_golden_is_a_failure(workload, field):
    goldens = run.load_goldens()
    corrupt = {key: {**golden, field: "0" * 64 if field == "sha256" else 1}
               for key, golden in goldens.items()}
    outcome = run.measure(workload, run.DEFAULT_SEED, 0, False, goldens=corrupt,
                          select=SLICES[workload])
    result = outcome["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_without_golden_only_errors_and_fail_claims_count(tmp_path):
    req = run.Request("verify", "x")
    report = tmp_path / "out.report"
    report.write_text("hollowlat-report 1\nsubject s\nclaim a pass\nclaim b hypothesis-unmet\n")
    assert run.check(req, "k", 0, None, tmp_path, {}) is None
    assert run.check(req, "k", 2, None, tmp_path, {}) is None
    assert run.check(req, "k", 3, None, tmp_path, {}) is not None
    assert run.check(req, "k", 0, ValueError("boom"), tmp_path, {}) is not None
    report.write_text("hollowlat-report 1\nsubject s\nclaim a fail w\n")
    assert run.check(req, "k", 0, None, tmp_path, {}) is not None


def test_tracer_restores_what_it_wraps():
    hl = run.import_hollowlat()
    original = hl.modules.sum_of, hl.cli.main, hl.modules.FiniteModule.__init__
    spans = tracer.Tracer()
    spans.install()
    try:
        assert spans.missing == []
        assert hl.modules.sum_of is not original[0]
        assert hl.cli.main is not original[1]
    finally:
        spans.uninstall()
    assert (hl.modules.sum_of, hl.cli.main, hl.modules.FiniteModule.__init__) == original


def test_fails_without_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    child = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload",
                            "sums-search", "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
