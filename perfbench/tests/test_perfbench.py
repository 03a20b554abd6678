"""Self-checks for the benchmark: it touches only designdim's public names,
every workload runs clean on tiny instances, and it refuses to run where
the program is missing."""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_uses_only_public_names(monkeypatch):
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                private = node.attr.startswith("_") and not node.attr.startswith("__")
                assert not private, f"{path.name}:{node.lineno} uses {node.attr}"
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("designdim"):
                assert all(not a.name.startswith("_") for a in node.names), path.name
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    assert all(not name.startswith("_") for name in tracer.LAYERS)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_on_tiny_instances(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.3",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    assert result["failed"] == 0, proc.stderr
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_each_set_up_imports_designdim_afresh():
    # in a child process: re-importing here would swap the designdim that
    # the other test modules of this session hold
    probe = (
        "import run\n"
        "a, wa, _ = run.fresh_import()\n"
        "b, wb, _ = run.fresh_import()\n"
        "assert a is not b and a.SymmetricDesign is not b.SymmetricDesign\n"
        "assert wa is not wb and wb.dd is b\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], cwd=BENCH, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "ladder", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
