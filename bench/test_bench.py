"""Self-test of the benchmark in its fast mode (small batches).

    python3 -m pytest bench/test_bench.py -q

Checks that every metric BENCHMARK.json declares is printed by name with its
unit, that the last line has the result's four keys, that the counts repeat
exactly for a repeated seed, and that the benchmark refuses to run without
the library's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = ("statecov-large", "array-sweep", "infeasible", "cli-fresh")


def _run(workload, trace, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7", "--seconds", "0",
         "--trace", str(trace), "--fast"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(last["correct"], bool)
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    assert isinstance(last["failed"], int) and last["failed"] >= 0
    return lines, last


def _check_declared(lines, last, declared):
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        assert last["metrics"][name]["unit"] == unit, name
        assert isinstance(last["metrics"][name]["value"], (int, float)), name
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines), name
    assert set(last["metrics"]) == {m["name"] for m in declared}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed_with_units(workload):
    lines, last = _result(_run(workload, 0))
    _check_declared(lines, last, SPEC["end_to_end"])
    assert any(line.split()[:1] == ["verdict_fail_frac"] for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_report_every_layer_and_repeat_their_counts(workload):
    runs = []
    for _ in range(2):
        lines, last = _result(_run(workload, 1))
        _check_declared(lines, last, SPEC["per_layer"])
        info = json.loads((ROOT / "bench" / "out" / ("result-%s-s7-t1.json" % workload)).read_text())
        assert info["traced"]["missing"] == []
        runs.append((info["traced"]["accepted_steps"], last["metrics"]["families.evaluate.calls"]["value"]))
    assert runs[0] == runs[1]
    assert runs[0][0] > 0 and runs[0][1] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("array-sweep", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
