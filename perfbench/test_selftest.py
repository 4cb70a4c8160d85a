"""Quick self-test of the benchmark: every workload once at a tiny size.

    python3 -m pytest perfbench -q

It checks the result line, the operation counts and that every correctness
check passes, in untraced and traced runs, and that the benchmark refuses to
run without the program's sources. It asserts nothing about time.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Operations in one tiny round: training steps plus forecast windows,
# candidates, and gradient-check seeds.
OPS_PER_ROUND = {"reference": 3 + 40, "swarm-search": 2 * (1 + 1), "gradcheck": 1}
# Layer counts that must come out exact in a tiny traced round.
EXACT_COUNTS = {
    "reference": {"model.backward_calls": 3, "training.optimizer_step_calls": 3,
                  "pso.fitness_evals": 0, "gradcheck.loss_evals": 0},
    "swarm-search": {"pso.fitness_evals": 4, "gradcheck.loss_evals": 0},
    "gradcheck": {"gradcheck.loss_evals": 2 * 1273, "model.backward_calls": 1,
                  "pso.fitness_evals": 0},
}


def run(root, workload, trace):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "5",
           "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(
        [sys.executable if c == "python3" else c for c in cmd],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True, proc.stderr
    assert line["failed"] == 0
    return line


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_prints_every_end_to_end_metric(workload):
    line = result_line(run(ROOT, workload, 0))
    assert line["attempted"] == OPS_PER_ROUND[workload]
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in line["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_prints_every_layer_metric(workload):
    line = result_line(run(ROOT, workload, 1))
    # a warm-up round and five pairs of an untraced and a traced round
    assert line["attempted"] == 11 * OPS_PER_ROUND[workload]
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == wanted
    for name, count in EXACT_COUNTS[workload].items():
        assert line["metrics"][name]["value"] == count, name
    trace = ROOT / "perfbench" / "out" / "trace" / f"{workload}.json"
    assert json.loads(trace.read_text())["pairs"] == 5


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out"))
    proc = run(tmp_path, "gradcheck", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
