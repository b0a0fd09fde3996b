"""Self-check: the benchmark's deterministic counts repeat exactly.

Two traced runs of each workload with the same seed must report equal
counts (simulated ticks, executed ticks, modeled perf syscalls, worker
launches, checkpoint saves, ...).  A count that moves between two
commits then means the simulation changed, not that it got faster.

    python3 -m pytest repobench/test_counts.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNTS = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count"]
COUNTS.append("sim.leap_ratio")


def traced(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout[-3000:]
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize(
    "workload,seconds",
    [("paper-cells", 1), ("papi-sessions", 1), ("service-fleet", 2)],
)
def test_counts_repeat_exactly(workload, seconds):
    first = traced(workload, 7, seconds)
    second = traced(workload, 7, seconds)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["sim.sim_ticks"] > 0 and first["sim.tick_calls"] > 0
