"""Self-test of the benchmark: two traced runs with the same seed give
identical deterministic counters, and every item passes its check.

    python3 -m pytest -q perfbench/test_determinism.py

Each traced run is a subprocess (cold caches, fresh hash seed), so the
counters are compared across processes, as a later change comparing
against the recorded baseline would.  Takes a few minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import DETERMINISTIC  # noqa: E402


def traced_run(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            "1",
            "--trace",
            "1",
        ],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


# A counter per workload that must be busy: each workload loads its layer.
BUSY = {
    "golden": "proofs.expansions",
    "countermodel": "entailment.frames_searched",
    "sweeps": "amalgam.pullback.points",
}


@pytest.mark.parametrize("workload", sorted(BUSY))
def test_counters_repeat_exactly(workload):
    first = traced_run(workload, 7)
    second = traced_run(workload, 7)
    for run in (first, second):
        assert run["correct"] and run["failed"] == 0
    a = {name: first["metrics"][name]["value"] for name in DETERMINISTIC}
    b = {name: second["metrics"][name]["value"] for name in DETERMINISTIC}
    assert a == b
    assert a[BUSY[workload]] > 0
