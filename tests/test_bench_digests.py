"""The benchmark's report digests at seed 201, pinned.

A change made for speed must leave every rendered report byte-identical,
so each workload must still print the digest recorded for it and end
correct.  A change that moves a digest on purpose (new samples, new report
text) updates the digest here and says why.  About 8 s for the four runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "build-q": "807a51b6a7bfd53b2440a5a36605c0f2e9eef903c31fd6eefac7e7c6d2c188fd",
    "audit-q": "64a73a732688eff368760934779c84e6f762022af0e10aa1a03d74600b021862",
    "audit-qt": "8fc44fa34a2f10d394de5e21c5bc335bb5394a013371a0d98d3adde33424279a",
    "build-qt": "9950b43429f0e1fe13dc83e1eedd51cf5a92a5adaae5756d867c7d7be306d165",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_benchmark_digest_is_pinned(workload):
    run = subprocess.run(
        [sys.executable, "cutbench/run.py", "--workload", workload, "--seed", "201",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    digests = [line.rsplit("sha256:", 1)[1] for line in lines if "digest of" in line]
    assert digests == [DIGESTS[workload]]
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
