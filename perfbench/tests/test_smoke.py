"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]

# The names ROADMAP.md uses, printed on the report lines.
NAMED = {
    "cert": ["verify_s", "verify_s.tail", "prove_s", "prove_s.tail", "check_cert_s",
             "check_cert_s.tail", "reject_s", "reject_s.tail"],
    "algebra": ["words_per_s = ", "evals_per_s = ", "wide_s = "],
    "equality": ["decisions_per_s = ", "unknown_share = "],
}
EVERYWHERE = ["setup_s = ", "peak_rss_mb = ", "failed_share = "]


def run(workload: str, trace: int):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return "\n".join(lines[:-1]), json.loads(lines[-1])


def units(entries):
    return {e["name"]: e["unit"] for e in entries}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    report, result = run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units(CONFIG["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in NAMED[workload] + EVERYWHERE:
        assert name in report


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    _, result = run(workload, 1)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units(CONFIG["per_layer"])


def test_corrupted_certificate_is_a_failed_operation(tmp_path):
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    from workloads import CertWorkload

    workload = CertWorkload(str(tmp_path))
    workload.setup(7)

    def flip_one_byte(path):
        data = bytearray(Path(path).read_bytes())
        data[len(data) // 2] ^= 0x01
        Path(path).write_bytes(bytes(data))

    workload.tamper = flip_one_byte
    outcomes = workload.cycle(None)
    assert [o.slot for o in outcomes] == [0, 1, 2, 3]
    assert outcomes[0].ok and outcomes[1].ok
    assert not outcomes[2].ok
