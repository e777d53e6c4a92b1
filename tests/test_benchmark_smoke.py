"""One short run of the committed benchmark on the current sources: a change
that breaks a command line or file format the benchmark drives fails here."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_long_workload_two_rounds_run_clean():
    # --seconds 0 runs the first round and one more
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long", "--seed", "1", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout[-2000:]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}


def test_dense_traced_round_decodes_exactly():
    # seed 2 pairs fragments, so gen-corpus makes fragment edits
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense", "--seed", "2",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout[-2000:]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["confusion.fragments"] > 0, metrics
    assert metrics["decoder.exact"] == metrics["decoder.decoded"] > 0, metrics
