"""Reduced-size self-test of the benchmark.

Runs every workload briefly, untraced and traced, and asserts that the last
output line is the result object, that every metric declared in
``BENCHMARK.json`` is printed with its unit, and that no op failed.  Then
checks that the benchmark refuses to run, without printing a result, in a
directory that holds only ``BENCHMARK.json`` and the benchmark's files.

Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = 2
TIMEOUT = 300

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=TIMEOUT, check=False)


def check_workload(name: str, trace: int, declared: list[dict]) -> None:
    proc = run(ROOT, "--workload", name, "--seed", "0", "--seconds", str(SECONDS),
               "--trace", str(trace))
    assert proc.returncode == 0, f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == RESULT_KEYS, result.keys()
    assert result["attempted"] >= 1 and result["failed"] == 0, (name, trace, proc.stdout)
    assert result["correct"] is True
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, (name, trace, got)
    for key, val in result["metrics"].items():
        assert set(val) == {"value", "unit"}, val
        assert isinstance(val["value"], (int, float)) and math.isfinite(val["value"]), key
    for metric, unit in want.items():
        assert any(line.split()[:1] == [metric] and line.endswith(" " + unit)
                   for line in lines), f"{metric} not printed with {unit}"
    if not trace:
        assert any(line.split()[:3] == ["fail_ratio", "0", "ratio"] for line in lines), lines
    print(f"ok  {name:<18} trace {trace}  {result['attempted']} ops")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", "serve-mixed", "--seed", "0",
                   "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0, "benchmark ran without the library source"
    assert '"metrics"' not in proc.stdout, proc.stdout
    print(f"ok  bare directory     exit {proc.returncode}")


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, spec.keys()
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}
    for wl in spec["workloads"]:
        check_workload(wl["name"], 0, spec["end_to_end"])
        check_workload(wl["name"], 1, spec["per_layer"])
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
