"""Smoke check of the benchmark itself.

    python3 benchmarks/smoke.py

Runs every workload of BENCHMARK.json cut down (``--smoke``), untraced and
traced, and checks the result format: the last line of standard output
is the result object, every output was correct, no operation failed, the
metrics are exactly those BENCHMARK.json names, with their units and
finite values, and the run record is complete. It also checks that the
benchmark fails, without a result, in a directory holding only
BENCHMARK.json and the benchmark. Exits 1 if any check fails.
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


def check_run(command, names) -> list[str]:
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        return [f"exit status {done.returncode}: {done.stderr.strip()[-500:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted={result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(names):
        problems.append(f"metrics differ: {sorted(set(metrics) ^ set(names))}")
    for name, entry in metrics.items():
        if entry.get("unit") != names.get(name):
            problems.append(f"{name}: unit {entry.get('unit')!r}")
        if not math.isfinite(entry.get("value", math.nan)):
            problems.append(f"{name}: value {entry.get('value')!r}")
    record = next((json.loads(line[len("# record: "):]) for line in lines
                   if line.startswith("# record: ")), None)
    if record is None or not {"machine", "code", "seed"} <= set(record):
        problems.append("run record missing or incomplete")
    return problems


def check_bare_directory(spec) -> list[str]:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        command = spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                     "--seed", "1", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(command, cwd=bare, capture_output=True, text=True,
                              timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return ["benchmark did not fail without the program's sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            command = spec["command"] + [
                "--workload", workload["name"], "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--smoke"]
            problems = check_run(command, names[trace])
            failures += bool(problems)
            print(f"{workload['name']} trace={trace}: "
                  f"{'; '.join(problems) if problems else 'ok'}", flush=True)
    problems = check_bare_directory(spec)
    failures += bool(problems)
    print(f"bare directory: {'; '.join(problems) if problems else 'ok'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
