"""slotmesh benchmark: one closed-loop caller, every output checked.

Usage (from the repository root):

    python3 benchmarks/run.py --workload network-eval --seed 1 --seconds 10 --trace 0

One process drives slotmesh (imported from ``src/``) with the workload's
operations, one at a time, each starting when the previous one returned.
Passes over the workload's fixed operation set repeat until ``--seconds``
have been spent; a pass that is started is finished. ``--trace 0`` prints
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics. The last
line of standard output is the result object; the lines before it are a
readable summary and the run record, which is also written to
``.bench_out/``. README.md explains workloads, metrics and timing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3  # this process plus two fresh interpreters
# Names and work units are repeated here so that parsing arguments needs
# no import of workloads.py (and slotmesh) before set-up is timed.
WORKLOAD_NAMES = ("network-eval", "sweep-small", "solver-ladder",
                  "sim-network", "schedule-build")
WORK_UNITS = {"network-eval": "states", "sweep-small": "states",
              "solver-ladder": "states", "sim-network": "sim_packets",
              "schedule-build": "nodes"}
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "op_s_p50": "s", "op_s_tail": "s",
    "work_per_s": "1/s", "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="cut-down inputs (used by smoke.py)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(args, workdir):
    """Import slotmesh and build the workload's inputs; return the
    workload and the raw and normalised set-up seconds."""
    start = time.perf_counter()
    import timing  # numpy, which the kernel needs and slotmesh imports first
    with timing.HostSpeed() as speed:
        sys.path.insert(0, str(ROOT / "src"))
        import workloads
        workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke,
                                                      workdir)
        end = time.perf_counter()
    raw, norm = speed.normalise(start, end)
    return workload, raw, norm


def setup_sample(args) -> tuple[float, float]:
    command = [sys.executable, str(Path(__file__)), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    sample = json.loads(done.stdout.strip().splitlines()[-1])
    return sample["raw_s"], sample["norm_s"]


def measure(workload, seconds: float, traced_run: bool):
    """Run passes until ``seconds`` are spent; in a traced run, alternate
    untraced and traced passes, at least one of each."""
    import timing
    with timing.HostSpeed() as speed:
        return run_passes(workload, seconds, traced_run, timing.Timer(speed))


def run_passes(workload, seconds, traced_run, timer):
    tracer = Tracer() if traced_run else None
    passes = []
    start = time.perf_counter()
    while True:
        traced = traced_run and len(passes) % 2 == 1
        began = time.perf_counter()
        if traced:
            tracer.install()
        try:
            record = timer.measure_pass(workload, traced)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            record.layers = tracer.take(record.factor)
        passes.append(record)
        now = time.perf_counter()
        if traced_run and len(passes) < 2:
            continue
        if now - start + (now - began) > seconds:
            return passes, tracer


def tail(values):
    """p90 with at least 100 samples, else the maximum."""
    ordered = sorted(values)
    if len(ordered) >= 100:
        return ordered[math.ceil(0.9 * len(ordered)) - 1]
    return ordered[-1]


def end_to_end(passes, setup, rss_mb):
    # per-pass statistics, then the median over passes: every pass holds
    # the same operations, so a statistic never jumps between op kinds
    untraced = [p for p in passes if not p.traced]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.norm_s for p in untraced),
        "op_s_p50": statistics.median(
            statistics.median(op.norm_s for op in p.ops) for p in untraced),
        "op_s_tail": statistics.median(
            tail(op.norm_s for op in p.ops) for p in untraced),
        "work_per_s": statistics.median(p.work / p.norm_s for p in untraced),
        "peak_rss_mb": rss_mb,
    }


def per_layer(passes):
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    values = {name: statistics.median(p.layers[name] for p in traced)
              for name in LAYER_METRICS if name != "trace.overhead_s"}
    values["trace.overhead_s"] = (statistics.median(p.norm_s for p in traced)
                                  - statistics.median(p.norm_s for p in untraced))
    return values


def machine() -> dict:
    import numpy
    import scipy
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def code_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "slotmesh").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "slotmesh" / "__init__.py").is_file():
        print(f"error: no slotmesh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir) -> int:
    workload, setup_raw, setup_norm = set_up(args, workdir)
    if args.setup_probe:
        print(json.dumps({"raw_s": setup_raw, "norm_s": setup_norm}))
        return 0
    samples = [(setup_raw, setup_norm)]
    if not args.trace:  # setup_s is an end-to-end metric only
        samples += [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
    setup = [norm for _, norm in samples]

    passes, tracer = measure(workload, args.seconds, bool(args.trace))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probes = workload.run_probes() if hasattr(workload, "run_probes") else []

    attempted = workload.op_count * len(passes)
    errors = [op.error for p in passes for op in p.ops if op.error is not None]
    ok = sum(1 for p in passes for op in p.ops if op.error is None)
    failed = attempted - ok
    errors += ["not run"] * (failed - len(errors))
    if args.trace:
        values = per_layer(passes)
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    else:
        values, units = end_to_end(passes, setup, rss_mb), END_TO_END
    untraced = [p for p in passes if not p.traced]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "machine": machine(), "code": code_identity(),
        "passes": len(passes), "ops_per_pass": workload.op_count,
        "work_unit": WORK_UNITS[args.workload],
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": {e: errors.count(e) for e in sorted(set(errors))},
        "failed_ops": {op.key: f"{op.error}: {op.detail}" for p in passes
                       for op in p.ops if op.error is not None},
        "probes": probes,
        "setup_raw_s": [raw for raw, _ in samples],
        "wall_raw_s": [p.raw_s for p in untraced],
        "wall_norm_s": [p.norm_s for p in untraced],
        "host_factor": [p.factor for p in passes],
        "metrics": values,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for name, begin, end, parent, root in tracer.spans:
                fh.write(json.dumps({"name": name, "start": begin, "end": end,
                                     "parent": parent, "root": root}) + "\n")

    print(f"# {args.workload} seed={args.seed} passes={len(passes)} "
          f"n={workload.op_count} ops/pass "
          f"failed={failed}/{attempted} {record['failures']}")
    for probe in probes:
        status = "ok" if probe["ok"] else f"FAILED {probe['error']}"
        print(f"# probe {probe['probe']}: {status} "
              f"(oracle acceptance {probe['oracle_acceptance']:.6f})")
    for name, value in values.items():
        label = name
        if name == "work_per_s":
            label = f"work_per_s ({WORK_UNITS[args.workload]}_per_s)"
        print(f"# {label} = {value:.6g} {units[name]}")
    print(f"# record: {json.dumps(record)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
