"""Command-line front end.

Subcommands: ``validate``, ``schedule``, ``analyze``, ``sweep`` and
``simulate``. All commands are deterministic given their inputs (and the
seed, where one applies) and emit CSV for downstream plotting. Exit codes:
0 success, 1 domain error (conflicts, solver or scheduler failures),
2 input error (unreadable or malformed files).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import simulate as sim
from .network import (NetworkModelError, NetworkScenario, concentric_topology,
                      evaluate_network, max_depth_nodes)
from .queuemodel import VARIANTS, ModelError
from .schedule import (ScheduleError, ScheduleFormatError, load_schedule,
                       load_topology, save_schedule, save_topology, validate)
from .schedulers import ALGORITHMS, SchedulerError, generate
from .stationary import StationaryError

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2

ANALYZE_COLUMNS = ("node", "paccept", "delay_slots", "delay_seconds",
                   "pdr", "e2e_delay_slots", "e2e_delay_seconds")
SWEEP_COLUMNS = ("schedule", "variant", "K", "rate", "metric", "value")
SWEEP_METRICS = ("throughput_pps", "pdr_mean", "pdr_outer_mean",
                 "delay_outer_mean_s")
SIM_METRICS = ("pdr_outer_mean", "delay_outer_mean_s", "throughput_pps")


class _InputError(Exception):
    pass


def _load(loader, path, what):
    try:
        return loader(path)
    except FileNotFoundError:
        raise _InputError(f"{what} file {path!r} not found")
    except json.JSONDecodeError as exc:
        raise _InputError(
            f"{what} file {path!r}: parse error at line {exc.lineno} "
            f"column {exc.colno}: {exc.msg}")
    except ScheduleFormatError as exc:
        raise _InputError(f"{what} file {path!r}: {exc}")


def _open_out(path):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", newline="", encoding="utf-8"), True


def _write_rows(path, header, rows):
    fh, close = _open_out(path)
    try:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if close:
            fh.close()


def _rate_from_args(args, slot_duration):
    if args.rate is not None:
        return args.rate
    return slot_duration / args.interval


def cmd_validate(args):
    schedule = _load(load_schedule, args.schedule, "schedule")
    topology = _load(load_topology, args.topology, "topology")
    report = validate(schedule, topology)
    print(report.summary())
    return EXIT_OK if report.ok else EXIT_DOMAIN


def cmd_schedule(args):
    if args.rings is not None:
        topology = concentric_topology(args.rings)
        if args.topology_out:
            save_topology(topology, args.topology_out)
    else:
        topology = _load(load_topology, args.topology, "topology")
    trace = [] if args.trace else None
    schedule = generate(args.algorithm, topology, trace=trace,
                        slot_duration=args.slot_duration)
    save_schedule(schedule, args.out)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write("\n".join(trace) + ("\n" if trace else ""))
    root_rx = len(schedule.rx_slots[0])
    print(f"slotframe_length={schedule.slotframe_length}")
    print(f"root_rx_slots={root_rx}")
    print(f"root_rx_ratio={root_rx / schedule.slotframe_length:.4f}")
    counts = " ".join(str(len(t)) for t in schedule.tx_slots)
    print(f"tx_slots_per_node={counts}")
    return EXIT_OK


def cmd_analyze(args):
    schedule = _load(load_schedule, args.schedule, "schedule")
    topology = _load(load_topology, args.topology, "topology")
    rate = _rate_from_args(args, schedule.slot_duration)
    scenario = NetworkScenario(schedule=schedule, topology=topology,
                               generation_rate=rate,
                               queue_capacity=args.queue)
    result = evaluate_network(scenario, variant=args.variant)
    slot = schedule.slot_duration
    rows = []
    for n in range(topology.node_count):
        m = result.node_metrics[n]
        rows.append((n, f"{m.acceptance:.9f}",
                     f"{m.expected_delay_slots:.6f}",
                     f"{m.expected_delay_slots * slot:.6f}",
                     f"{result.delivery_ratio[n]:.9f}",
                     f"{result.delay_slots[n]:.6f}",
                     f"{result.delay_slots[n] * slot:.6f}"))
    rows.append(("throughput_pps", f"{result.throughput_pps:.6f}",
                 "", "", "", "", ""))
    _write_rows(args.out, ANALYZE_COLUMNS, rows)
    if args.marginals:
        mrows = []
        for n in range(topology.node_count):
            marg = result.node_metrics[n].queue_marginals
            for q, p in enumerate(marg):
                mrows.append((n, q, f"{p:.9f}"))
        _write_rows(args.marginals, ("node", "q", "probability"), mrows)
    return EXIT_OK


def _sweep_grid(spec):
    grid = spec["grid"]
    count = grid["count"]
    lo, hi = grid["min"], grid["max"]
    if count < 2:
        raise _InputError("sweep grid needs at least 2 points")
    if not lo < hi:
        raise _InputError("sweep grid needs min < max")
    scale = grid.get("scale", "linear")
    if scale == "log":
        if lo <= 0:
            raise _InputError("log grids need a positive minimum")
        return np.geomspace(lo, hi, count)
    if scale != "linear":
        raise _InputError(f"unknown grid scale {scale!r}")
    return np.linspace(lo, hi, count)


def _outer_ring_means(result):
    """The SIM_METRICS of a model result: means over the outer ring and
    the sink throughput."""
    outer = list(max_depth_nodes(result.scenario.topology))
    return {
        "pdr_outer_mean": float(result.delivery_ratio[outer].mean()),
        "delay_outer_mean_s": float(result.delay_seconds[outer].mean()),
        "throughput_pps": result.throughput_pps,
    }


def _sweep_point(task):
    name, schedule, topology, variant, capacity, rate = task
    scenario = NetworkScenario(schedule=schedule, topology=topology,
                               generation_rate=rate, queue_capacity=capacity)
    result = evaluate_network(scenario, variant=variant)
    non_root = [n for n in range(topology.node_count) if n != 0]
    values = _outer_ring_means(result)
    values["pdr_mean"] = (float(result.delivery_ratio[non_root].mean())
                          if non_root else 1.0)
    return [(name, variant, capacity, rate, metric, values[metric])
            for metric in SWEEP_METRICS]


def _sweep_tasks(spec):
    allowed = {"parameter", "grid", "queue_capacities", "schedules",
               "variants", "topology", "slot_duration_s"}
    unknown = set(spec) - allowed
    if unknown:
        raise _InputError(f"sweep spec: unknown keys {sorted(unknown)}")
    parameter = spec.get("parameter", "p_gen")
    if parameter not in ("p_gen", "interval"):
        raise _InputError("sweep parameter must be 'p_gen' or 'interval'")
    slot_duration = spec.get("slot_duration_s", 0.010)
    topo_spec = spec.get("topology", {})
    if "rings" in topo_spec:
        topology = concentric_topology(topo_spec["rings"])
    elif "file" in topo_spec:
        topology = _load(load_topology, topo_spec["file"], "topology")
    else:
        raise _InputError("sweep topology needs 'rings' or 'file'")
    grid = _sweep_grid(spec)
    if parameter == "interval":
        if grid[0] <= 0:
            raise _InputError("interval sweeps need positive intervals")
        rates = [slot_duration / v for v in grid]
    else:
        rates = [float(v) for v in grid]
    if any(r < 0 for r in rates):
        raise _InputError("sweep rates must be non-negative")
    schedules = []
    for entry in spec.get("schedules", ["sbd"]):
        if isinstance(entry, str) and entry in ALGORITHMS:
            schedules.append((entry, generate(entry, topology,
                                              slot_duration=slot_duration)))
        elif isinstance(entry, dict) and "file" in entry:
            loaded = _load(load_schedule, entry["file"], "schedule")
            schedules.append((entry.get("name", entry["file"]), loaded))
        else:
            raise _InputError(f"sweep schedule entry {entry!r} not understood")
    tasks = []
    for name, schedule in schedules:
        for variant in spec.get("variants", ["full"]):
            if variant not in VARIANTS:
                raise _InputError(f"unknown variant {variant!r}")
            for capacity in spec.get("queue_capacities", [16]):
                for rate in rates:
                    tasks.append((name, schedule, topology, variant,
                                  capacity, rate))
    return tasks


def cmd_sweep(args):
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except FileNotFoundError:
        raise _InputError(f"sweep spec {args.spec!r} not found")
    except json.JSONDecodeError as exc:
        raise _InputError(f"sweep spec {args.spec!r}: parse error at line "
                          f"{exc.lineno} column {exc.colno}: {exc.msg}")
    tasks = _sweep_tasks(spec)
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            blocks = list(pool.map(_sweep_point, tasks))
    else:
        blocks = [_sweep_point(task) for task in tasks]
    rows = []
    for block in blocks:
        for name, variant, capacity, rate, metric, value in block:
            rows.append((name, variant, capacity, f"{rate:.9g}", metric,
                         f"{value:.9g}"))
    _write_rows(args.out, SWEEP_COLUMNS, rows)
    return EXIT_OK


def cmd_simulate(args):
    schedule = _load(load_schedule, args.schedule, "schedule")
    topology = _load(load_topology, args.topology, "topology")
    rate = _rate_from_args(args, schedule.slot_duration)
    scenario = NetworkScenario(schedule=schedule, topology=topology,
                               generation_rate=rate,
                               queue_capacity=args.queue)
    config = sim.SimConfig(seed=args.seed, runs=args.runs,
                           packets=args.packets,
                           warmup_slots=args.warmup_slots)
    stats = sim.simulate_network(scenario, config)
    outer = list(max_depth_nodes(topology))
    summaries = {
        "pdr_outer_mean": stats.delivery_summary(outer),
        "delay_outer_mean_s": sim.MetricSummary.from_runs(
            [d * schedule.slot_duration
             for d in stats.delay_summary(outer).per_run]),
        "throughput_pps": stats.throughput_summary(),
    }
    rows = []
    for metric in SIM_METRICS:
        for run, value in enumerate(summaries[metric].per_run):
            rows.append((run, metric, f"{value:.9g}", "", ""))
    for metric in SIM_METRICS:
        s = summaries[metric]
        rows.append(("agg", metric, f"{s.mean:.9g}", f"{s.ci_low:.9g}",
                     f"{s.ci_high:.9g}"))
    _write_rows(args.out, ("run", "metric", "value", "ci_low", "ci_high"), rows)
    if args.compare_model:
        model = _outer_ring_means(evaluate_network(scenario))
        for metric in SIM_METRICS:
            s = summaries[metric]
            inside = "yes" if s.contains(model[metric], atol=1e-9) else "no"
            print(f"{metric}: model={model[metric]:.6g} "
                  f"ci=[{s.ci_low:.6g}, {s.ci_high:.6g}] inside CI: {inside}")
    return EXIT_OK


def _add_rate_arguments(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--rate", type=float,
                       help="packet generation rate in packets per slot")
    group.add_argument("--interval", type=float,
                       help="mean packet generation interval in seconds")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="slotmesh",
        description="Analytical evaluation of collision-free TDMA mesh schedules")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a schedule against a topology")
    p.add_argument("--schedule", required=True)
    p.add_argument("--topology", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("schedule", help="generate a schedule")
    p.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--topology", help="topology JSON file")
    group.add_argument("--rings", type=int,
                       help="generate a concentric topology with this many rings")
    p.add_argument("--topology-out", help="write the generated topology here")
    p.add_argument("--out", required=True, help="schedule JSON output")
    p.add_argument("--trace", help="write the message trace to this file")
    p.add_argument("--slot-duration", type=float, default=0.010)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("analyze", help="evaluate the analytical model")
    p.add_argument("--schedule", required=True)
    p.add_argument("--topology", required=True)
    _add_rate_arguments(p)
    p.add_argument("--queue", type=int, required=True, metavar="K")
    p.add_argument("--variant", choices=VARIANTS, default="full")
    p.add_argument("--out", default=None, help="CSV output (default stdout)")
    p.add_argument("--marginals", default=None,
                   help="also write queue-level marginals to this CSV")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="run a parameter sweep from a JSON spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="run the event simulation")
    p.add_argument("--schedule", required=True)
    p.add_argument("--topology", required=True)
    _add_rate_arguments(p)
    p.add_argument("--queue", type=int, required=True, metavar="K")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--packets", type=int, default=100)
    p.add_argument("--warmup-slots", type=int, default=None)
    p.add_argument("--compare-model", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ScheduleError, SchedulerError, StationaryError, ModelError,
            NetworkModelError, sim.SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
