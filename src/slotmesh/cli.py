"""Command-line front end.

Subcommands: ``validate``, ``schedule``, ``analyze``, ``sweep`` and
``simulate``. All commands are deterministic given their inputs (and the
seed, where one applies) and emit CSV for downstream plotting. Exit codes:
0 success, 1 domain error (conflicts, solver or scheduler failures),
2 input error (unreadable, malformed or unwritable files).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import nullcontext
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import simulate as sim
from .network import (NetworkModelError, NetworkScenario, concentric_topology,
                      evaluate_network)
from .queuemodel import VARIANTS, ModelError, _check_variant
from .schedule import (DEFAULT_SLOT_DURATION, ScheduleError,
                       ScheduleFormatError, _ints, _is_finite, _read_json,
                       load_schedule, load_topology, save_schedule,
                       save_topology, validate)
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
    """``loader(path)``, with every way of failing to read the file named
    ``what`` raised as an input error."""
    try:
        return loader(path)
    except FileNotFoundError:
        raise _InputError(f"{what} {path!r} not found")
    except OSError as exc:
        raise _InputError(f"{what} {path!r}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise _InputError(f"{what} {path!r}: not UTF-8 text ({exc.reason} "
                          f"at byte {exc.start})")
    except json.JSONDecodeError as exc:
        raise _InputError(
            f"{what} {path!r}: parse error at line {exc.lineno} "
            f"column {exc.colno}: {exc.msg}")
    except ScheduleFormatError as exc:
        raise _InputError(f"{what} {path!r}: {exc}")


def _save(writer, path, what):
    """``writer(path)``, with a failure to write the file named ``what``
    raised as an input error."""
    try:
        return writer(path)
    except OSError as exc:
        raise _InputError(f"{what} {path!r}: {exc.strerror or exc}")


def _write_rows(path, what, header, rows):
    """CSV ``header`` and ``rows`` to the file named ``what`` at ``path``,
    or to stdout for no path or ``-``."""
    with (nullcontext(sys.stdout) if path is None or path == "-" else
          _save(partial(open, mode="w", newline="", encoding="utf-8"),
                path, what)) as fh:
        csv.writer(fh).writerows([header, *rows])


def cmd_validate(args):
    schedule = _load(load_schedule, args.schedule, "schedule file")
    topology = _load(load_topology, args.topology, "topology file")
    report = validate(schedule, topology)
    print(report.summary())
    return EXIT_OK if report.ok else EXIT_DOMAIN


def cmd_schedule(args):
    if args.rings is not None:
        topology = concentric_topology(args.rings)
        if args.topology_out:
            _save(partial(save_topology, topology), args.topology_out,
                  "topology output")
    else:
        topology = _load(load_topology, args.topology, "topology file")
    trace = [] if args.trace else None
    schedule = generate(args.algorithm, topology, trace=trace,
                        slot_duration=args.slot_duration)
    _save(partial(save_schedule, schedule), args.out, "schedule output")
    if args.trace:
        text = "\n".join(trace) + ("\n" if trace else "")
        _save(lambda path: Path(path).write_text(text, encoding="utf-8"),
              args.trace, "trace file")
    root_rx = len(schedule.rx_slots[0])
    print(f"slotframe_length={schedule.slotframe_length}")
    print(f"root_rx_slots={root_rx}")
    print(f"root_rx_ratio={root_rx / schedule.slotframe_length:.4f}")
    counts = " ".join(str(len(t)) for t in schedule.tx_slots)
    print(f"tx_slots_per_node={counts}")
    return EXIT_OK


def _scenario(args):
    """The scenario of ``analyze`` and ``simulate``: the schedule and
    topology files, ``--rate`` or ``--interval``, and ``--queue``."""
    schedule = _load(load_schedule, args.schedule, "schedule file")
    topology = _load(load_topology, args.topology, "topology file")
    if args.rate is None:
        return NetworkScenario.from_interval(schedule, topology, args.interval,
                                             args.queue)
    return NetworkScenario(schedule=schedule, topology=topology,
                           generation_rate=args.rate, queue_capacity=args.queue)


def cmd_analyze(args):
    scenario = _scenario(args)
    result = evaluate_network(scenario, variant=args.variant)
    slot = scenario.schedule.slot_duration
    rows = []
    for n in range(scenario.topology.node_count):
        m = result.node_metrics[n]
        rows.append((n, f"{m.acceptance:.9f}",
                     f"{m.expected_delay_slots:.6f}",
                     f"{m.expected_delay_slots * slot:.6f}",
                     f"{result.delivery_ratio[n]:.9f}",
                     f"{result.delay_slots[n]:.6f}",
                     f"{result.delay_slots[n] * slot:.6f}"))
    rows.append(("throughput_pps", f"{result.throughput_pps:.6f}",
                 "", "", "", "", ""))
    _write_rows(args.out, "output file", ANALYZE_COLUMNS, rows)
    if args.marginals:
        mrows = []
        for n in range(scenario.topology.node_count):
            marg = result.node_metrics[n].queue_marginals
            for q, p in enumerate(marg):
                mrows.append((n, q, f"{p:.9f}"))
        _write_rows(args.marginals, "marginals file",
                    ("node", "q", "probability"), mrows)
    return EXIT_OK


def _sweep_grid(spec):
    grid = spec.get("grid")
    if not isinstance(grid, dict):
        raise _InputError("sweep spec needs a 'grid' object")
    count, lo, hi = grid.get("count"), grid.get("min"), grid.get("max")
    if not _ints(count):
        raise _InputError("sweep grid 'count' must be an integer")
    if not all(map(_is_finite, (lo, hi))):
        raise _InputError("sweep grid 'min' and 'max' must be finite numbers")
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
    outer = list(result.scenario.topology.levels[-1])
    # sums over the count: the bits of ndarray.mean, without its wrapper
    return {
        "pdr_outer_mean": float(result.delivery_ratio[outer].sum()) / len(outer),
        "delay_outer_mean_s": float(result.delay_seconds[outer].sum()) / len(outer),
        "throughput_pps": result.throughput_pps,
    }


def _sweep_point(task, solved):
    name, variant, scenario = task
    result = evaluate_network(scenario, variant=variant, solved=solved)
    non_root = scenario.topology.node_count - 1
    values = _outer_ring_means(result)
    values["pdr_mean"] = (float(result.delivery_ratio[1:].sum()) / non_root
                          if non_root else 1.0)
    return [(name, variant, scenario.queue_capacity, scenario.generation_rate,
             metric, values[metric]) for metric in SWEEP_METRICS]


def _sweep_tasks(spec):
    if not isinstance(spec, dict):
        raise _InputError("sweep spec must be a JSON object")
    allowed = {"parameter", "grid", "queue_capacities", "schedules",
               "variants", "topology", "slot_duration_s"}
    unknown = set(spec) - allowed
    if unknown:
        raise _InputError(f"sweep spec: unknown keys {sorted(unknown)}")
    parameter = spec.get("parameter", "p_gen")
    if parameter not in ("p_gen", "interval"):
        raise _InputError("sweep parameter must be 'p_gen' or 'interval'")
    slot_duration = spec.get("slot_duration_s", DEFAULT_SLOT_DURATION)
    if not (_is_finite(slot_duration) and slot_duration > 0):
        raise _InputError("sweep slot_duration_s must be a finite positive number")
    topo_spec = spec.get("topology", {})
    if not isinstance(topo_spec, dict):
        raise _InputError("sweep topology must be an object")
    if "rings" in topo_spec:
        if not (_ints(topo_spec["rings"]) and topo_spec["rings"] >= 1):
            raise _InputError("sweep topology 'rings' must be a positive integer")
        topology = concentric_topology(topo_spec["rings"])
    elif isinstance(topo_spec.get("file"), str):
        topology = _load(load_topology, topo_spec["file"], "topology file")
    else:
        raise _InputError("sweep topology needs 'rings' or a 'file' name")
    grid = _sweep_grid(spec)
    capacities = spec.get("queue_capacities", [16])
    if not (isinstance(capacities, list) and capacities
            and all(_ints(c) and c >= 1 for c in capacities)):
        raise _InputError("sweep queue_capacities must be a non-empty list "
                          "of positive integers")
    # grids ascend, so their first point is the smallest
    if parameter == "interval" and grid[0] <= 0:
        raise _InputError("interval sweeps need positive intervals")
    if grid[0] < 0:
        raise _InputError("sweep rates must be non-negative")
    entries = spec.get("schedules", ["sbd"])
    variants = spec.get("variants", ["full"])
    if not (isinstance(entries, list) and isinstance(variants, list)
            and entries and variants):
        raise _InputError("sweep schedules and variants must be non-empty lists")
    schedules = []
    for entry in entries:
        if isinstance(entry, str) and entry in ALGORITHMS:
            schedules.append((entry, generate(entry, topology,
                                              slot_duration=slot_duration)))
        elif isinstance(entry, dict) and isinstance(entry.get("file"), str):
            loaded = _load(load_schedule, entry["file"], "schedule file")
            schedules.append((entry.get("name", entry["file"]), loaded))
        else:
            raise _InputError(f"sweep schedule entry {entry!r} not understood")
    for variant in variants:
        if variant not in VARIANTS:
            raise _InputError(f"unknown variant {variant!r}")
        _check_variant(variant, len(topology.levels) - 1)
    tasks = []
    for name, schedule in schedules:
        # the variants share a point's scenario; a schedule file converts
        # an interval with its own slot duration
        points = [NetworkScenario.from_interval(schedule, topology, v, capacity)
                  if parameter == "interval" else
                  NetworkScenario(schedule=schedule, topology=topology,
                                  generation_rate=v,
                                  queue_capacity=capacity)
                  for capacity in capacities for v in grid]
        tasks += [(name, variant, scenario) for variant in variants
                  for scenario in points]
    return tasks


def cmd_sweep(args):
    sim.check_workers(args.workers)
    tasks = _sweep_tasks(_load(_read_json, args.spec, "sweep spec"))
    rows = []
    # in this process the points share one memo of solved chains; a pool
    # sends each point its own empty copy
    point = partial(_sweep_point, solved={})
    for block in sim.map_in_processes(point, tasks, args.workers):
        for name, variant, capacity, rate, metric, value in block:
            rows.append((name, variant, capacity, f"{rate:.9g}", metric,
                         f"{value:.9g}"))
    _write_rows(args.out, "output file", SWEEP_COLUMNS, rows)
    return EXIT_OK


def cmd_simulate(args):
    scenario = _scenario(args)
    config = sim.SimConfig(seed=args.seed, runs=args.runs,
                           packets=args.packets,
                           warmup_slots=args.warmup_slots)
    stats = sim.simulate_network(scenario, config, workers=args.workers)
    outer = list(scenario.topology.levels[-1])
    summaries = {
        "pdr_outer_mean": stats.delivery_summary(outer),
        "delay_outer_mean_s": sim.MetricSummary.from_runs(
            [d * scenario.schedule.slot_duration
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
    _write_rows(args.out, "output file",
                ("run", "metric", "value", "ci_low", "ci_high"), rows)
    if args.compare_model:
        model = _outer_ring_means(evaluate_network(scenario))
        # the delivery ratio moves in steps of one tracked packet, so a CI
        # of zero width admits a model within one step of it
        step = 1.0 / (config.runs * config.packets * len(outer))
        for metric in SIM_METRICS:
            s = summaries[metric]
            atol = step if metric == "pdr_outer_mean" else 1e-9
            inside = ("n/a" if math.isnan(s.ci_low)
                      else "yes" if s.contains(model[metric], atol) else "no")
            print(f"{metric}: model={model[metric]:.6g} "
                  f"ci=[{s.ci_low:.6g}, {s.ci_high:.6g}] inside CI: {inside}")
    return EXIT_OK


def _add_rate_arguments(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--rate", type=float,
                       help="packet generation rate in packets per slot")
    group.add_argument("--interval", type=float,
                       help="mean packet generation interval in seconds")


@cache
def build_parser():
    """The command line's parser, built once per process: parsing leaves
    it as it was."""
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
    p.add_argument("--slot-duration", type=float,
                   default=DEFAULT_SLOT_DURATION)
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
    p.add_argument("--workers", type=int, default=None,
                   help="processes for the runs (default: one per run up "
                        "to the usable CPUs, or 1 for short runs; 1 runs "
                        "them in this process)")
    p.add_argument("--compare-model", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
