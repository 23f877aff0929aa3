"""The benchmark's workloads.

Each workload builds its inputs in its constructor (the set-up that
``setup_s`` times), runs one pass of operations through a ``Timer`` and
checks every output as it goes. The workload seed only shuffles the order
of the operations within a pass, and in ``sim-network`` it is also the
simulation seed; the set of operations never depends on it. README.md
gives the reason for each workload and what should move it.

Every call into slotmesh goes through a module attribute looked up at call
time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import random
from pathlib import Path

import numpy as np

from slotmesh import cli, network, queuemodel, schedule, schedulers, simulate

ALGORITHMS = ("sbd", "ta-sc", "ta-mc")
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Tolerances pass both the iterative solver of the seed and an exact solve.
# Measured against a direct solve, the seed is off by at most 7.6e-10
# (relative) on network digests; against oracle.py, by 1.4e-10 on
# acceptance, 4.3e-7 (relative) on delay and 5.2e-9 on transmission
# probability, the last two at K = 512.
DIGEST_RTOL = 1e-7
DIGEST_ATOL = 1e-12
ACCEPTANCE_ATOL = 1e-8
DELAY_RTOL = 1e-5
TX_ATOL = 1e-7


@functools.cache
def reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def compare(names, got, want, rtol, atol):
    """Error text for the first value outside ``atol + rtol * |want|``."""
    for name, g, w in zip(names, got, want, strict=True):
        if not abs(g - w) <= atol + rtol * abs(w):
            return f"{name} {g!r} differs from reference {w!r}"
    return None


def chain_states(scenario, variant="full") -> int:
    """Sum of (K + 1) * S over the node chains one evaluation solves."""
    nodes = scenario.topology.node_count - 1
    length = 1 if variant == "md1k" else scenario.schedule.slotframe_length
    return (scenario.queue_capacity + 1) * length * nodes


def outer_nodes(topology) -> list[int]:
    depth = [0] * topology.node_count
    for n in range(1, topology.node_count):
        node = n
        while node != 0:
            node = topology.parents[node]
            depth[n] += 1
    return [n for n, d in enumerate(depth) if d == max(depth)]


NETWORK_DIGEST = ("throughput_pps", "pdr_outer_mean", "delay_outer_mean_s")


def network_digest(result) -> list[float]:
    outer = outer_nodes(result.scenario.topology)
    slot = result.scenario.schedule.slot_duration
    return [float(result.throughput_pps),
            float(np.mean(result.delivery_ratio[outer])),
            float(np.mean(result.delay_slots[outer])) * slot]


class NetworkEval:
    """``evaluate_network`` on the 19-node concentric network, all three
    generators, light and saturated load, K = 16, ``full`` variant."""

    name = "network-eval"
    RATES = (0.004, 0.06)

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        topology = network.concentric_topology(2)
        self.ops = []
        for algorithm in ALGORITHMS:
            built = schedulers.generate(algorithm, topology)
            for rate in self.RATES:
                scenario = network.NetworkScenario(
                    schedule=built, topology=topology, generation_rate=rate,
                    queue_capacity=16)
                self.ops.append((f"rings2-{algorithm}-p{rate}", scenario))
        if smoke:
            self.ops = self.ops[-2:-1]
        random.Random(seed).shuffle(self.ops)
        self.op_count = len(self.ops)

    def run_pass(self, timer):
        for key, scenario in self.ops:
            timer.op(key, network.evaluate_network, scenario,
                     work=chain_states(scenario),
                     check=functools.partial(self.check, key))

    def check(self, key, result):
        return compare(NETWORK_DIGEST, network_digest(result),
                       reference()[self.name][key], DIGEST_RTOL, DIGEST_ATOL)


class SweepSmall:
    """``slotmesh sweep`` through ``cli.main`` in-process, one worker. Each
    sweep point (one ``evaluate_network`` call) is an operation; its CSV
    rows are checked against the reference."""

    name = "sweep-small"
    SPEC = {
        "parameter": "p_gen",
        "grid": {"min": 0.0, "max": 0.3, "count": 7, "scale": "linear"},
        "queue_capacities": [6, 16],
        "schedules": list(ALGORITHMS),
        "variants": ["full", "distributed", "md1k"],
        "topology": {"rings": 1},
    }

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        spec = json.loads(json.dumps(self.SPEC))
        if smoke:
            spec["schedules"], spec["queue_capacities"] = ["sbd"], [6]
        rng = random.Random(seed)
        for field in ("schedules", "variants", "queue_capacities"):
            rng.shuffle(spec[field])
        grid = spec["grid"]
        rates = [f"{float(r):.9g}" for r in
                 np.linspace(grid["min"], grid["max"], grid["count"])]
        # cli.cmd_sweep evaluates the points in this nested order
        self.keys = [f"{s}/{v}/K{k}/p{r}" for s in spec["schedules"]
                     for v in spec["variants"]
                     for k in spec["queue_capacities"] for r in rates]
        self.op_count = len(self.keys)
        self.spec_path = workdir / "sweep.json"
        self.out_path = workdir / "sweep.csv"
        self.spec_path.write_text(json.dumps(spec), encoding="utf-8")

    def run_pass(self, timer):
        keys = iter(self.keys)
        inner = cli.evaluate_network

        def timed(scenario, **kwargs):
            return timer.op(next(keys), inner, scenario, reraise=True,
                            work=chain_states(scenario, kwargs.get("variant", "full")),
                            **kwargs)

        self.out_path.unlink(missing_ok=True)  # no stale rows from a last pass
        cli.evaluate_network = timed
        try:
            self.status = cli.main(["sweep", "--spec", str(self.spec_path),
                                    "--out", str(self.out_path),
                                    "--workers", "1"])
        finally:
            cli.evaluate_network = inner

    def check_pass(self, records):
        rows = {}
        if self.status == 0:
            with open(self.out_path, newline="", encoding="utf-8") as fh:
                for row in csv.DictReader(fh):
                    key = (f"{row['schedule']}/{row['variant']}/K{row['K']}"
                           f"/p{row['rate']}")
                    rows.setdefault(key, {})[row["metric"]] = float(row["value"])
        expected = reference()[self.name]
        for record in records:
            if record.error is not None:
                continue
            if record.key not in rows:
                record.mismatch(f"no CSV rows (sweep exit status {self.status})")
                continue
            got = rows[record.key]
            names = sorted(expected[record.key])
            record.mismatch(compare(
                names, [got.get(n, float("nan")) for n in names],
                [expected[record.key][n] for n in names], DIGEST_RTOL,
                DIGEST_ATOL))


class SolverLadder:
    """``evaluate_node`` on one near-critical node (S = 19, one transmission
    slot, uniform Poisson load 0.95 per slotframe) for growing K, checked
    against the oracle's answers (``oracle.py``, recorded in the reference
    file so that the oracle's own time and memory stay out of the run).
    Two probes that fail at the seed run once per run after the timed
    passes."""

    name = "solver-ladder"
    SLOTS = 19
    CAPACITIES = (16, 64, 256, 512)

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        load = queuemodel.TrafficSpec.constant(self.SLOTS, rate=0.95 / self.SLOTS)
        capacities = self.CAPACITIES[:2] if smoke else self.CAPACITIES
        self.ops = [(f"K{k}", (k, self.SLOTS, (0,), load)) for k in capacities]
        random.Random(seed).shuffle(self.ops)
        self.op_count = len(self.ops)
        critical = queuemodel.TrafficSpec.constant(self.SLOTS, rate=1.0 / self.SLOTS)
        self.probes = [
            ("critical-load-K256", (256, self.SLOTS, (0,), critical)),
            ("always-full-queue", (2, 3, (2,),
                                   queuemodel.TrafficSpec((0, 0, 0), (1, 1, 0)))),
        ]

    def run_pass(self, timer):
        for key, args in self.ops:
            timer.op(key, queuemodel.evaluate_node, *args,
                     work=(args[0] + 1) * args[1],
                     check=functools.partial(self.check, key))

    def check(self, key, metrics):
        want = reference()[self.name][key]
        return (compare(["acceptance"], [metrics.acceptance], [want["acceptance"]],
                        0.0, ACCEPTANCE_ATOL)
                or compare(["delay_slots"], [metrics.expected_delay_slots],
                           [want["delay_slots"]], DELAY_RTOL, 0.0)
                or compare([f"tx_probability[{i}]"
                            for i in range(len(want["tx_probability"]))],
                           list(metrics.tx_probability), want["tx_probability"],
                           0.0, TX_ATOL))

    def run_probes(self) -> list[dict]:
        outcomes = []
        for key, args in self.probes:
            try:
                error = self.check(key, queuemodel.evaluate_node(*args))
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            want = reference()[self.name][key]
            outcomes.append({"probe": key, "ok": error is None, "error": error,
                             "oracle_acceptance": want["acceptance"],
                             "oracle_delay_slots": want["delay_slots"]})
        return outcomes


def sim_statistics(stats) -> list[list]:
    """Per-run packet ledger and summary statistics, compared exactly."""
    runs = []
    for run, c in enumerate(stats.counts):
        with np.errstate(invalid="ignore"):
            delay = float(np.nanmean(stats.delay_slots[run]))
        runs.append([c.generated, c.delivered, c.dropped, c.link_lost,
                     c.residual, float(stats.throughput_pps[run]),
                     float(np.mean(stats.delivery[run])), delay])
    return runs


class SimNetwork:
    """``simulate_network`` with the default 15-minute warm-up, 5 runs of
    100 tracked packets per node, K = 16; the workload seed is the
    simulation seed."""

    name = "sim-network"
    SCENARIOS = (("rings2-sbd-p0.01", 2, "sbd", 0.01),
                 ("rings3-ta-sc-p0.06", 3, "ta-sc", 0.06))

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.config = simulate.SimConfig(seed=seed, runs=1 if smoke else 5,
                                         packets=100)
        self.ops = []
        for key, rings, algorithm, rate in self.SCENARIOS[:1] if smoke else self.SCENARIOS:
            topology = network.concentric_topology(rings)
            self.ops.append((key, network.NetworkScenario(
                schedule=schedulers.generate(algorithm, topology),
                topology=topology, generation_rate=rate, queue_capacity=16)))
        self.op_count = len(self.ops)

    def run_pass(self, timer):
        for key, scenario in self.ops:
            timer.op(key, simulate.simulate_network, scenario, self.config,
                     work=lambda stats: sum(c.generated for c in stats.counts),
                     check=functools.partial(self.check, key))

    def check(self, key, stats):
        runs = sim_statistics(stats)
        for run, (generated, delivered, dropped, lost, residual, *_) in enumerate(runs):
            if generated != delivered + dropped + lost + residual:
                return f"run {run}: packet ledger does not balance"
        want = reference()[self.name].get(str(self.seed), {}).get(key)
        if want is not None and runs != want[:len(runs)]:
            return "per-run statistics differ from the reference seed's"
        return None


def schedule_digest(built) -> str:
    text = json.dumps([built.slotframe_length, built.tx_slots, built.rx_slots,
                       [sorted(c.items()) for c in built.counterpart],
                       [sorted(c.items()) for c in built.channel]])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class ScheduleBuild:
    """``generate``, ``validate`` and a ``save_schedule``/``load_schedule``
    round trip on the 127- and 217-node concentric networks."""

    name = "schedule-build"
    RINGS = (6, 8)

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.ops = []
        for rings in self.RINGS[:1] if smoke else self.RINGS:
            topology = network.concentric_topology(rings)
            self.ops += [(f"rings{rings}-{a}", topology, a) for a in ALGORITHMS]
        random.Random(seed).shuffle(self.ops)
        self.op_count = len(self.ops)
        self.path = workdir / "schedule.json"

    def run_pass(self, timer):
        for key, topology, algorithm in self.ops:
            timer.op(key, self.build, topology, algorithm,
                     work=topology.node_count,
                     check=functools.partial(self.check, key))

    def build(self, topology, algorithm):
        built = schedulers.generate(algorithm, topology)
        report = schedule.validate(built, topology)
        schedule.save_schedule(built, self.path)
        return built, report, schedule.load_schedule(self.path)

    def check(self, key, output):
        built, report, loaded = output
        if not report.ok:
            return "validate reports conflicts"
        if loaded != built:
            return "save/load round trip changed the schedule"
        if schedule_digest(built) != reference()[self.name][key]:
            return "schedule differs from the reference"
        return None


WORKLOADS = {w.name: w for w in (NetworkEval, SweepSmall, SolverLadder,
                                 SimNetwork, ScheduleBuild)}
