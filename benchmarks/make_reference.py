"""Record reference.json: the outputs the benchmark checks against.

    python3 benchmarks/make_reference.py

Run it only when a change is meant to alter slotmesh's results, and say so
in that change. The references in the repository were recorded from the
seed code; the checks' tolerances (workloads.py) also admit an exact
stationary solve. The solver-ladder answers come from oracle.py, not from
slotmesh. Simulation statistics are recorded for seeds 0-31.
"""

from __future__ import annotations

import csv
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from slotmesh import cli, network, schedulers, simulate  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402

SIM_SEEDS = range(32)


def main() -> int:
    ref = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        tmp = Path(tmp)
        net = workloads.NetworkEval(0, False, tmp)
        ref[net.name] = {key: workloads.network_digest(network.evaluate_network(sc))
                         for key, sc in sorted(net.ops)}

        sweep = workloads.SweepSmall(0, False, tmp)
        if cli.main(["sweep", "--spec", str(sweep.spec_path), "--out",
                     str(sweep.out_path), "--workers", "1"]) != 0:
            raise SystemExit("sweep failed")
        points = {}
        with open(sweep.out_path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                key = f"{row['schedule']}/{row['variant']}/K{row['K']}/p{row['rate']}"
                points.setdefault(key, {})[row["metric"]] = float(row["value"])
        ref[sweep.name] = dict(sorted(points.items()))

        ladder = workloads.SolverLadder(0, False, tmp)
        answers = {}
        for key, (capacity, length, tx, traffic) in sorted(ladder.ops + ladder.probes):
            want = oracle.solve_node(capacity, length, tx, traffic.poisson_rate,
                                     traffic.bernoulli_prob)
            answers[key] = {"acceptance": want.acceptance,
                            "delay_slots": want.delay_slots,
                            "tx_probability": list(want.tx_probability)}
        ref[ladder.name] = answers

        build = workloads.ScheduleBuild(0, False, tmp)
        ref[build.name] = {key: workloads.schedule_digest(
            schedulers.generate(algorithm, topology))
            for key, topology, algorithm in sorted(build.ops, key=lambda o: o[0])}

    sim = {}
    for seed in SIM_SEEDS:
        workload = workloads.SimNetwork(seed, False, HERE)
        sim[str(seed)] = {key: workloads.sim_statistics(
            simulate.simulate_network(scenario, workload.config))
            for key, scenario in workload.ops}
        print(f"sim seed {seed} recorded", file=sys.stderr)
    ref[workloads.SimNetwork.name] = sim
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
