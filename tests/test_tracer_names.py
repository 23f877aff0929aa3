"""The benchmark tracer wraps slotmesh functions by module attribute name
and reads their results with ``getattr`` defaults, so renaming one of the
functions or of the attributes it reads has to fail the suite, not only
read zero in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import slotmesh

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # the tracer needs only the stdlib
    for module_name, name in [*tracer.SPANNED, tracer.COUNTED]:
        module = importlib.import_module(f"slotmesh.{module_name}")
        assert callable(getattr(module, name)), f"slotmesh.{module_name}.{name}"


def test_tracer_reads_result_attributes():
    chain = slotmesh.build_chain(4, 3, (1,), slotmesh.TrafficSpec.constant(
        3, rate=0.2))
    assert isinstance(chain.n_states, int)
    result = slotmesh.solve(chain)
    assert isinstance(result.residual, float)
    assert result.reachable.dtype == np.bool_
    assert result.reachable.shape == (chain.n_states,)
    topology = slotmesh.concentric_topology(1)
    scenario = slotmesh.NetworkScenario(
        schedule=slotmesh.generate("sbd", topology), topology=topology,
        generation_rate=0.02, queue_capacity=4)
    stats = slotmesh.simulate_network(scenario, slotmesh.SimConfig(
        seed=1, runs=2, packets=5, warmup_slots=50))
    assert len(stats.counts) == 2
    for counts in stats.counts:
        for name in ("generated", "delivered", "dropped"):
            assert isinstance(getattr(counts, name), int), name
