"""Every entry point that takes a number answers "is this a number?" with
the two rules of ``slotmesh.schedule``: ``_ints`` (a Python or numpy
integer, not a bool) and ``_is_finite`` (such an integer or a Python or
numpy float, finite). A numpy number gives what the Python one gives,
and anything else raises the entry point's own error: never a raw
``TypeError`` or ``ValueError``, and no bool is stored. The same holds
for a scalar given where an entry point takes a sequence or a mapping."""

import math

import numpy as np
import pytest

from slotmesh.network import (NetworkModelError, NetworkScenario,
                              concentric_topology)
from slotmesh.queuemodel import (ModelError, TrafficSpec, build_chain,
                                 evaluate_node)
from slotmesh.schedule import Schedule, ScheduleError, Topology
from slotmesh.schedulers import generate
from slotmesh.simulate import (SimConfig, SimulationError, simulate_network,
                               simulate_queue)

TOPOLOGY = concentric_topology(1)
SCHEDULE = generate("sbd", TOPOLOGY)
TRAFFIC = TrafficSpec.constant(3, rate=0.2)
CONFIG = SimConfig(seed=1, runs=1, packets=5, warmup_slots=50)


def scenario(**fields):
    return NetworkScenario(**{"schedule": SCHEDULE, "topology": TOPOLOGY,
                              "generation_rate": 0.05, "queue_capacity": 4,
                              **fields})


# entry point: (call of one number, its error, {Python number: numpy
# numbers that must give the same}); an entry whose Python numbers are all
# integers takes integers only
ENTRY_POINTS = {
    "evaluate_node capacity": (
        lambda v: evaluate_node(v, 3, (1,), TRAFFIC).distribution.tolist(),
        ModelError, {4: [np.int64(4), np.int32(4)]}),
    "simulate_queue capacity": (
        lambda v: simulate_queue(v, 3, (1,), TRAFFIC, CONFIG).accepted,
        ModelError, {4: [np.int64(4), np.uint8(4)]}),
    "Schedule slotframe_length": (
        lambda v: Schedule(1, v, ((),), ((),), ({},), ({},))
        .slotframe_length, ScheduleError, {3: [np.int64(3)]}),
    "Topology node_count": (
        lambda v: Topology(v, frozenset(), (None,)).levels,
        ScheduleError, {1: [np.int64(1)]}),
    "generate slot_duration": (
        lambda v: generate("sbd", TOPOLOGY, slot_duration=v),
        ScheduleError, {1: [np.int64(1)], 0.25: [np.float32(0.25)],
                        0.01: [np.float64(0.01)]}),
    "concentric_topology rings": (
        concentric_topology, NetworkModelError, {2: [np.int64(2)]}),
    "NetworkScenario queue_capacity": (
        lambda v: scenario(queue_capacity=v), NetworkModelError,
        {16: [np.int64(16), np.int16(16)]}),
    "NetworkScenario generation_rate": (
        lambda v: scenario(generation_rate=v), NetworkModelError,
        {0.25: [np.float32(0.25), np.float64(0.25)], 0: [np.int64(0)]}),
    "NetworkScenario link_per": (
        lambda v: scenario(link_per={(1, 0): v}), NetworkModelError,
        {0.25: [np.float32(0.25)], 1: [np.int8(1)]}),
    "NetworkScenario link_per node": (
        lambda v: scenario(link_per={(v, 0): 0.5}), NetworkModelError,
        {1: [np.int64(1)]}),
    "NetworkScenario.from_interval": (
        lambda v: NetworkScenario.from_interval(SCHEDULE, TOPOLOGY, v, 4),
        NetworkModelError, {5: [np.int64(5)], 0.5: [np.float32(0.5)]}),
    "TrafficSpec poisson_rate": (
        lambda v: TrafficSpec((v, 0.0), (0.0, 0.0)), ModelError,
        {0.25: [np.float32(0.25)], 2: [np.int64(2)]}),
    "TrafficSpec.constant length": (
        lambda v: TrafficSpec.constant(v, rate=0.1), ModelError,
        {3: [np.int64(3)]}),
    "TrafficSpec bernoulli_prob": (
        lambda v: TrafficSpec((0.0, 0.0), (v, 0.0)), ModelError,
        {0.5: [np.float16(0.5)], 1: [np.int64(1)]}),
    "SimConfig runs": (
        lambda v: SimConfig(runs=v), SimulationError, {2: [np.int64(2)]}),
    "simulate_network workers": (
        lambda v: simulate_network(scenario(), CONFIG, workers=v)
        .delivery.tolist(), SimulationError, {1: [np.int64(1)]}),
}

BAD = [True, np.True_, "1", None, math.inf, math.nan]


def bad_values(pairs):
    # an integer-only entry refuses a float, even a whole one
    whole = all(type(number) is int for number in pairs)
    return BAD + ([1.0] if whole else [])


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_numpy_numbers_give_the_python_result(entry):
    call, _, pairs = ENTRY_POINTS[entry]
    for python, numpy_numbers in pairs.items():
        want = call(python)
        for number in numpy_numbers:
            assert call(number) == want, (entry, number)


@pytest.mark.parametrize("entry, value", [
    pytest.param(entry, value, id=f"{entry}-{value!r}")
    for entry, (_, _, pairs) in ENTRY_POINTS.items()
    for value in bad_values(pairs)
    # None is the default of ``workers``, so not a bad value there
    if not (entry == "simulate_network workers" and value is None)])
def test_other_values_raise_the_entry_points_error(entry, value):
    call, error, _ = ENTRY_POINTS[entry]
    with pytest.raises(error):
        call(value)


def test_checked_numbers_are_stored_as_python_numbers():
    # a scenario keeps Python numbers, so the simulator's slot loop and
    # every result read plain ints and floats
    made = scenario(queue_capacity=np.int64(4),
                    generation_rate=np.float32(0.25),
                    link_per={(1, 0): np.float32(0.5)})
    assert type(made.queue_capacity) is int
    assert type(made.generation_rate) is float
    assert type(made.link_per[(1, 0)]) is float
    assert type(generate("sbd", TOPOLOGY,
                         slot_duration=np.float32(0.5)).slot_duration) is float
    traffic = TrafficSpec((np.int64(1),), (np.float32(0.5),))
    assert {type(x) for x in (*traffic.poisson_rate,
                              *traffic.bernoulli_prob)} == {float}


# a scalar, or a mapping's item that is no pair, where an entry point takes
# a collection: (call, its error)
NOT_COLLECTIONS = {
    "TrafficSpec rates": (lambda: TrafficSpec(0.1, 0.0), ModelError),
    "Topology edges": (lambda: Topology(2, 5, (None, 0)), ScheduleError),
    "Topology parents": (
        lambda: Topology(2, frozenset({(0, 1)}), 5), ScheduleError),
    "Schedule tx_slots": (
        lambda: Schedule(1, 3, 5, ((),), ({},), ({},)), ScheduleError),
    "Schedule tx_slots of a node": (
        lambda: Schedule(1, 3, (5,), ((),), ({},), ({},)), ScheduleError),
    "Schedule counterpart of a node": (
        lambda: Schedule(1, 3, ((),), ((),), (5,), ({},)), ScheduleError),
    "NetworkScenario link_per": (lambda: scenario(link_per=5), NetworkModelError),
    "NetworkScenario link_per item": (
        lambda: scenario(link_per=[((1, 0),)]), NetworkModelError),
    "evaluate_node tx_slots": (
        lambda: evaluate_node(4, 3, 1, TRAFFIC), ModelError),
    "build_chain tx_slots": (lambda: build_chain(4, 3, 1, TRAFFIC), ModelError),
    "simulate_queue tx_slots": (
        lambda: simulate_queue(4, 3, 1, TRAFFIC, CONFIG), ModelError),
}


@pytest.mark.parametrize("entry", NOT_COLLECTIONS)
def test_scalar_collections_raise_the_entry_points_error(entry):
    call, error = NOT_COLLECTIONS[entry]
    with pytest.raises(error):
        call()
