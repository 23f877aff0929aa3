import dataclasses
import random

import numpy as np
import pytest

from slotmesh import stationary
from slotmesh.queuemodel import TrafficSpec
from slotmesh.schedule import Schedule, Topology


@pytest.fixture
def three_node_schedule():
    """The introductory example schedule: two nodes forward to a sink over
    three slots, node 1 transmitting twice."""
    return Schedule(
        node_count=3,
        slotframe_length=3,
        tx_slots=((), (0, 1), (2,)),
        rx_slots=((0, 1), (2,), ()),
        counterpart=({0: 1, 1: 1}, {0: 0, 1: 0, 2: 2}, {2: 1}),
        channel=({0: 11, 1: 11}, {0: 11, 1: 11, 2: 11}, {2: 11}),
    )


@pytest.fixture
def path_topology():
    """Chain 2 -> 1 -> 0."""
    return Topology(node_count=3, edges=frozenset({(0, 1), (1, 2)}),
                    parents=(None, 0, 1))


def chain_cases():
    """Shared inventory of single-node chains used by the solver tests."""
    cases = [
        # (capacity, slotframe_length, tx_slots, traffic)
        (3, 1, (0,), TrafficSpec((0.5,), (0.0,))),
        (8, 1, (0,), TrafficSpec((1.2,), (0.0,))),
        (2, 5, (1, 4), TrafficSpec.constant(5, rate=0.3)),
        (10, 5, (0,), TrafficSpec.constant(5, rate=0.2)),
        (10, 5, (0,), TrafficSpec.constant(5, prob=0.2)),
        (5, 5, (3,), TrafficSpec((0.1,) * 5, (0.5, 0.0, 0.0, 0.0, 0.0))),
        (1, 3, (1,), TrafficSpec((0.0, 0.0, 0.0), (0.5, 0.0, 0.0))),
        (4, 6, (1, 2, 5), TrafficSpec((0.05, 0.3, 0.0, 0.2, 0.1, 0.0),
                                      (0.3, 0.0, 0.6, 0.0, 0.0, 0.2))),
    ]
    return cases


def slot_links(schedule, slot):
    """The links ``(transmitter, receiver)`` that send in ``slot``."""
    return {(n, schedule.counterpart[n][slot])
            for n in range(schedule.node_count) if slot in schedule.tx_slots[n]}


def slot_blocks(chain):
    """The chain's ``(S, K + 1, K + 1)`` slot blocks in slot order, built
    from its rows and departures rolled by its ``shift``: block ``i`` maps
    level ``q`` in slot ``i`` to each level in slot ``i + 1``."""
    return stationary._capped_blocks(np.roll(chain.rows, chain.shift, 0),
                                     np.roll(chain.departures, chain.shift))


def dense_matrix(chain):
    """The chain's blocks as one block-cyclic dense matrix over the states
    flattened as ``i * (K + 1) + q``: block ``i`` sits at block row ``i``
    and block column ``i + 1``, mapping slot ``i`` to slot ``i + 1``."""
    length, count = chain.slotframe_length, chain.capacity + 1
    matrix = np.zeros((chain.n_states, chain.n_states))
    for i, block in enumerate(slot_blocks(chain)):
        col = (i + 1) % length * count
        matrix[i * count:(i + 1) * count, col:col + count] = block
    return matrix


def invalid_networks():
    """Schedules that no scenario accepts, with their topologies, by name.

    ``collision``: node 1 sends to the sink in the slot in which node 2
    sends to it, on the same channel. ``past_parent``: node 2 sends to the
    sink although its routing parent is node 1.
    """
    collision = (
        Schedule(node_count=3, slotframe_length=2,
                 tx_slots=((), (0,), (0,)), rx_slots=((0,), (0,), ()),
                 counterpart=({0: 1}, {0: 0}, {0: 1}),
                 channel=({0: 11}, {0: 11}, {0: 11})),
        Topology(3, frozenset({(0, 1), (1, 2)}), (None, 0, 1)))
    past_parent = (
        Schedule(node_count=3, slotframe_length=4,
                 tx_slots=((), (1,), (2,)), rx_slots=((1, 2), (), ()),
                 counterpart=({1: 1, 2: 2}, {1: 0}, {2: 0}),
                 channel=({1: 11, 2: 11}, {1: 11}, {2: 11})),
        Topology(3, frozenset({(0, 1), (1, 2), (0, 2)}), (None, 0, 1)))
    return {"collision": collision, "past_parent": past_parent}


def random_tree(seed, n):
    """A routing tree on ``n`` nodes with shuffled ids and ``n`` extra
    random radio links."""
    rng = random.Random(seed)
    ids = [0] + rng.sample(range(1, n), n - 1)
    parents = [None] * n
    for k in range(1, n):
        parents[ids[k]] = ids[rng.randrange(k)]
    edges = {(min(v, p), max(v, p)) for v, p in enumerate(parents) if v}
    for _ in range(n):
        v, w = sorted(rng.sample(range(n), 2))
        edges.add((v, w))
    return Topology(n, frozenset(edges), tuple(parents))


def recorded(monkeypatch, module, name, arg=0):
    """Patch ``module.name`` to record the length of its argument ``arg``,
    the chains it is given, per call, in the list returned."""
    function, sizes = getattr(module, name), []

    def counted(*args):
        sizes.append(len(args[arg]))
        return function(*args)

    monkeypatch.setattr(module, name, counted)
    return sizes


def node_fields(node):
    """Each field of a :class:`NodeMetrics` as bytes, ``None`` as it is,
    so that two nodes compare bit by bit."""
    return [None if value is None else np.asarray(value).tobytes()
            for value in (getattr(node, field.name)
                          for field in dataclasses.fields(node))]


def result_fields(result):
    """The arrays of a :class:`NetworkResult` and the fields of each of its
    nodes (:func:`node_fields`) as bytes."""
    return ([array.tobytes() for array in (result.delivery_ratio,
                                          result.delay_slots,
                                          result.rx_probability)]
            + [node_fields(node) for node in result.node_metrics])
