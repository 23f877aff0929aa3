import numpy as np
import pytest

from slotmesh.network import (NetworkModelError, NetworkScenario,
                              concentric_topology, evaluate_network,
                              max_depth_nodes)
from slotmesh.schedule import Schedule, Topology, validate
from slotmesh.schedulers import generate, schedule_orchestra_sbd


def _two_node():
    topo = Topology(2, frozenset({(0, 1)}), (None, 0))
    sched = Schedule(node_count=2, slotframe_length=4,
                     tx_slots=((), (1,)), rx_slots=((1,), ()),
                     counterpart=({1: 1}, {1: 0}), channel=({1: 11}, {1: 11}))
    return sched, topo


def test_single_node_low_rate():
    sched, topo = _two_node()
    scenario = NetworkScenario(schedule=sched, topology=topo,
                               generation_rate=1e-4, queue_capacity=8)
    result = evaluate_network(scenario)
    assert result.delivery_ratio[1] == pytest.approx(1.0, abs=1e-6)
    offered_pps = 1e-4 / sched.slot_duration
    assert result.throughput_pps == pytest.approx(offered_pps, rel=1e-3)


def test_root_metrics_are_definitional():
    sched, topo = _two_node()
    scenario = NetworkScenario(schedule=sched, topology=topo,
                               generation_rate=0.05, queue_capacity=4)
    result = evaluate_network(scenario)
    assert result.delivery_ratio[0] == 1.0
    assert result.delay_slots[0] == 0.0
    assert result.node_metrics[0].acceptance == 1.0


def test_perfect_chain_sums_delays():
    # two lossless hops: delivery stays one and delays add up
    topo = Topology(3, frozenset({(0, 1), (1, 2)}), (None, 0, 1))
    sched = Schedule(node_count=3, slotframe_length=5,
                     tx_slots=((), (2,), (1,)), rx_slots=((2,), (1,), ()),
                     counterpart=({2: 1}, {1: 2, 2: 0}, {1: 1}),
                     channel=({2: 11}, {1: 11, 2: 11}, {1: 11}))
    scenario = NetworkScenario(schedule=sched, topology=topo,
                               generation_rate=1e-5, queue_capacity=8)
    result = evaluate_network(scenario)
    r2, d2 = result.delivery_ratio[2], result.delay_slots[2]
    assert r2 == pytest.approx(1.0, abs=1e-6)
    expected = (result.node_metrics[1].expected_delay_slots
                + result.node_metrics[2].expected_delay_slots)
    assert d2 == pytest.approx(expected, abs=1e-12)
    assert result.delay_seconds[2] == pytest.approx(expected * 0.01, abs=1e-12)


def test_flow_conservation_at_low_load():
    topo = concentric_topology(2)
    sched = schedule_orchestra_sbd(topo)
    rate = 0.001
    scenario = NetworkScenario(schedule=sched, topology=topo,
                               generation_rate=rate, queue_capacity=16)
    result = evaluate_network(scenario)
    assert all(m.acceptance > 0.999 for m in result.node_metrics)
    expected = (topo.node_count - 1) * rate / sched.slot_duration
    assert result.throughput_pps == pytest.approx(expected, rel=0.01)


def test_delivery_monotone_along_paths():
    topo = concentric_topology(2)
    sched = schedule_orchestra_sbd(topo)
    scenario = NetworkScenario(schedule=sched, topology=topo,
                               generation_rate=0.017, queue_capacity=6)
    result = evaluate_network(scenario)
    for n in range(1, topo.node_count):
        assert result.delivery_ratio[n] <= result.delivery_ratio[topo.parents[n]] + 1e-12


def test_throughput_monotone_in_rate():
    topo = concentric_topology(2)
    sched = schedule_orchestra_sbd(topo)
    last = -1.0
    for rate in np.linspace(0.0, 0.05, 8):
        scenario = NetworkScenario(schedule=sched, topology=topo,
                                   generation_rate=float(rate), queue_capacity=6)
        value = evaluate_network(scenario).throughput_pps
        assert value >= last - 1e-9
        last = value


def test_zero_rate_throughput():
    sched, topo = _two_node()
    scenario = NetworkScenario(schedule=sched, topology=topo,
                               generation_rate=0.0, queue_capacity=4)
    result = evaluate_network(scenario)
    assert result.throughput_pps == 0.0
    assert result.delivery_ratio[1] == 1.0


def test_per_link_loss_halves_forwarding():
    sched, topo = _two_node()
    base = evaluate_network(NetworkScenario(
        schedule=sched, topology=topo, generation_rate=0.02, queue_capacity=8))
    lossy = evaluate_network(NetworkScenario(
        schedule=sched, topology=topo, generation_rate=0.02, queue_capacity=8,
        link_per={(1, 0): 0.5}))
    assert lossy.rx_probability[0, 1] == pytest.approx(
        0.5 * base.rx_probability[0, 1], rel=1e-12)
    assert lossy.throughput_pps == pytest.approx(0.5 * base.throughput_pps,
                                                 rel=1e-12)


def test_saturated_child_couples_with_probability_one():
    # node 2 is so overloaded that its transmission probability rounds to
    # one; node 1 then receives a packet in the last slot of every frame,
    # so its queue is never empty when a frame starts
    topo = Topology(3, frozenset({(0, 1), (1, 2)}), (None, 0, 1))
    sched = Schedule(node_count=3, slotframe_length=3,
                     tx_slots=((), (0,), (2,)), rx_slots=((0,), (2,), ()),
                     counterpart=({0: 1}, {0: 0, 2: 2}, {2: 1}),
                     channel=({0: 11}, {0: 11, 2: 11}, {2: 11}))
    scenario = NetworkScenario(schedule=sched, topology=topo,
                               generation_rate=5.0, queue_capacity=4)
    result = evaluate_network(scenario)
    assert result.rx_probability[1, 2] == 1.0
    parent = result.node_metrics[1]
    assert parent.distribution[0] == 0.0  # level 0 at slot 0
    # 15 generated plus 1 forwarded packet per frame, one sent
    assert parent.acceptance == pytest.approx(1 / 16, abs=1e-12)
    assert parent.tx_probability[0] == 1.0


def test_schedule_tree_mismatch_rejected():
    # node 2 transmits to the root although its routing parent is node 1
    topo = Topology(3, frozenset({(0, 1), (1, 2), (0, 2)}), (None, 0, 1))
    sched = Schedule(node_count=3, slotframe_length=4,
                     tx_slots=((), (1,), (2,)), rx_slots=((1, 2), (), ()),
                     counterpart=({1: 1, 2: 2}, {1: 0}, {2: 0}),
                     channel=({1: 11, 2: 11}, {1: 11}, {2: 11}))
    scenario = NetworkScenario(schedule=sched, topology=topo,
                               generation_rate=0.01, queue_capacity=4)
    with pytest.raises(NetworkModelError):
        evaluate_network(scenario)


def test_traffic_without_tx_slots_rejected():
    topo = Topology(2, frozenset({(0, 1)}), (None, 0))
    sched = Schedule(node_count=2, slotframe_length=2,
                     tx_slots=((), ()), rx_slots=((), ()),
                     counterpart=({}, {}), channel=({}, {}))
    scenario = NetworkScenario(schedule=sched, topology=topo,
                               generation_rate=0.01, queue_capacity=4)
    with pytest.raises(NetworkModelError):
        evaluate_network(scenario)


def test_invalid_schedule_rejected():
    topo = Topology(2, frozenset({(0, 1)}), (None, 0))
    sched = Schedule(node_count=2, slotframe_length=2,
                     tx_slots=((), (1,)), rx_slots=((), ()),
                     counterpart=({}, {1: 0}), channel=({}, {1: 11}))
    scenario = NetworkScenario(schedule=sched, topology=topo,
                               generation_rate=0.01, queue_capacity=4)
    with pytest.raises(NetworkModelError):
        evaluate_network(scenario)


def test_md1k_variant_restricted_to_single_hop():
    topo = concentric_topology(2)
    sched = schedule_orchestra_sbd(topo)
    scenario = NetworkScenario(schedule=sched, topology=topo,
                               generation_rate=0.01, queue_capacity=4)
    with pytest.raises(NetworkModelError):
        evaluate_network(scenario, variant="md1k")


def test_interval_conversion():
    sched, topo = _two_node()
    scenario = NetworkScenario.from_interval(sched, topo, interval_s=1.0,
                                             queue_capacity=4)
    assert scenario.generation_rate == pytest.approx(0.01, abs=1e-15)


def test_concentric_node_counts():
    assert concentric_topology(1).node_count == 7
    assert concentric_topology(2).node_count == 19
    assert concentric_topology(3).node_count == 37


def test_concentric_star_for_one_ring():
    topo = concentric_topology(1)
    assert all(topo.parents[n] == 0 for n in range(1, 7))
    assert max_depth_nodes(topo) == tuple(range(1, 7))


def test_concentric_balanced_two_rings():
    topo = concentric_topology(2)
    assert sorted(len(topo.children(n)) for n in range(1, 7)) == [2] * 6
    assert max_depth_nodes(topo) == tuple(range(7, 19))
    for n in range(7, 19):
        assert topo.in_range(topo.parents[n], n)
