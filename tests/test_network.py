import itertools
import math

import numpy as np
import pytest

from conftest import result_fields
from slotmesh import queuemodel, stationary
from slotmesh.network import (NetworkModelError, NetworkScenario,
                              concentric_topology, evaluate_network)
from slotmesh.queuemodel import TrafficSpec, _offered, evaluate_node
from slotmesh.schedule import Schedule, Topology, validate
from slotmesh.schedulers import generate
from slotmesh.stationary import StationaryError


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
    sched = generate("sbd", topo)
    rate = 0.001
    scenario = NetworkScenario(schedule=sched, topology=topo,
                               generation_rate=rate, queue_capacity=16)
    result = evaluate_network(scenario)
    assert all(m.acceptance > 0.999 for m in result.node_metrics)
    expected = (topo.node_count - 1) * rate / sched.slot_duration
    assert result.throughput_pps == pytest.approx(expected, rel=0.01)


def test_delivery_monotone_along_paths():
    topo = concentric_topology(2)
    sched = generate("sbd", topo)
    scenario = NetworkScenario(schedule=sched, topology=topo,
                               generation_rate=0.017, queue_capacity=6)
    result = evaluate_network(scenario)
    for n in range(1, topo.node_count):
        assert result.delivery_ratio[n] <= result.delivery_ratio[topo.parents[n]] + 1e-12


def test_throughput_monotone_in_rate():
    topo = concentric_topology(2)
    sched = generate("sbd", topo)
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
    with pytest.raises(NetworkModelError, match="routing parent is 1"):
        NetworkScenario(schedule=sched, topology=topo,
                        generation_rate=0.01, queue_capacity=4)


def test_traffic_without_tx_slots_rejected():
    topo = Topology(2, frozenset({(0, 1)}), (None, 0))
    sched = Schedule(node_count=2, slotframe_length=2,
                     tx_slots=((), ()), rx_slots=((), ()),
                     counterpart=({}, {}), channel=({}, {}))
    with pytest.raises(NetworkModelError, match="node 1 offers traffic"):
        NetworkScenario(schedule=sched, topology=topo,
                        generation_rate=0.01, queue_capacity=4)


def test_invalid_schedule_rejected():
    topo = Topology(2, frozenset({(0, 1)}), (None, 0))
    sched = Schedule(node_count=2, slotframe_length=2,
                     tx_slots=((), (1,)), rx_slots=((), ()),
                     counterpart=({}, {1: 0}), channel=({}, {1: 11}))
    with pytest.raises(NetworkModelError, match="does not validate"):
        NetworkScenario(schedule=sched, topology=topo,
                        generation_rate=0.01, queue_capacity=4)


def test_sink_transmission_rejected():
    # the sink has no routing parent, so it must not transmit
    topo = Topology(2, frozenset({(0, 1)}), (None, 0))
    sched = Schedule(node_count=2, slotframe_length=2,
                     tx_slots=((0,), (1,)), rx_slots=((1,), (0,)),
                     counterpart=({0: 1, 1: 1}, {0: 0, 1: 0}),
                     channel=({0: 11, 1: 11}, {0: 11, 1: 11}))
    assert validate(sched, topo).ok
    with pytest.raises(NetworkModelError):
        evaluate_network(NetworkScenario(schedule=sched, topology=topo,
                                         generation_rate=0.01,
                                         queue_capacity=4))


def test_md1k_variant_restricted_to_single_hop():
    topo = concentric_topology(2)
    sched = generate("sbd", topo)
    scenario = NetworkScenario(schedule=sched, topology=topo,
                               generation_rate=0.01, queue_capacity=4)
    with pytest.raises(NetworkModelError):
        evaluate_network(scenario, variant="md1k")


@pytest.mark.parametrize("variant,message", [("bogus", "unknown variant"),
                                             ("md1k", "single-hop")])
def test_variant_is_refused_before_any_level(monkeypatch, variant, message):
    # the variant is checked once, for the whole tree: no node is named and
    # no chain is built
    built = []
    capped_rows = queuemodel._capped_rows
    monkeypatch.setattr(queuemodel, "_capped_rows",
                        lambda *args: built.append(args) or capped_rows(*args))
    topo = concentric_topology(2)
    scenario = NetworkScenario(schedule=generate("sbd", topo), topology=topo,
                               generation_rate=0.01, queue_capacity=4)
    with pytest.raises(NetworkModelError, match=message) as caught:
        evaluate_network(scenario, variant=variant)
    assert "node" not in str(caught.value)
    assert built == []
    evaluate_network(scenario)
    assert built  # the recorder sees the chains that are built


def test_load_below_smallest_normal_float_is_refused_before_any_row(
        monkeypatch):
    built = []
    monkeypatch.setattr(queuemodel, "_capped_rows",
                        lambda *args: built.append(args))
    topo = concentric_topology(2)
    scenario = NetworkScenario(schedule=generate("sbd", topo), topology=topo,
                               generation_rate=5e-324, queue_capacity=16)
    with pytest.raises(NetworkModelError, match="^node 7: offered load"):
        evaluate_network(scenario)
    assert built == []


@pytest.mark.parametrize("rings", [1, 2, 3])
def test_a_shared_memo_gives_every_point_its_bits_alone(rings):
    # a sweep's points share one memo of solved chains: each point has the
    # bits it has evaluated alone, in every field of every node, lossy
    # uplinks (PER 0.3 on every other node) included
    topo = concentric_topology(rings)
    variants = ("full", "distributed") + (("md1k",) if rings == 1 else ())
    lossy = {(n, topo.parents[n]): 0.3 for n in range(1, topo.node_count, 2)}
    solved = {}
    for algorithm in ("sbd", "ta-sc", "ta-mc"):
        schedule = generate(algorithm, topo)
        for variant, capacity, link_per in itertools.product(
                variants, (6, 16), ({}, lossy)):
            for rate in (0.0, 0.004, 0.02, 0.2):
                scenario = NetworkScenario(
                    schedule=schedule, topology=topo, generation_rate=rate,
                    queue_capacity=capacity, link_per=link_per)
                shared = evaluate_network(scenario, variant=variant,
                                          solved=solved)
                alone = evaluate_network(scenario, variant=variant)
                assert result_fields(shared) == result_fields(alone)


@pytest.mark.parametrize("rings", [1, 2, 3])
def test_levels_compose_as_the_per_node_recursion(rings):
    # each level is added to its parents' reception rows and composed along
    # the routes in array steps; recomputed node by node from the node
    # metrics, every figure has the same bits, lossy uplinks included
    topo = concentric_topology(rings)
    parents = topo.parents
    lossy = {(n, parents[n]): 0.3 for n in range(1, topo.node_count, 2)}
    variants = ("full", "distributed") + (("md1k",) if rings == 1 else ())
    for algorithm in ("sbd", "ta-sc", "ta-mc"):
        schedule = generate(algorithm, topo)
        for variant in variants:
            for rate in (0.004, 0.06):
                result = evaluate_network(NetworkScenario(
                    schedule=schedule, topology=topo, generation_rate=rate,
                    queue_capacity=16, link_per=lossy), variant=variant)
                metrics = result.node_metrics
                hop = [1.0 - lossy.get((n, parents[n]), 0.0)
                       for n in range(topo.node_count)]
                rx = np.zeros_like(result.rx_probability)
                delivery = np.ones(topo.node_count)
                delay = np.zeros(topo.node_count)
                # the concentric layout numbers every parent before its children
                for n in range(1, topo.node_count):
                    p = parents[n]
                    rx[p] += metrics[n].tx_probability * hop[n]
                    delivery[n] = delivery[p] * metrics[n].acceptance * hop[n]
                    delay[n] = delay[p] + metrics[n].expected_delay_slots
                assert np.array_equal(result.rx_probability, rx)
                assert np.array_equal(result.delivery_ratio, delivery)
                assert np.array_equal(result.delay_slots, delay)


def test_a_failing_new_chain_names_its_node(monkeypatch):
    # a lossy uplink changes only the chain of the node's parent: the other
    # chains come from the memo, and the one chain solved, which fails,
    # names that parent, not the first node of its level
    topo = concentric_topology(2)
    schedule = generate("sbd", topo)
    scenario = NetworkScenario(schedule=schedule, topology=topo,
                               generation_rate=0.01, queue_capacity=16)
    solved = {}
    evaluate_network(scenario, solved=solved)
    node = topo.levels[-1][-1]
    parent = topo.parents[node]
    assert topo.levels[1].index(parent) > 0

    def failing(rows, runs, tau):
        raise StationaryError(f"no solution for {len(rows)} chain")

    monkeypatch.setattr(stationary, "_solve_stack", failing)
    lossy = NetworkScenario(schedule=schedule, topology=topo,
                            generation_rate=0.01, queue_capacity=16,
                            link_per={(node, parent): 0.5})
    with pytest.raises(NetworkModelError,
                       match=f"^node {parent}: no solution for 1 chain$"):
        evaluate_network(lossy, solved=solved)


def _uneven_star_schedule():
    # one slot per node on a single channel, nodes 1 and 3 get a second one
    tx = {1: (1, 7), 2: (2,), 3: (3, 8), 4: (4,), 5: (5,), 6: (6,)}
    return Schedule(node_count=7, slotframe_length=9,
                    tx_slots=((),) + tuple(tx[n] for n in range(1, 7)),
                    rx_slots=(tuple(range(1, 9)),) + ((),) * 6,
                    counterpart=({i: n for n in tx for i in tx[n]},)
                    + tuple({i: 0 for i in tx[n]} for n in range(1, 7)),
                    channel=({i: 11 for i in range(1, 9)},)
                    + tuple({i: 11 for i in tx[n]} for n in range(1, 7)))


@pytest.mark.parametrize("algorithm", ["sbd", "ta-mc", "uneven"])
def test_single_hop_variants_match_node_models(algorithm):
    topo = concentric_topology(1)
    sched = (_uneven_star_schedule() if algorithm == "uneven"
             else generate(algorithm, topo))
    length, capacity = sched.slotframe_length, 5
    scenario = NetworkScenario(schedule=sched, topology=topo,
                               generation_rate=0.08, queue_capacity=capacity)
    offered = _offered(*TrafficSpec.constant(length, rate=0.08)._arrays())[0]
    # md1k: one step of the collapsed model is a whole slotframe
    md1k = evaluate_network(scenario, variant="md1k")
    collapsed = evaluate_node(capacity, 1, (0,), TrafficSpec((offered,), (0.0,)))
    spread = np.zeros(length)
    for n in range(1, topo.node_count):
        tx = list(sched.tx_slots[n])
        spread[tx] = collapsed.tx_probability[0] / len(tx)
        node = md1k.node_metrics[n]
        assert node.expected_delay_slots == length * collapsed.expected_delay_slots
        assert node.acceptance == collapsed.acceptance
        assert np.array_equal(node.queue_marginals, collapsed.queue_marginals)
    assert np.array_equal(md1k.rx_probability[0], spread)
    # distributed: the node's load spread evenly as Poisson traffic
    distributed = evaluate_network(scenario, variant="distributed")
    uniform = TrafficSpec.constant(length, rate=offered / length)
    for n in range(1, topo.node_count):
        want = evaluate_node(capacity, length, sched.tx_slots[n], uniform)
        got = distributed.node_metrics[n]
        assert got.acceptance == want.acceptance
        assert got.expected_delay_slots == want.expected_delay_slots
        assert np.array_equal(got.distribution, want.distribution)
        assert np.array_equal(got.tx_probability, want.tx_probability)


def test_distributed_variant_spreads_forwarded_load():
    # with forwarding the slot-resolved traffic is not uniform: each node
    # is evaluated on its total offered load spread evenly over the frame
    topo = concentric_topology(2)
    sched = generate("ta-mc", topo)
    length, capacity, rate = sched.slotframe_length, 6, 0.02
    result = evaluate_network(NetworkScenario(
        schedule=sched, topology=topo, generation_rate=rate,
        queue_capacity=capacity), variant="distributed")
    for n in range(1, topo.node_count):
        offered = _offered(*TrafficSpec(
            (rate,) * length, tuple(result.rx_probability[n]))._arrays())[0]
        want = evaluate_node(capacity, length, sched.tx_slots[n],
                             TrafficSpec.constant(length, rate=offered / length))
        got = result.node_metrics[n]
        assert got.acceptance == want.acceptance
        assert got.expected_delay_slots == want.expected_delay_slots
        assert np.array_equal(got.tx_probability, want.tx_probability)


@pytest.mark.parametrize("algorithm", ["sbd", "ta-sc", "ta-mc"])
def test_levels_match_per_node_variants(algorithm):
    # each tree level is solved as one stack; every node must still get
    # what evaluate_node gives it on its own traffic, so a mixed-up batch
    # index or mask group shows
    topo = concentric_topology(2)
    sched = generate(algorithm, topo)
    length = sched.slotframe_length
    for rate in (0.004, 0.06):
        for capacity in (6, 16):
            scenario = NetworkScenario(schedule=sched, topology=topo,
                                       generation_rate=rate,
                                       queue_capacity=capacity)
            for variant in ("full", "distributed"):
                result = evaluate_network(scenario, variant=variant)
                for n in range(1, topo.node_count):
                    traffic = TrafficSpec((rate,) * length,
                                          tuple(result.rx_probability[n]))
                    want = evaluate_node(capacity, length,
                                         sched.tx_slots[n], traffic,
                                         variant=variant)
                    got = result.node_metrics[n]
                    for field in ("distribution", "tx_probability",
                                  "acceptance", "expected_delay_slots",
                                  "queue_marginals", "total_arrivals"):
                        np.testing.assert_allclose(
                            getattr(got, field), getattr(want, field),
                            rtol=1e-12, atol=0,
                            err_msg=f"{variant} node {n} {field}")


@pytest.mark.parametrize("rings", [2, 3])
def test_sink_flow_balance(rings):
    # a packet reaches the sink unless a queue drops it or an uplink loses
    # it: arrivals there per slotframe equal the generated load times each
    # node's PDR, which counts both
    topo = concentric_topology(rings)
    for algorithm in ("sbd", "ta-sc", "ta-mc"):
        sched = generate(algorithm, topo)
        for per in (0.0, 0.3):
            uplinks = {(n, topo.parents[n]): per
                       for n in range(1, topo.node_count)}
            for rate in (0.004, 0.06):
                for capacity in (6, 16):
                    result = evaluate_network(NetworkScenario(
                        schedule=sched, topology=topo, generation_rate=rate,
                        queue_capacity=capacity, link_per=uplinks))
                    generated = rate * sched.slotframe_length
                    delivered = generated * result.delivery_ratio[1:].sum()
                    assert result.rx_probability[0].sum() == pytest.approx(
                        delivered, rel=1e-9, abs=0), (algorithm, per, rate,
                                                      capacity)


def test_light_load_sink_flow_balance():
    # at p_gen 1e-9 a queue is non-empty about 1e-8 of the time; read as
    # one minus the empty share, that mass kept only half its digits, and
    # the sink's arrivals missed the delivered load by 3.4e-9 relative
    topo = concentric_topology(1)
    sched = generate("sbd", topo)
    rate = 1e-9
    result = evaluate_network(NetworkScenario(
        schedule=sched, topology=topo, generation_rate=rate, queue_capacity=2))
    delivered = rate * sched.slotframe_length * result.delivery_ratio[1:].sum()
    assert result.rx_probability[0].sum() == pytest.approx(
        delivered, rel=1e-12, abs=0)


def test_light_load_accepts_everything():
    # P(A >= 16) is about 1e-128 here; read as one minus the head it was
    # 1.1e-16 of rounding noise, which the acceptance room table counted
    # 16 times, and node 1 reported an acceptance of 1 + 1.8e-8
    topo = concentric_topology(1)
    result = evaluate_network(NetworkScenario(
        schedule=generate("sbd", topo), topology=topo, generation_rate=1e-7,
        queue_capacity=16))
    for node in result.node_metrics:
        assert node.acceptance == pytest.approx(1.0, rel=0, abs=1e-12)


@pytest.mark.parametrize("algorithm", ["sbd", "ta-sc", "ta-mc"])
@pytest.mark.parametrize("rings", [1, 2])
def test_light_loads_solve(rings, algorithm):
    topo = concentric_topology(rings)
    sched = generate(algorithm, topo)
    for variant in ("full", "distributed"):
        for rate in (1e-9, 1e-8, 1e-7, 1e-6, 1e-5):
            for capacity in (2, 16, 128):
                result = evaluate_network(NetworkScenario(
                    schedule=sched, topology=topo, generation_rate=rate,
                    queue_capacity=capacity), variant=variant)
                assert result.delivery_ratio.min() > 1.0 - 1e-6, (
                    variant, rate, capacity)


def test_interval_conversion():
    sched, topo = _two_node()
    scenario = NetworkScenario.from_interval(sched, topo, interval_s=1.0,
                                             queue_capacity=4)
    assert scenario.generation_rate == pytest.approx(0.01, abs=1e-15)


@pytest.mark.parametrize("rate", [-0.01, math.nan, math.inf])
def test_invalid_rate_rejected(rate):
    sched, topo = _two_node()
    with pytest.raises(NetworkModelError, match="generation_rate"):
        NetworkScenario(schedule=sched, topology=topo, generation_rate=rate,
                        queue_capacity=4)


@pytest.mark.parametrize("capacity", [2.5, 3.0, True])
def test_non_integer_capacity_rejected(capacity):
    sched, topo = _two_node()
    with pytest.raises(NetworkModelError, match="queue_capacity"):
        NetworkScenario(schedule=sched, topology=topo, generation_rate=0.01,
                        queue_capacity=capacity)


def test_per_off_the_routing_tree_rejected():
    # node 0 never transmits to node 1: a PER there would be ignored
    sched, topo = _two_node()
    with pytest.raises(NetworkModelError, match=r"link \(0, 1\) .* uplink"):
        NetworkScenario(schedule=sched, topology=topo, generation_rate=0.01,
                        queue_capacity=4, link_per={(0, 1): 0.5})


@pytest.mark.parametrize("per", [-0.1, 1.5, math.nan])
def test_invalid_per_rejected(per):
    sched, topo = _two_node()
    with pytest.raises(NetworkModelError, match="PER of link"):
        NetworkScenario(schedule=sched, topology=topo, generation_rate=0.01,
                        queue_capacity=4, link_per={(1, 0): per})


def test_concentric_needs_a_ring():
    with pytest.raises(NetworkModelError, match="rings"):
        concentric_topology(0)


def test_concentric_rejects_fractional_rings():
    with pytest.raises(NetworkModelError, match="rings must be a positive integer"):
        concentric_topology(1.5)


def test_concentric_node_counts():
    assert concentric_topology(1).node_count == 7
    assert concentric_topology(2).node_count == 19
    assert concentric_topology(3).node_count == 37


def test_concentric_star_for_one_ring():
    topo = concentric_topology(1)
    assert all(topo.parents[n] == 0 for n in range(1, 7))
    assert topo.levels[-1] == tuple(range(1, 7))


def test_concentric_balanced_two_rings():
    topo = concentric_topology(2)
    assert sorted(len(topo.children[n]) for n in range(1, 7)) == [2] * 6
    assert topo.levels[-1] == tuple(range(7, 19))
    for n in range(7, 19):
        assert topo.parents[n] in topo.neighbors[n]
