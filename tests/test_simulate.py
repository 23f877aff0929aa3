import math

import numpy as np
import pytest

from slotmesh.network import NetworkScenario, concentric_topology
from slotmesh.queuemodel import TrafficSpec, evaluate_node
from slotmesh.schedule import Schedule, Topology
from slotmesh.schedulers import generate, schedule_orchestra_sbd
from slotmesh.simulate import (MetricSummary, RunCounts, SimConfig,
                               SimulationError, simulate_network,
                               simulate_queue)


def test_metric_summary_brackets_mean():
    s = MetricSummary.from_runs([1.0, 2.0, 3.0])
    assert s.ci_low <= s.mean <= s.ci_high
    assert s.mean == pytest.approx(2.0)
    single = MetricSummary.from_runs([4.0])
    assert single.ci_low == single.ci_high == 4.0


def test_queue_sim_no_traffic():
    stats = simulate_queue(4, 3, (1,), TrafficSpec.constant(3),
                           SimConfig(seed=0, runs=3, packets=100))
    assert stats.acceptance.mean == 1.0
    assert stats.arrived == 0


def test_queue_sim_histogram_totals():
    config = SimConfig(seed=1, runs=2, packets=500)
    stats = simulate_queue(3, 4, (2,), TrafficSpec.constant(4, rate=0.2), config)
    assert stats.queue_histogram.sum() > 0
    assert stats.queue_histogram.shape == (4,)
    assert stats.accepted <= stats.arrived


def test_queue_sim_delay_at_least_one_slot():
    # a packet is never sent in the slot it arrived
    config = SimConfig(seed=3, runs=3, packets=2000)
    stats = simulate_queue(2, 1, (0,), TrafficSpec((0.9,), (0.0,)), config)
    assert stats.delay_slots.mean >= 1.0


def test_queue_sim_matches_model_acceptance():
    # the balanced-load reference point: one packet per frame, one slot to
    # send it, acceptance close to 0.95 (generated) or 0.96 (forwarded)
    poisson = TrafficSpec.constant(5, rate=0.2)
    stats = simulate_queue(10, 5, (0,), poisson,
                           SimConfig(seed=9, runs=10, packets=10_000))
    metrics = evaluate_node(10, 5, (0,), poisson)
    assert stats.acceptance.contains(metrics.acceptance)
    assert stats.acceptance.contains(0.95, atol=0.005)
    bernoulli = TrafficSpec.constant(5, prob=0.2)
    stats = simulate_queue(10, 5, (0,), bernoulli,
                           SimConfig(seed=9, runs=10, packets=10_000))
    assert stats.acceptance.contains(0.96, atol=0.005)


def test_queue_sim_deterministic():
    config = SimConfig(seed=7, runs=2, packets=300)
    traffic = TrafficSpec.constant(3, rate=0.4)
    a = simulate_queue(3, 3, (0,), traffic, config)
    b = simulate_queue(3, 3, (0,), traffic, config)
    assert a.acceptance == b.acceptance
    assert a.delay_slots == b.delay_slots
    assert np.array_equal(a.queue_histogram, b.queue_histogram)


def test_queue_sim_never_exceeds_capacity():
    config = SimConfig(seed=5, runs=1, packets=3000)
    stats = simulate_queue(2, 2, (1,), TrafficSpec.constant(2, rate=1.5), config)
    assert stats.queue_histogram.shape == (3,)
    assert stats.acceptance.mean < 1.0  # heavy overload must drop


def _two_node_scenario(rate=0.02, capacity=8):
    topo = Topology(2, frozenset({(0, 1)}), (None, 0))
    sched = Schedule(node_count=2, slotframe_length=4,
                     tx_slots=((), (1,)), rx_slots=((1,), ()),
                     counterpart=({1: 1}, {1: 0}), channel=({1: 11}, {1: 11}))
    return NetworkScenario(schedule=sched, topology=topo,
                           generation_rate=rate, queue_capacity=capacity)


# Golden replays: exact outputs of a plain slot-by-slot loop over the same
# random blocks. Any change to the order or number of random draws, or to
# how a slot uses them, changes them.
QUEUE_GOLDEN = [
    # (capacity, frame, tx, traffic, packets, warmup, seed,
    #  hist, arrived, accepted, acceptance per run, delay per run)
    (4, 5, (0,), TrafficSpec.constant(5, rate=0.01), 300, None, 13,
     [59810, 1804, 26, 0, 0], 600, 600, (1.0, 1.0), (3.14, 3.07)),
    (3, 4, (2,), TrafficSpec((0.0, 0.05, 0.0, 0.2), (0.1, 0.0, 0.0, 0.0)),
     500, 5000, 17, [8478, 2285, 438, 52], 1000, 997, (0.998, 0.996),
     (3.278557114228457, 3.4216867469879517)),
    (2, 3, (0, 2), TrafficSpec.constant(3, rate=0.6), 400, 4100, 19,
     [551, 629, 181], 801, 602, (0.765, 0.7381546134663342),
     (1.6601307189542485, 1.6554054054054055)),
]


@pytest.mark.parametrize("case", QUEUE_GOLDEN)
def test_queue_sim_golden_replay(case):
    (capacity, frame, tx, traffic, packets, warmup, seed,
     hist, arrived, accepted, acceptance, delay) = case
    stats = simulate_queue(capacity, frame, tx, traffic,
                           SimConfig(seed=seed, runs=2, packets=packets,
                                     warmup_slots=warmup))
    assert stats.queue_histogram.tolist() == hist
    assert (stats.arrived, stats.accepted) == (arrived, accepted)
    assert stats.acceptance.per_run == acceptance
    assert stats.delay_slots.per_run == delay


NETWORK_GOLDEN = [
    # (rings, algorithm, p_gen, PER of every uplink, K, seed, per run:
    #  (RunCounts fields, tracked deliveries of nodes 1.., their delay sums
    #   in slots, sink throughput))
    (1, "sbd", 0.3, 0.2, 4, 3, [
        ((1321, 490, 672, 138, 21), [23, 14, 17, 16, 17, 22],
         [519, 331, 419, 369, 439, 499], 64.62264150943396),
        ((1353, 509, 690, 136, 18), [18, 26, 22, 14, 17, 25],
         [452, 533, 510, 333, 442, 469], 67.37288135593221)]),
    (2, "ta-mc", 0.08, 0.1, 8, 5, [
        ((2000, 1141, 538, 216, 105),
         [36, 42, 41, 36, 31, 28, 24, 31, 22, 23, 27, 28, 21, 23, 23, 27, 31,
          29],
         [1438, 1499, 1170, 1270, 1225, 1055, 4093, 5351, 3688, 3430, 4325,
          4447, 3723, 3868, 3953, 4797, 4971, 4920], 84.94055482166446),
        ((2002, 1187, 489, 211, 115),
         [37, 40, 43, 32, 39, 39, 27, 22, 22, 20, 28, 27, 31, 21, 30, 30, 30,
          28],
         [1006, 1379, 1250, 1251, 1538, 1209, 3918, 3782, 3608, 3426, 4457,
          4227, 4938, 3847, 5051, 4491, 4810, 4668], 85.58201058201058)]),
    (2, "sbd", 0.5, 0.0, 8, 9, [
        ((7612, 274, 7196, 0, 142),
         [5, 4, 5, 4, 6, 5, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
         [750, 599, 748, 599, 894, 746, 0, 0, 0, 0, 0, 0, 0, 0, 293, 0, 0, 0],
         31.35593220338983),
        ((7693, 271, 7279, 0, 143),
         [4, 4, 5, 5, 8, 5, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
         [601, 594, 749, 748, 1193, 752, 0, 0, 292, 0, 0, 0, 0, 0, 0, 0, 0, 0],
         31.15942028985507)]),
]


def _golden_scenario(rings, algorithm, rate, per, capacity):
    topo = concentric_topology(rings)
    uplinks = {(n, topo.parents[n]): per for n in range(1, topo.node_count)}
    return NetworkScenario(schedule=generate(algorithm, topo), topology=topo,
                           generation_rate=rate, queue_capacity=capacity,
                           link_per=uplinks if per else {})


@pytest.mark.parametrize("case", NETWORK_GOLDEN)
def test_network_sim_golden_replay(case):
    rings, algorithm, rate, per, capacity, seed, runs = case
    packets = 50
    stats = simulate_network(
        _golden_scenario(rings, algorithm, rate, per, capacity),
        SimConfig(seed=seed, runs=2, packets=packets, warmup_slots=500))
    for run, (counts, tracked, delay_sums, throughput) in enumerate(runs):
        assert stats.counts[run] == RunCounts(*counts)
        assert stats.delivery[run].tolist() == [1.0] + [
            k / packets for k in tracked]
        delay = [s / k if k else math.nan for s, k in zip(delay_sums, tracked)]
        assert np.array_equal(stats.delay_slots[run], [0.0] + delay,
                              equal_nan=True)
        assert stats.throughput_pps[run] == throughput


def test_one_item_shuffle_draws_nothing():
    # the network loop skips shuffling single-packet overflow buckets, which
    # keeps its random stream equal to shuffling them only if this holds
    for seed in range(5):
        rng = np.random.default_rng(seed)
        before = rng.bit_generator.state
        rng.shuffle([[1, 0, -1]])
        assert rng.bit_generator.state == before
        rng.shuffle([[1, 0, -1], [2, 0, -1]])
        assert rng.bit_generator.state != before


def test_network_sim_checks_ledger_every_run(monkeypatch):
    monkeypatch.setattr(RunCounts, "conserved", lambda self: False)
    with pytest.raises(SimulationError, match="ledger"):
        simulate_network(_two_node_scenario(),
                         SimConfig(seed=1, runs=1, packets=10,
                                   warmup_slots=100))


def test_network_sim_two_nodes_low_rate():
    scenario = _two_node_scenario(rate=0.005)
    stats = simulate_network(scenario, SimConfig(seed=2, runs=3, packets=200,
                                                 warmup_slots=2000))
    assert stats.delivery_summary([1]).mean == 1.0
    from slotmesh.network import evaluate_network
    model = evaluate_network(scenario)
    assert stats.delay_summary([1]).contains(model.delay_slots[1], atol=0.05)


def test_network_sim_conservation():
    topo = concentric_topology(2)
    sched = schedule_orchestra_sbd(topo)
    scenario = NetworkScenario(schedule=sched, topology=topo,
                               generation_rate=0.02, queue_capacity=4)
    stats = simulate_network(scenario, SimConfig(seed=11, runs=2, packets=40,
                                                 warmup_slots=3000))
    for counts in stats.counts:
        assert counts.conserved()
        assert counts.dropped > 0  # overload drops at the inner ring


def test_network_sim_deterministic_replay():
    scenario = _two_node_scenario()
    config = SimConfig(seed=21, runs=2, packets=100, warmup_slots=500)
    a = simulate_network(scenario, config)
    b = simulate_network(scenario, config)
    assert np.array_equal(a.delivery, b.delivery)
    assert np.allclose(a.delay_slots, b.delay_slots, equal_nan=True)
    assert np.array_equal(a.throughput_pps, b.throughput_pps)
    assert a.counts == b.counts


def test_network_sim_zero_rate():
    scenario = _two_node_scenario(rate=0.0)
    stats = simulate_network(scenario, SimConfig(seed=0, runs=2, packets=10))
    assert np.all(stats.throughput_pps == 0.0)
    assert np.all(stats.delivery == 1.0)


def test_network_sim_delay_covers_hops():
    # end-to-end delay of a two-hop path is at least two slots
    topo = Topology(3, frozenset({(0, 1), (1, 2)}), (None, 0, 1))
    sched = Schedule(node_count=3, slotframe_length=5,
                     tx_slots=((), (2,), (1,)), rx_slots=((2,), (1,), ()),
                     counterpart=({2: 1}, {1: 2, 2: 0}, {1: 1}),
                     channel=({2: 11}, {1: 11, 2: 11}, {1: 11}))
    scenario = NetworkScenario(schedule=sched, topology=topo,
                               generation_rate=0.01, queue_capacity=8)
    stats = simulate_network(scenario, SimConfig(seed=4, runs=2, packets=100,
                                                 warmup_slots=1000))
    assert np.all(stats.delay_slots[:, 2] >= 2.0)


def test_network_sim_per_link_loss():
    scenario = _two_node_scenario(rate=0.02)
    lossy = NetworkScenario(schedule=scenario.schedule,
                            topology=scenario.topology,
                            generation_rate=0.02, queue_capacity=8,
                            link_per={(1, 0): 1.0})
    stats = simulate_network(lossy, SimConfig(seed=6, runs=1, packets=50,
                                              warmup_slots=500))
    assert stats.delivery[0, 1] == 0.0
    assert stats.counts[0].link_lost > 0


def test_sim_config_validation():
    with pytest.raises(SimulationError):
        SimConfig(runs=0)
    with pytest.raises(SimulationError):
        SimConfig(packets=0)
