import math
import multiprocessing
import os

import numpy as np
import pytest

from conftest import invalid_networks
from slotmesh.network import (NetworkModelError, NetworkScenario,
                              concentric_topology)
from slotmesh.queuemodel import TrafficSpec, evaluate_node
from slotmesh.schedule import Schedule, Topology
from slotmesh import simulate
from slotmesh.schedulers import generate
from slotmesh.simulate import (_BLOCK, MetricSummary, NetworkSimStats,
                               RunCounts, SimConfig, SimulationError,
                               _generation_events, simulate_network,
                               simulate_queue)


def test_metric_summary_brackets_mean():
    s = MetricSummary.from_runs([1.0, 2.0, 3.0])
    assert s.ci_low <= s.mean <= s.ci_high
    assert s.mean == pytest.approx(2.0)
    # one value gives a mean but no interval
    single = MetricSummary.from_runs([4.0])
    assert single.mean == 4.0
    assert math.isnan(single.ci_low) and math.isnan(single.ci_high)


def test_queue_sim_rejects_node_that_never_transmits():
    # the model accepts this node, but its simulated queue would not drain;
    # a node the model refuses is refused with its ModelError (test_chain)
    with pytest.raises(SimulationError, match="never transmits"):
        simulate_queue(4, 3, (), TrafficSpec.constant(3, rate=0.1),
                       SimConfig(seed=0, runs=1, packets=10))


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
    # (rings, algorithm, p_gen, PER of every uplink, K, warm-up slots, seed,
    #  per run: (RunCounts fields, tracked deliveries of nodes 1.., their
    #  delay sums in slots, sink throughput))
    (1, "sbd", 0.3, 0.2, 4, 500, 3, [
        ((1321, 490, 672, 138, 21), [23, 14, 17, 16, 17, 22],
         [519, 331, 419, 369, 439, 499], 64.62264150943396),
        ((1353, 509, 690, 136, 18), [18, 26, 22, 14, 17, 25],
         [452, 533, 510, 333, 442, 469], 67.37288135593221)]),
    (2, "ta-mc", 0.08, 0.1, 8, 500, 5, [
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
    (2, "sbd", 0.5, 0.0, 8, 500, 9, [
        ((7612, 274, 7196, 0, 142),
         [5, 4, 5, 4, 6, 5, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
         [750, 599, 748, 599, 894, 746, 0, 0, 0, 0, 0, 0, 0, 0, 293, 0, 0, 0],
         31.35593220338983),
        ((7693, 271, 7279, 0, 143),
         [4, 4, 5, 5, 8, 5, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
         [601, 594, 749, 748, 1193, 752, 0, 0, 292, 0, 0, 0, 0, 0, 0, 0, 0, 0],
         31.15942028985507)]),
    # saturated lossy uplinks with K = 4: the warm-up ends with overflowing
    # buckets of several packets and non-empty queues, at a block boundary
    # (4096) and inside the third block (10,000)
    (1, "sbd", 0.3, 0.2, 4, 4096, 7, [
        ((7995, 2993, 4288, 697, 17), [18, 23, 19, 17, 19, 19],
         [449, 529, 483, 432, 417, 452], 67.5257731958763),
        ((7768, 2975, 4052, 722, 19), [23, 24, 16, 17, 18, 21],
         [512, 563, 356, 425, 444, 468], 65.67164179104476)]),
    (2, "ta-sc", 0.3, 0.2, 4, 10_000, 8, [
        ((55416, 4796, 48533, 2022, 65),
         [15, 11, 10, 17, 13, 13, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
         [524, 367, 341, 617, 435, 393, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
         48.45360824742268),
        ((56134, 4811, 49310, 1949, 64),
         [13, 15, 13, 16, 19, 13, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1],
         [438, 557, 485, 610, 667, 464, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 127,
          155], 49.056603773584904)]),
    # no warm-up: tracking starts at slot 0 on empty queues, and tracked
    # packets forwarded by the inner ring land in overflowing buckets
    (2, "ta-sc", 0.3, 0.2, 4, 0, 6, [
        ((1666, 135, 1398, 66, 67),
         [16, 19, 14, 14, 15, 14, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
         [539, 609, 434, 415, 465, 476, 0, 0, 8, 8, 0, 0, 0, 0, 0, 0, 0, 0],
         43.56435643564357),
        ((1682, 152, 1419, 43, 68),
         [16, 16, 18, 19, 16, 13, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0],
         [526, 498, 539, 565, 486, 444, 4, 0, 0, 37, 41, 0, 0, 0, 0, 0, 0, 0],
         51.64835164835165)]),
    # light load on lossy uplinks: most slots are quiet (nothing generated,
    # nothing sent) and hold no tracked packet, so this pins the loop's
    # cheap paths together with the PER draws
    (2, "sbd", 0.01, 0.2, 16, 4096, 12, [
        ((1810, 1270, 0, 535, 5),
         [41, 42, 42, 43, 37, 43, 26, 36, 32, 24, 35, 29, 31, 37, 31, 29, 33,
          32],
         [834, 794, 847, 796, 731, 742, 830, 978, 1084, 777, 1029, 850, 787,
          1224, 762, 704, 761, 916], 12.905968372725727),
        ((1800, 1260, 0, 538, 2),
         [41, 42, 43, 40, 41, 40, 39, 34, 33, 38, 34, 33, 32, 38, 27, 36, 31,
          31],
         [675, 590, 863, 639, 696, 829, 1230, 1109, 803, 1126, 1035, 1231,
          806, 1269, 802, 930, 1060, 1066], 12.514858210222448)]),
    # a relay at K - 1 below saturation (about 2 % dropped): a lone
    # untracked forwarded packet must still be accepted into its last place
    (2, "ta-mc", 0.02, 0.0, 3, 500, 2, [
        ((1328, 1293, 23, 0, 12),
         [48, 49, 49, 49, 48, 48, 50, 50, 50, 50, 49, 50, 49, 49, 46, 49, 50,
          49],
         [412, 405, 539, 421, 446, 452, 1443, 1664, 954, 768, 1150, 1085,
          1208, 1302, 1397, 1233, 1541, 1430], 35.260663507109),
        ((1455, 1424, 22, 0, 9),
         [47, 50, 49, 50, 49, 48, 50, 50, 49, 50, 49, 50, 49, 50, 49, 50, 50,
          50],
         [403, 447, 359, 457, 441, 434, 1462, 1718, 900, 649, 1078, 971, 1156,
          1135, 1435, 1315, 1679, 1548], 35.49107142857142)]),
]


def _golden_scenario(rings, algorithm, rate, per, capacity):
    topo = concentric_topology(rings)
    uplinks = {(n, topo.parents[n]): per for n in range(1, topo.node_count)}
    return NetworkScenario(schedule=generate(algorithm, topo), topology=topo,
                           generation_rate=rate, queue_capacity=capacity,
                           link_per=uplinks if per else {})


@pytest.mark.parametrize("case", NETWORK_GOLDEN)
def test_network_sim_golden_replay(case):
    rings, algorithm, rate, per, capacity, warmup, seed, runs = case
    packets = 50
    scenario = _golden_scenario(rings, algorithm, rate, per, capacity)
    config = SimConfig(seed=seed, runs=2, packets=packets, warmup_slots=warmup)
    # each run draws from its own generator, so the runs give the same bits
    # in worker processes as in this one (the default runs cases this short
    # here, see test_default_workers_follow_run_size)
    stats, pooled = [simulate_network(scenario, config, workers=workers)
                     for workers in (1, 2)]
    assert not multiprocessing.active_children()
    assert pooled.counts == stats.counts
    for field in ("delivery", "delay_slots", "throughput_pps"):
        assert (getattr(pooled, field).tobytes()
                == getattr(stats, field).tobytes())
    for run, (counts, tracked, delay_sums, throughput) in enumerate(runs):
        assert stats.counts[run] == RunCounts(*counts)
        assert stats.delivery[run].tolist() == [1.0] + [
            k / packets for k in tracked]
        delay = [s / k if k else math.nan for s, k in zip(delay_sums, tracked)]
        assert np.array_equal(stats.delay_slots[run], [0.0] + delay,
                              equal_nan=True)
        assert stats.throughput_pps[run] == throughput


@pytest.mark.parametrize("p_gen, n_nodes", [(0.3, 7), (0.5, 2)])
def test_generation_block_matches_nonzero(p_gen, n_nodes):
    # the block's events, row pointer and total read the same draw as a
    # plain np.nonzero over the (slot, node) counts, and draw nothing more
    rng = np.random.default_rng(5)
    events, row_start, total = _generation_events(rng, p_gen, n_nodes)
    replay = np.random.default_rng(5)
    counts = replay.poisson(p_gen, size=(_BLOCK, n_nodes - 1))
    assert rng.bit_generator.state == replay.bit_generator.state
    rows, cols = np.nonzero(counts)
    assert events == [(c + 1, counts[r, c]) for r, c in zip(rows, cols)]
    assert row_start == [int(np.sum(rows < r)) for r in range(_BLOCK + 1)]
    assert total == counts.sum()
    per_row = np.diff(row_start)
    assert per_row.min() == 0 and counts.max() > 1  # empty rows, counts > 1
    if n_nodes > 2:
        assert per_row.max() > 1  # rows with several events


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


def test_shuffle_draws_depend_on_length_only():
    # the network loop shuffles an overflowing bucket's marks padded with
    # None, which keeps the random stream of shuffling the packets
    for seed in range(4):
        for m in range(2, 41):
            packets = np.random.default_rng(seed)
            packets.shuffle([[n, 0, -1] for n in range(m)])
            placeholders = np.random.default_rng(seed)
            placeholders.shuffle([None] * m)
            assert (packets.bit_generator.state
                    == placeholders.bit_generator.state)


def test_delay_summary_of_run_without_deliveries_is_nan():
    # a run in which no selected node delivered has no delay, which must
    # not raise numpy's empty-slice warning (an error in this suite)
    stats = NetworkSimStats(
        delivery=np.zeros((2, 3)),
        delay_slots=np.array([[0.0, math.nan, math.nan],
                              [0.0, 4.0, math.nan]]),
        throughput_pps=np.zeros(2), counts=())
    summary = stats.delay_summary([1, 2])
    assert math.isnan(summary.per_run[0]) and summary.per_run[1] == 4.0
    assert summary.mean == 4.0
    assert stats.delay_summary().per_run == (0.0, 2.0)


def test_network_sim_checks_ledger_every_run(monkeypatch):
    monkeypatch.setattr(RunCounts, "conserved", lambda self: False)
    with pytest.raises(SimulationError, match="ledger"):
        simulate_network(_two_node_scenario(),
                         SimConfig(seed=1, runs=1, packets=10,
                                   warmup_slots=100))


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="only a forked worker sees the patched class")
def test_worker_error_reaches_caller_unchanged(monkeypatch):
    # the patch is in place before the pool forks, so the worker's run
    # raises, and its error must come back as the in-process one does
    monkeypatch.setattr(RunCounts, "conserved", lambda self: False)
    config = SimConfig(seed=1, runs=2, packets=10, warmup_slots=100)
    errors = []
    for workers in (1, 2):
        with pytest.raises(SimulationError) as caught:
            simulate_network(_two_node_scenario(), config, workers=workers)
        assert not multiprocessing.active_children()
        errors.append((type(caught.value), str(caught.value)))
    assert errors[0] == errors[1]
    assert errors[0][1].startswith("packet ledger does not balance")


@pytest.mark.parametrize("workers", [0, -1, 1.0, True, "2"])
def test_network_sim_rejects_bad_worker_counts(workers):
    # every path checks the value, the zero-rate one included
    config = SimConfig(seed=0, runs=2, packets=10)
    for rate in (0.02, 0.0):
        with pytest.raises(SimulationError, match="workers must be"):
            simulate_network(_two_node_scenario(rate=rate), config,
                             workers=workers)


def test_default_workers_follow_run_size(monkeypatch):
    # a pool pays only when the runs it takes off this process are long:
    # 2 runs on 4 CPUs spare one run, 5 runs spare three
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)),
                        raising=False)
    assert simulate._default_workers(2, 199_999) == 1
    assert simulate._default_workers(2, 200_000) == 2
    assert simulate._default_workers(5, 66_666) == 1
    assert simulate._default_workers(5, 66_667) == 4
    assert simulate._default_workers(1, 10**9) == 1

    class Chosen(Exception):
        pass

    def choose(fn, items, workers):
        raise Chosen(workers)

    # the run size is warm-up plus packets / p_gen slots, times nodes
    monkeypatch.setattr(simulate, "map_in_processes", choose)
    for warmup, workers in ((98_999, 1), (99_000, 2)):
        with pytest.raises(Chosen) as chosen:
            simulate_network(_two_node_scenario(rate=0.01),
                             SimConfig(seed=1, runs=2, packets=10,
                                       warmup_slots=warmup))
        assert chosen.value.args == (workers,)


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
    sched = generate("sbd", topo)
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
    # nothing was delivered, so no node but the sink has a delay
    assert np.all(stats.delay_slots[:, 0] == 0.0)
    assert np.all(np.isnan(stats.delay_slots[:, 1:]))


def test_network_sim_sink_only():
    # nothing to track: delivery 1, no throughput, and an empty ledger
    topo = Topology(1, frozenset(), (None,))
    sched = Schedule(node_count=1, slotframe_length=2, tx_slots=((),),
                     rx_slots=((),), counterpart=({},), channel=({},))
    scenario = NetworkScenario(schedule=sched, topology=topo,
                               generation_rate=0.1, queue_capacity=4)
    stats = simulate_network(scenario, SimConfig(seed=0, runs=2, packets=10,
                                                 warmup_slots=5))
    assert np.all(stats.delivery == 1.0)
    assert np.all(stats.throughput_pps == 0.0)
    assert all(c.conserved() and c.generated == 0 for c in stats.counts)


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


@pytest.mark.parametrize("name", ["collision", "past_parent"])
def test_network_sim_rejects_invalid_scenario(name):
    # the simulator runs only scenarios that the model accepts
    sched, topo = invalid_networks()[name]
    with pytest.raises(NetworkModelError):
        simulate_network(NetworkScenario(schedule=sched, topology=topo,
                                         generation_rate=0.01,
                                         queue_capacity=4),
                         SimConfig(seed=1, runs=1, packets=10))


@pytest.mark.parametrize("field, value", [
    ("seed", -1), ("seed", 1.0), ("runs", 2.5), ("runs", True),
    ("packets", 10.0), ("warmup_slots", 3.0)])
def test_sim_config_rejects_non_integers(field, value):
    with pytest.raises(SimulationError, match=field.split("_")[0]):
        SimConfig(**{field: value})


def test_sim_config_validation():
    with pytest.raises(SimulationError):
        SimConfig(runs=0)
    with pytest.raises(SimulationError):
        SimConfig(packets=0)
    with pytest.raises(SimulationError):
        SimConfig(warmup_slots=-7)
    assert SimConfig(warmup_slots=0).warmup_slots == 0
