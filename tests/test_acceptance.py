"""Acceptance suite: one test per release criterion, each printing a
single pass/fail line. Monte-Carlo comparisons run with fixed seeds and
the configurations stated in the criteria, so the whole module is
deterministic."""

import functools
import math
import time

import numpy as np
import pytest

from conftest import slot_links
from slotmesh.network import (NetworkScenario, concentric_topology,
                              evaluate_network)
from slotmesh.queuemodel import (TrafficSpec, _offered, build_chain,
                                 evaluate_node)
from slotmesh.schedule import validate
from slotmesh.schedulers import generate, proper_descendants
from slotmesh.simulate import SimConfig, simulate_network, simulate_queue
from slotmesh.stationary import solve


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"[FAIL] {label}")
                raise
            print(f"[PASS] {label}")
        return run
    return wrap


@criterion("criterion 1: single-node acceptance probabilities")
def test_acceptance_probabilities_known_values():
    start = time.perf_counter()
    expected = {0.5: 1.00, 1.0: 0.95, 1.5: 0.67, 2.5: 0.40}
    for total, target in expected.items():
        metrics = evaluate_node(10, 5, (0,), TrafficSpec.constant(5, rate=total / 5))
        assert abs(metrics.acceptance - target) <= 0.005, (total, metrics.acceptance)
    forwarded = evaluate_node(10, 5, (0,), TrafficSpec.constant(5, prob=0.2))
    assert abs(forwarded.acceptance - 0.96) <= 0.005
    assert time.perf_counter() - start < 1.0


def _random_lossless_case(rng):
    length = int(rng.integers(4, 13))
    slots = list(rng.permutation(length))
    n_rx = int(rng.integers(1, 1 + length // 2))
    n_tx = int(rng.integers(n_rx, length - n_rx + 1))
    rx = tuple(sorted(slots[:n_rx]))
    tx = tuple(sorted(slots[n_rx:n_rx + n_tx]))
    probs = [0.0] * length
    for i in rx:
        probs[i] = float(rng.uniform(0.05, 0.95))
    return length, tx, rx, TrafficSpec((0.0,) * length, tuple(probs))


def _worst_case_capacity(length, tx, rx):
    # deterministic recursion with every reception slot delivering; the
    # smallest capacity under which no arrival ever meets a full queue
    capacity = max(2, len(rx))
    while True:
        q = 0
        ok = True
        seen = set()
        while q not in seen:
            seen.add(q)
            for i in range(length):
                if i in rx:
                    if q >= capacity:
                        ok = False
                        break
                    q += 1
                if i in tx and q > 0:
                    q -= 1
            if not ok:
                break
        if ok:
            return capacity
        capacity += 1


@criterion("criterion 2: lossless forwarding-only schedules accept everything")
def test_lossless_forwarding_special_case():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        length, tx, rx, traffic = _random_lossless_case(rng)
        capacity = _worst_case_capacity(length, tx, rx)
        metrics = evaluate_node(capacity, length, tx, traffic)
        assert abs(metrics.acceptance - 1.0) <= 1e-9, (length, tx, rx)


def _md1k_oracle(capacity, rate):
    """Dense reference solve of the single-slot queue, built independently
    from first principles: Poisson arrivals, one departure per slot when
    backlogged, admissions capped by the free space."""
    def pmf(k):
        return math.exp(-rate) * rate ** k / math.factorial(k)

    size = capacity + 1
    p = np.zeros((size, size))
    for q in range(size):
        base = max(q - 1, 0) if q > 0 else 0
        room = capacity - q
        for k in range(room):
            p[q, base + k] += pmf(k)
        p[q, base + room] += 1.0 - sum(pmf(k) for k in range(room))
    values, vectors = np.linalg.eig(p.T)
    idx = int(np.argmin(np.abs(values - 1.0)))
    pi = np.real(vectors[:, idx])
    pi = pi * np.sign(pi.sum())
    pi /= pi.sum()
    accepted = 0.0
    for q in range(size):
        room = capacity - q
        head = sum(k * pmf(k) for k in range(room))
        tail = 1.0 - sum(pmf(k) for k in range(room))
        accepted += pi[q] * (head + tail * room)
    return pi, 1.0 - accepted / rate


@criterion("criterion 3: single-slot frames reduce to the M/D/1/K queue")
def test_md1k_reduction():
    for capacity in (1, 3, 8):
        for rate in (0.3, 0.8, 1.2):
            metrics = evaluate_node(capacity, 1, (0,), TrafficSpec((rate,), (0.0,)))
            pi, blocking = _md1k_oracle(capacity, rate)
            assert np.abs(metrics.queue_marginals - pi).max() <= 1e-9
            assert abs((1.0 - metrics.acceptance) - blocking) <= 1e-9


@criterion("criterion 4: model matches the queue simulation across a rate sweep")
def test_single_node_model_vs_simulation():
    start = time.perf_counter()
    length, capacity, tx = 5, 5, (3,)
    probs = tuple(0.5 if i == 0 else 0.0 for i in range(length))
    config = SimConfig(seed=11, runs=10, packets=10_000)
    for p_gen in np.linspace(0.0, 0.3, 10):
        traffic = TrafficSpec((float(p_gen),) * length, probs)
        full = evaluate_node(capacity, length, tx, traffic, variant="full")
        dist = evaluate_node(capacity, length, tx, traffic,
                             variant="distributed")
        stats = simulate_queue(capacity, length, tx, traffic, config)
        assert stats.acceptance.contains(full.acceptance, atol=1e-6), p_gen
        assert dist.acceptance <= full.acceptance + 1e-12, p_gen
    assert time.perf_counter() - start < 120.0


@criterion("criterion 5: multi-hop model inside the network simulation CIs")
def test_multihop_model_vs_simulation():
    start = time.perf_counter()
    topology = concentric_topology(2)
    schedule = generate("sbd", topology)
    outer = list(topology.levels[-1])
    config = SimConfig(seed=7, runs=5, packets=100)  # default 15-min warm-up
    for rate in (0.004, 0.008, 0.010, 0.012, 0.016, 0.018):
        scenario = NetworkScenario(schedule=schedule, topology=topology,
                                   generation_rate=rate, queue_capacity=16)
        result = evaluate_network(scenario)
        stats = simulate_network(scenario, config)
        model_pdr = float(result.delivery_ratio[outer].mean())
        model_delay = float(result.delay_slots[outer].mean())
        # 1e-6 absorbs the zero-width interval artifact of runs without a
        # single drop among the tracked packets
        assert stats.delivery_summary(outer).contains(model_pdr, atol=1e-6), rate
        assert stats.delay_summary(outer).contains(model_delay, atol=1e-9), rate
    assert time.perf_counter() - start < 600.0


@criterion("criterion 6: generated schedule shapes on the 19-node network")
def test_schedule_properties():
    topology = concentric_topology(2)
    info = proper_descendants(topology)
    lengths = {}
    for algorithm in ("sbd", "ta-sc", "ta-mc"):
        schedule = generate(algorithm, topology)
        lengths[algorithm] = schedule.slotframe_length
        report = validate(schedule, topology)
        assert report.ok and not report.channel_collisions, algorithm
        if algorithm != "sbd":
            for n in range(1, topology.node_count):
                assert len(schedule.tx_slots[n]) == info[n] + 1
    assert lengths == {"sbd": 19, "ta-sc": 31, "ta-mc": 19}
    tamc = generate("ta-mc", topology)
    first_data_slot = {tamc.channel[v][1] for v, _ in slot_links(tamc, 1)}
    assert len(first_data_slot) == 3


@criterion("criterion 7: saturation throughput ordering and monotonicity")
def test_throughput_ordering():
    saturated = 0.06
    for rings in (2, 3):
        topology = concentric_topology(rings)
        model = {}
        simulated = {}
        for algorithm in ("sbd", "ta-sc", "ta-mc"):
            schedule = generate(algorithm, topology)
            for capacity in (6, 16):
                scenario = NetworkScenario(schedule=schedule, topology=topology,
                                           generation_rate=saturated,
                                           queue_capacity=capacity)
                model[(algorithm, capacity)] = evaluate_network(scenario).throughput_pps
            scenario = NetworkScenario(schedule=schedule, topology=topology,
                                       generation_rate=saturated,
                                       queue_capacity=16)
            stats = simulate_network(scenario, SimConfig(
                seed=3, runs=2, packets=60, warmup_slots=20_000))
            simulated[algorithm] = stats.throughput_summary().mean
            # throughput never decreases with the offered rate
            last = -1.0
            for rate in np.linspace(0.0, saturated, 6):
                point = NetworkScenario(schedule=schedule, topology=topology,
                                        generation_rate=float(rate),
                                        queue_capacity=16)
                value = evaluate_network(point).throughput_pps
                assert value >= last - 1e-9, (algorithm, rate)
                last = value
        assert model[("ta-mc", 16)] > model[("ta-sc", 16)] > model[("sbd", 16)]
        assert simulated["ta-mc"] > simulated["ta-sc"] > simulated["sbd"]
        for algorithm in ("sbd", "ta-sc", "ta-mc"):
            assert model[(algorithm, 16)] >= model[(algorithm, 6)] - 1e-9


@criterion("criterion 8: closed-form expected arrivals against sampling")
def test_expected_arrivals_identity():
    rng = np.random.default_rng(88)
    frames = 1_000_000
    for _ in range(10):
        length = int(rng.integers(1, 7))
        rates = rng.uniform(0.0, 1.5, length)
        probs = rng.uniform(0.0, 1.0, length)
        spec = TrafficSpec(tuple(rates), tuple(probs))
        totals = (rng.poisson(rates, size=(frames, length))
                  + (rng.random((frames, length)) < probs)).sum(axis=1)
        se = totals.std(ddof=1) / math.sqrt(frames)
        gap = abs(_offered(*spec._arrays())[0] - totals.mean())
        assert gap <= 3 * se, (rates, probs, gap, se)


@criterion("criterion 9: reducible chains prune exactly and solvers agree")
def test_reducible_chain_and_solver_agreement():
    from conftest import chain_cases, dense_matrix
    from test_stationary import dense_null_space_oracle

    # forwarding in slot 0 straight into a transmission slot: a packet can
    # never still be queued when slot 2 begins
    traffic = TrafficSpec((0.0, 0.0, 0.0), (0.5, 0.0, 0.0))
    chain = build_chain(1, 3, (1,), traffic)
    result = solve(chain)
    assert result.distribution[chain.state_index(1, 2)] == 0.0
    assert not result.reachable[chain.state_index(1, 2)]
    assert result.residual <= 1e-10

    for capacity, length, tx, spec in chain_cases():
        c = build_chain(capacity, length, tx, spec)
        solved = solve(c)
        oracle = dense_null_space_oracle(dense_matrix(c), solved.reachable)
        assert np.abs(solved.distribution - oracle).max() <= 1e-8
        assert solved.residual <= 1e-10
