import math
from bisect import bisect_left

import numpy as np
import pytest

from conftest import chain_cases
from slotmesh.queuemodel import (ModelError, TrafficSpec, acceptance_probability,
                                 arrival_pmf, build_chain, evaluate_node,
                                 expected_arrivals_per_slotframe, expected_delay,
                                 model_variant, queue_marginals,
                                 transmission_probability,
                                 _preceding_tx_index, _slots_between)
from slotmesh.simulate import SimConfig, simulate_queue
from slotmesh.stationary import solve


def _solved(capacity, length, tx, traffic):
    chain = build_chain(capacity, length, tx, traffic)
    return chain, solve(chain).distribution


def _loop_acceptance(chain, c):
    # per-state loop: E[accepted | (q, i)] caps the arrivals at the room K - q
    capacity, length = chain.capacity, chain.slotframe_length
    grid = c.reshape(capacity + 1, length)
    accepted = 0.0
    for i in range(length):
        pmf = [arrival_pmf(chain.traffic, i, k) for k in range(capacity + 1)]
        for q in range(capacity):
            room = capacity - q
            head = math.fsum(k * pmf[k] for k in range(room))
            tail = max(0.0, 1.0 - math.fsum(pmf[:room]))
            accepted += grid[q, i] * (head + tail * room)
    return length * accepted / expected_arrivals_per_slotframe(chain.traffic)


def _loop_delay(chain, c):
    # per-state loop: drain time of an arrival appended after slot i's
    # departure, counted from slot i + 1
    capacity, length, tx = chain.capacity, chain.slotframe_length, chain.tx_slots
    count = len(tx)
    grid = c.reshape(capacity + 1, length)
    total = 0.0
    for i in range(length):
        nxt = (i + 1) % length
        preceding = (count - 1 if nxt <= tx[0] or nxt > tx[-1]
                     else bisect_left(tx, nxt) - 1)
        for q in range(capacity + 1):
            position = max(q - (1 if i in tx else 0), 0) + 1
            frames = -(-position // count) - 1
            target = tx[(preceding + position) % count]
            wait = target - nxt if target >= nxt else target - nxt + length
            total += grid[q, i] * (frames * length + 1 + wait)
    return total


def test_metrics_match_loop_formulas():
    for capacity, length, tx, traffic in chain_cases():
        chain, c = _solved(capacity, length, tx, traffic)
        assert acceptance_probability(chain, c) == pytest.approx(
            _loop_acceptance(chain, c), rel=1e-12, abs=0)
        assert expected_delay(chain, c) == pytest.approx(
            _loop_delay(chain, c), rel=1e-12, abs=0)


def test_tx_zero_off_transmission_slots():
    chain, c = _solved(3, 4, (1,), TrafficSpec.constant(4, rate=0.4))
    tx = transmission_probability(chain, c)
    assert tx[0] == 0.0 and tx[2] == 0.0 and tx[3] == 0.0
    assert 0.0 < tx[1] < 1.0


def test_tx_saturates_at_high_load():
    chain, c = _solved(8, 4, (0, 2), TrafficSpec.constant(4, rate=10.0))
    tx = transmission_probability(chain, c)
    assert tx[0] == pytest.approx(1.0, abs=1e-3)
    assert tx[2] == pytest.approx(1.0, abs=1e-3)


def test_tx_zero_without_traffic():
    chain, c = _solved(3, 4, (1, 3), TrafficSpec.constant(4))
    assert np.all(transmission_probability(chain, c) == 0.0)


def test_acceptance_requires_offered_traffic():
    chain, c = _solved(3, 2, (0,), TrafficSpec.constant(2))
    with pytest.raises(ModelError):
        acceptance_probability(chain, c)


def test_acceptance_lossless_forwarding_exact():
    # no generation, forwarding only, at least as many transmission as
    # reception slots: nothing is ever dropped
    traffic = TrafficSpec((0.0,) * 6, (0.8, 0.0, 0.3, 0.0, 0.0, 0.0))
    chain, c = _solved(4, 6, (1, 3, 5), traffic)
    assert acceptance_probability(chain, c) == pytest.approx(1.0, abs=1e-9)


def test_queue_marginals_trivial():
    chain, c = _solved(3, 4, (1,), TrafficSpec.constant(4))
    marg = queue_marginals(c, 4)
    assert marg[0] == pytest.approx(1.0, abs=1e-12)
    assert marg.sum() == pytest.approx(1.0, abs=1e-9)


def test_queue_marginals_low_load_decay():
    # light load (half a packet per slotframe): levels above three carry
    # about a percent of the mass and acceptance rounds to 1.00
    for traffic in (TrafficSpec.constant(5, rate=0.1),
                    TrafficSpec.constant(5, prob=0.1)):
        chain, c = _solved(10, 5, (0,), traffic)
        marg = queue_marginals(c, 5)
        assert marg[4:].sum() < 1e-2
        assert round(acceptance_probability(chain, c), 2) == 1.0


def test_queue_marginals_full_level_dip():
    # at balanced load the full level is visited less than its neighbor:
    # a full queue on a transmission slot always steps down
    chain, c = _solved(10, 5, (0,), TrafficSpec.constant(5, rate=0.2))
    marg = queue_marginals(c, 5)
    assert marg[10] < marg[9]


def test_slots_between_wraps():
    assert _slots_between(4, 1, 5) == 2
    assert _slots_between(0, 0, 5) == 0
    assert _slots_between(2, 4, 5) == 2


def test_preceding_tx_index_edges():
    tx = (1, 4)
    assert _preceding_tx_index(tx, 0) == 1
    assert _preceding_tx_index(tx, 1) == 1  # tie belongs to the last index
    assert _preceding_tx_index(tx, 2) == 0
    assert _preceding_tx_index(tx, 4) == 0  # tie again
    assert _preceding_tx_index(tx, 5) == 1


def test_delay_single_slot_frame():
    # an arrival into an empty one-slot system waits exactly one slot
    chain, c = _solved(4, 1, (0,), TrafficSpec((1e-12,), (0.0,)))
    assert expected_delay(chain, c) == pytest.approx(1.0, abs=1e-9)


def test_delay_requires_tx_slot():
    bare = build_chain(2, 3, (), TrafficSpec.constant(3))
    with pytest.raises(ModelError):
        expected_delay(bare, solve(bare).distribution)


def test_delay_matches_simulation_at_low_load():
    # at low load the single-arrival delay accounting is exact enough to
    # land inside the simulation confidence interval
    traffic = TrafficSpec.constant(5, rate=0.01)
    metrics = evaluate_node(2, 5, (1, 4), traffic)
    stats = simulate_queue(2, 5, (1, 4), traffic,
                           SimConfig(seed=2, runs=10, packets=10_000))
    assert stats.delay_slots.contains(metrics.expected_delay_slots, atol=1e-9)


def test_acceptance_monotone_in_load():
    previous = 1.1
    for total in np.linspace(0.25, 3.0, 12):
        metrics = evaluate_node(6, 5, (2,), TrafficSpec.constant(5, rate=total / 5))
        assert metrics.acceptance <= previous + 1e-12
        previous = metrics.acceptance


def test_acceptance_monotone_in_capacity():
    traffic = TrafficSpec.constant(5, rate=0.2)
    previous = -1.0
    for capacity in range(1, 17):
        metrics = evaluate_node(capacity, 5, (0,), traffic)
        assert metrics.acceptance >= previous - 1e-12
        previous = metrics.acceptance


def test_node_metrics_invariants():
    metrics = evaluate_node(6, 4, (0, 3), TrafficSpec.constant(4, rate=0.3, prob=0.1))
    assert metrics.distribution.sum() == pytest.approx(1.0, abs=1e-9)
    assert 0.0 <= metrics.acceptance <= 1.0
    assert metrics.tx_probability[1] == 0.0 and metrics.tx_probability[2] == 0.0
    assert metrics.queue_marginals.sum() == pytest.approx(1.0, abs=1e-9)


def test_variants_share_offered_load():
    traffic = TrafficSpec((0.1,) * 5, (0.5, 0.0, 0.0, 0.0, 0.0))
    results = {v: model_variant(v, 5, 5, (3,), traffic)
               for v in ("md1k", "distributed", "full")}
    for metrics in results.values():
        assert metrics.total_arrivals == pytest.approx(1.0, abs=1e-12)
    assert results["distributed"].acceptance <= results["full"].acceptance + 1e-12


def test_md1k_variant_collapses_schedule():
    traffic = TrafficSpec((0.2,) * 5, (0.0,) * 5)
    collapsed = model_variant("md1k", 4, 5, (1,), traffic)
    direct = evaluate_node(4, 1, (0,), TrafficSpec((1.0,), (0.0,)))
    assert collapsed.acceptance == pytest.approx(direct.acceptance, abs=1e-12)
    assert collapsed.queue_marginals == pytest.approx(direct.queue_marginals,
                                                      abs=1e-12)


def test_unknown_variant_rejected():
    with pytest.raises(ModelError):
        model_variant("fancy", 3, 2, (0,), TrafficSpec.constant(2, rate=0.1))
