import math
from bisect import bisect_left

import numpy as np
import pytest

from conftest import chain_cases
from slotmesh import queuemodel
from slotmesh.queuemodel import (ModelError, TrafficSpec, _offered,
                                 arrival_pmf, build_chain, evaluate_node)
from slotmesh.simulate import SimConfig, simulate_queue


def _loop_acceptance(chain, traffic, c):
    # per-state loop: E[accepted | (q, i)] caps the arrivals at the room K - q
    capacity, length = chain.capacity, chain.slotframe_length
    grid = c.reshape(length, capacity + 1)
    table = arrival_pmf(traffic.poisson_rate, traffic.bernoulli_prob,
                        capacity + 1)
    accepted = 0.0
    for i in range(length):
        pmf = table[i]
        for q in range(capacity):
            room = capacity - q
            head = math.fsum(k * pmf[k] for k in range(room))
            tail = max(0.0, 1.0 - math.fsum(pmf[:room]))
            accepted += grid[i, q] * (head + tail * room)
    return length * accepted / _offered(*traffic._arrays())[0]


def _loop_delay(chain, tx_slots, c):
    # per-state loop: drain time of an arrival appended after slot i's
    # departure, counted from slot i + 1
    capacity, length = chain.capacity, chain.slotframe_length
    tx = sorted(set(tx_slots))
    count = len(tx)
    grid = c.reshape(length, capacity + 1)
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
            total += grid[i, q] * (frames * length + 1 + wait)
    return total


def test_metrics_match_loop_formulas():
    for capacity, length, tx, traffic in chain_cases():
        chain = build_chain(capacity, length, tx, traffic)
        metrics = evaluate_node(capacity, length, tx, traffic)
        c = metrics.distribution
        assert metrics.acceptance == pytest.approx(
            _loop_acceptance(chain, traffic, c), rel=1e-12, abs=0)
        assert metrics.expected_delay_slots == pytest.approx(
            _loop_delay(chain, tx, c), rel=1e-12, abs=0)


def test_tx_zero_off_transmission_slots():
    tx = evaluate_node(3, 4, (1,), TrafficSpec.constant(4, rate=0.4)).tx_probability
    assert tx[0] == 0.0 and tx[2] == 0.0 and tx[3] == 0.0
    assert 0.0 < tx[1] < 1.0


def test_tx_saturates_at_high_load():
    tx = evaluate_node(8, 4, (0, 2),
                       TrafficSpec.constant(4, rate=10.0)).tx_probability
    assert tx[0] == pytest.approx(1.0, abs=1e-3)
    assert tx[2] == pytest.approx(1.0, abs=1e-3)


def test_tx_zero_without_traffic():
    metrics = evaluate_node(3, 4, (1, 3), TrafficSpec.constant(4))
    assert np.all(metrics.tx_probability == 0.0)


def test_acceptance_vacuous_without_offered_traffic():
    metrics = evaluate_node(3, 2, (0,), TrafficSpec.constant(2))
    assert metrics.total_arrivals == 0.0 and metrics.acceptance == 1.0


def test_acceptance_lossless_forwarding_exact():
    # no generation, forwarding only, at least as many transmission as
    # reception slots: nothing is ever dropped
    traffic = TrafficSpec((0.0,) * 6, (0.8, 0.0, 0.3, 0.0, 0.0, 0.0))
    metrics = evaluate_node(4, 6, (1, 3, 5), traffic)
    assert metrics.acceptance == pytest.approx(1.0, abs=1e-9)


def test_queue_marginals_trivial():
    marg = evaluate_node(3, 4, (1,), TrafficSpec.constant(4)).queue_marginals
    assert marg[0] == pytest.approx(1.0, abs=1e-12)
    assert marg.sum() == pytest.approx(1.0, abs=1e-9)


def test_queue_marginals_low_load_decay():
    # light load (half a packet per slotframe): levels above three carry
    # about a percent of the mass and acceptance rounds to 1.00
    for traffic in (TrafficSpec.constant(5, rate=0.1),
                    TrafficSpec.constant(5, prob=0.1)):
        metrics = evaluate_node(10, 5, (0,), traffic)
        assert metrics.queue_marginals[4:].sum() < 1e-2
        assert round(metrics.acceptance, 2) == 1.0


def test_queue_marginals_full_level_dip():
    # at balanced load the full level is visited less than its neighbor:
    # a full queue on a transmission slot always steps down
    marg = evaluate_node(10, 5, (0,),
                         TrafficSpec.constant(5, rate=0.2)).queue_marginals
    assert marg[10] < marg[9]


def test_delay_single_slot_frame():
    # an arrival into an empty one-slot system waits exactly one slot
    metrics = evaluate_node(4, 1, (0,), TrafficSpec((1e-12,), (0.0,)))
    assert metrics.expected_delay_slots == pytest.approx(1.0, abs=1e-9)


def test_delay_zero_without_tx_slot():
    bare = evaluate_node(2, 3, (), TrafficSpec.constant(3))
    assert bare.expected_delay_slots == 0.0


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
    results = {v: evaluate_node(5, 5, (3,), traffic, variant=v)
               for v in ("md1k", "distributed", "full")}
    for metrics in results.values():
        assert metrics.total_arrivals == pytest.approx(1.0, abs=1e-12)
    assert results["distributed"].acceptance <= results["full"].acceptance + 1e-12
    uniform = evaluate_node(5, 5, (3,), TrafficSpec.constant(5, rate=0.2))
    assert results["distributed"].acceptance == pytest.approx(uniform.acceptance,
                                                              rel=1e-12)


def test_md1k_variant_collapses_schedule():
    traffic = TrafficSpec((0.2,) * 5, (0.0,) * 5)
    collapsed = evaluate_node(4, 5, (1,), traffic, variant="md1k")
    direct = evaluate_node(4, 1, (0,), TrafficSpec((1.0,), (0.0,)))
    assert collapsed.acceptance == pytest.approx(direct.acceptance, abs=1e-12)
    assert collapsed.queue_marginals == pytest.approx(direct.queue_marginals,
                                                      abs=1e-12)
    # a node without a transmission slot collapses to a slot that never drains
    idle = evaluate_node(4, 5, (), TrafficSpec.constant(5), variant="md1k")
    assert np.array_equal(idle.tx_probability, np.zeros(5))
    assert idle.queue_marginals[0] == 1.0 and idle.acceptance == 1.0


def test_md1k_builds_each_node_metrics_once(monkeypatch):
    # the memo's record of the collapsed chain, and the node's own: the
    # collapsed chain's per-node metrics are not built and dropped
    built = []
    node_metrics = queuemodel.NodeMetrics

    def counted(**fields):
        built.append(fields["shift"])
        return node_metrics(**fields)

    monkeypatch.setattr(queuemodel, "NodeMetrics", counted)
    traffic = TrafficSpec((0.2,) * 5, (0.0,) * 5)
    node = evaluate_node(4, 5, (1, 3), traffic, variant="md1k")
    assert len(built) == 2
    want = node.tx_probability[1]
    assert np.array_equal(node.tx_probability, [0.0, want, 0.0, want, 0.0])


def test_md1k_loaded_node_without_tx_slots_fills_up():
    loaded = evaluate_node(4, 5, (), TrafficSpec.constant(5, rate=0.2),
                           variant="md1k")
    assert np.array_equal(loaded.distribution, [0.0, 0.0, 0.0, 0.0, 1.0])
    assert np.array_equal(loaded.tx_probability, np.zeros(5))
    assert loaded.acceptance == 0.0 and loaded.expected_delay_slots == 0.0


@pytest.mark.parametrize("variant", ["md1k", "distributed", "full"])
def test_variant_rejects_tx_slot_outside_frame(variant):
    traffic = TrafficSpec.constant(5, rate=0.1)
    for tx in ((5,), (-1,)):
        with pytest.raises(ModelError, match="outside"):
            evaluate_node(3, 5, tx, traffic, variant=variant)


@pytest.mark.parametrize("rate,load", [(1e-315, "5e-315"),
                                       (5e-324, "2.47033e-323")])
def test_load_below_smallest_normal_float_rejected(rate, load):
    # the Poisson terms of such a load keep too few bits: at 1e-315 the
    # acceptance read 1.00000001, at 5e-324 it read 0
    with pytest.raises(ModelError, match=load):
        evaluate_node(16, 5, (2,), TrafficSpec.constant(5, rate=rate))


def test_unknown_variant_rejected():
    with pytest.raises(ModelError):
        evaluate_node(3, 2, (0,), TrafficSpec.constant(2, rate=0.1),
                      variant="fancy")
