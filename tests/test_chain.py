import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import chain_cases
from slotmesh.queuemodel import ModelError, TrafficSpec, arrival_pmf, build_chain


def _row_sums(chain):
    return np.asarray(chain.transition_matrix.sum(axis=1)).ravel()


def test_rows_sum_to_one():
    for capacity, length, tx, traffic in chain_cases():
        chain = build_chain(capacity, length, tx, traffic)
        assert np.abs(_row_sums(chain) - 1.0).max() < 1e-12


def test_transitions_only_to_next_slot():
    chain = build_chain(3, 5, (1, 4), TrafficSpec.constant(5, rate=0.4))
    coo = chain.transition_matrix.tocoo()
    for j, k in zip(coo.row, coo.col):
        assert k % 5 == (j % 5 + 1) % 5


def test_full_queue_single_transition():
    chain = build_chain(4, 3, (1,), TrafficSpec.constant(3, rate=0.7, prob=0.2))
    matrix = chain.transition_matrix
    for i in range(3):
        row = matrix.getrow(chain.state_index(4, i))
        assert row.nnz == 1
        assert row.data[0] == pytest.approx(1.0, abs=0)
        target_q = 3 if i == 1 else 4
        assert row.indices[0] == chain.state_index(target_q, (i + 1) % 3)


def test_md1k_structure():
    # a one-slot frame with a transmission slot is exactly M/D/1/K
    lam = 0.8
    chain = build_chain(3, 1, (0,), TrafficSpec((lam,), (0.0,)))
    p = chain.transition_matrix.toarray()
    pmf = [math.exp(-lam) * lam ** k / math.factorial(k) for k in range(5)]
    # from the empty queue: k arrivals, no departure possible
    assert p[0, 0] == pytest.approx(pmf[0], abs=1e-12)
    assert p[0, 1] == pytest.approx(pmf[1], abs=1e-12)
    assert p[0, 3] == pytest.approx(1 - pmf[0] - pmf[1] - pmf[2], abs=1e-12)
    # from one queued packet: departure plus k arrivals, room for two
    assert p[1, 0] == pytest.approx(pmf[0], abs=1e-12)
    assert p[1, 1] == pytest.approx(pmf[1], abs=1e-12)
    assert p[1, 2] == pytest.approx(1 - pmf[0] - pmf[1], abs=1e-12)
    # full queue: certain departure to K-1
    assert p[3, 2] == 1.0


def test_five_slot_state_graph_support():
    # anchor transitions of the two-transmission-slot example
    chain = build_chain(2, 5, (1, 4), TrafficSpec.constant(5, rate=0.3))
    p = chain.transition_matrix.toarray()
    idx = chain.state_index

    def targets(q, i):
        return {k for k in range(p.shape[1]) if p[idx(q, i), k] > 0}

    # idle slot, empty queue: arrivals accumulate
    assert targets(0, 0) == {idx(0, 1), idx(1, 1), idx(2, 1)}
    # transmission slot with empty queue: nothing to send
    assert targets(0, 1) == {idx(0, 2), idx(1, 2), idx(2, 2)}
    # transmission slot, one packet: departure and up to K-q arrivals
    assert targets(1, 1) == {idx(0, 2), idx(1, 2)}
    # full queue on a transmission slot: deterministic step down
    assert targets(2, 1) == {idx(1, 2)}
    # full queue on an idle slot: stays full
    assert targets(2, 0) == {idx(2, 1)}
    # wrap-around from the last slot (a transmission slot)
    assert targets(1, 4) == {idx(0, 0), idx(1, 0)}


def test_no_traffic_stays_empty():
    chain = build_chain(3, 4, (2,), TrafficSpec.constant(4))
    p = chain.transition_matrix.toarray()
    for i in range(4):
        row = p[chain.state_index(0, i)]
        assert row[chain.state_index(0, (i + 1) % 4)] == 1.0
        assert row.sum() == 1.0


def test_build_chain_validation():
    with pytest.raises(ModelError):
        build_chain(0, 3, (0,), TrafficSpec.constant(3))
    with pytest.raises(ModelError):
        build_chain(2, 3, (5,), TrafficSpec.constant(3))
    with pytest.raises(ModelError):
        build_chain(2, 3, (0,), TrafficSpec.constant(4))


@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=6),
       st.data())
@settings(max_examples=60, deadline=None)
def test_random_chains_are_stochastic(capacity, length, data):
    tx = data.draw(st.sets(st.integers(0, length - 1), max_size=length))
    rates = data.draw(st.lists(st.floats(0, 3), min_size=length, max_size=length))
    probs = data.draw(st.lists(st.floats(0, 1), min_size=length, max_size=length))
    chain = build_chain(capacity, length, tuple(sorted(tx)),
                        TrafficSpec(tuple(rates), tuple(probs)))
    sums = _row_sums(chain)
    assert np.abs(sums - 1.0).max() < 1e-12
    assert chain.transition_matrix.data.min() > 0


def _scalar_blocks(capacity, length, tx, traffic):
    """Reference chain built row by row from scalar ``arrival_pmf`` calls:
    from (q, i), k < K - q arrivals land on max(q - tau_i, 0) + k and the
    last reachable level absorbs the tail."""
    blocks = np.zeros((length, capacity + 1, capacity + 1))
    for i in range(length):
        pmf = [arrival_pmf(traffic, i, k) for k in range(capacity + 1)]
        tau = 1 if i in tx else 0
        for q in range(capacity + 1):
            base = max(q - tau, 0)
            room = capacity - q
            for k in range(room):
                blocks[i, q, base + k] = pmf[k]
            blocks[i, q, base + room] = max(0.0, 1.0 - math.fsum(pmf[:room]))
    return blocks


@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=6),
       st.data())
@settings(max_examples=60, deadline=None)
def test_blocks_match_scalar_reference(capacity, length, data):
    tx = tuple(sorted(data.draw(st.sets(st.integers(0, length - 1),
                                        max_size=length))))
    rates = data.draw(st.lists(st.floats(0, 3), min_size=length, max_size=length))
    probs = data.draw(st.lists(st.floats(0, 1), min_size=length, max_size=length))
    traffic = TrafficSpec(tuple(rates), tuple(probs))
    chain = build_chain(capacity, length, tx, traffic)
    reference = _scalar_blocks(capacity, length, tx, traffic)
    assert np.abs(chain.blocks - reference).max() <= 1e-12
    matrix = chain.transition_matrix.tocoo()
    assert matrix.data.min() > 0
    assert np.all(matrix.col % length == (matrix.row % length + 1) % length)
    dense = matrix.toarray()
    for i in range(length):
        block = dense[i::length, (i + 1) % length::length]
        assert np.abs(block - reference[i]).max() <= 1e-12
    assert np.abs(_row_sums(chain) - 1.0).max() <= 1e-12
