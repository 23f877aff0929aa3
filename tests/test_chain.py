import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import chain_cases, dense_matrix, node_fields, slot_blocks
from slotmesh import stationary
from slotmesh.queuemodel import (ModelError, TrafficSpec, _check_node,
                                 _check_variant, arrival_pmf, build_chain,
                                 evaluate_node)
from slotmesh.simulate import SimConfig, simulate_queue


def _row_sums(chain):
    return dense_matrix(chain).sum(axis=1)


def test_rows_sum_to_one():
    for capacity, length, tx, traffic in chain_cases():
        chain = build_chain(capacity, length, tx, traffic)
        assert np.abs(_row_sums(chain) - 1.0).max() < 1e-12


def test_transitions_only_to_next_slot():
    chain = build_chain(3, 5, (1, 4), TrafficSpec.constant(5, rate=0.4))
    count = chain.capacity + 1
    for j, k in zip(*np.nonzero(dense_matrix(chain))):
        assert k // count == (j // count + 1) % 5


def test_full_queue_single_transition():
    chain = build_chain(4, 3, (1,), TrafficSpec.constant(3, rate=0.7, prob=0.2))
    matrix = dense_matrix(chain)
    for i in range(3):
        row = matrix[chain.state_index(4, i)]
        assert np.count_nonzero(row) == 1
        target = np.flatnonzero(row)[0]
        assert row[target] == pytest.approx(1.0, abs=0)
        target_q = 3 if i == 1 else 4
        assert target == chain.state_index(target_q, (i + 1) % 3)


def test_md1k_structure():
    # a one-slot frame with a transmission slot is exactly M/D/1/K
    lam = 0.8
    chain = build_chain(3, 1, (0,), TrafficSpec((lam,), (0.0,)))
    p = dense_matrix(chain)
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
    p = dense_matrix(chain)
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
    p = dense_matrix(chain)
    for i in range(4):
        row = p[chain.state_index(0, i)]
        assert row[chain.state_index(0, (i + 1) % 4)] == 1.0
        assert row.sum() == 1.0


def test_chain_tables_are_read_only_and_blocks_derived():
    # a chain is its capped rows and departures; only the solver's walk
    # derives the blocks from the two, into a scratch buffer of its own in
    # which the return maps finish each Y_t, so writing to a block leaves
    # the chain as it was. The carry makes each slot block it reads
    # read-only, and the wrap-around residual reads the last one so
    for capacity, length, tx, traffic in chain_cases():
        chain = build_chain(capacity, length, tx, traffic)
        rows = chain.rows.copy()
        next(stationary._walk(chain.rows[None], chain.departures[None]))[...] = -1.0
        assert np.array_equal(chain.rows, rows)
        # the frame's blocks carried as one run, the first slot's
        walk = stationary._walk(chain.rows[None], chain.departures[None])
        walked = stationary._carry(np.ones((1, capacity + 1)), walk, [0, length])[2]
        for table in (chain.rows, chain.runs, chain.departures, walked):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0
        assert not hasattr(chain, "blocks")


def test_transmission_slots_are_one_read_only_mask():
    # the node check turns the slots into the boolean mask that every layer
    # reads as built, the chain's departures included
    rates, probs = TrafficSpec.constant(5, rate=0.3)._arrays()
    sends = _check_node(2, 5, [(1, 4)], rates, probs)
    assert sends.dtype == bool and not sends.flags.writeable
    assert sends.tolist() == [[False, True, False, False, True]]
    chain = build_chain(2, 5, (4, 1), TrafficSpec.constant(5, rate=0.3))
    assert chain.departures.dtype == bool
    assert np.array_equal(np.roll(chain.departures, chain.shift), sends[0])


def test_chain_is_held_in_its_frame_from_s():
    # shift is the slot after the last transmission slot; rolled by it,
    # the rows are each slot's capped row alone and the departures the
    # transmission mask, in slot order. Without transmission slots the
    # frame starts at slot 0, with the same slot rows
    for capacity, length, tx, traffic in chain_cases():
        chain = build_chain(capacity, length, tx, traffic)
        assert chain.shift == (max(tx) + 1) % length
        rates, probs = traffic._arrays()
        sends = _check_node(capacity, length, [tx], rates, probs)[0]
        assert np.array_equal(np.roll(chain.departures, chain.shift), sends)
        rows = np.roll(chain.rows, chain.shift, 0)
        alone = [build_chain(capacity, 1, (), TrafficSpec((rate,), (prob,))).rows[0]
                 for rate, prob in zip(traffic.poisson_rate, traffic.bernoulli_prob)]
        assert rows.tobytes() == np.array(alone).tobytes()
        quiet = build_chain(capacity, length, (), traffic)
        assert quiet.shift == 0 and quiet.rows.tobytes() == rows.tobytes()


@pytest.mark.parametrize("variant", ["full", "distributed", "md1k"])
@pytest.mark.parametrize("hops", [0, 1, 2])
def test_check_variant_is_the_variant_rule(variant, hops):
    # md1k has no slot structure to carry forwarded traffic: one hop at most
    if variant == "md1k" and hops > 1:
        with pytest.raises(ModelError, match="single-hop"):
            _check_variant(variant, hops)
    else:
        _check_variant(variant, hops)
    with pytest.raises(ModelError, match="unknown variant"):
        _check_variant(variant.upper(), hops)


def test_build_chain_validation():
    with pytest.raises(ModelError):
        build_chain(0, 3, (0,), TrafficSpec.constant(3))
    with pytest.raises(ModelError):
        build_chain(2, 3, (5,), TrafficSpec.constant(3))
    with pytest.raises(ModelError):
        build_chain(2, 3, (0,), TrafficSpec.constant(4))
    with pytest.raises(ModelError, match="slotframe_length"):
        build_chain(3, 0, (), TrafficSpec.constant(1))


# (capacity, slotframe_length, tx_slots) against traffic of 3 slots, each
# refused by the model and so, with the model's error, by the simulator
@pytest.mark.parametrize("node", [
    pytest.param((2, 3, (1.5,)), id="float_slot"),
    pytest.param((2, 3, ("1",)), id="string_slot"),
    pytest.param((2, 3, (True,)), id="bool_slot"),
    pytest.param((2, 3, (1, 1)), id="repeated_slot"),
    pytest.param((True, 3, (1,)), id="bool_capacity"),
    pytest.param((4.0, 3, (1,)), id="float_capacity"),
    pytest.param((2, 3.0, (1,)), id="float_length"),
    pytest.param((2, 3, (3,)), id="slot_outside_frame"),
    pytest.param((2, 3, (-1,)), id="negative_slot"),
    pytest.param((2, 3, (2 ** 70,)), id="slot_beyond_int64"),
    pytest.param((0, 3, (1,)), id="zero_capacity"),
    pytest.param((-2, 3, (1,)), id="negative_capacity"),
    pytest.param((4, 4, (1,)), id="traffic_length"),
])
def test_bad_node_inputs_raise_model_error(node):
    traffic = TrafficSpec.constant(3, rate=0.1)
    with pytest.raises(ModelError):
        build_chain(*node, traffic)
    for variant in ("full", "distributed", "md1k"):
        with pytest.raises(ModelError):
            evaluate_node(*node, traffic, variant=variant)
    with pytest.raises(ModelError):
        simulate_queue(*node, traffic, SimConfig(seed=0, runs=1, packets=10))


def test_numpy_integers_are_node_inputs():
    traffic = TrafficSpec.constant(3, rate=0.1)
    chain = build_chain(np.int64(2), np.int32(3), (np.int64(1),), traffic)
    want = build_chain(2, 3, (1,), traffic)
    for got, expected in ((chain.rows, want.rows), (chain.runs, want.runs),
                          (chain.departures, want.departures)):
        assert np.array_equal(got, expected)
    assert chain.shift == want.shift == 2
    assert (evaluate_node(np.int64(2), np.int64(3), [np.int16(1)], traffic)
            .acceptance == evaluate_node(2, 3, (1,), traffic).acceptance)


@pytest.mark.parametrize("bad, message", [
    (5, "tx slots 5 are not a collection"),
    ((1.5,), "tx slot 1.5 is not an integer"),
    ((0, np.int64(7)), r"tx slot 7 outside \[0, 7\)"),
    ((-1,), r"tx slot -1 outside \[0, 7\)"),
    ((2, 0, 2), r"tx slots \[2, 0, 2\] repeat a slot"),
])
def test_a_bad_chain_of_a_stack_is_named_by_its_position(bad, message):
    # the check names the first bad chain of the stack, here the second
    rates, probs = np.zeros((3, 7)), np.zeros((3, 7))
    with pytest.raises(ModelError, match=f"^{message}$") as caught:
        _check_node(4, 7, [(1,), bad, (2, 2)], rates, probs)
    assert caught.value.index == 1


def test_an_iterator_of_slots_is_read_once():
    # the check reads each chain's slots once, so a one-shot iterator
    # keeps them: the node is the node of its tuple, bit for bit
    traffic = TrafficSpec.constant(5, rate=0.1)
    for variant in ("full", "distributed", "md1k"):
        got = evaluate_node(4, 5, (x for x in [2]), traffic, variant=variant)
        want = evaluate_node(4, 5, (2,), traffic, variant=variant)
        assert node_fields(got) == node_fields(want)
    assert evaluate_node(4, 5, iter([2]), traffic).tx_probability[2] > 0
    chain = build_chain(4, 5, iter([2]), traffic)
    want = build_chain(4, 5, (2,), traffic)
    assert chain.shift == want.shift
    for got, expected in ((chain.rows, want.rows), (chain.runs, want.runs),
                          (chain.departures, want.departures)):
        assert got.tobytes() == expected.tobytes()
    config = SimConfig(seed=3, runs=2, packets=50)
    got = simulate_queue(4, 5, iter([2]), traffic, config)
    want = simulate_queue(4, 5, (2,), traffic, config)
    assert (got.acceptance, got.delay_slots, got.arrived, got.accepted) == (
        want.acceptance, want.delay_slots, want.arrived, want.accepted)
    assert np.array_equal(got.queue_histogram, want.queue_histogram)


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


def _scalar_blocks(capacity, length, tx, traffic):
    """Reference chain built row by row from the ``arrival_pmf`` table:
    from (q, i), k < K - q arrivals land on max(q - tau_i, 0) + k and the
    last reachable level absorbs the tail."""
    blocks = np.zeros((length, capacity + 1, capacity + 1))
    table = arrival_pmf(traffic.poisson_rate, traffic.bernoulli_prob,
                        capacity + 1)
    for i in range(length):
        pmf = list(table[i])
        tau = 1 if i in tx else 0
        for q in range(capacity + 1):
            base = max(q - tau, 0)
            room = capacity - q
            for k in range(room):
                blocks[i, q, base + k] = pmf[k]
            blocks[i, q, base + room] = max(0.0, 1.0 - math.fsum(pmf[:room]))
    return blocks


@given(st.integers(min_value=1, max_value=40),
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
    assert np.abs(slot_blocks(chain) - reference).max() <= 1e-12
    dense = dense_matrix(chain)
    rows, cols = np.nonzero(dense)
    count = capacity + 1
    assert np.all(cols // count == (rows // count + 1) % length)
    for i in range(length):
        col = (i + 1) % length * count
        block = dense[i * count:(i + 1) * count, col:col + count]
        assert np.abs(block - reference[i]).max() <= 1e-12
    assert np.abs(_row_sums(chain) - 1.0).max() <= 1e-12
