import gc
import hashlib
import itertools
import json
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse
from scipy.linalg import null_space
from scipy.sparse import csgraph

from conftest import (chain_cases, dense_matrix, node_fields, recorded,
                      slot_blocks)
from slotmesh import cli, stationary
from slotmesh.network import (NetworkModelError, NetworkScenario,
                              concentric_topology, evaluate_network)
from slotmesh import queuemodel
from slotmesh.queuemodel import (TrafficSpec, acceptance_probability,
                                 build_chain, evaluate_node)
from slotmesh.schedule import Schedule, Topology
from slotmesh.schedulers import generate
from slotmesh.stationary import StationaryError, solve


def dense_null_space_oracle(matrix, mask):
    """Independent stationary solve: null space of (I - P)^T on the pruned
    core, computed with an SVD-based dense routine."""
    sub = matrix[np.ix_(mask, mask)]
    ns = null_space(np.eye(sub.shape[0]) - sub.T)
    assert ns.shape[1] == 1, "solution space must be one-dimensional"
    vec = ns[:, 0]
    vec = vec * np.sign(vec.sum())
    full = np.zeros(matrix.shape[0])
    full[mask] = vec / vec.sum()
    return full


def closed_class_solution(matrix, start=0):
    """What the return-map path runs, on any row-stochastic matrix: the
    closed class that ``start`` reaches and its GTH solution, zero
    elsewhere, checked against the solver's residual bound."""
    mask = stationary._closed_class(matrix != 0, start)
    full = np.zeros(len(matrix))
    closed = matrix[np.ix_(mask, mask)]
    full[mask] = stationary._gth(closed[None], len(closed) - 1)[0]
    assert np.abs(full @ matrix - full).max() <= stationary.RESIDUAL_BOUND
    return full, mask


def test_two_state_symmetric_chain():
    distribution, _ = closed_class_solution(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert distribution == pytest.approx([0.5, 0.5], abs=1e-12)


def test_residual_definition():
    for capacity, length, tx, traffic in chain_cases():
        chain = build_chain(capacity, length, tx, traffic)
        res = solve(chain)
        c = res.distribution
        assert np.abs(c @ dense_matrix(chain) - c).max() <= 1e-10
        assert res.residual <= 1e-10
        assert c.sum() == pytest.approx(1.0, abs=1e-9)
        assert c.min() >= 0.0


def test_residual_matches_dense_definition(monkeypatch):
    # 1e-11 of the largest entry added to the top level at the frame start
    # leaves a residual of 2e-13 to 5e-12, well inside the bound and far
    # above the rounding noise, in every case: the top level is never
    # absorbing, though in (1, 3, (1,)) it is outside the closed class,
    # whose one state a spoil inside the class could only scale. The
    # residual must be max |c P - c| over the whole chain
    carry = stationary._carry

    def spoiled(first, blocks, length, level=None):
        first = first.copy()
        first[:, -1] += 1e-11 * first.max(axis=1)
        return carry(first, blocks, length, level)

    monkeypatch.setattr(stationary, "_carry", spoiled)
    for capacity, length, tx, traffic in chain_cases():
        chain = build_chain(capacity, length, tx, traffic)
        res = solve(chain)
        c = res.distribution
        want = np.abs(c @ dense_matrix(chain) - c).max()
        assert want > 1e-13, (capacity, length, tx)
        assert res.residual == pytest.approx(want, rel=1e-6, abs=0)


def test_reducible_chain_prunes_unreachable_state():
    # three slots, capacity one, forwarding only in slot 0 followed by a
    # transmission slot: a packet can never still be queued in slot 2
    traffic = TrafficSpec((0.0, 0.0, 0.0), (0.5, 0.0, 0.0))
    chain = build_chain(1, 3, (1,), traffic)
    res = solve(chain)
    assert not res.reachable[chain.state_index(1, 2)]
    assert res.distribution[chain.state_index(1, 2)] == 0.0
    assert res.residual <= 1e-10


def test_fully_loaded_chain_is_irreducible():
    chain = build_chain(3, 4, (2,), TrafficSpec.constant(4, rate=0.5))
    assert solve(chain).reachable.all()


def test_md1k_chain_all_reachable():
    chain = build_chain(5, 1, (0,), TrafficSpec((0.6,), (0.0,)))
    assert solve(chain).reachable.all()


def test_solve_and_closed_class_gth_match_null_space():
    for capacity, length, tx, traffic in chain_cases():
        chain = build_chain(capacity, length, tx, traffic)
        res = solve(chain)
        mask = res.reachable
        dense = dense_matrix(chain)
        oracle = dense_null_space_oracle(dense, mask)
        for distribution, reachable in ((res.distribution, res.reachable),
                                        closed_class_solution(dense)):
            assert np.abs(distribution - oracle).max() < 1e-8
            assert np.array_equal(reachable, mask)


def test_pruned_mass_exactly_zero():
    traffic = TrafficSpec((0.0, 0.0, 0.0), (0.5, 0.0, 0.0))
    chain = build_chain(1, 3, (1,), traffic)
    res = solve(chain)
    pruned = ~res.reachable
    assert np.all(res.distribution[pruned] == 0.0)


def test_solution_invariant_under_permutation():
    chain = build_chain(4, 3, (0, 2), TrafficSpec.constant(3, rate=0.4, prob=0.1))
    matrix = dense_matrix(chain)
    rng = np.random.default_rng(5)
    perm = rng.permutation(matrix.shape[0])
    inv = np.argsort(perm)
    permuted = matrix[np.ix_(perm, perm)]
    base, _ = closed_class_solution(matrix, start=0)
    shuffled, _ = closed_class_solution(permuted, start=int(inv[0]))
    assert np.abs(shuffled[inv] - base).max() < 1e-10


def test_unclosed_core_raises():
    # a chain whose start state is transient: everything funnels into a
    # closed pair that never returns to the start and carries all the mass
    p = np.array([
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 1.0, 0.0],
    ])
    distribution, _ = closed_class_solution(p)
    assert distribution == pytest.approx([0.0, 0.5, 0.5], abs=1e-12)
    assert distribution[0] == 0.0
    # a stored zero is not an edge: 2 -> 0 does not close the loop
    stored = sparse.csr_matrix(
        ([1.0, 1.0, 1.0, 0.0], ([0, 1, 2, 2], [1, 2, 1, 0])), shape=(3, 3))
    assert stored.nnz == 4
    assert np.array_equal(closed_class_solution(stored.toarray())[0],
                          distribution)
    # the start splits between two absorbing states: no unique answer
    split = np.array([
        [0.0, 0.5, 0.5],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ])
    with pytest.raises(StationaryError):
        closed_class_solution(split)


def test_inexact_solution_fails_residual_check(monkeypatch):
    chain = build_chain(6, 4, (1,), TrafficSpec.constant(4, rate=0.3))
    exact = stationary._gth

    def perturbed(dense, lower):
        return exact(dense, lower) * np.linspace(0.9, 1.1, dense.shape[-1])

    monkeypatch.setattr(stationary, "_gth", perturbed)
    with pytest.raises(StationaryError, match="residual"):
        solve(chain)


def test_mixed_stack_matches_single_solves():
    # the always-full queue leaves level 0 for good, the light-load chains
    # visit every level: one stack, two closed classes
    chains = [build_chain(2, 3, (2,), TrafficSpec((0, 0, 0), (1, 1, 0))),
              build_chain(2, 3, (2,), TrafficSpec.constant(3, rate=0.05)),
              build_chain(2, 3, (0, 1), TrafficSpec.constant(3, rate=0.1, prob=0.2)),
              build_chain(2, 3, (1,), TrafficSpec((0.0, 0.02, 0.0), (0.3, 0.0, 0.0)))]
    grids, residuals, _ = stationary._solve_stack(*stacked(chains))
    grids = in_slot_order(grids, chains)
    classes = {tuple(solve(chain).reachable) for chain in chains}
    assert len(classes) > 1
    for chain, grid, residual in zip(chains, grids, residuals):
        single = solve(chain)
        assert np.array_equal(grid.ravel(), single.distribution)
        assert residual == single.residual
        assert np.all(grid.ravel()[~single.reachable] == 0.0)


def stacked(chains):
    """The capped rows, factor rows and departures of separately built
    chains with the same S and K as one stack, each in its frame from s as
    the chain holds it; a chain with fewer transmission slots gets factor
    rows of no arrivals."""
    runs = np.zeros((len(chains), max(len(chain.runs) for chain in chains),
                     3, chains[0].capacity + 1))
    runs[..., 0] = 1.0
    for b, chain in enumerate(chains):
        runs[b, :len(chain.runs)] = chain.runs
    return (np.stack([chain.rows for chain in chains]), runs,
            np.stack([chain.departures for chain in chains]))


def in_slot_order(grids, chains):
    """The ``(B, S, K + 1)`` frame-order grids that
    :func:`stationary._solve_stack` gives for :func:`stacked` chains, each
    rolled to its chain's slot order."""
    return np.array([np.roll(grid, chain.shift, 0)
                     for grid, chain in zip(grids, chains)])


def level_stack(rings, algorithm, capacity, rate, depth=-1):
    """The capped rows, factor rows and departures of the level at
    ``depth`` of a concentric network, the outer one by default, with the
    traffic its children forward."""
    topo = concentric_topology(rings)
    sched = generate(algorithm, topo)
    result = evaluate_network(NetworkScenario(
        schedule=sched, topology=topo, generation_rate=rate,
        queue_capacity=capacity))
    level = topo.levels[depth]
    rates = [[rate] * sched.slotframe_length] * len(level)
    return stack_rows(capacity, [sched.tx_slots[n] for n in level], rates,
                      result.rx_probability[list(level)])


def test_slot_blocks_are_built_in_chunks(monkeypatch):
    # one walk builds every block of a solve: a stack within the byte
    # budget in one call, its factor blocks and its runs of equal slots
    # together; a larger one in chunks, none above the budget unless it is
    # a single block, into one buffer no larger than a chunk or two
    # blocks. The ta-mc relays are distinct chains, and the slots in which
    # they receive break their frames into several runs
    rows, runs, tau = level_stack(2, "ta-mc", 16, 0.01, depth=1)
    calls = []
    capped_blocks_of = stationary._capped_blocks

    def counted(rows, tau, out=None):
        blocks = capped_blocks_of(rows, tau, out)
        calls.append((blocks.shape[1], blocks.nbytes))
        assert out.base.nbytes <= max(stationary._CHUNK_BYTES,
                                      2 * blocks[:, :1].nbytes)
        return blocks

    monkeypatch.setattr(stationary, "_capped_blocks", counted)
    stationary._solve_stack(rows, runs, tau)
    assert len(calls) == 1
    assert 2 * runs.shape[1] + 1 < calls[0][0] < 2 * runs.shape[1] + rows.shape[1]
    for capacity, length in ((128, 19), (512, 19)):
        # every slot a run of its own: neighbouring rates differ
        traffic = TrafficSpec(tuple(0.04 + 0.02 * (i % 2) for i in range(length)),
                              (0.0,) * length)
        chain = build_chain(capacity, length, (0,), traffic)
        calls.clear()
        stationary._solve_stack(*stacked([chain]))
        assert len(calls) > 1
        assert all(nbytes <= stationary._CHUNK_BYTES or slots == 1
                   for slots, nbytes in calls)
        assert sum(slots for slots, _ in calls) == 2 + length


def test_each_slot_block_is_built_once_per_solve(monkeypatch):
    # over the chunk budget (K = 512, S = 19) the walk builds the two
    # blocks of each of the return map's T factors, then one block per
    # run of equal slots of the frame from s, for the carry: no quiet run
    # is composed slot by slot. solve carries the closed class in the same
    # walk as the grid. Under a uniform load one transmission slot makes
    # two runs, a quiet run and the slot; two make four; none makes one
    built = []
    capped_blocks_of = stationary._capped_blocks

    def counted(rows, sends, out=None):
        built.append(rows.shape[1:-1])
        return capped_blocks_of(rows, sends, out)

    monkeypatch.setattr(stationary, "_capped_blocks", counted)
    traffic = TrafficSpec.constant(19, rate=0.95 / 19)
    for tx_slots, runs in (((0,), 2), ((3, 11), 4), ((), 1)):
        chain = build_chain(512, 19, tx_slots, traffic)
        for solved in (lambda: stationary._solve_stack(*stacked([chain])),
                       lambda: solve(chain)):
            built.clear()
            solved()
            # one block per chunk
            assert all(shape[0] == 1 for shape in built)
            assert (sum(map(np.prod, built))
                    == runs + 2 * max(len(tx_slots), 1))


def chunk_budget(budget, stack):
    """``_CHUNK_BYTES`` for a stack's walk: ``budget`` bytes as given, or
    a chunk of the stack's blocks: ``"factors"`` ends the first chunk with
    the last factor block, ``"mixed"`` puts every factor block and the
    first run's block in it."""
    rows, runs, _ = stack
    block = rows[:, :1].nbytes * rows.shape[-1]
    factors = 2 * runs.shape[1]
    return {"factors": factors * block,
            "mixed": (factors + 1) * block}.get(budget, budget)


# one block per chunk, 100 kB chunks, and chunks that end at the last
# factor block or hold both kinds
@pytest.mark.parametrize("budget", [0, 100_000, "factors", "mixed"])
def test_chunks_give_the_bits_of_the_whole_stack(monkeypatch, budget):
    chains = [build_chain(*case) for case in chain_cases()]
    stacks = [stacked([chain]) for chain in chains]
    stacks.append(level_stack(2, "ta-mc", 16, 0.03))
    whole = [stationary._solve_stack(*stack) for stack in stacks]
    solved = [solve(chain) for chain in chains]
    for stack, want in zip(stacks, whole):
        monkeypatch.setattr(stationary, "_CHUNK_BYTES", chunk_budget(budget, stack))
        for got, expected in zip(stationary._solve_stack(*stack), want):
            assert np.array_equal(got, expected)
    for chain, stack, want in zip(chains, stacks, solved):
        monkeypatch.setattr(stationary, "_CHUNK_BYTES", chunk_budget(budget, stack))
        got = solve(chain)
        assert np.array_equal(got.distribution, want.distribution)
        assert got.residual == want.residual
        assert np.array_equal(got.reachable, want.reachable)


def test_large_capacity_solve_stays_small():
    # the solver ladder's K = 512 node, and one with ten transmission
    # slots: its 19 slot blocks take 40 MB, its 20 factor blocks 42 MB, and
    # the solve holds a few of them at a time
    traffic = TrafficSpec.constant(19, rate=0.95 / 19)
    for tx_slots in ((0,), tuple(range(0, 19, 2))):
        tracemalloc.start()
        try:
            evaluate_node(512, 19, tx_slots, traffic)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 17 * 2**20, tx_slots


def test_perturbed_chain_names_its_node(monkeypatch):
    # spoil one chain of the relay level's stack: the error names its node.
    # In their frames from s the relays' chains are all one chain, so a
    # lossy link from a child sets the target's traffic apart
    topo = concentric_topology(2)
    sched = generate("sbd", topo)
    length, capacity, rate, target = sched.slotframe_length, 6, 0.06, 3
    scenario = NetworkScenario(schedule=sched, topology=topo,
                               generation_rate=rate, queue_capacity=capacity,
                               link_per={(11, target): 0.2})
    traffic = TrafficSpec((rate,) * length,
                          tuple(evaluate_network(scenario).rx_probability[target]))
    chain = build_chain(capacity, length, sched.tx_slots[target], traffic)
    # the return map at the frame start s, on its closed class there
    _, runs, tau = stacked([chain])
    level = solve(chain).reachable.reshape(length, capacity + 1)[chain.shift]
    frame_map = return_maps(runs, tau)[0][np.ix_(level, level)]
    exact = stationary._gth

    def perturbed(dense, lower):
        x = exact(dense, lower)
        for b, matrix in enumerate(dense):
            if matrix.shape == frame_map.shape and np.array_equal(matrix, frame_map):
                x[b] *= np.linspace(0.9, 1.1, x.shape[1])
        return x

    monkeypatch.setattr(stationary, "_gth", perturbed)
    with pytest.raises(NetworkModelError, match=f"^node {target}: residual"):
        evaluate_network(scenario)


def test_failed_md1k_chain_names_its_node(monkeypatch):
    # under md1k the level collapses to one stack of nodes 1-4. At rate 0
    # it is two distinct chains, one without tx slots (nodes 1, 2 and 4)
    # and one with (node 3 alone), solved in the order of their first
    # nodes; spoiling the second must name node 3
    topo = Topology(5, frozenset({(0, n) for n in range(1, 5)}),
                    (None, 0, 0, 0, 0))
    sched = Schedule(node_count=5, slotframe_length=4,
                     tx_slots=((), (), (), (2,), ()),
                     rx_slots=((2,), (), (), (), ()),
                     counterpart=({2: 3}, {}, {}, {2: 0}, {}),
                     channel=({2: 11}, {}, {}, {2: 11}, {}))
    exact = stationary._gth
    taken = []

    def spoiled(dense, lower):
        taken.append(len(dense))
        x = exact(dense, lower)
        if len(x) == 2:
            x[1] = np.nan
        return x

    monkeypatch.setattr(stationary, "_gth", spoiled)
    with pytest.raises(NetworkModelError, match="^node 3: residual"):
        evaluate_network(NetworkScenario(schedule=sched, topology=topo,
                                         generation_rate=0.0, queue_capacity=3),
                         variant="md1k")
    assert taken == [2]


def _assert_matches_oracle(chain):
    res = solve(chain)
    oracle = dense_null_space_oracle(dense_matrix(chain), res.reachable)
    assert res.residual <= 1e-10
    assert np.abs(res.distribution - oracle).max() <= 1e-8


def test_one_tx_slot_chain_matches_null_space():
    _assert_matches_oracle(
        build_chain(6, 4, (1,), TrafficSpec.constant(4, rate=0.3)))


def test_two_slot_chain_matches_null_space():
    _assert_matches_oracle(
        build_chain(3, 2, (0,), TrafficSpec.constant(2, rate=0.5)))


def test_always_full_queue_has_transient_empty_state():
    # two forced arrivals per frame and one departure: the queue is full
    # after slot 0, level 0 is left at once and never entered again
    traffic = TrafficSpec((0, 0, 0), (1, 1, 0))
    metrics = evaluate_node(2, 3, (2,), traffic)
    assert metrics.acceptance == pytest.approx(0.5, abs=1e-12)
    assert metrics.expected_delay_slots == pytest.approx(6.0, abs=1e-12)
    chain = build_chain(2, 3, (2,), traffic)
    assert not solve(chain).reachable[chain.state_index(0, 0)]


def test_critical_load_large_capacity():
    length = 19
    traffic = TrafficSpec.constant(length, rate=1.0 / length)
    chain = build_chain(256, length, (0,), traffic)
    res = solve(chain)
    assert res.residual <= 1e-10
    # independent answer: c F = c with one equation replaced by sum(c) = 1
    frame_map, blocks = np.eye(chain.capacity + 1), slot_blocks(chain)
    for block in blocks:
        frame_map = frame_map @ block
    a = (np.eye(chain.capacity + 1) - frame_map).T
    a[-1, :] = 1.0
    b = np.zeros(chain.capacity + 1)
    b[-1] = 1.0
    grid = np.zeros((length, chain.capacity + 1))
    grid[0] = np.linalg.solve(a, b)
    for i in range(length - 1):
        grid[i + 1] = grid[i] @ blocks[i]
    offered = queuemodel._offered(*traffic._arrays())
    rows = np.roll(chain.rows, chain.shift, 0)
    want = acceptance_probability(grid[None] / length, rows[None], offered)[0]
    assert evaluate_node(256, length, (0,), traffic).acceptance == pytest.approx(
        want, abs=1e-8)


def test_critical_load_capacity_1024(monkeypatch):
    # the solver ladder's near-critical node at four times its largest K,
    # in one evaluate_node call
    residuals = []
    solve_stack = stationary._solve_stack

    def recorded(rows, runs, tau):
        grid, residual, level = solve_stack(rows, runs, tau)
        residuals.append(residual)
        return grid, residual, level

    monkeypatch.setattr(stationary, "_solve_stack", recorded)
    metrics = evaluate_node(1024, 19, (0,), TrafficSpec.constant(19, rate=1 / 19))
    assert len(residuals) == 1
    assert residuals[0].max() <= stationary.RESIDUAL_BOUND
    assert metrics.acceptance == pytest.approx(0.99951185256, abs=1e-9)


def return_maps(runs, tau):
    """The return maps at s of a stack given as its factor rows and
    departures, from the walk of its factor blocks alone."""
    return stationary._return_maps(
        runs, stationary._walk(*stationary._factors(runs, tau)))


def plain_return_map(blocks):
    """The product of a chain's blocks in the order given: its return map
    at the first block's slot when they are a whole frame."""
    frame_map = np.eye(blocks.shape[-1])
    for block in blocks:
        frame_map = frame_map @ block
    return frame_map


def frame_inputs(capacity, tx_slots, rates, probs):
    """The ``(B, S)`` departures, Poisson rates and Bernoulli
    probabilities of a stack of chains, each in its frame from s."""
    rates, probs = np.array(rates, dtype=float), np.array(probs, dtype=float)
    tau = queuemodel._check_node(capacity, len(rates[0]), tx_slots, rates, probs)
    frame = queuemodel._rotation(tau)[0]
    return tuple(np.take_along_axis(x, frame, axis=1) for x in (tau, rates, probs))


def stack_rows(capacity, tx_slots, rates, probs):
    """The ``(B, S, K + 1)`` capped arrival rows, ``(B, T, 3, K + 1)``
    factor rows and ``(B, S)`` departures of a stack of chains, built in
    each chain's frame from s, as every stack is."""
    tau, rates, probs = frame_inputs(capacity, tx_slots, rates, probs)
    return (*queuemodel._capped_rows(capacity, tau, rates, probs), tau)


@st.composite
def chain_stacks(draw, max_length=8, max_capacity=12):
    """Stacks of chains that share S and K, each with its own transmission
    slots (none, one or several, anywhere in the slotframe), Poisson rates
    that can be zero and Bernoulli probabilities that can be one."""
    length = draw(st.integers(min_value=1, max_value=max_length))
    capacity = draw(st.integers(min_value=1, max_value=max_capacity))
    chains = draw(st.integers(min_value=1, max_value=4))
    slots = st.integers(min_value=0, max_value=length - 1)
    rate = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0))
    prob = st.one_of(st.just(0.0), st.just(1.0),
                     st.floats(min_value=0.0, max_value=1.0))
    return (capacity,
            [sorted(draw(st.sets(slots))) for _ in range(chains)],
            [[draw(rate) for _ in range(length)] for _ in range(chains)],
            [[draw(prob) for _ in range(length)] for _ in range(chains)])


@given(chain_stacks(max_capacity=64))
# slot 0, slot S - 1, adjacent slots, every slot and none, in one stack
@example((6, [[0], [4], [1, 2], [0, 1, 2, 3, 4], [], [0, 4]],
          [[0.3] * 5] * 6, [[0.0] * 5] * 6))
# zero rates with certain forwarding, and a quiet run of certain arrivals
@example((3, [[2], [0, 3]], [[0.0] * 4, [0.0, 0.5, 0.0, 0.0]],
          [[1.0, 1.0, 0.0, 1.0], [1.0] * 4]))
@example((4, [[0]], [[0.2]], [[0.0]]))  # a one-slot frame
@example((2, [[], []], [[0.1, 0.0]] * 2, [[0.0, 1.0]] * 2))  # no sender
# arrivals and taps in the transmission slots, runs of none, K = 64
@example((64, [[1, 5, 6], [7], []], [[0.9, 0.4, 0.0, 0.0, 1.3, 0.2, 0.0, 0.5]] * 3,
          [[0.0, 0.7, 0.0, 1.0, 0.0, 0.3, 0.6, 0.0]] * 3))
@settings(max_examples=150, deadline=None)
def test_return_map_matches_block_product(case):
    # run-then-send factors against the slot blocks taken from s
    rows, runs, tau = stack_rows(*case)
    blocks = stationary._capped_blocks(rows, tau)
    built = return_maps(runs, tau)
    # chunks of one block each, every one built over the last
    with mock.patch.object(stationary, "_CHUNK_BYTES", 0):
        assert np.array_equal(built, return_maps(runs, tau))
    # the bits of factors whose X_t is the slot block of their
    # transmission slot, and the identity past a chain's last
    chains, width, _, count = runs.shape
    sending = tau.sum(axis=1)[:, None] > np.arange(width)
    tx = np.argsort(tau == 0, axis=1, kind="stable")  # tx slots first
    want = None
    for t in range(width):
        send = np.where(sending[:, t, None, None],
                        blocks[np.arange(chains), tx[:, t]], np.eye(count))
        factor = stationary._capped_blocks(runs[:, t, 1], sending[:, t])
        factor[:, :1] = np.matmul(runs[:, t, :1], send)
        want = factor if want is None else np.matmul(want, factor)
    assert np.array_equal(built, want)
    for chain_blocks, frame_map in zip(blocks, built):
        assert np.abs(frame_map - plain_return_map(chain_blocks)).max() <= 1e-13


@given(chain_stacks())
@settings(max_examples=100, deadline=None)
def test_transmission_blocks_are_shifted_quiet_blocks(case):
    # a packet leaving first moves rows q >= 1 of the quiet block one
    # column to the left, bit for bit
    rows, _, tau = stack_rows(*case)
    quiet = stationary._capped_blocks(rows, np.zeros(tau.shape, dtype=bool))
    want = quiet.copy()
    for b, i in zip(*np.nonzero(tau)):
        want[b, i, 1:, :-1] = quiet[b, i, 1:, 1:]
        want[b, i, 1:, -1] = 0.0
    assert np.array_equal(stationary._capped_blocks(rows, tau), want)


def factor_slots(tau):
    """The slots of each factor of one chain in its frame from s, in frame
    order: a quiet run and, last, the transmission slot that ends it; the
    whole frame without transmission slots."""
    factors = [[]]
    for i in queuemodel._rotation(np.asarray(tau)[None])[0][0]:
        factors[-1].append(int(i))
        if tau[i]:
            factors.append([])
    return factors[:-1] if len(factors) > 1 else factors


def long_double_run_row(rates, probs, capacity):
    """A quiet run's capped arrival row in long double: the Poisson pmf of
    the run's rates summed directly, one Bernoulli packet per slot
    composed onto it, then entry K summed over the tail from the top."""
    lam = np.longdouble(0)
    for rate in rates:
        lam += np.longdouble(rate)
    k = np.arange(capacity + 1 + 200 + len(probs))
    pmf = np.zeros(len(k), dtype=np.longdouble)
    if lam == 0:
        pmf[0] = 1
    else:
        log_factorial = np.concatenate(
            ([0], np.cumsum(np.log(k[1:].astype(np.longdouble)))))
        pmf[:] = np.exp(k * np.log(lam) - log_factorial - lam)
    for p in map(np.longdouble, probs):
        pmf[1:] = (1 - p) * pmf[1:] + p * pmf[:-1]
        pmf[0] *= 1 - p
    row = pmf[:capacity + 1].copy()
    row[-1] = pmf[capacity:][::-1].sum()
    return row


@given(chain_stacks(max_length=10, max_capacity=64))
# several taps per run, certain ones among them, and empty runs
@example((64, [[0, 5], [], [9], [1, 2]], [[0.3] * 10] * 4,
          [[1.0, 0.5, 0.0, 1.0, 0.2, 0.0, 0.7, 0.7, 0.1, 0.0]] * 4))
@example((5, [[3], [0, 1, 2]], [[0.0] * 4] * 2, [[0.4, 1.0, 0.9, 1.0]] * 2))
@example((1, [[0]], [[0.0]], [[1.0]]))  # a one-slot frame, K = 1
@example((64, [[]], [[2.0]], [[0.5]]))  # a one-slot frame, K = 64
@settings(max_examples=150, deadline=None)
def test_run_rows_match_slot_composition(case):
    # row 0 of a factor holds the arrivals of its quiet run, row 1 those of
    # the run and its transmission slot, row 2 those of the slot alone, all
    # read in each chain's frame from s
    capacity = case[0]
    rows, runs, tau = stack_rows(*case)
    _, rates, probs = frame_inputs(*case)
    # no packet leaves
    arrivals = stationary._capped_blocks(rows, np.zeros(tau.shape, dtype=bool))
    assert runs.shape[1] == max(tau.sum(axis=1).max(), 1)
    for b, chain_runs in enumerate(runs):
        slots = factor_slots(tau[b])
        for t, factor in enumerate(chain_runs):
            # factors past a chain's last are empty
            merged = slots[t] if t < len(slots) else []
            sent = bool(merged) and tau[b, merged[-1]] != 0
            alone = merged[:-1] if sent else merged
            # the slot row's bits, or the row of no arrivals
            own = rows[b, merged[-1]] if sent else np.eye(1, capacity + 1)[0]
            assert np.array_equal(factor[2], own)
            for row, members in zip(factor, (alone, merged)):
                # row 0 of the slots' block product, the identity if empty
                composed = plain_return_map(arrivals[b, members])[0]
                assert np.abs(row - composed).max() <= 1e-13
                want = long_double_run_row([rates[b][i] for i in members],
                                           [probs[b][i] for i in members],
                                           capacity)
                big = want >= 1e-250
                assert np.all(np.abs(row[big] - want[big])
                              <= 1e-12 * want[big])


def dense_gth(matrix):
    """GTH elimination over all columns, as the solver did before it used
    the band: each eliminated row scaled by its sum. The reference for the
    banded elimination, with the solver's back-substitution written out
    for one matrix: a block of 32 states at a time, from the share of the
    states above it, through ``(I + u)(I + u^2)...`` on the block's
    strictly upper square over the pivot sums, the rows and columns scaled
    by powers of two."""
    a = np.array(matrix, dtype=float)
    n = len(a)
    sums = np.ones(n)
    for k in range(n - 1, 0, -1):
        sums[k] = a[k, :k].sum()
        a[k, :k] /= sums[k]
        a[:k, :k] += a[:k, k, None] * a[None, k, :k]
    x = np.zeros(n)
    x[0] = 1.0
    for low in range(1, n, 32):
        high = min(low + 32, n)
        c = (x[:low] @ a[:low, low:high]) / sums[low:high]
        u = np.triu(a[low:high, low:high] / sums[low:high], 1)
        grow = np.cumsum(np.maximum(np.frexp(u.max(axis=0))[1], 0))
        shift = np.frexp(c.max())[1] + grow
        u = np.ldexp(u, grow[:, None] - grow[None, :])
        r = np.ldexp(c, -shift)
        power = 1
        while True:
            r = r + r @ u
            power *= 2
            if power >= high - low:
                break
            u = u @ u
        mantissa, exponent = np.frexp(r)
        top = max([0, *(exponent + shift)[mantissa > 0]])
        x[:low] = np.ldexp(x[:low], -top)
        x[low:high] = np.ldexp(r, shift - top)
        x[:high] /= x[:high].sum()
    return x


@st.composite
def banded_matrices(draw, max_states=30, max_width=None):
    """Irreducible stochastic matrices that move at most ``L`` states
    down, ``L`` from 1 to ``n - 1`` (or ``max_width``), with random zeros
    above the band's first subdiagonal."""
    n = draw(st.integers(min_value=2, max_value=max_states))
    width = draw(st.integers(min_value=1, max_value=min(n - 1, max_width or n)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    levels = np.arange(n)
    down = levels[:, None] - levels
    matrix = rng.random((n, n)) * (rng.random((n, n)) < 0.7) * (down <= width)
    matrix[levels[1:], levels[:-1]] += 0.1  # every state can move down one
    matrix[levels[:-1], levels[1:]] += 0.1  # and up one
    return matrix / matrix.sum(axis=1, keepdims=True), width


@given(banded_matrices())
@settings(max_examples=100, deadline=None)
def test_banded_gth_matches_dense_elimination(case):
    matrix, width = case
    x = stationary._gth(matrix[None], width)[0]
    # the entries the band leaves out are exact zeros: the same bits
    assert np.array_equal(x, dense_gth(matrix))
    a = (np.eye(len(matrix)) - matrix).T
    a[-1] = 1.0
    b = np.zeros(len(matrix))
    b[-1] = 1.0
    assert x == pytest.approx(np.linalg.solve(a, b), rel=1e-9, abs=1e-15)


@given(banded_matrices(max_states=100))
@settings(max_examples=100, deadline=None)
def test_blocked_back_substitution_matches_dense_gth(case):
    # several blocks of 32 states, the last one often partial; the
    # np.linalg.solve reference above loses the smallest entries of such
    # matrices, so the bits alone are compared
    matrix, width = case
    assert np.array_equal(stationary._gth(matrix[None], width)[0],
                          dense_gth(matrix))


@given(banded_matrices(max_states=100, max_width=1))
@settings(max_examples=50, deadline=None)
def test_band_one_gth_reads_only_entries_it_writes(case):
    # the band-one path accumulates only where the back-substitution
    # reads; with every other entry of the array it fills NaN, a read
    # elsewhere shows, as NaN times the zeros of _UPPER is NaN
    matrix, _ = case
    with mock.patch.object(np, "empty", lambda shape: np.full(shape, np.nan)):
        x = stationary._gth(matrix[None], 1)[0]
    assert np.array_equal(x, dense_gth(matrix))


@given(banded_matrices(), st.data())
@settings(max_examples=100, deadline=None)
def test_wider_gth_band_gives_the_same_bits(case, data):
    # the solver's band is the widest transmission count of the stack, at
    # least the true one; the entries it adds are exact zeros
    matrix, width = case
    wider = data.draw(st.integers(min_value=width, max_value=len(matrix) + 2))
    want = stationary._gth(matrix[None], width)
    assert np.array_equal(stationary._gth(matrix[None], wider), want)


# transmission slots 0 and 2 around a run without arrivals, and adjacent
# ones: at K = 300 each factor block is a chunk of its own, Y_t built
# into the buffer over X_t, and the next X_t over the first factor
@pytest.mark.parametrize("tx", [(0, 2), (0, 1)])
def test_factors_in_one_slot_chunks_match_dense_solve(tx):
    chain = build_chain(300, 4, tx, TrafficSpec((0.5, 0, 0.1, 0), (0,) * 4))
    assert stationary._chunk_slots(chain.rows[None]) == 1
    rows, runs, tau = stacked([chain])
    frame_map = return_maps(runs, tau)[0]
    want = plain_return_map(stationary._capped_blocks(rows, tau)[0])
    assert np.abs(frame_map - want).max() <= 1e-13
    matrix = dense_matrix(chain)
    res = solve(chain)
    assert np.abs(res.distribution
                  - dense_null_space_oracle(matrix, res.reachable)).max() <= 1e-10


# (tx slots, shift, even): one transmission slot, none, adjacent ones,
# every slot and ten; then a byte-equal copy, the first chain's pattern six
# and three slots earlier (the forwarding pattern repeats every three
# slots) and one slot earlier with its forwarding moved along, all equal to
# the first chain in their frames from s. Last, uneven rates, and the same
# two slots later: equal inputs in their frames from s, so built there they
# get the same rows too. Built from their slot order, the two summed a
# factor's rates in different orders and counted an eighth set of rows
SHARED_STACK = [([5], 0, True), ([], 0, True), ([0, 1], 0, True),
                (list(range(12)), 0, True),
                ([1, 2, 3, 4, 5, 6, 7, 8, 9, 11], 0, True), ([11], 0, True),
                ([3, 7], 0, True), ([3, 7], 0, True), ([2], 0, True),
                ([4], -1, True), ([5], 0, False), ([7], 2, False)]


def shared_stack(capacity=20):
    """The stack of twelve-slot chains of :data:`SHARED_STACK`, built in
    each chain's frame from s, its ``(K, tx slots, rates, probs)`` in slot
    order and its number of chains whose rows differ."""
    length = 12
    tx_slots, rates, probs = [], [], []
    for slots, shift, even in SHARED_STACK:
        tx_slots.append(slots)
        rates.append([0.06 * (1 + (not even) * 0.1 * ((i - shift) % length % 5))
                      for i in range(length)])
        probs.append([0.2 * ((i - shift) % 3 == 0) for i in range(length)])
    stack = stack_rows(capacity, tx_slots, rates, probs)
    rows, _, tau = stack
    keys = {tuple(x.tobytes() for x in chain) for chain in zip(*stack)}
    assert np.array_equal(rows[-1], rows[-2]) and np.array_equal(tau[-1], tau[-2])
    return stack, (capacity, tx_slots, rates, probs), len(keys)


def evaluate_stack(capacity, tx_slots, rates, probs, solved=None):
    """The node metrics of a stack of chains, given as :func:`stack_rows`
    takes it, from :func:`slotmesh.queuemodel._evaluate_stack` with the
    memo ``solved``, by way of the ``full`` variant."""
    rates, probs = np.array(rates, dtype=float), np.array(probs, dtype=float)
    return queuemodel._variant_stack("full", capacity, len(rates[0]), tx_slots,
                                     rates, probs, solved)


def test_stacked_chain_solves_as_alone():
    # the stack pads every chain to ten transmission factors and solves it
    # in a band of ten levels; alone, a chain has its own factors and band
    stack, (capacity, tx_slots, rates, probs), distinct = shared_stack()
    assert distinct == 7
    grids, residuals, levels = stationary._solve_stack(*stack)
    for b in range(len(tx_slots)):
        grid, residual, level = stationary._solve_stack(*stack_rows(
            capacity, tx_slots[b:b + 1], rates[b:b + 1], probs[b:b + 1]))
        assert np.array_equal(grids[b], grid[0])
        assert residuals[b] == residual[0]
        assert np.array_equal(levels[b], level[0])


def test_each_distinct_chain_is_solved_once(monkeypatch):
    # the rows, the return maps and GTH see one chain per distinct chain of
    # the stack, keyed on its inputs in its frame from s: seven, as many as
    # the stack built in those frames has sets of rows
    stack, inputs, distinct = shared_stack()
    assert distinct == 7
    seen = {"rows": recorded(monkeypatch, queuemodel, "_capped_rows", 1),
            "maps": recorded(monkeypatch, stationary, "_return_maps"),
            "gth": recorded(monkeypatch, stationary, "_gth")}
    evaluate_stack(*inputs)
    assert {key: sum(sizes) for key, sizes in seen.items()} == {
        "rows": 7, "maps": 7, "gth": 7}


def test_build_chain_gives_chains_equal_in_their_frames_one_set_of_runs():
    # the uneven pair of SHARED_STACK, two slots apart: build_chain builds
    # and keeps each in its frame from s, so they have the same bytes and
    # differ in shift alone, by two, and so their solutions are each
    # other's rolled by two, bit for bit
    _, (capacity, tx_slots, rates, probs), _ = shared_stack()
    first, later = (build_chain(capacity, 12, tx_slots[b],
                                TrafficSpec(rates[b], probs[b]))
                    for b in (-2, -1))
    for table in ("rows", "runs", "departures"):
        assert getattr(first, table).tobytes() == getattr(later, table).tobytes()
    assert (first.shift, later.shift) == (6, 8)
    assert not later.rows.flags.writeable
    grids = [solve(chain).distribution.reshape(12, capacity + 1)
             for chain in (first, later)]
    assert np.array_equal(grids[1], np.roll(grids[0], 2, axis=0))


@pytest.mark.parametrize("algorithm, built", [("ta-sc", [1, 1]),
                                              ("sbd", [1, 6]),
                                              ("ta-mc", [1, 6])])
def test_network_levels_build_each_distinct_chain_once(monkeypatch, algorithm,
                                                       built):
    # rings 2 at p_gen 0.01, levels deepest first: the twelve outer-ring
    # nodes are one chain in their frames from s under every generator,
    # and so are the six relays under ta-sc
    topo = concentric_topology(2)
    assert [len(level) for level in reversed(topo.levels[1:])] == [12, 6]
    sizes = recorded(monkeypatch, queuemodel, "_capped_rows", 1)
    evaluate_network(NetworkScenario(schedule=generate(algorithm, topo),
                                     topology=topo, generation_rate=0.01,
                                     queue_capacity=16))
    assert sizes == built


def test_chains_equal_up_to_rotation_are_built_once(monkeypatch):
    # a node with uneven traffic and the same node three slots later, its
    # last transmission slot still the last in the slotframe, are one chain
    # in their frames from s: one set of rows is built, and each chain gets
    # the other's distribution and transmission probabilities rolled by
    # three, with the bits it has alone
    capacity, length, shift = 8, 7, 3
    tx_slots = [[0, 2], [shift, 2 + shift]]
    rates = [0.05 + 0.01 * i for i in range(length)]
    probs = [0.0, 0.3, 0.0, 0.0, 0.6, 0.2, 0.0]
    rates = [rates, list(np.roll(rates, shift))]
    probs = [probs, list(np.roll(probs, shift))]
    sizes = recorded(monkeypatch, queuemodel, "_capped_rows", 1)
    nodes = evaluate_stack(capacity, tx_slots, rates, probs)
    assert sizes == [1]
    grids = [node.distribution.reshape(length, capacity + 1) for node in nodes]
    assert np.array_equal(grids[1], np.roll(grids[0], shift, axis=0))
    assert np.array_equal(nodes[1].tx_probability,
                          np.roll(nodes[0].tx_probability, shift))
    for b, node in enumerate(nodes):
        alone = evaluate_node(capacity, length, tx_slots[b],
                              TrafficSpec(rates[b], probs[b]))
        assert np.array_equal(node.distribution, alone.distribution)
        assert np.array_equal(node.tx_probability, alone.tx_probability)


@given(chain_stacks(max_capacity=20))
# the light chain's rows move in their last bits if its tail takes as
# many terms as the heavy one's needs
@example((6, [[0], [0]], [[0.43], [3.0]], [[0.0], [0.0]]))
@settings(max_examples=100, deadline=None)
def test_each_chain_has_its_rows_alone_in_any_stack(case):
    # a memo serves a chain solved in one stack to any later stack, so
    # its rows, and with them its results, must not depend on the chains
    # stacked with it
    capacity, tx_slots, rates, probs = case
    rows, runs, _ = stack_rows(*case)
    for b in range(len(tx_slots)):
        alone, factors, _ = stack_rows(capacity, tx_slots[b:b + 1],
                                       rates[b:b + 1], probs[b:b + 1])
        assert rows[b].tobytes() == alone[0].tobytes()
        assert runs[b, :factors.shape[1]].tobytes() == factors[0].tobytes()


def tapped_one_at_a_time(capacity, tau, rates, probs):
    """Factor rows 0 and 1 of a stack in its frames from s, each forwarded
    slot's packet added on a step of its own, chain by chain in slot
    order, to the rows built without forwarding."""
    runs = queuemodel._capped_rows(capacity, tau, rates,
                                   np.zeros_like(probs))[1].copy()
    factor = np.cumsum(tau, axis=1) - tau
    for b, i in zip(*np.nonzero(probs)):
        q = probs[b, i]
        for row in (1,) if tau[b, i] else (0, 1):
            h = runs[b, factor[b, i], row]
            step = (1.0 - q) * h
            step[1:] += q * h[:-1]
            step[-1] = h[-1] + q * h[-2]
            runs[b, factor[b, i], row] = step
    return runs[:, :, :2]


def test_factors_take_their_taps_in_slot_order(monkeypatch):
    # step j takes the j-th tap of every factor: each factor's rows get
    # the bits of one tap per step, on the tapped chain cases and on every
    # level of the README's rings-2 networks
    stacks = [(capacity, *frame_inputs(capacity, [slots], [traffic.poisson_rate],
                                       [traffic.bernoulli_prob]))
              for capacity, _, slots, traffic in chain_cases()
              if any(traffic.bernoulli_prob)]
    capped_rows = queuemodel._capped_rows
    monkeypatch.setattr(queuemodel, "_capped_rows",
                        lambda *args: stacks.append(args) or capped_rows(*args))
    topo = concentric_topology(2)
    for algorithm in ("sbd", "ta-sc", "ta-mc"):
        evaluate_network(NetworkScenario(schedule=generate(algorithm, topo),
                                         topology=topo, generation_rate=0.01,
                                         queue_capacity=16))
    monkeypatch.undo()
    assert len(stacks) == 4 + 6
    for stack in stacks:
        built = capped_rows(*stack)[1][:, :, :2]
        assert built.tobytes() == tapped_one_at_a_time(*stack).tobytes()


def test_a_stack_solves_only_the_chains_its_memo_lacks(monkeypatch):
    # the light chain is known, the heavy one new: only the heavy one is
    # built, and every node has the bits it has alone
    solved = {}
    evaluate_stack(6, [[0]], [[0.43]], [[0.0]], solved)
    sizes = recorded(monkeypatch, queuemodel, "_capped_rows", 1)
    rates = [[0.43], [3.0], [0.43]]
    nodes = evaluate_stack(6, [[0]] * 3, rates, [[0.0]] * 3, solved)
    assert sizes == [1]
    assert len(solved) == 2
    for node, (rate,) in zip(nodes, rates):
        alone = evaluate_node(6, 1, (0,), TrafficSpec((rate,), (0.0,)))
        assert node_fields(node) == node_fields(alone)


def memo_rates(solved):
    """The offered load of each record of a memo of one-slot chains, their
    rate, from the front, where the least recently served are dropped."""
    return [node.total_arrivals for node in solved.values()]


def test_memo_drops_the_chains_solved_first_past_its_budget(monkeypatch):
    # a K = 6, one-slot chain holds 56 + 8 + 56 bytes: the budget keeps two
    # of them, but never drops a chain of the stack in progress. A served
    # chain, 0.3, moves to the end with the stack's new ones
    monkeypatch.setattr(queuemodel, "_MEMO_BYTES", 250)
    solved = {}
    for rate in (0.1, 0.2, 0.3):
        evaluate_stack(6, [[0]], [[rate]], [[0.0]], solved)
    assert memo_rates(solved) == [0.2, 0.3]
    rates = [[0.4], [0.5], [0.6], [0.3]]
    nodes = evaluate_stack(6, [[0]] * 4, rates, [[0.0]] * 4, solved)
    assert memo_rates(solved) == [0.4, 0.5, 0.6, 0.3]
    for node, (rate,) in zip(nodes, rates):
        alone = evaluate_node(6, 1, (0,), TrafficSpec((rate,), (0.0,)))
        assert node_fields(node) == node_fields(alone)
    for key, record in solved.items():
        assert key[2] == np.array([record.total_arrivals]).tobytes()
        assert record.shift == 0


def test_a_served_chain_outlives_later_chains_never_served(monkeypatch):
    # 0.1 is served again after 0.2 was added: past the budget of two
    # chains, 0.2 goes, not 0.1, and 0.1 is not solved again
    monkeypatch.setattr(queuemodel, "_MEMO_BYTES", 250)
    solved = {}
    sizes = recorded(monkeypatch, queuemodel, "_capped_rows", 1)
    for rate in (0.1, 0.2, 0.1, 0.3, 0.1):
        evaluate_stack(6, [[0]], [[rate]], [[0.0]], solved)
    assert sizes == [1, 1, 1]
    assert memo_rates(solved) == [0.3, 0.1]


def test_a_dropped_key_frees_its_arrays(monkeypatch):
    # each record holds read-only copies of its own rows: once part of a
    # stack is dropped, the record that stays pins none of the stack's
    # arrays, so the budget counts all that the memo holds
    made = []
    for module, name in ((stationary, "_solve_stack"),
                         (queuemodel, "transmission_probability"),
                         (queuemodel, "queue_marginals")):
        function = getattr(module, name)

        def kept(*args, function=function):
            out = function(*args)
            made.append(weakref.ref(out[0] if isinstance(out, tuple) else out))
            return out

        monkeypatch.setattr(module, name, kept)
    solved = {}
    evaluate_stack(6, [[0]] * 3, [[0.1], [0.2], [0.3]], [[0.0]] * 3, solved)
    monkeypatch.undo()
    monkeypatch.setattr(queuemodel, "_MEMO_BYTES", 250)
    evaluate_stack(6, [[0]], [[0.4]], [[0.0]], solved)
    assert memo_rates(solved) == [0.3, 0.4]
    gc.collect()
    assert len(made) == 3 and all(ref() is None for ref in made)
    for record in solved.values():
        for array in (record.grid, record.tx_probability, record.queue_marginals):
            assert array.base is None and not array.flags.writeable


def test_no_result_can_spoil_the_memo():
    # a node's grid is a read-only view of the memo's, its transmission
    # probabilities and marginals copies the memo does not hold
    solved = {}
    first = evaluate_stack(6, [[1, 3]], [[0.2] * 4], [[0.1] * 4], solved)[0]
    want = node_fields(first)
    assert not first.grid.flags.writeable
    first.tx_probability[:] = 7.0
    first.queue_marginals[:] = 7.0
    again = evaluate_stack(6, [[1, 3]], [[0.2] * 4], [[0.1] * 4], solved)[0]
    assert node_fields(again) == want


SWEEP_SMALL = {
    "parameter": "p_gen",
    "grid": {"min": 0.0, "max": 0.3, "count": 7, "scale": "linear"},
    "queue_capacities": [6, 16],
    "schedules": ["sbd", "ta-sc", "ta-mc"],
    "variants": ["full", "distributed", "md1k"],
    "topology": {"rings": 1},
}


def test_a_sweep_solves_each_distinct_chain_once(monkeypatch, tmp_path):
    # the benchmark's sweep-small spec: 126 points of 6 chains each, 28
    # distinct ones. On rings 1 every generator gives each node the same
    # chain in its frame from s, full and distributed are one chain on a
    # leaf, and the rate-0 chain is the same in every group
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps(SWEEP_SMALL))
    sizes = recorded(monkeypatch, queuemodel, "_capped_rows", 1)
    assert cli.main(["sweep", "--spec", str(spec),
                     "--out", str(tmp_path / "sweep.csv")]) == 0
    assert sum(sizes) == 28


def test_solve_gives_the_bits_of_evaluate_node():
    # both solve and normalize the chain in its frame from s, so a node
    # gets the same bits from either
    ladder = (512, 19, (0,), TrafficSpec.constant(19, rate=0.95 / 19))
    for case in [*chain_cases(), ladder]:
        assert (solve(build_chain(*case)).distribution.tobytes()
                == evaluate_node(*case).distribution.tobytes()), case[:3]


def digest(values):
    """The first twelve hex digits of the sha256 of ``values`` written to
    ten significant digits, which the last bits of another platform's
    arithmetic leave as they are."""
    text = " ".join(f"{value:.9e}" for value in values)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# digest() of the distributions of nodes 1-18 of rings 2 under ta-sc at
# p_gen 0.01 and K = 16, and of nodes 1-6 of rings 1 under md1k, recorded
# when every node still held a slot-order copy of its own
NODE_DIGESTS = {
    "full": ["1b05c43bc679", "26e3bdfc7a8e", "1cf7bf24ea80", "c467f45390e1",
             "04bb0ab3d485", "472ef8ec3a8c", "781840bed9e5", "9a29bd6a4599",
             "4ac0e86a0891", "a7929f6fbb37", "4729ee893ad5", "9c591fc5603f",
             "13cab54a31af", "db17465757a0", "b82d5a090d2c", "1f855c64cf2b",
             "7267339442a3", "bce018ecced4"],
    "md1k": ["b212a2c4d568"] * 6,
}


@pytest.mark.parametrize("rings, variant", [(2, "full"), (1, "md1k")])
def test_nodes_of_one_chain_share_its_grid(rings, variant):
    # the outer ring is one chain in its frames from s: its nodes hold
    # views of one read-only frame-order grid, each distribution rotated
    # from it on read as it was before, and the sink has none
    topo = concentric_topology(rings)
    result = evaluate_network(NetworkScenario(
        schedule=generate("ta-sc", topo), topology=topo, generation_rate=0.01,
        queue_capacity=16), variant=variant)
    sink, *nodes = result.node_metrics
    assert sink.distribution is None
    assert [digest(node.distribution) for node in nodes] == NODE_DIGESTS[variant]
    for node in nodes:
        assert node.distribution.sum() == pytest.approx(1.0, abs=1e-12)
        assert not np.shares_memory(node.distribution, node.grid)
    outer = [result.node_metrics[n] for n in topo.levels[-1]]
    assert len(outer) == 6 * rings
    assert all(np.shares_memory(node.grid, outer[0].grid) for node in outer)
    assert not outer[0].grid.flags.writeable


def spoil(monkeypatch, where, spoiled_map):
    """Make the solver fail on the chains whose return map at s is
    ``spoiled_map``: their closed-class search, or their residual check."""
    if where == "class":
        closed = stationary._closed_class

        def split(edges, start):
            if np.array_equal(edges, spoiled_map != 0):
                raise StationaryError("spoiled: more than one closed class")
            return closed(edges, start)

        monkeypatch.setattr(stationary, "_closed_class", split)
    else:
        exact = stationary._gth

        def spoiled(dense, lower):
            x = exact(dense, lower)
            for b, matrix in enumerate(dense):
                if np.array_equal(matrix, spoiled_map):
                    x[b] *= np.linspace(0.9, 1.1, x.shape[1])
            return x

        monkeypatch.setattr(stationary, "_gth", spoiled)


@pytest.mark.parametrize("where", ["class", "residual"])
def test_failing_shared_chain_names_its_first_chain(monkeypatch, where):
    # spoil the chain of tx slots [3, 7], chains 6 and 7 of the stack: a
    # failed class search names the first chain with its edge pattern, a
    # failed residual the first with its return map, chain 6
    stack, inputs, _ = shared_stack()
    _, runs, tau = stack
    maps = return_maps(runs, tau)
    spoiled_map = maps[6]
    spoil(monkeypatch, where, spoiled_map)
    if where == "class":
        first = next(b for b, frame_map in enumerate(maps)
                     if np.array_equal(frame_map != 0, spoiled_map != 0))
    else:
        first = 6
        assert not any(np.array_equal(frame_map, spoiled_map)
                       for frame_map in maps[:6])
    with pytest.raises(StationaryError) as failed:
        evaluate_stack(*inputs)
    assert failed.value.index == first
    # in a network: node 1 sends twice a frame, nodes 2 and 3 once each,
    # one slot apart, and are one chain; its failure names node 2
    monkeypatch.undo()
    topo = Topology(4, frozenset({(0, n) for n in range(1, 4)}),
                    (None, 0, 0, 0))
    sched = Schedule(node_count=4, slotframe_length=4,
                     tx_slots=((), (0, 1), (2,), (3,)),
                     rx_slots=((0, 1, 2, 3), (), (), ()),
                     counterpart=({0: 1, 1: 1, 2: 2, 3: 3}, {0: 0, 1: 0},
                                  {2: 0}, {3: 0}),
                     channel=({0: 11, 1: 11, 2: 11, 3: 11}, {0: 11, 1: 11},
                              {2: 11}, {3: 11}))
    capacity, rate = 3, 0.1
    _, runs, tau = stack_rows(capacity, [[3]], [[rate] * 4], [[0.0] * 4])
    spoil(monkeypatch, where, return_maps(runs, tau)[0])
    with pytest.raises(NetworkModelError, match="^node 2: "):
        evaluate_network(NetworkScenario(schedule=sched, topology=topo,
                                         generation_rate=rate,
                                         queue_capacity=capacity))


# overload and light load: (K, S, tx slots, Poisson arrivals per
# slotframe, spread evenly over its slots)
EXTREME_LOADS = [(64, 1, (0,), 50.0), (512, 19, (0,), 5.0),
                 (512, 19, (0,), 40.0), (512, 19, (0,), 1e-7),
                 (256, 19, (0, 5, 9), 30.0), (16, 3, (0,), 700.0)]


@pytest.mark.parametrize("case", EXTREME_LOADS, ids=str)
def test_extreme_loads_match_null_space(case):
    # the back-substitution scales each block so that nothing overflows:
    # at 50 arrivals per slot a level is e^50 times as likely as the one
    # below it, at 1e-7 per frame about 1e-7 times
    capacity, length, tx, load = case
    chain = build_chain(capacity, length, tx,
                        TrafficSpec.constant(length, rate=load / length))
    res = solve(chain)
    assert np.isfinite(res.distribution).all()
    assert res.residual <= stationary.RESIDUAL_BOUND
    # the oracle on the return map at the frame start s, against the
    # solution's share at s scaled to one
    rows, _, tau = stacked([chain])
    frame_map = plain_return_map(stationary._capped_blocks(rows, tau)[0])
    at_start = res.distribution.reshape(length, -1)[chain.shift]
    oracle = dense_null_space_oracle(
        frame_map, res.reachable.reshape(length, -1)[chain.shift])
    assert np.abs(at_start / at_start.sum() - oracle).max() <= 1e-8


def test_extreme_load_in_a_stack_keeps_its_bits():
    # one GTH call takes both chains, whose blocks scale by far different
    # powers of two; each gets its bits alone
    capacity, tx_slots = 64, [[0], [0]]
    rates, probs = [[50.0], [0.5]], [[0.0], [0.0]]
    grids, residuals, levels = stationary._solve_stack(
        *stack_rows(capacity, tx_slots, rates, probs))
    assert np.array_equal(levels[0], levels[1])
    for b in range(2):
        grid, residual, level = stationary._solve_stack(*stack_rows(
            capacity, tx_slots[b:b + 1], rates[b:b + 1], probs[b:b + 1]))
        assert np.array_equal(grids[b], grid[0])
        assert residuals[b] == residual[0]


def test_return_maps_take_t_minus_one_dense_products(monkeypatch):
    # a frame of T run-then-send factors is T - 1 dense products: none for
    # the solver ladder's one-slot node, and none without transmissions
    products = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def matmul(a, b, *args, **kwargs):
            if a.shape[-2] == a.shape[-1] == b.shape[-2] == b.shape[-1]:
                products.append(a.shape)
            return np.matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(stationary, "np", CountingNumpy())
    ladder = build_chain(512, 19, (0,), TrafficSpec.constant(19, rate=0.05))
    stacks = [(stacked([ladder])[1:], 0)]
    for tx_slots, widest in (([[2], [], [0, 3, 4]], 3), ([[], []], 0),
                             ([[1], [0, 1, 2, 3, 4, 5]], 6)):
        rates = [[0.2] * 6] * len(tx_slots)
        probs = [[0.3, 0, 0, 0.5, 0, 0]] * len(tx_slots)
        stacks.append((stack_rows(4, tx_slots, rates, probs)[1:], widest))
    for stack, widest in stacks:
        products.clear()
        return_maps(*stack)
        assert len(products) == max(widest - 1, 0)


def test_frame_start_reaches_the_classes_of_slot_0():
    # the solver searches from the empty queue at s, the slot after the
    # last transmission slot, not at slot 0: on every small chain both
    # reach the same closed classes, and solve marks that class
    for length in (1, 2, 3):
        subsets = itertools.chain.from_iterable(
            itertools.combinations(range(length), r)
            for r in range(length + 1))
        for tx, probs, rate, capacity in itertools.product(
                subsets, itertools.product((0.0, 0.5, 1.0), repeat=length),
                (0.0, 0.7), (1, 3)):
            chain = build_chain(capacity, length, tx,
                                TrafficSpec((rate,) * length, probs))
            matrix = dense_matrix(chain)
            classes = [csgraph_closed_classes(matrix, state) for state in
                       (0, chain.state_index(0, chain.shift))]
            assert np.array_equal(classes[0], classes[1]), (tx, probs, rate)
            if len(classes[0]) > 1:
                with pytest.raises(StationaryError, match="closed class"):
                    solve(chain)
            else:
                assert np.array_equal(solve(chain).reachable, classes[0][0])


def test_class_with_gaps_gives_gth_its_states(monkeypatch):
    # no queue chain tried has a closed class with gaps in its levels, so
    # drop a middle state from one: GTH must still get just its states
    chain = build_chain(6, 4, (1,), TrafficSpec.constant(4, rate=0.3))
    frame_map = return_maps(*stacked([chain])[1:])[0]
    closed = stationary._closed_class

    def gapped(edges, start):
        mask = closed(edges, start)
        mask[3] = False
        return mask

    taken = []

    def recorded(dense, lower):
        taken.append(dense)
        return np.full(dense.shape[:2], 1.0 / dense.shape[-1])

    monkeypatch.setattr(stationary, "_closed_class", gapped)
    monkeypatch.setattr(stationary, "_gth", recorded)
    try:
        stationary._solve_stack(*stacked([chain]))
    except StationaryError:
        pass  # a class with a state dropped is not closed
    states = np.flatnonzero(gapped(frame_map != 0, 0))
    assert len(states) < states[-1] - states[0] + 1
    assert np.array_equal(taken[0][0], frame_map[np.ix_(states, states)])


def csgraph_closed_classes(matrix, start):
    """Reference: the closed classes reached from ``start``, as masks, from
    scipy's strong components; a class is closed when no edge leaves it."""
    graph = sparse.csr_matrix(matrix != 0)
    _, labels = csgraph.connected_components(graph, directed=True,
                                             connection="strong")
    rows, cols = graph.nonzero()
    open_labels = set(labels[rows[labels[rows] != labels[cols]]])
    reached = csgraph.breadth_first_order(graph, start, directed=True,
                                          return_predecessors=False)
    return [labels == label for label in sorted(set(labels[reached]))
            if label not in open_labels]


@st.composite
def stochastic_matrices(draw):
    """Row-stochastic matrices with random zero patterns, some entries down
    to 1e-12, and a random start state."""
    n = draw(st.integers(min_value=1, max_value=12))
    # few edges per row make several closed classes likely
    width = draw(st.integers(min_value=1, max_value=n))
    weight = st.one_of(st.just(1e-12),
                       st.floats(min_value=1e-12, max_value=1.0))
    matrix = np.zeros((n, n))
    for row in matrix:
        for j in draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                               max_size=width, unique=True)):
            row[j] = draw(weight)
    empty = matrix.sum(axis=1) == 0.0
    matrix[empty, np.flatnonzero(empty)] = 1.0  # an empty row absorbs
    start = draw(st.integers(min_value=0, max_value=n - 1))
    return matrix / matrix.sum(axis=1, keepdims=True), start


@given(stochastic_matrices())
@example((np.array([[0.0, 1.0, 0.0],
                    [0.0, 0.0, 1.0],
                    [0.0, 1.0, 0.0]]), 0))  # the start is transient
@example((np.array([[0.5, 0.5 - 1e-12, 1e-12],
                    [0.0, 1.0, 0.0],
                    [0.0, 0.0, 1.0]]), 0))  # two absorbing states
@settings(max_examples=300, deadline=None)
def test_closed_class_matches_csgraph(case):
    matrix, start = case
    classes = csgraph_closed_classes(matrix, start)
    if len(classes) > 1:
        with pytest.raises(StationaryError, match="closed class"):
            closed_class_solution(matrix, start=start)
        return
    distribution, reachable = closed_class_solution(matrix, start=start)
    assert np.array_equal(reachable, classes[0])
    assert np.all(distribution[~classes[0]] == 0.0)
