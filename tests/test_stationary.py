import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse
from scipy.linalg import null_space
from scipy.sparse import csgraph

from conftest import chain_cases, dense_matrix, slot_blocks
from slotmesh import stationary
from slotmesh.network import (NetworkModelError, NetworkScenario,
                              concentric_topology, evaluate_network)
from slotmesh import queuemodel
from slotmesh.queuemodel import (TrafficSpec, acceptance_probability,
                                 build_chain, evaluate_node,
                                 expected_arrivals_per_slotframe)
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
    # a slightly spoiled vector at the frame start leaves a residual near
    # 1e-13, well inside the bound; it must be max |c P - c| over the whole
    # chain
    exact = stationary._gth

    def spoiled(dense, lower):
        return exact(dense, lower) * np.linspace(1 - 1e-12, 1 + 1e-12,
                                                 dense.shape[-1])

    monkeypatch.setattr(stationary, "_gth", spoiled)
    for capacity, length, tx, traffic in chain_cases():
        chain = build_chain(capacity, length, tx, traffic)
        res = solve(chain)
        c = res.distribution
        want = np.abs(c @ dense_matrix(chain) - c).max()
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
    classes = {tuple(solve(chain).reachable) for chain in chains}
    assert len(classes) > 1
    for chain, grid, residual in zip(chains, grids, residuals):
        single = solve(chain)
        assert np.array_equal(grid.ravel(), single.distribution)
        assert residual == single.residual
        assert np.all(grid.ravel()[~single.reachable] == 0.0)


def stacked(chains):
    """The capped rows, factor rows and departures of separately built
    chains with the same S and K as one stack; a chain with fewer
    transmission slots gets factor rows of no arrivals."""
    runs = np.zeros((len(chains), max(len(chain.runs) for chain in chains),
                     3, chains[0].capacity + 1))
    runs[..., 0] = 1.0
    for b, chain in enumerate(chains):
        runs[b, :len(chain.runs)] = chain.runs
    return (np.stack([chain.rows for chain in chains]), runs,
            np.stack([chain.departures for chain in chains]))


def level_stack(rings, algorithm, capacity, rate):
    """The capped rows, factor rows and departures of the outer level of a concentric
    network, with the traffic its children forward."""
    topo = concentric_topology(rings)
    sched = generate(algorithm, topo)
    result = evaluate_network(NetworkScenario(
        schedule=sched, topology=topo, generation_rate=rate,
        queue_capacity=capacity))
    level = topo.levels[-1]
    rates = [[rate] * sched.slotframe_length] * len(level)
    return stack_rows(capacity, [sched.tx_slots[n] for n in level], rates,
                      result.rx_probability[list(level)])


def test_slot_blocks_are_built_in_chunks(monkeypatch):
    # a stack within the byte budget builds its blocks in one call; a
    # larger one builds chunks of consecutive slots, none above the budget
    # unless it is a single slot
    rows, runs, tau = level_stack(2, "ta-sc", 16, 0.01)
    calls = []
    slot_blocks_of = stationary._slot_blocks

    def counted(rows, tau, out=None):
        blocks = slot_blocks_of(rows, tau, out)
        calls.append((blocks.shape[1], blocks.nbytes))
        return blocks

    monkeypatch.setattr(stationary, "_slot_blocks", counted)
    stationary._solve_stack(rows, runs, tau)
    assert calls == [(rows.shape[1], rows.nbytes * rows.shape[-1])]
    for capacity, length in ((128, 19), (512, 19)):
        traffic = TrafficSpec.constant(length, rate=0.95 / length)
        chain = build_chain(capacity, length, (0,), traffic)
        calls.clear()
        stationary._solve_stack(*stacked([chain]))
        assert len(calls) > 1
        assert all(nbytes <= stationary._CHUNK_BYTES or slots == 1
                   for slots, nbytes in calls)


def test_each_slot_block_is_built_once_per_solve(monkeypatch):
    # over the chunk budget (K = 512, S = 19) the walk builds each slot's
    # block once, for the carry, and the return map the two blocks of each
    # of its T factors: no quiet run is composed slot by slot. solve
    # carries the closed class in the same walk as the grid.
    built = []
    capped_blocks_of = stationary._capped_blocks

    def counted(rows, sends, out=None):
        built.append(rows.shape[1:-1])
        return capped_blocks_of(rows, sends, out)

    monkeypatch.setattr(stationary, "_capped_blocks", counted)
    traffic = TrafficSpec.constant(19, rate=0.95 / 19)
    for tx_slots in ((0,), (3, 11), ()):
        chain = build_chain(512, 19, tx_slots, traffic)
        for solved in (lambda: stationary._solve_stack(*stacked([chain])),
                       lambda: solve(chain)):
            built.clear()
            solved()
            # one slot, or one factor's two blocks, per chunk
            assert all(shape[0] == 1 for shape in built)
            assert (sum(map(np.prod, built))
                    == 19 + 2 * max(len(tx_slots), 1))


# one slot per chunk, and chunks of three slots of the level stack
@pytest.mark.parametrize("budget", [0, 100_000])
def test_chunks_give_the_bits_of_the_whole_stack(monkeypatch, budget):
    chains = [build_chain(*case) for case in chain_cases()]
    stacks = [stacked([chain]) for chain in chains]
    stacks.append(level_stack(2, "ta-mc", 16, 0.03))
    whole = [stationary._solve_stack(*stack) for stack in stacks]
    solved = [solve(chain) for chain in chains]
    monkeypatch.setattr(stationary, "_CHUNK_BYTES", budget)
    for stack, want in zip(stacks, whole):
        for got, expected in zip(stationary._solve_stack(*stack), want):
            assert np.array_equal(got, expected)
    for chain, want in zip(chains, solved):
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
    start = stationary._rotation(chain.departures[None])[0, 0]
    level = solve(chain).reachable.reshape(length, capacity + 1)[start]
    frame_map = stationary._return_maps(runs, tau)[0][np.ix_(level, level)]
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
    # under md1k the level collapses to one stack of nodes 1-4, node 1
    # (no tx slots) included; spoiling its third chain must name node 3
    topo = Topology(5, frozenset({(0, n) for n in range(1, 5)}),
                    (None, 0, 0, 0, 0))
    sched = Schedule(node_count=5, slotframe_length=4,
                     tx_slots=((), (), (1,), (2,), (3,)),
                     rx_slots=((1, 2, 3), (), (), (), ()),
                     counterpart=({1: 2, 2: 3, 3: 4}, {}, {1: 0}, {2: 0}, {3: 0}),
                     channel=({1: 11, 2: 11, 3: 11}, {}, {1: 11}, {2: 11}, {3: 11}))
    exact = stationary._gth

    def spoiled(dense, lower):
        x = exact(dense, lower)
        if len(x) == 4:
            x[2] = np.nan
        return x

    monkeypatch.setattr(stationary, "_gth", spoiled)
    with pytest.raises(NetworkModelError, match="^node 3: residual"):
        evaluate_network(NetworkScenario(schedule=sched, topology=topo,
                                         generation_rate=0.0, queue_capacity=3),
                         variant="md1k")


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
    offered = np.array([expected_arrivals_per_slotframe(traffic)])
    want = acceptance_probability(grid[None] / length, chain.rows[None],
                                  offered)[0]
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


def plain_return_map(blocks):
    """The product of a chain's blocks in the order given: its return map
    at the first block's slot when they are a whole frame."""
    frame_map = np.eye(blocks.shape[-1])
    for block in blocks:
        frame_map = frame_map @ block
    return frame_map


def stack_rows(capacity, tx_slots, rates, probs):
    """The ``(B, S, K + 1)`` capped arrival rows, ``(B, T, 3, K + 1)``
    factor rows and ``(B, S)`` departures of a stack of chains."""
    rates, probs = np.array(rates, dtype=float), np.array(probs, dtype=float)
    tau = queuemodel._check_node(capacity, len(rates[0]), tx_slots, rates, probs)
    return (*queuemodel._capped_rows(capacity, tau, rates, probs), tau)


def in_frame(rows, runs, tau):
    """A stack's capped rows and departures in each chain's frame from s,
    with its factor rows: the slot blocks taken from s multiply to the
    return maps."""
    frame = stationary._rotation(tau)
    return (np.take_along_axis(rows, frame[:, :, None], axis=1), runs,
            np.take_along_axis(tau, frame, axis=1))


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
    rows, runs, tau = in_frame(*stack_rows(*case))
    blocks = stationary._slot_blocks(rows, tau)
    built = stationary._return_maps(runs, tau)
    # chunks of one factor each, every one a new array
    with mock.patch.object(stationary, "_CHUNK_BYTES", 0):
        assert np.array_equal(built, stationary._return_maps(runs, tau))
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
    assert np.array_equal(stationary._slot_blocks(rows, tau), want)


def factor_slots(tau):
    """The slots of each factor of one chain in its frame from s, in frame
    order: a quiet run and, last, the transmission slot that ends it; the
    whole frame without transmission slots."""
    factors = [[]]
    for i in stationary._rotation(np.asarray(tau)[None])[0]:
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
    # the run and its transmission slot, row 2 those of the slot alone
    capacity, _, rates, probs = case
    rows, runs, tau = stack_rows(*case)
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
    the band: each eliminated row scaled by its sum, each pivot column
    divided by that sum after the loop. The reference for the banded
    elimination."""
    a = np.array(matrix, dtype=float)
    n = len(a)
    sums = np.ones(n)
    for k in range(n - 1, 0, -1):
        sums[k] = a[k, :k].sum()
        a[k, :k] /= sums[k]
        a[:k, :k] += a[:k, k, None] * a[None, k, :k]
    a /= sums
    x = np.zeros(n)
    x[0] = 1.0
    for k in range(1, n):
        x[k] = x[:k] @ a[:k, k]
        x[:k + 1] /= x[:k + 1].sum()
    return x


@st.composite
def banded_matrices(draw):
    """Irreducible stochastic matrices that move at most ``L`` states
    down, ``L`` from 1 to ``n - 1``, with random zeros above the band's
    first subdiagonal."""
    n = draw(st.integers(min_value=2, max_value=30))
    width = draw(st.integers(min_value=1, max_value=n - 1))
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
# ones: at K = 300 each factor is a chunk of its own, built into the
# buffer of the one before
@pytest.mark.parametrize("tx", [(0, 2), (0, 1)])
def test_factors_in_one_slot_chunks_match_dense_solve(tx):
    chain = build_chain(300, 4, tx, TrafficSpec((0.5, 0, 0.1, 0), (0,) * 4))
    assert stationary._chunk_slots(chain.rows[None]) == 1
    rows, runs, tau = in_frame(*stacked([chain]))
    frame_map = stationary._return_maps(runs, tau)[0]
    want = plain_return_map(stationary._slot_blocks(rows, tau)[0])
    assert np.abs(frame_map - want).max() <= 1e-13
    matrix = dense_matrix(chain)
    res = solve(chain)
    assert np.abs(res.distribution
                  - dense_null_space_oracle(matrix, res.reachable)).max() <= 1e-10


def test_stacked_chain_solves_as_alone():
    # one transmission slot, none, adjacent ones, every slot and ten: the
    # stack pads every chain to ten transmission factors and solves it in a
    # band of ten levels; alone, a chain has its own factors and band
    length, capacity = 12, 20
    tx_slots = [[5], [], [0, 1], list(range(length)), [1, 2, 3, 4, 5, 6, 7, 8, 9, 11],
                [11], [3, 7]]
    rates = [[0.06] * length] * len(tx_slots)
    probs = [[0.2 * (i % 3 == 0) for i in range(length)]] * len(tx_slots)
    rows, runs, tau = stack_rows(capacity, tx_slots, rates, probs)
    grids, residuals, levels = stationary._solve_stack(rows, runs, tau)
    for b in range(len(tx_slots)):
        grid, residual, level = stationary._solve_stack(*stack_rows(
            capacity, tx_slots[b:b + 1], rates[b:b + 1], probs[b:b + 1]))
        assert np.array_equal(grids[b], grid[0])
        assert residuals[b] == residual[0]
        assert np.array_equal(levels[b], level[0])


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
        stationary._return_maps(*stack)
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
            start = stationary._rotation(chain.departures[None])[0, 0]
            classes = [csgraph_closed_classes(matrix, state) for state in
                       (0, chain.state_index(0, start))]
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
    frame_map = stationary._return_maps(*stacked([chain])[1:])[0]
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
