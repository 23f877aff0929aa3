import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import null_space

from conftest import chain_cases
from slotmesh import stationary
from slotmesh.queuemodel import (TrafficSpec, acceptance_probability,
                                 build_chain, evaluate_node)
from slotmesh.stationary import (StationaryError, reachable_states, solve,
                                 solve_matrix)


def dense_null_space_oracle(matrix, mask):
    """Independent stationary solve: null space of (I - P)^T on the pruned
    core, computed with an SVD-based dense routine."""
    sub = matrix.toarray()[np.ix_(mask, mask)]
    ns = null_space(np.eye(sub.shape[0]) - sub.T)
    assert ns.shape[1] == 1, "solution space must be one-dimensional"
    vec = ns[:, 0]
    vec = vec * np.sign(vec.sum())
    full = np.zeros(matrix.shape[0])
    full[mask] = vec / vec.sum()
    return full


def test_two_state_symmetric_chain():
    p = sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    res = solve_matrix(p)
    assert res.distribution == pytest.approx([0.5, 0.5], abs=1e-12)


def test_residual_definition():
    for capacity, length, tx, traffic in chain_cases():
        chain = build_chain(capacity, length, tx, traffic)
        res = solve(chain)
        c = res.distribution
        matrix = chain.transition_matrix
        assert np.abs(c @ matrix - c).max() <= 1e-10
        assert res.residual <= 1e-10
        assert c.sum() == pytest.approx(1.0, abs=1e-9)
        assert c.min() >= 0.0


def test_reducible_chain_prunes_unreachable_state():
    # three slots, capacity one, forwarding only in slot 0 followed by a
    # transmission slot: a packet can never still be queued in slot 2
    traffic = TrafficSpec((0.0, 0.0, 0.0), (0.5, 0.0, 0.0))
    chain = build_chain(1, 3, (1,), traffic)
    mask = reachable_states(chain)
    assert not mask[chain.state_index(1, 2)]
    res = solve(chain)
    assert res.distribution[chain.state_index(1, 2)] == 0.0
    assert res.residual <= 1e-10


def test_fully_loaded_chain_is_irreducible():
    chain = build_chain(3, 4, (2,), TrafficSpec.constant(4, rate=0.5))
    assert reachable_states(chain).all()


def test_md1k_chain_all_reachable():
    chain = build_chain(5, 1, (0,), TrafficSpec((0.6,), (0.0,)))
    assert reachable_states(chain).all()


def test_methods_agree_with_dense_oracle():
    for capacity, length, tx, traffic in chain_cases():
        chain = build_chain(capacity, length, tx, traffic)
        mask = reachable_states(chain)
        oracle = dense_null_space_oracle(chain.transition_matrix, mask)
        for res in (solve(chain), solve_matrix(chain.transition_matrix)):
            assert np.abs(res.distribution - oracle).max() < 1e-8
            assert np.array_equal(res.reachable, mask)


def test_pruned_mass_exactly_zero():
    traffic = TrafficSpec((0.0, 0.0, 0.0), (0.5, 0.0, 0.0))
    chain = build_chain(1, 3, (1,), traffic)
    res = solve(chain)
    pruned = ~res.reachable
    assert np.all(res.distribution[pruned] == 0.0)
    assert res.reachable_count == res.reachable.sum()


def test_solution_invariant_under_permutation():
    chain = build_chain(4, 3, (0, 2), TrafficSpec.constant(3, rate=0.4, prob=0.1))
    matrix = chain.transition_matrix
    rng = np.random.default_rng(5)
    perm = rng.permutation(matrix.shape[0])
    inv = np.argsort(perm)
    permuted = matrix[perm][:, perm].tocsr()
    base = solve_matrix(matrix, start=0)
    shuffled = solve_matrix(permuted, start=int(inv[0]))
    assert np.abs(shuffled.distribution[inv] - base.distribution).max() < 1e-10


def test_unclosed_core_raises():
    # a chain whose start state is transient: everything funnels into a
    # closed pair that never returns to the start and carries all the mass
    p = sparse.csr_matrix(np.array([
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 1.0, 0.0],
    ]))
    res = solve_matrix(p)
    assert res.distribution == pytest.approx([0.0, 0.5, 0.5], abs=1e-12)
    assert res.distribution[0] == 0.0
    # a stored zero is not an edge: 2 -> 0 does not close the loop
    stored = sparse.csr_matrix(
        ([1.0, 1.0, 1.0, 0.0], ([0, 1, 2, 2], [1, 2, 1, 0])), shape=(3, 3))
    assert stored.nnz == 4
    assert np.array_equal(solve_matrix(stored).distribution, res.distribution)
    # the start splits between two absorbing states: no unique answer
    split = sparse.csr_matrix(np.array([
        [0.0, 0.5, 0.5],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ]))
    with pytest.raises(StationaryError):
        solve_matrix(split)


def test_nonconvergence_reports_residual(monkeypatch):
    chain = build_chain(6, 4, (1,), TrafficSpec.constant(4, rate=0.3))
    exact = stationary._gth

    def perturbed(dense):
        return exact(dense) * np.linspace(0.9, 1.1, len(dense))

    monkeypatch.setattr(stationary, "_gth", perturbed)
    with pytest.raises(StationaryError, match="residual"):
        solve(chain)


def _assert_matches_oracle(chain):
    res = solve(chain)
    oracle = dense_null_space_oracle(chain.transition_matrix, res.reachable)
    assert res.residual <= 1e-10
    assert np.abs(res.distribution - oracle).max() <= 1e-8


def test_auto_falls_back_to_direct():
    _assert_matches_oracle(
        build_chain(6, 4, (1,), TrafficSpec.constant(4, rate=0.3)))


def test_iterations_are_counted():
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
    assert not reachable_states(chain)[chain.state_index(0, 0)]


def test_critical_load_large_capacity():
    length = 19
    chain = build_chain(256, length, (0,),
                        TrafficSpec.constant(length, rate=1.0 / length))
    res = solve(chain)
    assert res.residual <= 1e-10
    # independent answer: c F = c with one equation replaced by sum(c) = 1
    frame_map = np.eye(chain.capacity + 1)
    for block in chain.blocks:
        frame_map = frame_map @ block
    a = (np.eye(chain.capacity + 1) - frame_map).T
    a[-1, :] = 1.0
    b = np.zeros(chain.capacity + 1)
    b[-1] = 1.0
    grid = np.zeros((chain.capacity + 1, length))
    grid[:, 0] = np.linalg.solve(a, b)
    for i in range(length - 1):
        grid[:, i + 1] = grid[:, i] @ chain.blocks[i]
    want = acceptance_probability(chain, grid.ravel() / length)
    assert acceptance_probability(chain, res.distribution) == pytest.approx(
        want, abs=1e-8)
