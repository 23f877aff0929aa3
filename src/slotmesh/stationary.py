"""Stationary distributions of slot-indexed finite Markov chains.

The chains built by :mod:`slotmesh.queuemodel` are row-stochastic and can
be reducible. Their stationary distribution lives on the closed class (the
closed communicating class) that the start state, the empty queue at slot
0, reaches; every other state is transient or never visited and carries
exactly zero mass. If the start state reaches more than one closed class
the distribution is not unique and :class:`StationaryError` is raised.

The closed class is solved by the GTH elimination (Grassmann, Taksar and
Heyman, Oper. Res. 33(5), 1985): Gaussian elimination that replaces the
pivot ``1 - p_kk`` by the row sum it equals, so it never subtracts, gives
a non-negative answer and stays accurate near saturation.

The slot index advances deterministically, so a queue chain only needs
its slot-0 return map ``F = B_0 B_1 ... B_{S-1}``, the product of its
per-slot blocks, which is just ``(K + 1) x (K + 1)``. :func:`solve`
solves ``c F = c`` on the closed class of ``F`` and propagates ``c``
through the blocks to the other slots. Every answer is checked against
``max |c P - c| <= RESIDUAL_BOUND``.

The closed class is found by a dense boolean reachability search on the
return map, whose rows are held as Python ints used as bitsets: reach
forward from the start; while some reached state cannot get back to the
current state, move to that state, which strictly shrinks the reached
set; then check that every state the start reaches can reach the class
found. Backward searches never leave the reached set. The return map has
at most a few hundred rows, so this beats building a sparse graph. Every
non-zero entry counts as an edge, however small: a Poisson term of 1e-300
is still a possible transition, and treating it as missing could make a
recurrent state look transient and drop its mass. GTH has no trouble with
such entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

RESIDUAL_BOUND = 1e-10


class StationaryError(RuntimeError):
    """Raised when no valid stationary distribution can be computed."""


@dataclass(frozen=True)
class StationaryResult:
    """Normalized stationary distribution over all chain states.

    States outside the closed class (``reachable``) hold exactly zero.
    ``residual`` is the infinity norm of ``c P - c``.
    """

    distribution: np.ndarray
    residual: float
    reachable: np.ndarray


def _bitsets(edges: np.ndarray) -> list[int]:
    """Row ``i`` of a boolean matrix as an int with bit ``j`` set for each
    edge ``i -> j``."""
    packed = np.packbits(edges, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _reach(rows: list[int], sources: int, within: int) -> int:
    """Bitset of the states in ``within`` that ``sources`` reach along
    ``rows``, the sources included."""
    reached = todo = sources
    while todo:
        state = todo & -todo
        todo ^= state
        new = rows[state.bit_length() - 1] & within & ~reached
        reached |= new
        todo |= new
    return reached


def _closed_class(matrix: np.ndarray, start: int) -> np.ndarray:
    """Mask of the unique closed class reachable from ``start``; every
    non-zero entry of the dense ``matrix`` is an edge."""
    edges = matrix != 0
    n = len(edges)
    forward, backward = _bitsets(edges), _bitsets(edges.T)
    node = 1 << start
    reached = _reach(forward, node, (1 << n) - 1)
    found = reached
    # move to a reached state that cannot return to the current node
    while stuck := found & ~_reach(backward, node, found):
        node = stuck & -stuck
        found = _reach(forward, node, found)
    if _reach(backward, found, reached) != reached:
        raise StationaryError(
            f"state {start} reaches more than one closed class; the "
            f"stationary distribution is not unique")
    bits = np.frombuffer(found.to_bytes(-(-n // 8), "little"), dtype=np.uint8)
    return np.unpackbits(bits, count=n, bitorder="little").astype(bool)


def _gth(dense: np.ndarray) -> np.ndarray:
    """Stationary vector of an irreducible stochastic matrix."""
    a = np.array(dense, dtype=float)
    n = a.shape[0]
    for k in range(n - 1, 0, -1):
        # eliminate state k; the row sum over the states left stands in
        # for 1 - a[k, k], so nothing is subtracted
        a[:k, k] /= a[k, :k].sum()
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    x = np.zeros(n)
    x[0] = 1.0
    for k in range(1, n):
        x[k] = x[:k] @ a[:k, k]
        # keep the partial vector normalized: unnormalized it can overflow
        x[:k + 1] /= x[:k + 1].sum()
    return x


def _checked(distribution, residual, reachable) -> StationaryResult:
    if not residual <= RESIDUAL_BOUND:
        raise StationaryError(
            f"residual {residual:.3e} above {RESIDUAL_BOUND:.0e}")
    return StationaryResult(distribution=distribution, residual=residual,
                            reachable=reachable)


def solve_matrix(matrix, start: int = 0) -> StationaryResult:
    """Stationary distribution of an arbitrary chain, given as a dense
    row-stochastic matrix, supported on the closed class that ``start``
    reaches."""
    dense = np.asarray(matrix, dtype=float)
    mask = _closed_class(dense, start)
    full = np.zeros(len(dense))
    full[mask] = _gth(dense[np.ix_(mask, mask)])
    residual = float(np.abs(full @ dense - full).max())
    return _checked(full, residual, mask)


def _return_map_class(chain) -> tuple[np.ndarray, np.ndarray]:
    """The slot-0 return map of a queue chain and the chain's closed class
    as a ``(K + 1, S)`` level-by-slot mask."""
    frame_map = reduce(np.matmul, chain.blocks)
    masks = np.zeros((chain.capacity + 1, chain.slotframe_length), dtype=bool)
    masks[:, 0] = _closed_class(frame_map, 0)
    for i in range(chain.slotframe_length - 1):
        masks[:, i + 1] = masks[:, i] @ (chain.blocks[i] > 0)
    return frame_map, masks


def reachable_states(chain) -> np.ndarray:
    """States of a queue chain in the closed class that the empty-queue
    start state reaches; every other state carries no stationary mass."""
    return _return_map_class(chain)[1].ravel()


def solve(chain) -> StationaryResult:
    """Stationary distribution of a queue chain.

    Solves the slot-0 return map on its closed class and propagates the
    result through the per-slot blocks.
    """
    frame_map, masks = _return_map_class(chain)
    level = masks[:, 0]
    grid = np.zeros(masks.shape)
    grid[level, 0] = _gth(frame_map[np.ix_(level, level)])
    for i in range(chain.slotframe_length - 1):
        grid[:, i + 1] = grid[:, i] @ chain.blocks[i]
    grid /= grid.sum()
    # column i of moved is the mass that slot i passes to slot i + 1
    moved = np.matmul(grid.T[:, None, :], chain.blocks)[:, 0, :].T
    residual = float(np.abs(np.roll(moved, 1, axis=1) - grid).max())
    return _checked(grid.ravel(), residual, masks.ravel())
