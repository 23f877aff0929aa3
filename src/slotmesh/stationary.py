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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

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

    @property
    def reachable_count(self) -> int:
        return int(self.reachable.sum())


def _closed_class(matrix, start: int) -> np.ndarray:
    """Mask of the unique closed class reachable from ``start``.

    Edges are the non-zero entries. ``matrix`` goes to csgraph as a sparse
    matrix because csgraph drops dense entries up to 1e-8 as missing edges.
    """
    graph = sparse.csr_matrix(matrix) != 0
    count, labels = csgraph.connected_components(graph, directed=True,
                                                 connection="strong")
    rows, cols = graph.nonzero()
    escapes = np.zeros(count, dtype=bool)
    escapes[labels[rows[labels[rows] != labels[cols]]]] = True
    reached = csgraph.breadth_first_order(graph, start, directed=True,
                                          return_predecessors=False)
    closed = np.unique(labels[reached])
    closed = closed[~escapes[closed]]
    if closed.size != 1:
        raise StationaryError(
            f"state {start} reaches {closed.size} closed classes; the "
            f"stationary distribution is not unique")
    return labels == closed[0]


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
    """Stationary distribution of an arbitrary sparse chain, supported on
    the closed class that ``start`` reaches."""
    matrix = sparse.csr_matrix(matrix)
    mask = _closed_class(matrix, start)
    full = np.zeros(matrix.shape[0])
    full[mask] = _gth(matrix[mask][:, mask].toarray())
    residual = float(np.abs(full @ matrix - full).max())
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
