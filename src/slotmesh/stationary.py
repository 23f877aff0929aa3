"""Stationary distributions of slot-indexed finite Markov chains.

The chains built by :mod:`slotmesh.queuemodel` are singular
(row-stochastic) and can be reducible: states that are not in the strongly
connected component of the empty-queue start state are never visited and
carry no stationary mass. The solver prunes those states on the chain's
derived sparse ``transition_matrix``, computes the unique normalized fixed
point of ``c P = c`` on the remaining irreducible core and verifies the
residual against that matrix.

Because the slot index advances deterministically, the pruned chain is
block-cyclic: states of slot ``i`` only reach states of slot ``i + 1``.
The default method takes the pruned per-slot blocks straight from the
chain's ``blocks``, condenses them to the slot-0 return map (their
product), runs a damped power iteration on that small matrix and
propagates the result through the slots. A plain damped power iteration
on the full matrix and a dense direct solve (one equation replaced by the
normalization) are available as alternatives; the direct solve doubles
as fallback for up to 2000 states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csgraph

DEFAULT_TOLERANCE = 1e-10
DEFAULT_MAX_ITERS = 100_000
_DENSE_LIMIT = 2000
_NEGATIVE_CLAMP = -1e-12


class StationaryError(RuntimeError):
    """Raised when no valid stationary distribution can be computed."""


class ConvergenceError(StationaryError):
    """Iterative solve did not reach the residual tolerance."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class StationaryResult:
    """Normalized stationary distribution over all chain states.

    Pruned (unreachable) states hold exactly zero. ``residual`` is the
    infinity norm of ``c P - c`` on the full matrix.
    """

    distribution: np.ndarray
    residual: float
    iterations: int
    reachable: np.ndarray

    @property
    def reachable_count(self) -> int:
        return int(self.reachable.sum())


def strongly_connected_mask(matrix, start: int = 0) -> np.ndarray:
    """Boolean mask of the strongly connected component containing ``start``.

    Edges are the non-zero entries of the sparse transition matrix.
    """
    _, labels = csgraph.connected_components(matrix, directed=True,
                                             connection="strong")
    return labels == labels[start]


def reachable_states(chain) -> np.ndarray:
    """States of a queue chain in the strongly connected component of the
    empty-queue start state; everything else is pruned by the solver."""
    return strongly_connected_mask(chain.transition_matrix, start=0)


def _clamp_and_normalize(x: np.ndarray) -> np.ndarray:
    low = x.min()
    if low < 0:
        if low < _NEGATIVE_CLAMP:
            raise StationaryError(
                f"solution has a negative entry {low:.3e} beyond round-off")
        x = np.where(x < 0, 0.0, x)
    total = x.sum()
    if total <= 0:
        raise StationaryError("solution vanished; chain core may not be closed")
    return x / total


def _power_iteration(step, n, tolerance, max_iters):
    # Damped iteration x <- x (P + I)/2: same fixed points, but converges
    # also for periodic chains (slot cycling makes every chain periodic).
    x = np.full(n, 1.0 / n)
    res = float("inf")
    for it in range(1, max_iters + 1):
        xp = step(x)
        res = float(np.abs(xp - x).max())
        x = 0.5 * (x + xp)
        x /= x.sum()
        if res <= tolerance:
            return x, it
    raise ConvergenceError(
        f"power iteration did not converge within {max_iters} iterations "
        f"(residual {res:.3e})", res)


def _direct_solve(sub):
    n = sub.shape[0]
    if n > _DENSE_LIMIT:
        raise StationaryError(
            f"dense direct solve limited to {_DENSE_LIMIT} states (got {n})")
    a = (np.eye(n) - sub.toarray()).T
    # the rows of (I - P)^T are linearly dependent; replace one equation
    # with the normalization sum(c) = 1
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise StationaryError(f"direct solve failed: {exc}") from exc
    return x


def _cycle_blocks(chain, mask):
    # Per-slot blocks of the pruned chain: rows are the reachable queue
    # levels of slot i, columns those of slot (i+1) % S.
    capacity = chain.capacity
    length = chain.slotframe_length
    maskr = mask.reshape(capacity + 1, length)
    levels = [np.flatnonzero(maskr[:, i]) for i in range(length)]
    blocks = [chain.blocks[i][np.ix_(levels[i], levels[(i + 1) % length])]
              for i in range(length)]
    return levels, blocks


def _cycle_solve(chain, mask, tolerance, max_iters):
    levels, blocks = _cycle_blocks(chain, mask)
    length = chain.slotframe_length
    frame_map = blocks[0]
    for b in blocks[1:]:
        frame_map = frame_map @ b
    x, iterations = _power_iteration(lambda v: v @ frame_map,
                                     frame_map.shape[0],
                                     tolerance * 0.1, max_iters)
    parts = [x]
    for i in range(length - 1):
        parts.append(parts[-1] @ blocks[i])
    full = np.zeros(mask.size)
    for i, part in enumerate(parts):
        full[levels[i] * length + i] = part
    return full, iterations


def _check_closed(sub):
    rowsums = np.asarray(sub.sum(axis=1)).ravel()
    if rowsums.size and rowsums.min() < 1 - 1e-9:
        raise StationaryError(
            "the component reachable from the empty-queue state is not "
            "closed; the chain has no stationary distribution supported on it")


def solve_matrix(matrix, start: int = 0, tolerance: float = DEFAULT_TOLERANCE,
                 max_iters: int = DEFAULT_MAX_ITERS,
                 method: str = "power") -> StationaryResult:
    """Stationary distribution of an arbitrary sparse chain.

    Prunes states outside the strongly connected component of ``start``,
    solves on the core with ``method`` in ``{"power", "direct"}`` and embeds
    the result back into the full state space.
    """
    if method not in ("power", "direct"):
        raise ValueError(f"unknown method {method!r}")
    matrix = matrix.tocsr()
    mask = strongly_connected_mask(matrix, start=start)
    sub = matrix[mask][:, mask]
    _check_closed(sub)
    if method == "power":
        x, iterations = _power_iteration(lambda v: v @ sub, sub.shape[0],
                                         tolerance, max_iters)
    else:
        x, iterations = _direct_solve(sub), 0
    full = np.zeros(matrix.shape[0])
    full[mask] = x
    return _finalize(matrix, full, mask, iterations, tolerance)


def _finalize(matrix, full, mask, iterations, tolerance) -> StationaryResult:
    full = _clamp_and_normalize(full)
    residual = float(np.abs(full @ matrix - full).max())
    if residual > tolerance:
        raise ConvergenceError(
            f"residual {residual:.3e} above tolerance {tolerance:.1e}", residual)
    return StationaryResult(distribution=full, residual=residual,
                            iterations=iterations, reachable=mask)


def solve(chain, tolerance: float = DEFAULT_TOLERANCE,
          max_iters: int = DEFAULT_MAX_ITERS,
          method: str = "auto") -> StationaryResult:
    """Stationary distribution of a queue chain.

    ``method``:

    * ``"cycle"`` - power iteration on the slot-0 return map (default path,
      exploits the block-cyclic slot structure),
    * ``"power"`` - damped power iteration on the full pruned matrix,
    * ``"direct"`` - dense solve with the normalization equation,
    * ``"auto"`` - ``cycle`` with a ``direct`` fallback on non-convergence.
    """
    if method in ("power", "direct"):
        return solve_matrix(chain.transition_matrix, start=0,
                            tolerance=tolerance, max_iters=max_iters,
                            method=method)
    if method not in ("auto", "cycle"):
        raise ValueError(f"unknown method {method!r}")
    matrix = chain.transition_matrix.tocsr()
    mask = strongly_connected_mask(matrix, start=0)
    sub = matrix[mask][:, mask]
    _check_closed(sub)
    try:
        full, iterations = _cycle_solve(chain, mask, tolerance, max_iters)
        return _finalize(matrix, full, mask, iterations, tolerance)
    except ConvergenceError:
        if method == "cycle" or sub.shape[0] > _DENSE_LIMIT:
            raise
        full = np.zeros(matrix.shape[0])
        full[mask] = _direct_solve(sub)
        return _finalize(matrix, full, mask, 0, tolerance)
