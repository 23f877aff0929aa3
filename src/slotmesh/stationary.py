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
per-slot blocks, which is just ``(K + 1) x (K + 1)``. Chains are solved as
stacks: B chains with the same S and K share one ``(B, S, K + 1, K + 1)``
block array, their return maps come from one batched product per slot,
GTH runs once over all chains whose closed classes coincide, and the
slot-0 solutions are propagated once through the blocks into a ``(B, S,
K + 1)`` grid, slot-major like the blocks, one chain's states flattened
as ``i * (K + 1) + q``. Every chain's answer is checked against
``max |c P - c| <= RESIDUAL_BOUND``: slot ``i + 1`` is slot ``i`` times
``B_i``, so only the wrap-around term ``c_{S-1} B_{S-1} - c_0`` can be
non-zero. An error raised for one chain of a stack carries that chain's
position as ``index``. :func:`solve` is the stack of one chain.

The closed class is found by a dense boolean reachability search on the
return map, whose rows are held as Python ints used as bitsets: reach
forward from the start; while some reached state cannot get back to the
current state, move to that state, which strictly shrinks the reached
set; then check that every state the start reaches can reach the class
found. Backward searches never leave the reached set. The return map has
at most a few hundred rows, so this beats building a sparse graph, and a
stack runs the search once per distinct edge pattern. Every non-zero
entry counts as an edge, however small: a Poisson term of 1e-300 is
still a possible transition, and treating it as missing could make a
recurrent state look transient and drop its mass. GTH has no trouble with
such entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RESIDUAL_BOUND = 1e-10


class StationaryError(RuntimeError):
    """Raised when no valid stationary distribution can be computed;
    ``index`` is the failing chain's position in its stack."""

    index = 0


def _at(error: Exception, index) -> Exception:
    """``error`` tagged with the position of the failing chain in its
    stack."""
    error.index = int(index)
    return error


@dataclass(frozen=True)
class StationaryResult:
    """Normalized stationary distribution over the states ``i * (K + 1) + q``.

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


def _closed_class(edges: np.ndarray, start: int) -> np.ndarray:
    """Mask of the unique closed class reachable from ``start`` along the
    boolean matrix ``edges``."""
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
    """Stationary vectors of a ``(B, n, n)`` stack of irreducible
    stochastic matrices, one row each."""
    a = np.array(dense, dtype=float)
    n = a.shape[-1]
    for k in range(n - 1, 0, -1):
        # eliminate state k; the row sum over the states left stands in
        # for 1 - a[k, k], so nothing is subtracted
        a[:, :k, k] /= a[:, k, :k].sum(axis=1)[:, None]
        a[:, :k, :k] += a[:, :k, k, None] * a[:, None, k, :k]
    x = np.zeros(a.shape[:2])
    x[:, 0] = 1.0
    for k in range(1, n):
        x[:, k] = (x[:, None, :k] @ a[:, :k, k, None])[:, 0, 0]
        # keep the partial vector normalized: unnormalized it can overflow
        x[:, :k + 1] /= x[:, :k + 1].sum(axis=1, keepdims=True)
    return x


def _return_maps(blocks: np.ndarray) -> np.ndarray:
    """Slot-0 return maps ``B_0 B_1 ... B_{S-1}`` of a ``(B, S, K + 1,
    K + 1)`` block stack, one batched product per slot."""
    frame_map = blocks[:, 0]
    for i in range(1, blocks.shape[1]):
        frame_map = frame_map @ blocks[:, i]
    return frame_map


def _closed_classes(frame_maps: np.ndarray) -> np.ndarray:
    """``(B, K + 1)`` masks of the slot-0 closed classes of a stack of
    return maps, each distinct edge pattern searched once."""
    edges = frame_maps != 0
    level = np.empty(edges.shape[:2], dtype=bool)
    found = {}
    for b, pattern in enumerate(edges):
        key = pattern.tobytes()
        if key not in found:
            try:
                found[key] = _closed_class(pattern, 0)
            except StationaryError as exc:
                raise _at(exc, b)
        level[b] = found[key]
    return level


def _reachable(blocks: np.ndarray, level: np.ndarray) -> np.ndarray:
    """``(B, S, K + 1)`` slot-by-level masks of the closed classes: the
    slot-0 masks ``level`` carried through the blocks."""
    masks = np.empty(blocks.shape[:3], dtype=bool)
    masks[:, 0] = level
    for i in range(blocks.shape[1] - 1):
        masks[:, i + 1] = (masks[:, i, None] @ (blocks[:, i] > 0))[:, 0]
    return masks


def _solve_stack(blocks: np.ndarray):
    """Stationary distributions of a ``(B, S, K + 1, K + 1)`` stack of
    queue chains as ``(B, S, K + 1)`` slot-by-level grids, with the
    residuals and the ``(B, K + 1)`` slot-0 closed classes.

    Solves the return maps on their closed classes, GTH once per group of
    chains with the same class, and propagates the results once through
    all S blocks, back to slot 0, whose change is the residual.
    """
    frame_maps = _return_maps(blocks)
    level = _closed_classes(frame_maps)
    groups = {}
    for b, mask in enumerate(level):
        groups.setdefault(mask.tobytes(), []).append(b)
    chains, length, count = blocks.shape[:3]
    # slot S is slot 0 carried once round the slotframe
    grid = np.zeros((chains, length + 1, count))
    for members in groups.values():
        states = np.flatnonzero(level[members[0]])
        grid[np.ix_(members, [0], states)] = _gth(
            frame_maps[np.ix_(members, states, states)])[:, None]
    for i in range(length):
        grid[:, i + 1] = (grid[:, i, None] @ blocks[:, i])[:, 0]
    grid /= grid[:, :length].sum(axis=(1, 2), keepdims=True)
    residual = np.abs(grid[:, length] - grid[:, 0]).max(axis=1)
    failed = np.flatnonzero(~(residual <= RESIDUAL_BOUND))  # nan fails too
    if failed.size:
        raise _at(StationaryError(
            f"residual {residual[failed[0]]:.3e} above {RESIDUAL_BOUND:.0e}"),
            failed[0])
    return grid[:, :length], residual, level


def solve(chain) -> StationaryResult:
    """Stationary distribution of a queue chain: the stack of one."""
    blocks = chain.blocks[None]
    grid, residual, level = _solve_stack(blocks)
    return StationaryResult(distribution=grid[0].ravel(),
                            residual=float(residual[0]),
                            reachable=_reachable(blocks, level)[0].ravel())
