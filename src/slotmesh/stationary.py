"""Stationary distributions of slot-indexed finite Markov chains.

A queue chain of :mod:`slotmesh.queuemodel` comes here as ``(S, K + 1)``
capped arrival rows, ``(T + 1, K + 1)`` run rows of the quiet runs
between its T transmission slots, and ``(S,)`` departures, one on
transmission slots.
Entry ``k < K`` of row ``i`` is the probability of ``k`` arrivals in slot
``i``, and entry K the mass at K and beyond: one minus the head where
that is at least 1/2, the pmf's upper sum below it. Every tail
``P(A >= r)`` is a top sum of a capped row (:func:`_top_sums`), so small
tails keep their size. The slot index only advances from ``i`` to
``i + 1``, so the chain is its S per-slot ``(K + 1) x (K + 1)`` blocks,
built (:func:`_slot_blocks`) and read only here: block ``i`` holds the
probabilities of moving from level ``q`` in slot ``i`` to each level in
slot ``i + 1``. Without a departure, row ``q`` is the capped row moved
``q`` levels up, ending in ``P(A >= K - q)`` (:func:`_capped_blocks`). A
transmission slot has every row ``q >= 1`` one column further left, its
packet leaving before the arrivals, built so from the capped row without
moving the block's entries; row 0, the empty queue, stays the slot's
capped row.

The chains are row-stochastic and can be reducible. Their stationary
distribution lives on the closed class (the closed communicating class)
that the start state, the empty queue at slot 0, reaches; every other
state is transient or never visited and carries exactly zero mass. If the
start state reaches more than one closed class the distribution is not
unique and :class:`StationaryError` is raised.

The closed class is solved by the GTH elimination (Grassmann, Taksar and
Heyman, Oper. Res. 33(5), 1985): Gaussian elimination that replaces the
pivot ``1 - p_kk`` by the row sum it equals, so it never subtracts, gives
a non-negative answer and stays accurate near saturation.

A chain only needs its slot-0 return map ``F = B_0 B_1 ... B_{S-1}``,
just ``(K + 1) x (K + 1)``. Quiet slots compose exactly, since
``min(min(q + a, K) + b, K) = min(q + a + b, K)``: a run of them adds the
run's arrivals, capped at K, and is the quiet block of the run row that
:mod:`slotmesh.queuemodel` builds in closed form with the slot rows (a
Poisson row of the run's summed rate, one Bernoulli packet per forwarded
slot). A transmission slot maps ``q`` to ``min(q + a, K) - [q >= 1]`` and
stays a factor of its own. So ``F`` is ``R_0 X_1 R_1 ... X_T R_T`` for T
transmission blocks ``X_t``, ``R_t`` the run after ``X_t``: 2T dense
products instead of S, and no quiet slot is composed on its own.

Chains are solved as stacks of B chains with the same S and K: a chain
with fewer transmission slots than the widest gets identity factors and
runs of no arrivals, which keep its bits as they are alone. GTH runs once
over all chains whose closed classes coincide. A slotframe lowers the
queue by at most T levels, T the stack's widest transmission count, so
``F`` has lower bandwidth at most T, which GTH from the top state keeps:
state k is eliminated over the T columns below it only, ``O(n^2 T)`` work
instead of ``O(n^3)``, with the bits of the full elimination since the
entries it skips are exact zeros. The slot-0 solutions are carried
through the real blocks (:func:`_carry`) into a ``(B, S, K + 1)`` grid,
slot-major like the blocks, one chain's states flattened as
``i * (K + 1) + q``. Every chain's answer is checked against
``max |c P - c| <= RESIDUAL_BOUND``: slot ``i + 1`` is slot ``i`` times
``B_i``, so only the wrap-around term ``c_{S-1} B_{S-1} - c_0``, taken
from the normalized grid, can be non-zero; since the carry never reads
the run rows, it also checks their closed form. An error raised for one
chain of a stack carries that chain's position as ``index``.
:func:`solve` is the stack of one chain; it carries the slot-0 closed
class along the edges of the blocks to mark the class in every slot.

The carry and the wrap-around term read the blocks one slot at a time,
so a stack never holds all its ``B S (K + 1)^2`` block entries:
:func:`_walk` builds them a chunk of consecutive slots at a time, each
chunk within ``_CHUNK_BYTES`` (one MiB) or a single slot, into one
buffer, and a chunk is still in the cache when its slots are read. Each
slot block is built once per solve; the factors ``X_t`` come from their
gathered rows, a chunk of them at a time, before the carry. A stack that
fits in one chunk, every level of a small network, is built whole once
and its factors indexed from it.

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

import itertools
from dataclasses import dataclass

import numpy as np

RESIDUAL_BOUND = 1e-10
# bytes of slot blocks built at once: a chunk of slots small enough to be
# read again from the cache by the next consumer
_CHUNK_BYTES = 1 << 20


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
    data, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[i:i + width], "little")
            for i in range(0, len(data), width)]


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


def _gth(dense: np.ndarray, lower: int) -> np.ndarray:
    """Stationary vectors of a ``(B, n, n)`` stack of irreducible
    stochastic matrices, one row each.

    No state moves more than ``lower`` states down in any of the matrices,
    and eliminating from the top keeps that band: state ``k`` only changes
    columns ``k - lower .. k - 1``. Every entry left out is an exact zero,
    and so is every entry of a band wider than the matrices need: the
    answer has the bits of the elimination over all columns.
    """
    a = np.array(dense, dtype=float, order="C")
    n = a.shape[-1]
    # ufunc calls, not methods and operators: the loops are call-bound
    for k in range(n - 1, 0, -1):
        # eliminate state k; the row sum over the states left stands in
        # for 1 - a[k, k], so nothing is subtracted
        pivot, band = a[:, :k, k], slice(max(k - lower, 0), k)
        np.divide(pivot, np.add.reduce(a[:, k, :k], axis=1, keepdims=True),
                  out=pivot)
        update = a[:, :k, band]
        np.add(update, np.multiply(pivot[:, :, None], a[:, None, k, band]),
               out=update)
    x = np.zeros((len(a), 1, n))
    x[:, 0, 0] = 1.0
    for k in range(1, n):
        np.matmul(x[:, :, :k], a[:, :k, k, None], out=x[:, :, k:k + 1])
        # keep the partial vector normalized: unnormalized it can overflow
        head = x[:, :, :k + 1]
        np.divide(head, np.add.reduce(head, axis=2, keepdims=True), out=head)
    return x[:, 0]


def _top_sums(rows: np.ndarray) -> np.ndarray:
    """Entry ``r`` of the last axis holds the sum of entries ``r`` and
    beyond of the capped arrival rows ``rows``, ``P(A >= r)``, with
    ``P(A >= 0)`` exactly one."""
    sums = np.add.accumulate(rows[..., ::-1], axis=-1)[..., ::-1]
    sums[..., 0] = 1.0
    return sums


def _capped_blocks(rows: np.ndarray, sends=None, out=None) -> np.ndarray:
    """``(..., K + 1, K + 1)`` blocks that add arrivals to the level,
    capped at K, from ``(..., K + 1)`` capped arrival rows, whose entry K
    holds the mass at K and beyond: row ``q`` is the arrival row moved
    ``q`` levels up, ``rows[r - q]`` in column ``r < K``, and the top sum
    ``P(A >= K - q)`` in column K. Where the boolean ``sends`` is set, a
    packet leaves first: rows ``q >= 1`` sit one column to the left,
    ending in ``P(A >= K - q)`` in column K - 1. Written into ``out`` if
    given."""
    count = rows.shape[-1]
    top = _top_sums(rows)[..., ::-1]
    padded = np.zeros((*rows.shape[:-1], 2 * count - 1))
    padded[..., count - 1:] = rows
    if sends is not None:
        # a sending row sits one entry to the left, so that its rows q >= 1
        # read one column on; its row 0 is written back below
        padded[sends, count - 2:-1] = rows[sends]
        padded[sends, -1] = 0.0
    # entry (q, r) is padded[K + r - q], the row's r - q or a zero: a view
    # that steps back one entry per row, copied
    step = padded.itemsize
    view = np.ndarray((*rows.shape, count), buffer=padded,
                      offset=(count - 1) * step,
                      strides=(*padded.strides[:-1], -step, step))
    if out is None:
        out = view.copy()
    else:
        out[...] = view
    out[..., -1] = top
    if sends is not None:
        out[sends, 0] = rows[sends]
        out[sends, 1:, -2] = top[sends, 1:]
        out[sends, 1:, -1] = 0.0
    return out


def _slot_blocks(rows: np.ndarray, tau: np.ndarray, out=None) -> np.ndarray:
    """Read-only ``(..., S, K + 1, K + 1)`` slot blocks of chains given as
    ``(..., S, K + 1)`` capped arrival rows and ``(..., S)`` departures
    ``tau``: the blocks of :func:`_capped_blocks`, written into ``out`` if
    given, a packet leaving first on transmission slots."""
    blocks = _capped_blocks(rows, tau != 0, out)
    blocks.flags.writeable = False
    return blocks


def _chunk_slots(rows: np.ndarray) -> int:
    """Slots per chunk of a stack given as ``(B, S, K + 1)`` capped
    arrival rows: as many as keep the chunk's ``(B, c, K + 1, K + 1)``
    blocks within ``_CHUNK_BYTES``, and at least one."""
    chains, _, count = rows.shape
    return max(_CHUNK_BYTES // (chains * count * count * 8), 1)


def _walk(rows: np.ndarray, tau: np.ndarray, blocks=None):
    """The ``(B, K + 1, K + 1)`` slot blocks of a stack in slot order:
    those of ``blocks``, the stack's blocks built whole, if given, else
    built (:func:`_slot_blocks`) from the capped rows and departures a
    chunk of consecutive slots at a time, as far as they are read."""
    if blocks is not None:
        return iter(blocks.swapaxes(0, 1))
    size = _chunk_slots(rows)
    chains, length, count = rows.shape
    # every chunk reuses one buffer: a new array per chunk would be paged
    # in afresh whenever the allocator has handed the last one back
    buffer = np.empty((chains, min(size, length), count, count))
    return itertools.chain.from_iterable(
        _slot_blocks(rows[:, start:start + size], tau[:, start:start + size],
                     buffer[:, :length - start]).swapaxes(0, 1)
        for start in range(0, length, size))


def _return_maps(rows: np.ndarray, runs: np.ndarray, tau: np.ndarray,
                 blocks=None) -> np.ndarray:
    """Slot-0 return maps ``B_0 B_1 ... B_{S-1}`` of a stack given as
    ``(B, S, K + 1)`` capped arrival rows, ``(B, T + 1, K + 1)`` run rows
    and ``(B, S)`` departures ``tau``, each as ``R_0 X_1 R_1 ... X_T R_T``;
    ``blocks`` are the stack's slot blocks if they were built whole.

    ``X_t`` is the block of a chain's t-th transmission slot and ``R_t``
    the quiet run after it, expanded by :func:`_capped_blocks` from its run
    row. A chain with fewer transmission slots than another in its stack
    gets identity factors and runs of no arrivals, and a run without
    arrivals in every chain is left out: a product with the identity is
    exact, so each chain gets the bits it gets alone. The factors ``X_t``
    are indexed from ``blocks``, or built from their gathered rows a chunk
    at a time.
    """
    chains, _, count = rows.shape
    widest = runs.shape[1] - 1
    sends = tau != 0
    # the slot of each chain's t-th transmission; past its last, a chain
    # gets the identity factor
    slots = np.argsort(~sends, axis=1, kind="stable")[:, :widest]
    past = sends.sum(axis=1)[:, None] <= np.arange(widest)
    chain = np.arange(chains)[:, None]
    if blocks is None:
        # the row of no arrivals, without a departure, builds the identity
        factors = rows[chain, slots]
        factors[past] = np.eye(1, count)
        factors = _walk(factors, ~past)
    else:
        factors = blocks[chain, slots]
        factors[past] = np.eye(count)
        factors = iter(factors.swapaxes(0, 1))
    frame_map = None
    # a chain without transmission slots is its one run
    for t, used in enumerate(runs[:, :, 1:].any(axis=(0, 2)).tolist()):
        if used or not widest:
            run = _capped_blocks(runs[:, t])
            frame_map = run if frame_map is None else frame_map @ run
        if t < widest:
            send = next(factors)
            # a built factor is a view of the walk's buffer, which the next
            # chunk overwrites
            frame_map = send.copy() if frame_map is None else frame_map @ send
    return frame_map


def _carry(first: np.ndarray, blocks, length: int) -> np.ndarray:
    """``(B, S, K + 1)`` grid, boolean or not, of a stack whose ``(B, K +
    1, K + 1)`` slot blocks the iterator ``blocks`` yields in slot order:
    slot 0 is ``first``, slot ``i + 1`` slot ``i`` times block ``i``. Reads
    the first S - 1 blocks only."""
    grid = np.empty((len(first), length, first.shape[-1]), dtype=first.dtype)
    grid[:, 0] = first
    for i, block in zip(range(length - 1), blocks):
        grid[:, i + 1] = (grid[:, i, None] @ block)[:, 0]
    return grid


def _solve_stack(rows: np.ndarray, runs: np.ndarray, tau: np.ndarray):
    """Stationary distributions of a stack of queue chains given as
    ``(B, S, K + 1)`` capped arrival rows, ``(B, T + 1, K + 1)`` run rows
    and ``(B, S)`` departures ``tau``, as ``(B, S, K + 1)`` slot-by-level
    grids, with the residuals and the ``(B, K + 1)`` slot-0 closed classes.

    Solves the return maps on their closed classes, GTH once per group of
    chains with the same class, inside the band of the T levels a frame
    can lower the queue by, and carries the results through all S blocks,
    back to slot 0, whose change is the residual. Each slot block is built
    once, a chunk at a time unless the whole stack fits in one chunk, and
    the T factors of the return maps once more unless it does.
    """
    blocks = (_slot_blocks(rows, tau)
              if _chunk_slots(rows) >= rows.shape[1] else None)
    frame_maps = _return_maps(rows, runs, tau, blocks)
    lower = runs.shape[1] - 1
    # one search per distinct edge pattern, one GTH group per closed class
    level = np.empty(frame_maps.shape[:2], dtype=bool)
    classes, groups = {}, {}
    for b, pattern in enumerate(frame_maps != 0):
        key = pattern.tobytes()
        if key not in classes:
            try:
                classes[key] = _closed_class(pattern, 0)
            except StationaryError as exc:
                raise _at(exc, b)
        level[b] = classes[key]
        groups.setdefault(level[b].tobytes(), []).append(b)
    first = np.zeros(level.shape)
    for members in groups.values():
        states = np.flatnonzero(level[members[0]])
        members = np.array(members)[:, None]
        first[members, states] = _gth(
            frame_maps[members[:, :, None], states[:, None], states], lower)
    walk = _walk(rows, tau, blocks)
    grid = _carry(first, walk, rows.shape[1])
    grid /= grid.sum(axis=(1, 2), keepdims=True)
    # slot 0 carried once round the slotframe, from the normalized grid
    wrap = (grid[:, -1, None] @ next(walk))[:, 0]
    residual = np.abs(wrap - grid[:, 0]).max(axis=1)
    failed = np.flatnonzero(~(residual <= RESIDUAL_BOUND))  # nan fails too
    if failed.size:
        raise _at(StationaryError(
            f"residual {residual[failed[0]]:.3e} above {RESIDUAL_BOUND:.0e}"),
            failed[0])
    return grid, residual, level


def solve(chain) -> StationaryResult:
    """Stationary distribution of a queue chain: the stack of one."""
    rows, tau = chain.rows[None], chain.departures[None]
    grid, residual, level = _solve_stack(rows, chain.runs[None], tau)
    edges = (block > 0 for block in _walk(rows, tau))
    return StationaryResult(
        distribution=grid[0].ravel(), residual=float(residual[0]),
        reachable=_carry(level, edges, len(tau[0]))[0].ravel())
