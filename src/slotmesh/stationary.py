"""Stationary distributions of slot-indexed finite Markov chains.

A queue chain of :mod:`slotmesh.queuemodel` comes here as ``(S, K + 1)``
capped arrival rows, ``(T, 3, K + 1)`` factor rows, three per
transmission slot (:func:`_return_maps`), and ``(S,)`` departures, the
boolean transmission mask of :func:`slotmesh.queuemodel._check_node`,
set on transmission slots and read as it is, all in the chain's frame
from s (below).
Entry ``k < K`` of row ``i`` is the probability of ``k`` arrivals in slot
``i``, and entry K the mass at K and beyond: one minus the head where
that is at least 1/2, the pmf's upper sum below it. Every tail
``P(A >= r)`` is a top sum of a capped row (:func:`_top_sums`), so small
tails keep their size. The slot index only advances from ``i`` to
``i + 1``, so the chain is its S per-slot ``(K + 1) x (K + 1)`` blocks,
built (:func:`_walk`) and read only here: block ``i`` holds the
probabilities of moving from level ``q`` in slot ``i`` to each level in
slot ``i + 1``. Without a departure, row ``q`` is the capped row moved
``q`` levels up, ending in ``P(A >= K - q)`` (:func:`_capped_blocks`). A
transmission slot has every row ``q >= 1`` one column further left, its
packet leaving before the arrivals, built so from the capped row without
moving the block's entries; row 0, the empty queue, stays the slot's
capped row.

The chains are row-stochastic and can be reducible. Their stationary
distribution lives on the closed class (the closed communicating class)
that the start state reaches; every other state is transient or never
visited and carries exactly zero mass. If the start state reaches more
than one closed class the distribution is not unique and
:class:`StationaryError` is raised. Each chain is solved in its frame
from s, the slot after its last transmission slot (slot 0 without one,
:func:`slotmesh.queuemodel._rotation`), and the start state is the empty
queue at s. It reaches the closed classes that the empty queue at slot
0 reaches on every chain a test tries: up to three slots, K one or
three, any transmission slots, a rate of 0 or 0.7 and forwarding
probabilities 0, 1/2 and 1 in any slot.

The closed class is solved by the GTH elimination (Grassmann, Taksar and
Heyman, Oper. Res. 33(5), 1985): Gaussian elimination that replaces the
pivot ``1 - p_kk`` by the row sum ``s_k`` it equals, so it never
subtracts, gives a non-negative answer and stays accurate near
saturation. Eliminating state k scales its row by ``1 / s_k``, and the
pivot columns are divided by their ``s_k`` in the back-substitution.
That runs a block of up to ``_STATES`` (32) states at a time: ``x_j`` is
the sum over ``i < j`` of ``x_i a_ij / s_j``, so a block is the share of
the states above it times ``(I - U)^-1 = (I + U)(I + U^2)(I + U^4)...``,
``U`` the strictly upper part of the block's square over the pivots, a
few small products of non-negative terms in place of three numpy calls
per state. Each chain's block has its rows and columns scaled by exact
powers of two, from bounds on the growth along the block, so that
nothing overflows at any load; the scaling is per chain and the blocks
fixed, so a chain's bits never depend on the chains stacked with it.

A chain only needs its return map at s, ``G = B_s ... B_{S-1} B_0 ...
B_{s-1}``, just ``(K + 1) x (K + 1)``. In the frame from s every quiet
run ends in a transmission slot, so ``G`` is ``Y_1 ... Y_T``, one
run-then-send factor per transmission slot. Quiet slots compose exactly,
since ``min(min(q + a, K) + b, K) = min(q + a + b, K)``, and a level
``q >= 1`` stays above zero through the run, so its packet leaves:
rows ``q >= 1`` of ``Y_t`` are the transmission rows of the merged row,
the arrivals of run t and of its transmission slot, which
:mod:`slotmesh.queuemodel` builds in closed form with the slot rows (a
Poisson row of the summed rate, one Bernoulli packet per forwarded
slot). Only the empty queue can stay empty through the run and send
nothing: row 0 is the run's own row times the transmission block
``X_t``, built from the factor's third row, a copy of the transmission
slot's row. Row 0 of each ``Y_t`` is one vector-block product, and the
rest T - 1 dense products, none for a node with one transmission slot
per frame: no quiet slot is composed on its own.

Chains are solved as stacks of B chains with the same S and K: a chain
with fewer transmission slots than the widest gets identity factors,
which keep its bits as they are alone, and a chain without any gets the
quiet block of its whole frame. Every chain given is solved;
:func:`slotmesh.queuemodel._evaluate_stack` gives only the chains its
memo lacks, each once, keyed on K and its inputs in its frame from s,
and takes the others from the memo. GTH runs once over all chains whose
closed classes coincide. A slotframe lowers the queue by at most T
levels, T the stack's widest transmission count, so ``G`` has lower
bandwidth at most T, which GTH from the top state keeps: state k is
eliminated over the T columns below it only, ``O(n^2 T)`` work instead
of ``O(n^3)``, with the bits of the full elimination since the entries
it skips are exact zeros. In a band of one, the ladder node's and every
stack of one-slot senders, the scaled row is exactly one and the
elimination is the suffix sums of the columns, accumulated a block of
rows at a time from the first column the back-substitution reads. The
solutions at s are carried through the real blocks of the frame
(:func:`_carry`) into a ``(B, S, K + 1)`` grid in each chain's frame
from s, step ``j`` of chain b at slot ``(s_b + j) mod S``, and
normalized there: the solver has no other order. Every chain's answer
is checked against ``max |c P - c| <= RESIDUAL_BOUND``: each slot is the
one before it times its block, so only the wrap-around term ``c_{s-1}
B_{s-1} - c_s``, taken from the normalized grid, can be non-zero; since
the carry never reads the factor rows, it also checks their closed form.
An error raised for one chain of a stack carries that chain's position
as ``index``.
:func:`solve` is the stack of one chain, which a
:class:`slotmesh.queuemodel.QueueChain` holds in its frame from s with
``shift``, the slot that frame starts at; it rolls the grid back to slot
order by ``shift``, states flattened as ``i * (K + 1) + q``. Its carry
also takes the closed class at s along the edges of the blocks to mark
the class in every slot, rolled back with the grid. Nothing else here
knows slot order.

Every block a solve reads comes from one walk (:func:`_walk`), the one
place that builds blocks, so a stack never holds all its ``B S (K +
1)^2`` block entries. It takes the stack's blocks as one stack of rows,
built in order: first each factor's ``X_t`` and ``Y_t``
(:func:`_factors`), from which the return maps are multiplied, then one
block per run of consecutive slots whose rows and departures are equal
in every chain of the stack, which the carry applies to each slot of
the run and the wrap-around term reads once more: the solver ladder's
node builds 2 of its 19 slot blocks, and the quiet run of any chain with
one transmission slot under uniform traffic is one block. Each block is
built once per solve, a chunk at a time, each chunk within
``_CHUNK_BYTES`` (one MiB) or a single block, into one buffer, so a
stack within the budget, as every stack of a 19-node network at K = 16
is, takes one call; a chunk is still in the cache when its blocks are
read. The buffer is at most the larger of one chunk and two blocks: at
least two, so that glibc malloc does not trim the heap top and page
the solve's largest arrays in afresh on every solve. A block holds
until the walk moves past its chunk: the return maps take row 0 of
``Y_t`` from ``X_t`` before the walk builds ``Y_t``, and copy the first
factor only when more follow; the carry makes each run's block
read-only before it reads it.

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
# bytes of slot blocks built at once: a chunk of slots small enough to be
# read again from the cache by the next consumer
_CHUNK_BYTES = 1 << 20
# states back-substituted at once by GTH, and the strictly upper part of
# such a block, as floats so that masking a block casts nothing
_STATES = 32
_UPPER = np.triu(np.ones((_STATES, _STATES)), 1)


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
    # packed from a copy: packing the transposed view is several times slower
    forward, backward = _bitsets(edges), _bitsets(edges.T.copy())
    node = 1 << start
    reached = _reach(forward, node, (1 << n) - 1)
    found = reached
    # move to a reached state that cannot return to the current node
    while stuck := found & ~_reach(backward, node, found):
        node = stuck & -stuck
        found = _reach(forward, node, found)
    if found != reached and _reach(backward, found, reached) != reached:
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
    answer has the bits of the elimination over all columns. Eliminating
    ``k`` scales its row band by ``1 / s_k``, ``s_k`` the row sum over the
    states left. In a band of one the scaled band is exactly one, so the
    elimination adds each column to the one before it: column ``k`` ends
    as the suffix sum of the columns from ``k`` on, accumulated from the
    last column with the same bits, and only where the back-substitution
    reads it. The back-substitution takes
    ``_STATES`` states at a time, dividing by the pivots ``s_k`` there,
    and scales each chain's block by powers of two of its own.
    """
    n = dense.shape[-1]
    if lower == 1:
        # s_k is the one entry below the diagonal, never changed
        sums = np.diagonal(dense, offset=-1, axis1=1, axis2=2)
        # written through a reversed view, so that a itself is in order:
        # the back-substitution's products then take the same path as for
        # a wider band. It reads a block's rows from the block's first
        # column on, the square included, which the product with _UPPER
        # needs finite; row 0 goes with the first block
        a = np.empty(dense.shape)
        for low in range(1, n, _STATES):
            rows = slice(low if low > 1 else 0, low + _STATES)
            np.add.accumulate(dense[:, rows, :low - 1:-1], axis=2,
                              out=a[:, rows, :low - 1:-1])
    else:
        a = np.array(dense, dtype=float, order="C")
        sums = np.empty((len(a), n - 1))
        # ufunc calls, not methods and operators: the loops are call-bound
        for k in range(n - 1, 0, -1):
            # eliminate state k; the row sum over the states left stands in
            # for 1 - a[k, k], so nothing is subtracted
            band = slice(max(k - lower, 0), k)
            row = a[:, k, band]
            np.add.reduce(a[:, k, :k], axis=1, out=sums[:, k - 1])
            np.divide(row, sums[:, k - 1, None], out=row)
            update = a[:, :k, band]
            np.add(update, np.multiply(a[:, :k, k, None], row[:, None]),
                   out=update)
    # back-substitution a block of states at a time: x_j is the sum over
    # i < j of x_i a_ij / s_j, so a block is its share c from the states
    # above it times (I - u)^-1, u its square's strictly upper part over s_j
    x = np.zeros((len(a), 1, n))
    x[:, 0, 0] = 1.0
    for low in range(1, n, _STATES):
        high = min(low + _STATES, n)
        pivots = sums[:, None, low - 1:high - 1]
        c = np.matmul(x[:, :, :low], a[:, :low, low:high])
        np.divide(c, pivots, out=c)
        u = a[:, low:high, low:high] * _UPPER[:high - low, :high - low]
        np.divide(u, pivots, out=u)
        # 2^grow[j] bounds the product along any path through the block to
        # state j, 2^shift[j] that and the largest share from above. With
        # its rows and columns so scaled, u has no entry above one and the
        # block's answer none above 2^_STATES, and the scaling is exact
        grow = np.frexp(np.maximum.reduce(u, axis=1, initial=0.5))[1]
        np.add.accumulate(grow, axis=1, out=grow)
        shift = np.frexp(np.maximum.reduce(c, axis=2))[1] + grow
        u = np.ldexp(u, grow[:, :, None] - grow[:, None, :])
        r = np.ldexp(c, -shift[:, None])
        # r (I - u)^-1 = r (I + u)(I + u^2)(I + u^4)..., as u^(high - low)
        # is zero; every term is non-negative
        power = 1
        while True:
            np.add(r, np.matmul(r, u), out=r)
            power *= 2
            if power >= high - low:
                break
            u = np.matmul(u, u)
        # scale the head and the block so that no entry is far above one,
        # then normalize: unscaled the vector can overflow
        mantissa, exponent = np.frexp(r)
        exponent += shift[:, None]
        top = np.maximum.reduce(exponent, axis=2, where=mantissa > 0.0,
                                initial=0, keepdims=True)
        np.ldexp(x[:, :, :low], -top, out=x[:, :, :low])
        np.ldexp(r, shift[:, None] - top, out=x[:, :, low:high])
        head = x[:, :, :high]
        np.divide(head, np.add.reduce(head, axis=2, keepdims=True), out=head)
    return x[:, 0]


def _top_sums(rows: np.ndarray) -> np.ndarray:
    """Entry ``r`` of the last axis holds the sum of entries ``r`` and
    beyond of the capped arrival rows ``rows``, ``P(A >= r)``, with
    ``P(A >= 0)`` exactly one."""
    sums = np.add.accumulate(rows[..., ::-1], axis=-1)[..., ::-1]
    sums[..., 0] = 1.0
    return sums


def _capped_blocks(rows: np.ndarray, sends: np.ndarray,
                   out=None) -> np.ndarray:
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
    # a sending row sits one entry to the left, so that its rows q >= 1
    # read one column on; its row 0 is written back below
    sent = rows[sends]
    padded[sends, count - 2:-1] = sent
    padded[sends, -1] = 0.0
    # entry (q, r) is padded[K + r - q], the row's r - q or a zero: a view
    # that steps back one entry per row, copied
    step = padded.itemsize
    view = np.ndarray((*rows.shape, count), buffer=padded,
                      offset=(count - 1) * step,
                      strides=(*padded.strides[:-1], -step, step))
    out = np.empty(view.shape) if out is None else out
    out[...] = view
    out[..., -1] = top
    out[sends, 0] = sent
    out[sends, 1:, -2] = top[sends, 1:]
    out[sends, 1:, -1] = 0.0
    return out


def _chunk_slots(rows: np.ndarray) -> int:
    """Entries per chunk along axis 1 of a stack's ``(B, n, ..., K + 1)``
    capped arrival rows: as many as keep the chunk's blocks within
    ``_CHUNK_BYTES``, and at least one."""
    return max(_CHUNK_BYTES // (rows[:, :1].nbytes * rows.shape[-1]), 1)


def _walk(rows: np.ndarray, sends: np.ndarray):
    """The ``(B, K + 1, K + 1)`` blocks of a stack's ``(B, n, K + 1)``
    capped rows and ``(B, n)`` boolean sends (:func:`_capped_blocks`), one
    per row, in order: a solve's factor blocks (:func:`_factors`), then one
    block per run of equal slots. They are built a chunk of rows at a
    time, each chunk within ``_CHUNK_BYTES`` or a single block, into one
    buffer, so a block holds until the walk moves past its chunk. The
    buffer, the walk's memory, is at most the larger of one chunk and two
    blocks."""
    chains, length, count = rows.shape
    size = _chunk_slots(rows)
    # every chunk reuses one buffer: a new array per chunk would be paged
    # in afresh whenever the allocator has handed the last one back. It
    # holds two blocks at least, for glibc malloc's heap trimming: it and
    # GTH's matrix are the largest arrays a solve frees, and glibc hands a
    # freed heap top back to the system once it passes twice the largest
    # block freed before, which with a one-block buffer paged both in
    # afresh on every solve of the ladder's K = 512 node
    buffer = np.empty((chains, max(min(size, length), 2), count, count))
    for at in range(0, length, size):
        chunk = slice(at, at + size)
        blocks = _capped_blocks(rows[:, chunk], sends[:, chunk],
                                buffer[:, :min(size, length - at)])
        yield from blocks.swapaxes(0, 1)


def _factors(runs: np.ndarray, tau: np.ndarray):
    """The ``(B, 2T, K + 1)`` rows and ``(B, 2T)`` sends of the blocks of
    a stack's factors, ``X_t`` from the transmission slot's own row
    ``runs[:, t, 2]`` and ``Y_t`` from the merged row ``runs[:, t, 1]`` in
    turn, from its ``(B, T, 3, K + 1)`` factor rows and ``(B, S)`` boolean
    transmission masks: both blocks of a factor send, or neither does."""
    width = runs.shape[1]
    sending = tau.sum(axis=1)[:, None] > np.arange(width)
    return (runs[:, :, :0:-1].reshape(len(runs), 2 * width, -1),
            np.repeat(sending, 2, axis=1))


def _return_maps(runs: np.ndarray, blocks) -> np.ndarray:
    """Return maps at s, each as ``Y_1 ... Y_T``, of a stack given as its
    ``(B, T, 3, K + 1)`` factor rows ``runs`` and an iterator ``blocks``
    that yields each factor's ``(B, K + 1, K + 1)`` blocks ``X_t`` and
    ``Y_t`` in turn, the walk of :func:`_factors`' rows.

    ``Y_t`` is quiet run t of the frame from s and the transmission slot
    that ends it, whose block ``X_t`` is that of the slot's own row
    ``runs[:, t, 2]``. A queue of ``q >= 1`` packets is not empty when
    the slot comes, so rows ``q >= 1`` are the transmission rows of the
    merged row ``runs[:, t, 1]``; row 0 is the run's own row
    ``runs[:, t, 0]`` times ``X_t``, taken before the walk builds ``Y_t``,
    perhaps over ``X_t``, and written into it there. A factor that sends
    nothing is the quiet block of its merged row: the whole frame of a
    chain without transmission slots, and the identity past a chain's
    last, which keeps each chain's bits as they are alone. A single
    factor is the return map as the walk built it; of more, the first is
    copied, as the walk may build the next over it.
    """
    frame_map, width = None, runs.shape[1]
    for t in range(width):
        head = np.matmul(runs[:, t, None, 0], next(blocks))
        factor = next(blocks)
        factor[:, :1] = head
        frame_map = (np.matmul(frame_map, factor) if t
                     else factor.copy() if width > 1 else factor)
    return frame_map


def _carry(first: np.ndarray, blocks, bounds: list, level=None):
    """``(B, S, K + 1)`` grid of a stack whose slot blocks the iterator
    ``blocks`` yields one per run of equal slots, run r from slot
    ``bounds[r]`` to ``bounds[r + 1]``, ``bounds[-1]`` S: step 0 is the
    ``(B, K + 1)`` ``first``, step ``j + 1`` step ``j`` times block ``j``.
    Given the boolean ``level`` of ``first``'s shape, also the states it
    reaches at each step along the blocks' non-zero entries, in a second
    such grid of zeros and ones. Each block is made read-only before it
    is read. Returns both and the last block, that of slot S - 1, which
    it does not read."""
    length = bounds[-1]
    grid = np.empty((len(first), length, first.shape[-1]))
    grid[:, 0] = first
    reach = None if level is None else np.empty(grid.shape)
    if reach is not None:
        reach[:, 0] = level
    # step j of every chain as one (B, 1, K + 1) view, as matmul takes it,
    # all made in one pass
    steps = list(grid[:, :, None].swapaxes(0, 1))
    for start, end, block in zip(bounds, bounds[1:], blocks):
        block.flags.writeable = False
        for j in range(start, min(end, length - 1)):
            np.matmul(steps[j], block, out=steps[j + 1])
            if reach is not None:
                # a sum of non-negative terms is positive if any term is
                np.greater(np.matmul(reach[:, j, None], block), 0.0, out=reach[:, j + 1, None])
    return grid, reach, block


def _solve_stack(rows: np.ndarray, runs: np.ndarray, tau: np.ndarray,
                 reach: bool = False):
    """Stationary distributions of a stack of queue chains given in each
    chain's frame from s, a transmission slot last or
    none at all, as ``(B, S, K + 1)`` capped arrival rows, ``(B, T, 3, K +
    1)`` factor rows and ``(B, S)`` boolean transmission masks ``tau``:
    ``(B, S, K + 1)`` step-by-level grids in the same frames, with the
    residuals and the closed classes, the ``(B, K + 1)`` classes at s, or
    with ``reach`` the ``(B, S, K + 1)`` classes at every step.

    One walk (:func:`_walk`) builds every block the solve reads: the 2T
    factor blocks, from which the return maps are multiplied
    (:func:`_return_maps`), then one block per run of consecutive slots
    whose rows and masks are equal in every chain. The return maps are
    solved on their closed classes, which the empty queue at s reaches,
    GTH once per group of chains with the same class, inside the band of
    the T levels a frame can lower the queue by; the rest of the walk
    carries the results through all S slots, run by run, and back to s,
    whose change is the residual. The grid is normalized and checked in
    that frame, and nothing is rotated. Every chain given is solved: equal
    chains, and chains solved before, are left out by
    :func:`slotmesh.queuemodel._evaluate_stack`.
    """
    # the slots that start a run, and S to close the last one
    bounds = np.ones(tau.shape[1] + 1, dtype=bool)
    np.logical_or(np.logical_or.reduce(rows[:, 1:] != rows[:, :-1], axis=(0, 2)),
                  np.logical_or.reduce(tau[:, 1:] != tau[:, :-1], axis=0),
                  out=bounds[1:-1])
    bounds = np.flatnonzero(bounds)
    factor_rows, factor_sends = _factors(runs, tau)
    walk = _walk(np.concatenate((factor_rows, rows[:, bounds[:-1]]), axis=1),
                 np.concatenate((factor_sends, tau[:, bounds[:-1]]), axis=1))
    frame_maps = _return_maps(runs, walk)
    # one search per distinct edge pattern, each chain's read as one bytes
    # object in one step, and one GTH group per closed class
    edges = frame_maps != 0
    keys = edges.reshape(len(edges), -1).view(np.dtype((np.void, edges[0].size)))
    classes, groups = {}, {}
    for b, key in enumerate(keys.ravel().tolist()):
        if key not in classes:
            try:
                mask = _closed_class(edges[b], 0)
            except StationaryError as exc:
                raise _at(exc, b)
            classes[key] = groups.setdefault(mask.tobytes(), (mask, []))[1]
        classes[key].append(b)
    level = np.empty(edges.shape[:2], dtype=bool)
    first = np.zeros(level.shape)
    for mask, members in groups.values():
        states, members = np.flatnonzero(mask), np.array(members)
        level[members] = mask
        # the members and the class's span as slices where they can be, as
        # they often are: a copy of the maps is paged in afresh, and
        # indexing every entry costs many times more
        batch = members
        if members[-1] - members[0] == len(members) - 1:
            batch = slice(members[0], members[-1] + 1)
        low, high = states[0], states[-1] + 1
        maps = frame_maps[batch, low:high, low:high]
        if len(states) < high - low:
            maps = maps[:, states[:, None] - low, states - low]
        first[members[:, None], states] = _gth(maps, runs.shape[1])
    grid, reached, last = _carry(first, walk, bounds.tolist(),
                                 level if reach else None)
    grid /= grid.sum(axis=(1, 2), keepdims=True)
    # s carried round the frame by its last block, from the normalized grid
    wrap = np.matmul(grid[:, -1:], last)
    residual = np.abs(wrap[:, 0] - grid[:, 0]).max(axis=1)
    if not residual.max() <= RESIDUAL_BOUND:  # nan fails too
        failed = np.flatnonzero(~(residual <= RESIDUAL_BOUND))[0]
        raise _at(StationaryError(
            f"residual {residual[failed]:.3e} above {RESIDUAL_BOUND:.0e}"), failed)
    return grid, residual, reached != 0 if reach else level


def solve(chain) -> StationaryResult:
    """Stationary distribution of a queue chain: the stack of one, in the
    chain's frame from s as it holds it, its grid and closed classes
    rolled back to slot order by the chain's ``shift``."""
    grid, residual, reachable = _solve_stack(chain.rows[None], chain.runs[None],
                                             chain.departures[None], reach=True)
    return StationaryResult(
        distribution=np.roll(grid[0], chain.shift, 0).ravel(),
        residual=float(residual[0]),
        reachable=np.roll(reachable[0], chain.shift, 0).ravel())
