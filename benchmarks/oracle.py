"""Independent reference solution of one node's slot-aware queue chain.

The oracle shares no code with slotmesh. It builds the per-slot blocks
``B_i`` (queue level at slot ``i`` -> queue level at slot ``i + 1``)
from the traffic spec with its own Poisson pmf, forms the slot-0 return
map ``F = B_0 B_1 ... B_{S-1}``, solves ``c F = c`` directly (LAPACK) on
the closed class of ``F`` and propagates ``c`` through the blocks. The
metrics are then recomputed from that distribution with numpy.

The blocks are the same as the slot blocks ``P[i::S, (i+1)%S::S]`` of
``build_chain(...).transition_matrix``, so the oracle checks chain
construction, the stationary solve and the metric layer at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class OracleError(RuntimeError):
    """The reference chain has no unique stationary distribution."""


@dataclass(frozen=True)
class Expected:
    acceptance: float
    delay_slots: float
    tx_probability: tuple[float, ...]


def _arrival_pmf(lam: float, p: float, count: int) -> np.ndarray:
    # Poisson(lam) plus one Bernoulli(p) packet, for k = 0 .. count - 1
    k = np.arange(count)
    if lam > 0:
        logs = np.array([kk * math.log(lam) - lam - math.lgamma(kk + 1)
                         for kk in k])
        poisson = np.exp(logs)
    else:
        poisson = (k == 0).astype(float)
    shifted = np.concatenate(([0.0], poisson[:-1]))
    return (1.0 - p) * poisson + p * shifted


def _block(capacity: int, tau: int, pmf: np.ndarray) -> np.ndarray:
    # Row q: max(q - tau, 0) + k queued after k accepted arrivals; the
    # arrivals beyond the remaining room K - q are dropped (tail mass).
    size = capacity + 1
    block = np.zeros((size, size))
    head_mass = np.concatenate(([0.0], np.cumsum(pmf)))
    for q in range(size):
        room = capacity - q
        base = max(q - tau, 0)
        block[q, base:base + room] = pmf[:room]
        block[q, base + room] += max(0.0, 1.0 - head_mass[room])
    return block


def _closed_class(frame_map: np.ndarray) -> np.ndarray:
    # Transitive closure by repeated squaring; a state is in a closed class
    # when every state it reaches can reach it back.
    reach = (frame_map > 0) | np.eye(len(frame_map), dtype=bool)
    while True:
        step = reach.astype(float)
        wider = (step @ step) > 0
        if np.array_equal(wider, reach):
            break
        reach = wider
    closed = np.all(~reach | reach.T, axis=1)
    members = np.flatnonzero(closed)
    if not members.size or not reach[np.ix_(members, members)].all():
        raise OracleError("return map has no single closed class")
    return closed


def _stationary(frame_map: np.ndarray) -> np.ndarray:
    closed = _closed_class(frame_map)
    sub = frame_map[np.ix_(closed, closed)]
    n = len(sub)
    a = sub.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    c = np.zeros(len(frame_map))
    c[closed] = np.linalg.solve(a, b)
    return c


def _drain_slots(tx_slots, length: int, positions: np.ndarray,
                 slot: int) -> np.ndarray:
    # Slots from ``slot`` up to and including the transmission slot in
    # which the packet at each queue position leaves.
    tx = np.asarray(tx_slots)
    later = tx[tx >= slot]
    rest = np.maximum(positions - len(later), 1)
    frames = -(-rest // len(tx))
    wrapped = frames * length + tx[(rest - 1) % len(tx)]
    if len(later):
        now = later[np.minimum(positions, len(later)) - 1]
        wrapped = np.where(positions <= len(later), now, wrapped)
    return wrapped - slot + 1


def solve_node(capacity: int, slotframe_length: int, tx_slots,
               poisson_rate, bernoulli_prob) -> Expected:
    """Acceptance probability, expected delay (slots) and per-slot
    transmission probability of one node, from a direct solve."""
    length = slotframe_length
    tx = tuple(sorted(set(tx_slots)))
    pmfs = [_arrival_pmf(poisson_rate[i], bernoulli_prob[i], capacity + 1)
            for i in range(length)]

    def block(i):
        return _block(capacity, 1 if i in tx else 0, pmfs[i])

    frame_map = np.eye(capacity + 1)
    for i in range(length):
        frame_map = frame_map @ block(i)
    level = _stationary(frame_map)
    grid = np.zeros((capacity + 1, length))
    for i in range(length):
        grid[:, i] = level
        level = level @ block(i)
    grid /= grid.sum()

    offered = math.fsum(lam + p for lam, p in zip(poisson_rate, bernoulli_prob))
    levels = np.arange(capacity + 1)
    room = capacity - levels
    accepted = 0.0
    delay = 0.0
    for i in range(length):
        # E[min(arrivals, room)] for every queue level q, room = K - q
        head_mass = np.concatenate(([0.0], np.cumsum(pmfs[i])))
        head_mean = np.concatenate(([0.0], np.cumsum(levels * pmfs[i])))
        taken = head_mean[room] + room * np.maximum(0.0, 1.0 - head_mass[room])
        accepted += float(grid[:, i] @ taken)
        tau = 1 if i in tx else 0
        position = np.maximum(levels - tau, 0) + 1
        drain = _drain_slots(tx, length, position, (i + 1) % length)
        delay += float(grid[:, i] @ drain)
    column = grid.sum(axis=0)
    tx_prob = tuple(float(1.0 - grid[0, i] / column[i]) if i in tx else 0.0
                    for i in range(length))
    return Expected(acceptance=length * accepted / offered,
                    delay_slots=float(delay), tx_probability=tx_prob)
