"""Slot-aware finite-queue Markov model of a single node.

The queue of a node is a discrete-time Markov chain over states ``(q, i)``
where ``q`` is the number of queued packets at the beginning of slot ``i``
of the slotframe. Per slot, packets arrive as a Poisson stream plus at
most one forwarded packet (Bernoulli); at most ``K - q`` arrivals are
accepted, and one packet leaves at the end of a transmission slot if the
queue was non-empty at its beginning. The stationary distribution yields
per-slot transmission probabilities, the packet acceptance probability,
queue-level marginals and the expected queuing delay.

The slot index only ever advances from ``i`` to ``i + 1``, so the chain is
stored as its S per-slot ``(K + 1) x (K + 1)`` blocks: block ``i`` holds
the probabilities of moving from level ``q`` in slot ``i`` to each level
in slot ``i + 1``. The blocks and the per-node metrics are all computed
from one ``(S, K + 1)`` table of arrival probabilities. Its Poisson terms
are ``exp(k log(lambda) - log(k!) - lambda)`` in numpy, with ``log(k!)``
from one cumulative sum of logarithms and the ``k = 0`` term taken as
``exp(-lambda)`` so that a zero rate gives exactly one and zeros. The
blocks are the only form of the chain, and numpy is all it needs.

For a slotframe of length one with a single transmission slot the chain
reduces exactly to an M/D/1/K queue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import stationary

VARIANTS = ("md1k", "distributed", "full")


class ModelError(ValueError):
    """Raised for invalid model inputs or undefined metrics."""


@dataclass(frozen=True)
class TrafficSpec:
    """Per-slot arrival process: Poisson rate plus Bernoulli forwarding
    probability, one pair per slot of the slotframe."""

    poisson_rate: tuple[float, ...]
    bernoulli_prob: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "poisson_rate", tuple(float(x) for x in self.poisson_rate))
        object.__setattr__(self, "bernoulli_prob", tuple(float(x) for x in self.bernoulli_prob))
        if len(self.poisson_rate) != len(self.bernoulli_prob) or not self.poisson_rate:
            raise ModelError("poisson_rate and bernoulli_prob must have equal, "
                             "non-zero length")
        for lam in self.poisson_rate:
            if not math.isfinite(lam) or lam < 0:
                raise ModelError(f"invalid Poisson rate {lam}")
        for p in self.bernoulli_prob:
            if not 0.0 <= p <= 1.0:
                raise ModelError(f"invalid Bernoulli probability {p}")

    @classmethod
    def constant(cls, length: int, rate: float = 0.0, prob: float = 0.0):
        return cls((rate,) * length, (prob,) * length)

    @property
    def slots(self) -> int:
        return len(self.poisson_rate)


def _arrival_table(poisson_rate, bernoulli_prob, count: int) -> np.ndarray:
    """Probabilities of k = 0..count-1 arrivals, one row per slot.

    The Bernoulli packet shifts the Poisson part up by one.
    """
    lam = np.asarray(poisson_rate, dtype=float)[:, None]
    p = np.asarray(bernoulli_prob, dtype=float)[:, None]
    k = np.arange(count)
    log_factorial = np.zeros(count)
    np.cumsum(np.log(k[1:]), out=log_factorial[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        # log(0) = -inf: k log(0) is -inf for k > 0 and nan for k = 0
        exponent = k * np.log(lam)
    exponent[:, 0] = 0.0
    poisson = np.exp(exponent - log_factorial - lam)
    shifted = np.zeros_like(poisson)
    shifted[:, 1:] = poisson[:, :-1]
    return (1.0 - p) * poisson + p * shifted


def arrival_pmf(traffic: TrafficSpec, slot: int, k: int) -> float:
    """Probability of exactly ``k`` packets arriving during ``slot``."""
    if k < 0:
        raise ModelError("k must be non-negative")
    table = _arrival_table([traffic.poisson_rate[slot]],
                           [traffic.bernoulli_prob[slot]], k + 1)
    return float(table[0, k])


def arrival_tail(traffic: TrafficSpec, slot: int, k: int) -> float:
    """Probability of at least ``k`` packets arriving during ``slot``, as
    the complement of the head that the chain's blocks use."""
    if k < 0:
        raise ModelError("k must be non-negative")
    table = _arrival_table([traffic.poisson_rate[slot]],
                           [traffic.bernoulli_prob[slot]], k + 1)
    return float(_tails(table)[0, k])


def expected_arrivals_per_slotframe(traffic: TrafficSpec) -> float:
    """Expected number of packets offered to the queue per slotframe."""
    return math.fsum(
        (1.0 - p) * lam + p * (lam + 1.0)
        for lam, p in zip(traffic.poisson_rate, traffic.bernoulli_prob))


def _head_sums(table: np.ndarray) -> np.ndarray:
    """Column ``r`` holds the sum of the first ``r`` entries of each row."""
    sums = np.zeros_like(table)
    np.cumsum(table[:, :-1], axis=1, out=sums[:, 1:])
    return sums


def _tails(arrivals: np.ndarray) -> np.ndarray:
    """Column ``r`` holds the probability of ``r`` or more arrivals, taken
    as the complement of the head so that every block row sums to one."""
    return np.maximum(1.0 - _head_sums(arrivals), 0.0)


def _departures(length: int, tx_slots) -> np.ndarray:
    """One on the transmission slots, zero elsewhere."""
    tau = np.zeros(length, dtype=int)
    for s in tx_slots:
        if not 0 <= s < length:
            raise ModelError(f"tx slot {s} outside [0, {length})")
        tau[s] = 1
    return tau


@dataclass(frozen=True)
class QueueChain:
    """Queue chain over the ``(K + 1) * S`` states ``(q, i)``.

    ``arrivals[i, k]`` is the probability of ``k`` arrivals in slot ``i``.
    ``blocks[i, q, r]`` is the probability of moving from ``(q, i)`` to
    ``(r, (i + 1) % S)``; no other transitions exist.
    """

    capacity: int
    slotframe_length: int
    tx_slots: tuple[int, ...]
    traffic: TrafficSpec
    arrivals: np.ndarray
    blocks: np.ndarray

    @property
    def n_states(self) -> int:
        return (self.capacity + 1) * self.slotframe_length

    def state_index(self, q: int, i: int) -> int:
        return q * self.slotframe_length + i


def build_chain(capacity: int, slotframe_length: int, tx_slots,
                traffic: TrafficSpec) -> QueueChain:
    """Construct the queue chain for one node.

    From state ``(q, i)`` and ``k`` accepted arrivals, the chain moves to
    ``(max(q - tau_i, 0) + k, (i + 1) % S)`` where ``tau_i`` is one on
    transmission slots. At most ``K - q`` arrivals are accepted; the last
    level absorbs the tail so every row sums to one. For ``q = K`` nothing
    can be accepted, leaving a single transition of probability one.
    """
    if capacity < 1:
        raise ModelError("capacity must be at least 1")
    if slotframe_length < 1:
        raise ModelError("slotframe_length must be at least 1")
    tx = tuple(sorted(set(tx_slots)))
    tau = _departures(slotframe_length, tx)
    if traffic.slots != slotframe_length:
        raise ModelError("traffic spec length must equal the slotframe length")
    arrivals = _arrival_table(traffic.poisson_rate, traffic.bernoulli_prob,
                              capacity + 1)
    tails = _tails(arrivals)
    q = np.arange(capacity + 1)
    room = capacity - q
    blocks = np.zeros((slotframe_length, capacity + 1, capacity + 1))
    for departed in (0, 1):
        slots = np.flatnonzero(tau == departed)[:, None]
        base = np.maximum(q - departed, 0)
        k = q - base[:, None]  # k[q, r]: arrivals that take level q to r
        rows, cols = np.nonzero((k >= 0) & (k < room[:, None]))
        blocks[slots, rows, cols] = arrivals[slots, k[rows, cols]]
        blocks[slots, q, base + room] = tails[slots, room]
    arrivals.flags.writeable = False
    blocks.flags.writeable = False
    return QueueChain(capacity=capacity, slotframe_length=slotframe_length,
                      tx_slots=tx, traffic=traffic, arrivals=arrivals,
                      blocks=blocks)


def transmission_probability(chain: QueueChain, distribution: np.ndarray) -> np.ndarray:
    """Per-slot probability of a successful transmission: on a transmission
    slot, the complementary probability of an empty queue."""
    grid = np.asarray(distribution).reshape(chain.capacity + 1,
                                            chain.slotframe_length)
    column_mass = grid.sum(axis=0)
    tx = np.zeros(chain.slotframe_length)
    for i in chain.tx_slots:
        if column_mass[i] <= 0.0:
            raise ModelError(f"transmission slot {i} carries no stationary mass")
        tx[i] = 1.0 - grid[0, i] / column_mass[i]
    return tx


def acceptance_probability(chain: QueueChain, distribution: np.ndarray) -> float:
    """Overall fraction of offered packets accepted into the queue."""
    offered = expected_arrivals_per_slotframe(chain.traffic)
    if offered <= 0.0:
        raise ModelError("no offered traffic; acceptance probability undefined")
    length = chain.slotframe_length
    grid = np.asarray(distribution).reshape(chain.capacity + 1, length)
    arrivals = chain.arrivals
    counts = np.arange(chain.capacity + 1)
    # column r: E[accepted | slot i, room r], arrivals beyond r are capped at r
    accepted = _head_sums(arrivals * counts) + _tails(arrivals) * counts
    # state (q, i) has room K - q
    return length * float((grid * accepted[:, ::-1].T).sum()) / offered


def queue_marginals(distribution: np.ndarray, slotframe_length: int) -> np.ndarray:
    """Probability of holding q packets, summed over the slot position."""
    grid = np.asarray(distribution).reshape(-1, slotframe_length)
    return grid.sum(axis=1)


def _slots_between(i, j, length: int):
    return (j - i) % length


def _preceding_tx_index(tx_slots, i):
    # index of the transmission slot preceding slot i (cyclically); ties at
    # i == t_g belong to the previous index (strict lower bound)
    return (np.searchsorted(tx_slots, i) - 1) % len(tx_slots)


def _state_delay(tx_slots, length, q, i):
    # waiting time of a packet that sits at queue position q at slot i:
    # full slotframe iterations plus the distance to its transmission slot,
    # plus one for the transmission slot itself
    count = len(tx_slots)
    frames = -(-q // count) - 1  # ceil(q / count) - 1
    target = np.asarray(tx_slots)[(_preceding_tx_index(tx_slots, i) + q) % count]
    return frames * length + 1 + _slots_between(i, target, length)


def expected_delay(chain: QueueChain, distribution: np.ndarray) -> float:
    """Expected queuing delay in slots for an arriving packet.

    Averages the deterministic drain time over the state reached after the
    arrival itself is appended to the queue.
    """
    if not chain.tx_slots:
        raise ModelError("node never transmits; delay undefined")
    length = chain.slotframe_length
    grid = np.asarray(distribution).reshape(chain.capacity + 1, length)
    q = np.arange(chain.capacity + 1)[:, None]
    position = np.maximum(q - _departures(length, chain.tx_slots), 0) + 1
    nxt = (np.arange(length) + 1) % length
    return float((grid * _state_delay(chain.tx_slots, length, position, nxt)).sum())


@dataclass(frozen=True)
class NodeMetrics:
    """Stationary metrics of one node's queue.

    ``distribution`` is ``None`` for nodes that are not modeled by a chain
    (the sink consumes packets immediately).
    """

    distribution: np.ndarray | None
    tx_probability: np.ndarray
    acceptance: float
    expected_delay_slots: float
    queue_marginals: np.ndarray
    total_arrivals: float


def evaluate_node(capacity: int, slotframe_length: int, tx_slots,
                  traffic: TrafficSpec) -> NodeMetrics:
    """Build, solve and summarize the queue chain of one node.

    Nodes without offered traffic are defined to accept everything
    (vacuously); the chain is still solved for the delay and transmission
    figures of the empty system.
    """
    chain = build_chain(capacity, slotframe_length, tx_slots, traffic)
    c = stationary.solve(chain).distribution
    offered = expected_arrivals_per_slotframe(traffic)
    if offered > 0.0:
        paccept = acceptance_probability(chain, c)
        if not -1e-9 <= paccept <= 1.0 + 1e-9:
            raise ModelError(f"acceptance probability {paccept} outside [0, 1]")
        paccept = min(max(paccept, 0.0), 1.0)
    else:
        paccept = 1.0
    return NodeMetrics(
        distribution=c,
        tx_probability=transmission_probability(chain, c),
        acceptance=paccept,
        expected_delay_slots=expected_delay(chain, c) if chain.tx_slots else 0.0,
        queue_marginals=queue_marginals(c, slotframe_length),
        total_arrivals=offered,
    )


def model_variant(variant: str, capacity: int, slotframe_length: int,
                  tx_slots, traffic: TrafficSpec) -> NodeMetrics:
    """Evaluate a node under one of the model variants.

    ``full`` uses the slot-resolved traffic as given. ``distributed`` keeps
    the real transmission slots but spreads the same total load uniformly
    over all slots as pure Poisson traffic. ``md1k`` additionally collapses
    the slotframe to a single transmission slot, one model step per
    slotframe. Every variant reports its metrics in slots of the real
    schedule: the ``md1k`` delay is scaled by the slotframe length and its
    per-slotframe transmission probability is spread evenly over the
    node's transmission slots. A node without transmission slots has no
    slotframe to collapse and is evaluated as ``distributed``.
    """
    if variant not in VARIANTS:
        raise ModelError(f"unknown variant {variant!r} (expected one of {VARIANTS})")
    if variant == "full":
        return evaluate_node(capacity, slotframe_length, tx_slots, traffic)
    offered = expected_arrivals_per_slotframe(traffic)
    if variant == "distributed" or not tx_slots:
        uniform = TrafficSpec.constant(slotframe_length,
                                       rate=offered / slotframe_length)
        return evaluate_node(capacity, slotframe_length, tx_slots, uniform)
    node = evaluate_node(capacity, 1, (0,), TrafficSpec((offered,), (0.0,)))
    tau = _departures(slotframe_length, tx_slots)
    return replace(
        node, tx_probability=tau * (node.tx_probability[0] / tau.sum()),
        expected_delay_slots=node.expected_delay_slots * slotframe_length)
