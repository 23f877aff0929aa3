"""Slot-aware finite-queue Markov model of a single node.

The queue of a node is a discrete-time Markov chain over states ``(q, i)``
where ``q`` is the number of queued packets at the beginning of slot ``i``
of the slotframe. Per slot, packets arrive as a Poisson stream plus at
most one forwarded packet (Bernoulli); at most ``K - q`` arrivals are
accepted, and one packet leaves at the end of a transmission slot if the
queue was non-empty at its beginning. The stationary distribution yields
per-slot transmission probabilities, the packet acceptance probability,
queue-level marginals and the expected queuing delay.

Chains are built, solved and summarized as stacks: B chains with the same
S and K come from ``(B, S)`` arrays of Poisson rates, Bernoulli
probabilities and departures, checked in one vector step. A stack is its
``(B, S, K + 1)`` slot rows from :func:`arrival_pmf`, each capped once so
that entry K holds the mass at K and beyond, its departures, and three
factor rows per transmission slot, ``(B, T, 3, K + 1)`` for the stack's
widest transmission count T (at least one). The solver takes each chain
in its frame from s, the slot after its last transmission slot, where
every quiet run ends in a transmission slot; a factor is one such run
and the slot that ends it. Its row 0 holds the arrivals of the run
alone, its row 1 those of the run and the transmission slot together,
and its row 2 those of the transmission slot alone. A quiet slot only
adds arrivals, so rows 0 and 1 are a Poisson of the summed rate plus
one Bernoulli packet per forwarded slot: the capped Poisson row of that
rate, built in the same :func:`arrival_pmf` call and tail pass as the
slot rows, then one non-negative two-term step per forwarded slot. Row
2 is built in that pass as its slot row is, with the slot's rate and
Bernoulli probability, and has the slot row's bits.
:mod:`slotmesh.stationary` alone builds the blocks from these rows, and
its docstring gives their format, the tail rule and how the factors
make up a frame. The Poisson terms
are ``exp(k log(lambda) - log(k!) - lambda)`` in numpy, ``log(k!)`` from
one cumulative sum of logarithms and the ``k = 0`` term ``exp(-lambda)``,
so that a zero rate gives exactly one and zeros. The solved stack is a
``(B, S, K + 1)`` grid, slot-major (:meth:`QueueChain.state_index`).
Each per-node metric has one function, a reduction of that grid that
keeps the leading chain axis: :func:`transmission_probability`,
:func:`acceptance_probability`, :func:`expected_delay` and
:func:`queue_marginals`. :func:`build_chain` and :func:`evaluate_node`
(under any ``variant``) are the stack of one chain, and a network
evaluates each tree level as one stack under every variant. An error
raised for one chain of a stack carries that chain's position as
``index``.

For a slotframe of length one with a single transmission slot the chain
reduces exactly to an M/D/1/K queue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import stationary
from .schedule import _ints, _is_finite
from .stationary import _at, _top_sums

VARIANTS = ("md1k", "distributed", "full")


class ModelError(ValueError):
    """Raised for invalid model inputs or undefined metrics; ``index`` is
    the failing chain's position in its stack."""

    index = 0


def _check_traffic(rates: np.ndarray, probs: np.ndarray) -> None:
    """Reject the first non-finite or negative rate and the first
    probability outside [0, 1] of ``(B, S)`` traffic arrays."""
    for values, valid, what in (
            (rates, np.isfinite(rates) & (rates >= 0), "Poisson rate"),
            (probs, (probs >= 0) & (probs <= 1), "Bernoulli probability")):
        if not valid.all():
            row, col = np.argwhere(~valid)[0]
            raise _at(ModelError(f"invalid {what} {values[row, col]}"), row)


@dataclass(frozen=True)
class TrafficSpec:
    """Per-slot arrival process: Poisson rate plus Bernoulli forwarding
    probability, one pair per slot of the slotframe."""

    poisson_rate: tuple[float, ...]
    bernoulli_prob: tuple[float, ...]

    def __post_init__(self):
        if not all(map(_is_finite, (*self.poisson_rate, *self.bernoulli_prob))):
            raise ModelError("poisson_rate and bernoulli_prob must hold finite numbers")
        object.__setattr__(self, "poisson_rate", tuple(map(float, self.poisson_rate)))
        object.__setattr__(self, "bernoulli_prob", tuple(map(float, self.bernoulli_prob)))
        if len(self.poisson_rate) != len(self.bernoulli_prob) or not self.poisson_rate:
            raise ModelError("poisson_rate and bernoulli_prob must have equal, "
                             "non-zero length")
        _check_traffic(*self._arrays())

    @classmethod
    def constant(cls, length: int, rate: float = 0.0, prob: float = 0.0):
        if not _ints(length):
            raise ModelError(f"length must be an integer, not {length!r}")
        return cls((rate,) * length, (prob,) * length)

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The rates and probabilities as the ``(1, S)`` arrays of a stack
        of one."""
        return np.array([self.poisson_rate]), np.array([self.bernoulli_prob])


def arrival_pmf(poisson_rate, bernoulli_prob, count: int) -> np.ndarray:
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


def _offered(rates: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Expected packets offered per slotframe, one per chain of a stack,
    each an exactly rounded sum over the slots."""
    terms = (1.0 - probs) * rates + probs * (rates + 1.0)
    return np.array([math.fsum(row) for row in terms.tolist()])


def expected_arrivals_per_slotframe(traffic: TrafficSpec) -> float:
    """Expected number of packets offered to the queue per slotframe."""
    return float(_offered(*traffic._arrays())[0])


def _check_node(capacity: int, length: int, tx_slots, rates: np.ndarray,
                probs: np.ndarray) -> np.ndarray:
    """Check the node inputs of a stack and return its ``(B, S)``
    departures: one on each chain's transmission slots, zero elsewhere.

    ``tx_slots`` holds one collection of slots per chain, and ``rates``
    and ``probs`` are the ``(B, S)`` traffic. K and S must be positive
    integers (:func:`slotmesh.schedule._ints`), the traffic valid and one
    frame long, and each chain's slots distinct integers within the
    frame; anything else raises :class:`ModelError`. This is the one
    check of node inputs, run by :func:`build_chain`, by every stack of
    :func:`evaluate_node` and by :func:`slotmesh.simulate.simulate_queue`.
    """
    for name, value in (("capacity", capacity), ("slotframe_length", length)):
        if not (_ints(value) and value >= 1):
            raise ModelError(f"{name} must be a positive integer, not {value!r}")
    if rates.shape != (len(tx_slots), length) or probs.shape != rates.shape:
        raise ModelError("traffic spec length must equal the slotframe length")
    _check_traffic(rates, probs)
    rows = [b for b, slots in enumerate(tx_slots) for _ in slots]
    slots = [s for chain in tx_slots for s in chain]
    if not _ints(*slots):
        b, slot = next((b, s) for b, s in zip(rows, slots) if not _ints(s))
        raise _at(ModelError(f"tx slot {slot!r} is not an integer"), b)
    slots = np.array(slots, dtype=int)
    outside = np.flatnonzero((slots < 0) | (slots >= length))
    if outside.size:
        first = outside[0]
        raise _at(ModelError(f"tx slot {slots[first]} outside [0, {length})"),
                  rows[first])
    tau = np.zeros((len(tx_slots), length), dtype=int)
    tau[rows, slots] = 1
    if tau.sum() < len(slots):
        b, chain = next((b, chain) for b, chain in enumerate(tx_slots)
                        if len(set(chain)) < len(chain))
        raise _at(ModelError(f"tx slots {list(chain)} repeat a slot"), b)
    tau.flags.writeable = False
    return tau


def _capped_rows(capacity: int, tau: np.ndarray, rates: np.ndarray,
                 probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The read-only capped arrival rows of a stack of chains given as
    ``(B, S)`` departures, Poisson rates and Bernoulli probabilities,
    entry K holding the mass at K and beyond: ``(B, S, K + 1)`` slot rows
    and ``(B, T, 3, K + 1)`` factor rows, T the most transmission slots of
    any chain and at least one.

    Factor t covers quiet run t of a chain's frame from s, the slot after
    its last transmission slot (:func:`slotmesh.stationary._rotation`),
    and the transmission slot that ends it: row 0 holds the arrivals of
    the run alone, row 1 those of the run and its transmission slot, and
    row 2 those of the transmission slot alone, the bits of its slot row.
    Rows 0 and 1 are a Poisson row of the summed rate, then one Bernoulli
    packet per forwarded slot. A chain without transmission slots has its
    whole frame in rows 0 and 1 of factor 0, and every other row without
    a slot is the row of no arrivals. The inputs are those of a stack
    that :func:`_check_node` accepted, or derived from them.
    """
    chains, length = tau.shape
    sends = tau != 0
    sent = np.add.accumulate(sends, axis=1)
    width = max(int(sent[:, -1].max()), 1)
    # factor[b, i]: the factor of slot i, numbered over the whole stack.
    # It counts the transmission slots before slot i in the frame from s,
    # so none for the slots after the last one, which open that frame.
    # Factor row 3 factor is its run row, the next two its merged row and
    # its transmission slot's row.
    factor = 3 * ((sent - sends) % np.maximum(sent[:, -1:], 1)
                  + np.arange(0, chains * width, width)[:, None])
    own = factor[sends] + 2
    # a transmission slot's rate counts in its merged row and its own row;
    # the latter sums one rate, so it is that slot's rate exactly
    summed = np.bincount(
        np.concatenate((factor.ravel(), factor.ravel() + 1, own)),
        weights=np.concatenate(((rates * ~sends).ravel(), rates.ravel(),
                                rates[sends])),
        minlength=3 * chains * width)
    # one row per (chain, slot) pair, then the factor rows, in one pass. A
    # transmission slot's own row takes its Bernoulli packet here, as its
    # slot row does, so the two get the same bits
    lam = np.concatenate((rates.ravel(), summed))
    p = np.concatenate((probs.ravel(), np.zeros(summed.size)))
    p[chains * length + own] = probs[sends]
    rows = arrival_pmf(lam, p, capacity + 1)
    # the mass at K and beyond: one minus the head summed in order while
    # that is at least 1/2; a smaller complement would be mostly the head's
    # rounding noise, which the room table counts up to K times
    head = np.add.accumulate(rows[:, :-1], axis=1)[:, -1]
    upper = head > 0.5
    rows[~upper, -1] = 1.0 - head[~upper]
    # there the upper sum from the top: P(A >= K) is the pmf at K plus
    # P(Poisson = K) (p + sum over j >= 1 of prod_{i <= j} lam / (K + i)).
    # A head above 1/2 means lam < K + 1, so rho = lam / (K + 1) < 1 for
    # the largest lam. Term j is at most rho^j and the sum at least rho:
    # after n terms the rest is at most rho^n / (1 - rho) of the sum, less
    # than e^-37 < 2^-53 for the n below. 12 sqrt(K + 1) terms are always
    # enough (11.6 sqrt(K + 1) at lam = K = 4, the most any K from 1 to
    # 16384 needs); a zero rate needs none.
    lam, p = lam[upper], p[upper]
    rho = lam.max(initial=0.0) / (capacity + 1)
    terms = 0 if rho == 0.0 else min(
        math.ceil(12 * math.sqrt(capacity + 1)),
        math.ceil((37 - math.log1p(-rho)) / -math.log(rho)))
    steps = capacity + np.arange(1, terms + 1)
    series = np.cumprod(lam[:, None] / steps, axis=1).sum(axis=1)
    with np.errstate(divide="ignore"):
        at_cap = np.exp(capacity * np.log(lam) - math.lgamma(capacity + 1) - lam)
    rows[upper, -1] += at_cap * (p + series)
    # each forwarded slot adds a Bernoulli packet to its factor's run and
    # merged rows h: (1 - p) h + p h shifted one level up, entry K
    # h[K] + p h[K - 1]. Step j takes the j-th tap of every chain, so no
    # row twice.
    taps = probs != 0
    if taps.any():
        rank = np.add.accumulate(taps, axis=1)
        base = chains * length
        for j in range(1, int(rank[:, -1].max()) + 1):
            on = taps & (rank == j)
            # a quiet slot's packet joins both rows, a transmission slot's
            # the merged row only
            alone = on & ~sends
            ids = base + np.concatenate((factor[alone], factor[on] + 1))
            q = np.concatenate((probs[alone], probs[on]))[:, None]
            h = rows[ids]
            step = (1.0 - q) * h
            step[:, 1:] += q * h[:, :-1]
            step[:, -1] = h[:, -1] + q[:, 0] * h[:, -2]
            rows[ids] = step
    rows.flags.writeable = False
    return (rows[:chains * length].reshape(chains, length, capacity + 1),
            rows[chains * length:].reshape(chains, width, 3, capacity + 1))


@dataclass(frozen=True)
class QueueChain:
    """Queue chain over the states ``(q, i)`` at ``i * (K + 1) + q``.

    ``rows[i, k]`` is the probability of ``k`` arrivals in slot ``i`` for
    ``k < K``, ``rows[i, K]`` that of K or more. ``runs[t, 0]`` is the
    same for the t-th quiet run of the frame from s, the slot after the
    last transmission slot, ``runs[t, 1]`` for that run and the
    transmission slot that ends it, and ``runs[t, 2]`` for that slot
    alone. ``departures[i]`` is one on
    transmission slots, zero elsewhere. The three are the whole chain:
    only :mod:`slotmesh.stationary` builds its slot blocks from them.
    """

    capacity: int
    slotframe_length: int
    rows: np.ndarray
    runs: np.ndarray
    departures: np.ndarray

    @property
    def n_states(self) -> int:
        return (self.capacity + 1) * self.slotframe_length

    def state_index(self, q: int, i: int) -> int:
        return i * (self.capacity + 1) + q


def build_chain(capacity: int, slotframe_length: int, tx_slots,
                traffic: TrafficSpec) -> QueueChain:
    """Construct the queue chain for one node.

    From state ``(q, i)`` and ``k`` accepted arrivals, the chain moves to
    ``(max(q - tau_i, 0) + k, (i + 1) % S)`` where ``tau_i`` is one on
    transmission slots. At most ``K - q`` arrivals are accepted; the last
    level absorbs the tail so every row sums to one. For ``q = K`` nothing
    can be accepted, leaving a single transition of probability one.

    ``capacity``, ``slotframe_length`` and each of ``tx_slots`` must be a
    Python or numpy integer, not a bool, and the slots distinct; anything
    else raises :class:`ModelError` (:func:`_check_node`), here, in
    :func:`evaluate_node` and in :func:`slotmesh.simulate.simulate_queue`.
    """
    tau = _check_node(capacity, slotframe_length, [tx_slots], *traffic._arrays())
    rows, runs = _capped_rows(capacity, tau, *traffic._arrays())
    return QueueChain(capacity=capacity, slotframe_length=slotframe_length,
                      rows=rows[0], runs=runs[0], departures=tau[0])


def transmission_probability(grid: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Per-slot probability of a successful transmission, one row per
    chain: on a transmission slot, the probability of a non-empty queue,
    zero elsewhere."""
    # each slot of a solved grid carries 1/S of the mass. The non-empty
    # mass over it, both summed from the top level down: not one minus the
    # empty share, so that a light load keeps its digits, and never above
    # one.
    sums = np.add.accumulate(grid[:, :, ::-1], axis=2)
    return tau * (sums[:, :, -2] / sums[:, :, -1])


def acceptance_probability(grid: np.ndarray, rows: np.ndarray,
                           offered: np.ndarray) -> np.ndarray:
    """Fraction of the packets offered per slotframe that is accepted into
    the queue, one per chain, from the capped arrival rows; a chain
    without offered traffic accepts everything (vacuously)."""
    # entry r: E[min(A, r) | slot i], the sum of P(A >= j) over j = 1..r
    by_room = np.zeros(rows.shape)
    np.add.accumulate(_top_sums(rows)[..., 1:], axis=-1, out=by_room[..., 1:])
    # state (q, i) has room K - q
    accepted = (grid * by_room[..., ::-1]).sum(axis=(1, 2))
    paccept = np.divide(grid.shape[1] * accepted, offered,
                        out=np.ones(len(grid)), where=offered > 0.0)
    outside = np.flatnonzero(~((paccept >= -1e-9) & (paccept <= 1.0 + 1e-9)))
    if outside.size:
        raise _at(ModelError(f"acceptance probability {paccept[outside[0]]} "
                             f"outside [0, 1]"), outside[0])
    return np.clip(paccept, 0.0, 1.0)


def expected_delay(grid: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Expected queuing delay in slots of an arriving packet, one per
    chain, zero for a chain without transmission slots.

    Averages the deterministic drain time over the state reached after the
    arrival itself is appended to the queue. Numbered from 0 on the
    schedule unrolled over slotframes, with ``tx`` the ``T`` transmission
    slots in order, a packet that arrives in state ``(q, i)`` leaves in
    transmission ``k = cumsum(tau)[i] + max(q - tau_i, 0)``, at slot
    ``tx[k mod T] + (k div T) S``, and waits that slot minus ``i``. A network
    adds these up along the route, the paper's drain-time sum, which
    misses the simulated multi-hop delay (see the README).
    """
    chains, length, levels = grid.shape
    count = np.maximum(tau.sum(axis=1), 1)[:, None, None]
    tx = np.argsort(tau == 0, axis=1, kind="stable")  # tx slots first, in order
    k = (np.cumsum(tau, axis=1)[:, :, None]
         + np.maximum(np.arange(levels) - tau[:, :, None], 0))
    leave = tx[np.arange(chains)[:, None, None], k % count] + k // count * length
    drain = leave - np.arange(length)[:, None]
    return np.where(tau.any(axis=1), (grid * drain).sum(axis=(1, 2)), 0.0)


def queue_marginals(grid: np.ndarray) -> np.ndarray:
    """Probability of holding ``q`` packets, summed over the slot
    position, one row per chain."""
    return grid.sum(axis=1)


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


def _evaluate_stack(capacity: int, tau: np.ndarray, rates: np.ndarray,
                    probs: np.ndarray) -> list[NodeMetrics]:
    """Build, solve and summarize a stack of chains given as ``(B, S)``
    departures, Poisson rates and Bernoulli probabilities."""
    rows, runs = _capped_rows(capacity, tau, rates, probs)
    grid = stationary._solve_stack(rows, runs, tau)[0]
    offered = _offered(rates, probs)
    paccept = acceptance_probability(grid, rows, offered)
    tx = transmission_probability(grid, tau)
    delay = expected_delay(grid, tau)
    marginals = queue_marginals(grid)
    return [NodeMetrics(distribution=grid[b].ravel(), tx_probability=tx[b],
                        acceptance=float(paccept[b]),
                        expected_delay_slots=float(delay[b]),
                        queue_marginals=marginals[b],
                        total_arrivals=float(offered[b]))
            for b in range(len(tau))]


def _variant_stack(variant: str, capacity: int, slotframe_length: int,
                   tx_slots, rates: np.ndarray,
                   probs: np.ndarray) -> list[NodeMetrics]:
    """:func:`evaluate_node` for a stack of nodes that share the slotframe
    and K, given as one transmission slot collection per node and
    ``(B, S)`` rates and probabilities."""
    if variant not in VARIANTS:
        raise ModelError(f"unknown variant {variant!r} (expected one of {VARIANTS})")
    tau = _check_node(capacity, slotframe_length, tx_slots, rates, probs)
    if variant == "full":
        return _evaluate_stack(capacity, tau, rates, probs)
    offered = _offered(rates, probs)
    if variant == "distributed":
        uniform = np.repeat(offered[:, None] / slotframe_length,
                            slotframe_length, axis=1)
        return _evaluate_stack(capacity, tau, uniform, np.zeros_like(uniform))
    # one model step per slotframe, with one departure if the node has any
    counts = tau.sum(axis=1)
    collapsed = _evaluate_stack(capacity, (counts > 0).astype(int)[:, None],
                                offered[:, None], np.zeros((len(tau), 1)))
    return [replace(node,
                    tx_probability=tau[b] * (node.tx_probability[0]
                                             / max(counts[b], 1)),
                    expected_delay_slots=node.expected_delay_slots
                    * slotframe_length)
            for b, node in enumerate(collapsed)]


def evaluate_node(capacity: int, slotframe_length: int, tx_slots,
                  traffic: TrafficSpec, *, variant: str = "full") -> NodeMetrics:
    """Build, solve and summarize the queue chain of one node under one of
    the model variants.

    ``full`` uses the slot-resolved traffic as given. ``distributed`` keeps
    the real transmission slots but spreads the same total load uniformly
    over all slots as pure Poisson traffic. ``md1k`` additionally collapses
    the slotframe to a single transmission slot, one model step per
    slotframe. Every variant reports its metrics in slots of the real
    schedule: the ``md1k`` delay is scaled by the slotframe length and its
    per-slotframe transmission probability is spread evenly over the
    node's transmission slots. Under ``md1k`` a node without transmission
    slots collapses to a single slot without departures.

    Nodes without offered traffic are defined to accept everything
    (vacuously); the chain is still solved for the delay and transmission
    figures of the empty system.
    """
    return _variant_stack(variant, capacity, slotframe_length, [tx_slots],
                          *traffic._arrays())[0]
