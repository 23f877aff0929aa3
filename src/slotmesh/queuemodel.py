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
S and K come from ``(B, S)`` arrays of Poisson rates and Bernoulli
probabilities and one collection of transmission slots per chain,
checked in one vector step (:func:`_check_node`) that turns the slots
into the stack's ``(B, S)`` boolean transmission mask, its departures,
read as built by every layer below. A stack is its ``(B, S, K + 1)``
slot rows from :func:`arrival_pmf`, each capped once so that entry K
holds the mass at K and beyond, its transmission mask, and three
factor rows per transmission slot, ``(B, T, 3, K + 1)`` for the stack's
widest transmission count T (at least one). Every stack is built in
its chains' frames from s, the slot after a chain's last transmission
slot, where every quiet run ends in a transmission slot; a factor is one
such run and the slot that ends it. Its row 0 holds the arrivals of the
run alone, its row 1 those of the run and the transmission slot together,
and its row 2 those of the transmission slot alone. A quiet slot only
adds arrivals, so rows 0 and 1 are a Poisson of the summed rate plus
one Bernoulli packet per forwarded slot: the capped Poisson row of that
rate, built in the same :func:`arrival_pmf` call and tail pass as the
slot rows, then one non-negative two-term step per forwarded slot. Row
2 is a copy of the transmission slot's finished slot row.
:func:`_capped_rows` takes no other order, and this module alone
rotates (:func:`_rotation`): :func:`_evaluate_stack` rotates each stack
into that order, and :func:`build_chain` its node, which its
:class:`QueueChain` keeps with ``shift``, the slot the frame starts at.
So chains equal in their frames get the same rows, stacked together or
each from :func:`build_chain`.
:mod:`slotmesh.stationary` alone builds the blocks from these rows, and
its docstring gives their format, the tail rule and how the factors
make up a frame. The Poisson terms
are ``exp(k log(lambda) - log(k!) - lambda)`` in numpy, ``log(k!)`` from
one cumulative sum of logarithms and the ``k = 0`` term ``exp(-lambda)``,
so that a zero rate gives exactly one and zeros. The solved stack is a
``(B, S, K + 1)`` grid in the same frames, slot-major, and results stay
there: each node's :class:`NodeMetrics` holds a read-only view of its
distinct chain's grid and the slot its frame starts at, and rotates its
``distribution`` back to slot order only when it is read. Each per-node
metric has one function, a reduction of that grid that
keeps the leading chain axis: :func:`transmission_probability`,
:func:`acceptance_probability`, :func:`expected_delay` and
:func:`queue_marginals`. :func:`build_chain` and :func:`evaluate_node`
(under any ``variant``) are the stack of one chain, and a network
evaluates each tree level as one stack under every variant.
:data:`VARIANTS` names the variants and :func:`_check_variant` is their
one rule, md1k's single hop included, checked once per call. Chains
whose K and inputs are byte-equal in their frames from s, as a network's
outer ring and often its relays are, are built, solved and summarized
once, and a memo of their results, the :class:`NodeMetrics` of each in
its frame, serves them to later stacks, such as the other points of a
sweep, and drops those served least recently past a budget
(:func:`_evaluate_stack`). Each chain's rows,
and so its results, have the same bits in any stack. An error raised
for one chain of a stack carries that chain's position as ``index``, the
first of a shared chain.

For a slotframe of length one with a single transmission slot the chain
reduces exactly to an M/D/1/K queue.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import stationary
from .schedule import _ints, _is_finite
from .stationary import StationaryError, _at, _top_sums

VARIANTS = ("md1k", "distributed", "full")
# bytes of arrays that the solved chains of one memo hold
# (:func:`_evaluate_stack`); the least recently served are dropped past it
_MEMO_BYTES = 1 << 22


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
        try:
            rates, probs = tuple(self.poisson_rate), tuple(self.bernoulli_prob)
        except TypeError:
            raise ModelError("poisson_rate and bernoulli_prob must be "
                             "sequences") from None
        if not all(map(_is_finite, (*rates, *probs))):
            raise ModelError("poisson_rate and bernoulli_prob must hold finite numbers")
        object.__setattr__(self, "poisson_rate", tuple(map(float, rates)))
        object.__setattr__(self, "bernoulli_prob", tuple(map(float, probs)))
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


def _check_variant(variant: str, hops: int = 1) -> None:
    """Raise :class:`ModelError` unless ``variant`` is one of
    :data:`VARIANTS` and can evaluate a tree ``hops`` deep: ``md1k`` has
    no slot structure to carry forwarded traffic and is therefore
    restricted to single-hop trees. The one variant rule, of
    :func:`evaluate_node`, of :func:`slotmesh.network.evaluate_network`
    and of a sweep spec."""
    if variant not in VARIANTS:
        raise ModelError(f"unknown variant {variant!r} (expected one of {VARIANTS})")
    if variant == "md1k" and hops > 1:
        raise ModelError("the md1k variant has no slot structure and cannot model "
                         "forwarding; it is limited to single-hop topologies")


def _check_node(capacity: int, length: int, tx_slots, rates: np.ndarray,
                probs: np.ndarray) -> np.ndarray:
    """Check the node inputs of a stack and return its read-only ``(B,
    S)`` boolean transmission mask, set on each chain's transmission
    slots: the departures that every layer reads as they are.

    ``tx_slots`` holds one collection of slots per chain, and ``rates``
    and ``probs`` are the ``(B, S)`` traffic. K and S must be positive
    integers (:func:`slotmesh.schedule._ints`), the traffic valid and one
    frame long, and each chain's slots a collection of distinct integers
    within the frame, read once, so that an iterator serves as a tuple
    does; anything else raises :class:`ModelError`. This is
    the one check of node inputs, run by :func:`build_chain`, by every
    stack of :func:`evaluate_node` and
    :func:`slotmesh.network.evaluate_network` and by
    :func:`slotmesh.simulate.simulate_queue`.
    """
    for name, value in (("capacity", capacity), ("slotframe_length", length)):
        if not (_ints(value) and value >= 1):
            raise ModelError(f"{name} must be a positive integer, not {value!r}")
    for b, chain in enumerate(tx_slots):
        try:
            iter(chain)
        except TypeError:
            raise _at(ModelError(f"tx slots {chain!r} are not a collection"),
                      b) from None
    # each chain's slots read once, so that an iterator keeps them
    chains = [list(chain) for chain in tx_slots]
    if rates.shape != (len(chains), length) or probs.shape != rates.shape:
        raise ModelError("traffic spec length must equal the slotframe length")
    _check_traffic(rates, probs)
    rows = [b for b, chain in enumerate(chains) for _ in chain]
    slots = [s for chain in chains for s in chain]
    if not _ints(*slots):
        b, slot = next((b, s) for b, s in zip(rows, slots) if not _ints(s))
        raise _at(ModelError(f"tx slot {slot!r} is not an integer"), b)
    if slots and not (min(slots) >= 0 and max(slots) < length):
        b, slot = next((b, s) for b, s in zip(rows, slots) if not 0 <= s < length)
        raise _at(ModelError(f"tx slot {slot} outside [0, {length})"), b)
    tau = np.zeros((len(chains), length), dtype=bool)
    tau[rows, slots] = True
    if np.count_nonzero(tau) < len(slots):
        b, chain = next((b, chain) for b, chain in enumerate(chains)
                        if len(set(chain)) < len(chain))
        raise _at(ModelError(f"tx slots {chain} repeat a slot"), b)
    tau.flags.writeable = False
    return tau


def _rotation(tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The frame from s of each chain of a stack given as ``(B, S)``
    boolean transmission masks, and the index back: step ``j`` of chain
    b's frame is slot ``frame[b, j]``, and slot ``i`` is step ``back[b,
    i]``.
    s is the slot after the last transmission slot (slot 0 without one),
    so every quiet run of the frame ends in a transmission slot."""
    slots = np.arange(tau.shape[1])
    # the last transmission slot is S - 1 - last, and last is 0 without one
    last = tau[:, ::-1].argmax(axis=1)[:, None]
    return (slots - last) % len(slots), (slots + last) % len(slots)


def _capped_rows(capacity: int, sends: np.ndarray, rates: np.ndarray,
                 probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The read-only capped arrival rows of a stack of chains given as
    ``(B, S)`` boolean transmission masks ``sends``, Poisson rates and
    Bernoulli probabilities, each chain in its frame from s
    (:func:`_rotation`): its last slot is a transmission slot, or it has
    none. Entry K holds the mass at K and beyond: ``(B, S, K + 1)`` slot
    rows and ``(B, T, 3, K + 1)`` factor rows, T the most transmission
    slots of any chain and at least one.

    Factor t covers quiet run t of a chain's frame and the transmission
    slot that ends it, contiguous slots: row 0 holds the arrivals of the
    run alone, row 1 those of the run and its transmission slot, and row
    2 is a copy of that transmission slot's row.
    Rows 0 and 1 are a Poisson row of the summed rate, then one Bernoulli
    packet per forwarded slot. A chain without transmission slots has its
    whole frame in rows 0 and 1 of factor 0, and every other row without
    a slot is the row of no arrivals. Each distinct pair of rate and
    probability is built once, as a row's bits depend on its pair alone:
    a uniform load without forwarding gives all of a chain's slots one
    pair. The inputs are those of a stack that :func:`_check_node`
    accepted, or derived from them.
    """
    chains, length = sends.shape
    sent = np.add.accumulate(sends, axis=1)
    width = max(int(sent[:, -1].max()), 1)
    # factor[b, i]: the factor of slot i, numbered over the whole stack:
    # the transmission slots before slot i. Factor row 3 factor is its run
    # row, the next two its merged row and the copy of its transmission
    # slot's row.
    factor = 3 * (sent - sends + np.arange(0, chains * width, width)[:, None])
    # a transmission slot's rate counts in its merged row only
    summed = np.bincount(
        np.concatenate((factor.ravel(), factor.ravel() + 1)),
        weights=np.concatenate(((rates * ~sends).ravel(), rates.ravel())),
        minlength=3 * chains * width)
    # one row per (chain, slot) pair, then the factor rows, in one pass
    lam = np.concatenate((rates.ravel(), summed))
    p = np.concatenate((probs.ravel(), np.zeros(summed.size)))
    # each distinct pair of rate and probability once, as a complex number
    # with both parts exact; every row with that pair takes its row below
    pairs, inverse = np.unique(lam + 1j * p, return_inverse=True)
    lam, p = pairs.real, pairs.imag
    rows = arrival_pmf(lam, p, capacity + 1)
    # the mass at K and beyond: one minus the head summed in order while
    # that is at least 1/2; a smaller complement would be mostly the head's
    # rounding noise, which the room table counts up to K times
    head = np.add.accumulate(rows[:, :-1], axis=1)[:, -1]
    upper = head > 0.5
    rows[~upper, -1] = 1.0 - head[~upper]
    # there the upper sum from the top: P(A >= K) is the pmf at K plus
    # P(Poisson = K) (p + sum over j >= 1 of prod_{i <= j} lam / (K + i)).
    # A head above 1/2 means lam < K + 1, so rho = lam / (K + 1) < 1. Term
    # j is at most rho^j and the sum at least rho: after n terms the rest
    # is at most rho^n / (1 - rho) of the sum, less than e^-37 < 2^-53 for
    # n >= (37 - log(1 - rho)) / -log(rho). 12 sqrt(K + 1) terms are always
    # enough (11.6 sqrt(K + 1) at lam = K = 4, the most any K from 1 to
    # 16384 needs), and every row takes that many, so its bits do not
    # depend on the rows stacked with it.
    lam, p = lam[upper], p[upper]
    terms = math.ceil(12 * math.sqrt(capacity + 1))
    steps = capacity + np.arange(1, terms + 1)
    series = np.cumprod(lam[:, None] / steps, axis=1).sum(axis=1)
    with np.errstate(divide="ignore"):
        at_cap = np.exp(capacity * np.log(lam) - math.lgamma(capacity + 1) - lam)
    rows[upper, -1] += at_cap * (p + series)
    rows = rows[inverse]
    # a factor's row 2 is a copy of its transmission slot's finished row
    base = chains * length
    rows[base + factor[sends] + 2] = rows[:base][sends.ravel()]
    # each forwarded slot adds a Bernoulli packet to its factor's run and
    # merged rows h: (1 - p) h + p h shifted one level up, entry K
    # h[K] + p h[K - 1]. Step j takes the j-th tap of every factor, so no
    # row twice, and each row its taps in slot order.
    taps = probs != 0
    rank = np.add.accumulate(taps, axis=1)
    # less the taps up to the transmission slot that ends the factor before
    rank[:, 1:] -= np.maximum.accumulate(rank * sends, axis=1)[:, :-1]
    for j in range(1, int(rank.max()) + 1):
        on = taps & (rank == j)
        # a quiet slot's packet joins both rows, a transmission slot's the
        # merged row only
        alone = on & ~sends
        ids = base + np.concatenate((factor[alone], factor[on] + 1))
        q = np.concatenate((probs[alone], probs[on]))[:, None]
        h = rows[ids]
        step = (1.0 - q) * h
        step[:, 1:] += q * h[:, :-1]
        step[:, -1] = h[:, -1] + q[:, 0] * h[:, -2]
        rows[ids] = step
    rows.flags.writeable = False
    return (rows[:base].reshape(chains, length, capacity + 1),
            rows[base:].reshape(chains, width, 3, capacity + 1))


@dataclass(frozen=True)
class QueueChain:
    """Queue chain over the states ``(q, i)`` at ``i * (K + 1) + q``, held
    in its frame from s, which starts at slot ``shift``: the slot after
    the last transmission slot, slot 0 without one (:func:`_rotation`).

    ``rows[j, k]`` is the probability of ``k`` arrivals in step ``j`` of
    that frame, slot ``(shift + j) mod S``, for ``k < K``, ``rows[j, K]``
    that of K or more. ``runs[t, 0]`` is the same for the t-th quiet run
    of the frame, ``runs[t, 1]`` for that run and the transmission slot
    that ends it, and ``runs[t, 2]`` for that slot alone. ``departures``
    is the read-only boolean transmission mask of :func:`_check_node`,
    set on transmission slots, in the frame too: ``np.roll(x, shift, 0)``
    puts it and ``rows`` in slot order. The three are the whole chain:
    only :mod:`slotmesh.stationary` builds its slot blocks from them.
    """

    capacity: int
    slotframe_length: int
    shift: int
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
    transmission slots, where the chain's ``departures`` mask is set. At
    most ``K - q`` arrivals are accepted; the last level absorbs the tail
    so every row sums to one. For ``q = K`` nothing can be accepted,
    leaving a single transition of probability one.

    ``capacity``, ``slotframe_length`` and each of ``tx_slots`` must be a
    Python or numpy integer, not a bool, and the slots distinct; anything
    else raises :class:`ModelError` (:func:`_check_node`), here, in
    :func:`evaluate_node` and in :func:`slotmesh.simulate.simulate_queue`.

    The chain is built and kept in the node's frame from s
    (:func:`_rotation`), read-only, as every stack is and as
    :func:`slotmesh.stationary.solve` takes it: a node and the same node
    shifted round the slotframe get the same rows and differ in
    ``shift`` alone.
    """
    rates, probs = traffic._arrays()
    tau = _check_node(capacity, slotframe_length, [tx_slots], rates, probs)
    (frame,), _ = _rotation(tau)
    tau = tau[:, frame]
    tau.flags.writeable = False
    rows, runs = _capped_rows(capacity, tau, rates[:, frame], probs[:, frame])
    return QueueChain(capacity=capacity, slotframe_length=slotframe_length,
                      shift=int(frame[0]), rows=rows[0], runs=runs[0],
                      departures=tau[0])


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
    count = np.maximum(tau.sum(axis=1), 1)[:, None]
    tx = np.argsort(~tau, axis=1, kind="stable")  # tx slots first, in order
    # the slot of each transmission k = 0 .. T + K, once per chain
    k = np.arange(count.max() + levels)
    leave = tx[np.arange(chains)[:, None], k % count] + k // count * length
    # transmission cumsum(tau) - tau + q at level q >= 1, cumsum(tau) at 0
    first = np.cumsum(tau, axis=1)
    at = (first - tau)[:, :, None] + np.arange(levels)
    at[:, :, 0] = first
    drain = leave[np.arange(chains)[:, None, None], at] - np.arange(length)[:, None]
    return np.where(tau.any(axis=1), (grid * drain).sum(axis=(1, 2)), 0.0)


def queue_marginals(grid: np.ndarray) -> np.ndarray:
    """Probability of holding ``q`` packets, summed over the slot
    position, one row per chain."""
    return grid.sum(axis=1)


@dataclass(frozen=True)
class NodeMetrics:
    """Stationary metrics of one node's queue.

    ``grid`` is the node's ``(S, K + 1)`` step-by-level stationary grid in
    its frame from s, which starts at slot ``shift``: the one read-only
    grid that the memo of :func:`_evaluate_stack` holds for every node
    with the same chain in that frame. ``distribution`` rotates it back
    to slot order when read. ``grid`` and ``distribution`` are ``None``
    for nodes that are not modeled by a chain (the sink consumes packets
    immediately). ``tx_probability`` is in slot order: the memo's own
    records, ``shift`` 0, hold it in the frame.
    """

    grid: np.ndarray | None
    shift: int
    tx_probability: np.ndarray
    acceptance: float
    expected_delay_slots: float
    queue_marginals: np.ndarray
    total_arrivals: float

    @property
    def distribution(self) -> np.ndarray | None:
        """The stationary distribution over the states ``(q, i)`` at ``i *
        (K + 1) + q``, in slot order: ``grid`` rotated back, a new array
        on each read; ``None`` without a chain."""
        return None if self.grid is None else np.roll(self.grid, self.shift, 0).ravel()


def _evaluate_stack(capacity: int, tau: np.ndarray, rates: np.ndarray,
                    probs: np.ndarray, solved: dict | None = None):
    """Build, solve and summarize a stack of chains given as ``(B, S)``
    boolean transmission masks, Poisson rates and Bernoulli
    probabilities.

    The stack is rotated into its chains' frames from s
    (:func:`_rotation`) by one row-indexed gather per array. Each chain is
    keyed on K and its inputs' bytes in that frame, and ``solved``, a
    fresh dict if ``None``, maps each key to the chain's
    :class:`NodeMetrics` in that frame, ``shift`` 0, with read-only copies
    of its own grid, transmission probabilities and marginals. The keys
    ``solved`` lacks are built, solved and summarized as one stack, once
    each, and an error names the first chain of a key. Every key of the
    stack then moves to the end of ``solved``, and past ``_MEMO_BYTES`` of
    arrays the keys at its front, served least recently and none of this
    stack, are dropped. A chain's results have the same bits alone, in any
    stack and from ``solved``. Returns each chain's record in ``solved``,
    the slot its frame starts at, and copies that ``solved`` does not
    hold of its transmission probabilities, put back in its own slot
    order in one gather, and of its marginals, one row per chain.
    """
    frame, back = _rotation(tau)
    chain = np.arange(len(tau))[:, None]
    tau, rates, probs = tau[chain, frame], rates[chain, frame], probs[chain, frame]
    solved = {} if solved is None else solved
    # chain b has the key at position owner[b] of keys; each array's rows
    # read as one bytes object per row, in one step
    row_bytes = [x.view(np.dtype((np.void, x.itemsize * x.shape[1]))).ravel().tolist()
                 for x in (tau, rates, probs)]
    keys = {}
    owner = [keys.setdefault((capacity, *rows), len(keys)) for rows in zip(*row_bytes)]
    # the first chain of each key not solved yet
    new = {key: owner.index(d) for key, d in keys.items() if key not in solved}
    if new:
        firsts = list(new.values())
        tau, rates, probs = tau[firsts], rates[firsts], probs[firsts]
        offered = _offered(rates, probs)
        # below the smallest normal float the Poisson terms keep too few
        # bits to match the offered load
        tiny = np.flatnonzero((offered > 0.0) & (offered < sys.float_info.min))
        if tiny.size:
            raise _at(ModelError(f"offered load {offered[tiny[0]]:g} packets "
                                 f"per slotframe is below the smallest normal "
                                 f"float"), firsts[tiny[0]])
        rows, runs = _capped_rows(capacity, tau, rates, probs)
        try:
            grid = stationary._solve_stack(rows, runs, tau)[0]
            paccept = acceptance_probability(grid, rows, offered)
        except (ModelError, StationaryError) as exc:
            raise _at(exc, firsts[exc.index])
        tx, marginals = transmission_probability(grid, tau), queue_marginals(grid)
        delay = expected_delay(grid, tau)
        # copies of its own rows, so the stack's arrays go when this
        # returns and the memo holds the bytes it counts
        for d, key in enumerate(new):
            own = grid[d].copy(), tx[d].copy(), marginals[d].copy()
            for x in own:
                x.flags.writeable = False
            solved[key] = NodeMetrics(
                grid=own[0], shift=0, tx_probability=own[1],
                acceptance=float(paccept[d]), expected_delay_slots=float(delay[d]),
                queue_marginals=own[2], total_arrivals=float(offered[d]))
    # the stack's keys go to the end, after the others, least recently
    # served first, which are dropped past the budget
    distinct = [solved.pop(key) for key in keys]
    if new:
        held = [node.grid.nbytes + node.tx_probability.nbytes
                + node.queue_marginals.nbytes for node in (*solved.values(), *distinct)]
        over = sum(held) - _MEMO_BYTES
        for key, size in zip(list(solved), held):
            if over <= 0:
                break
            del solved[key]
            over -= size
    solved.update(zip(keys, distinct))
    tx = np.array([d.tx_probability for d in distinct])[np.array(owner)[:, None], back]
    marginals = np.array([d.queue_marginals for d in distinct])[owner]
    return [distinct[d] for d in owner], frame[:, 0].tolist(), tx, marginals


def _variant_stack(variant: str, capacity: int, slotframe_length: int,
                   tx_slots, rates: np.ndarray, probs: np.ndarray,
                   solved: dict | None = None) -> list[NodeMetrics]:
    """:func:`evaluate_node` for a stack of nodes that share the slotframe
    and K, given as one transmission slot collection per node and
    ``(B, S)`` rates and probabilities, under a ``variant`` that
    :func:`_check_variant` accepted, with the chains that ``solved``
    holds taken from it (:func:`_evaluate_stack`). Under ``md1k`` the
    stack is of the nodes' collapsed chains, and each node's
    :class:`NodeMetrics` is built once, from its collapsed chain's record,
    with the transmission probability of the whole stack spread over its
    transmission slots in one step."""
    tau = _check_node(capacity, slotframe_length, tx_slots, rates, probs)
    slots = 1
    if variant == "full":
        records, shifts, tx, marginals = _evaluate_stack(capacity, tau, rates,
                                                         probs, solved)
    elif variant == "distributed":
        uniform = np.repeat(_offered(rates, probs)[:, None] / slotframe_length,
                            slotframe_length, axis=1)
        records, shifts, tx, marginals = _evaluate_stack(
            capacity, tau, uniform, np.zeros_like(uniform), solved)
    else:
        # one model step per slotframe, with one departure if the node has
        # any, its probability spread over the transmission slots
        records, shifts, tx, marginals = _evaluate_stack(
            capacity, tau.any(axis=1)[:, None], _offered(rates, probs)[:, None],
            np.zeros((len(tau), 1)), solved)
        tx = tau * (tx / np.maximum(tau.sum(axis=1), 1)[:, None])
        slots = slotframe_length
    return [NodeMetrics(grid=d.grid, shift=shift, tx_probability=row,
                        acceptance=d.acceptance,
                        expected_delay_slots=d.expected_delay_slots * slots,
                        queue_marginals=held, total_arrivals=d.total_arrivals)
            for d, shift, row, held in zip(records, shifts, tx, marginals)]


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
    figures of the empty system. A ``variant`` outside :data:`VARIANTS`
    raises :class:`ModelError` (:func:`_check_variant`).
    """
    _check_variant(variant)
    return _variant_stack(variant, capacity, slotframe_length, [tx_slots],
                          *traffic._arrays())[0]
