"""Discrete-event simulation of the exact queue policy.

Serves as the independent ground truth for the analytical model, both for
a single queue and for full multi-hop networks. The policy: packets
arrive at any time within a slot, at most ``K - q`` are accepted (``q``
being the queue level at slot begin), and a packet leaves at the end of a
transmission slot if and only if it was already queued at slot begin.

Runs with different seeds are aggregated into means and 95% confidence
intervals using the normal approximation over per-run means.

Both slot loops draw their random arrivals in blocks of ``_BLOCK`` slots
and convert each block to Python lists once, so no slot calls numpy. A
network block is a ``(_BLOCK, nodes - 1)`` Poisson draw read in CSR form:
its nonzero ``(node, count)`` pairs in (slot, node) order and a row
pointer of ``_BLOCK + 1`` offsets into them, built from a ``bincount``
of the rows; the block's total is the sum of the pairs' counts. The
single-queue loop jumps over the slots of a block in which its queue is
empty and nothing arrives. The random numbers drawn, and their order,
are those of a plain slot-by-slot loop. Every network run checks its
packet ledger (``RunCounts.conserved``).

Most network slots are cheap. A quiet slot, in which nothing is
generated and no link sends, ends after its link pass. A slot's only
forwarded packet, if untracked and its receiver has no generated bucket,
is added to the receiver's level directly, since a one-packet bucket
draws nothing and touches no other bucket. The buckets are merged into a
dict only when a forwarded packet meets a generated bucket, is tracked,
or has a sibling in the same slot.

The network loop keeps one integer queue level per node from slot zero,
warm-up included. A tracked packet rides on the levels as a FIFO ticket,
its node's departure count plus the packets queued ahead of it, and
leaves with the departure that finds the count equal to its ticket, so
the count need only run while a tracked packet is queued.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import cycle

import numpy as np

from .network import NetworkScenario
from .queuemodel import _check_node, _offered
from .schedule import _ints

Z95 = 1.96
_BLOCK = 4096
SINGLE_NODE_WARMUP_FRAMES = 10
NETWORK_WARMUP_SECONDS = 900.0  # 15 simulated minutes
# the largest network generation rate, packets per slot: a node whose
# bucket overflows shuffles a list of about that many entries (8 MB)
_MAX_NETWORK_RATE = 2**20


class SimulationError(RuntimeError):
    """Raised when a simulation cannot complete."""


# The node-slots of network runs (warm-up plus the ``packets / p_gen``
# slots of the tagging window, times nodes) that pay for the 15-20 ms a
# pool of two takes to start: this process runs a light-load network at
# 75-140 ns per node-slot, a saturated one slower.
_POOL_MIN_NODE_SLOTS = 200_000


def check_workers(workers):
    """Raise ``SimulationError`` unless ``workers`` is an integer of at
    least 1."""
    if not (_ints(workers) and workers >= 1):
        raise SimulationError("workers must be an integer of at least 1")


def _default_workers(runs, node_slots):
    """The usable CPUs, up to ``runs``, if the runs that a pool takes off
    this process span ``_POOL_MIN_NODE_SLOTS`` node-slots in all; else 1."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(cpus, runs)
    spared = runs - math.ceil(runs / workers)
    return workers if spared * node_slots >= _POOL_MIN_NODE_SLOTS else 1


def map_in_processes(fn, items, workers):
    """``[fn(item) for item in items]``, the calls spread over up to
    ``workers`` processes (an integer of at least 1).

    ``fn`` and the items must pickle (``fn`` by its import path). With one
    worker, or one item, the calls run in this process. Otherwise every
    worker has been joined when this returns or raises, and an exception
    raised by a call reaches the caller with its type and message.
    """
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    # imported here: loading the process pool slows every import of slotmesh.
    # The pool takes the platform's default start method: fork on Linux
    # before Python 3.14, spawn or forkserver where forking a process that
    # runs threads is unsafe
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    runs: int = 10
    packets: int = 10_000
    warmup_slots: int | None = None

    def __post_init__(self):
        warmup = () if self.warmup_slots is None else (self.warmup_slots,)
        if not _ints(self.seed, self.runs, self.packets, *warmup):
            raise SimulationError(
                "seed, runs, packets and warmup_slots must be integers")
        if self.seed < 0:
            raise SimulationError("seed must not be negative")
        if self.runs < 1:
            raise SimulationError("runs must be at least 1")
        if self.packets < 1:
            raise SimulationError("packets must be at least 1")
        if self.warmup_slots is not None and self.warmup_slots < 0:
            raise SimulationError("warmup_slots must not be negative")


@dataclass(frozen=True)
class MetricSummary:
    mean: float
    ci_low: float
    ci_high: float
    per_run: tuple[float, ...]

    @classmethod
    def from_runs(cls, values):
        values = [float(v) for v in values]
        clean = [v for v in values if not math.isnan(v)]
        if len(clean) < 2:  # no interval from fewer than two values
            mean = clean[0] if clean else math.nan
            return cls(mean, math.nan, math.nan, tuple(values))
        mean = float(np.mean(clean))
        half = Z95 * float(np.std(clean, ddof=1)) / math.sqrt(len(clean))
        return cls(mean, mean - half, mean + half, tuple(values))

    def contains(self, value: float, atol: float = 1e-9) -> bool:
        return self.ci_low - atol <= value <= self.ci_high + atol


@dataclass(frozen=True)
class QueueSimStats:
    """Aggregated single-queue simulation results."""

    acceptance: MetricSummary
    delay_slots: MetricSummary
    queue_histogram: np.ndarray  # counts of queue levels at slot begin
    arrived: int
    accepted: int


def _poisson(rng, lam, size=None):
    """``rng.poisson(lam, size)``, with numpy's refusal of a rate too large
    to draw from (above about 9.2e18 per slot) raised as a
    :class:`SimulationError` that names the rate."""
    try:
        return rng.poisson(lam, size)
    except ValueError:
        raise SimulationError(f"Poisson rate {np.max(lam):g} per slot is too "
                              f"large to simulate") from None


def _arrival_arrays(rng, traffic, start_slot, count):
    idx = (start_slot + np.arange(count)) % len(traffic.poisson_rate)
    lam = np.asarray(traffic.poisson_rate)[idx]
    prob = np.asarray(traffic.bernoulli_prob)[idx]
    arrivals = _poisson(rng, lam)
    arrivals += rng.random(count) < prob
    return arrivals


def _simulate_queue_run(capacity, slotframe_length, sends, traffic, rng,
                        packets, warmup):
    queue = deque()  # (arrival_slot, counted)
    hist = [0] * (capacity + 1)
    arrived = accepted = 0
    delays = []
    counted_in_queue = 0
    t = 0
    block_base = -_BLOCK
    while True:
        offset = t - block_base
        if offset >= _BLOCK:
            buf = _arrival_arrays(rng, traffic, t, _BLOCK)
            block = buf.tolist()
            busy = np.flatnonzero(buf).tolist()  # offsets with arrivals
            block_base = t
            offset = 0
        if not queue:
            # Nothing can depart and ``arrived < packets`` holds (else the
            # run would have ended), so jump to the next arrival of the
            # block, counting the idle slots after warm-up as level 0.
            i = bisect_left(busy, offset)
            idle = (busy[i] if i < len(busy) else _BLOCK) - offset
            if idle:
                hist[0] += max(0, t + idle - max(t, warmup))
                t += idle
                continue
        k = block[offset]
        q_start = len(queue)
        counting = t >= warmup and arrived < packets
        if counting:
            hist[q_start] += 1
        if q_start and sends[t % slotframe_length]:
            arrival_slot, counted = queue.popleft()
            if counted:
                delays.append(t - arrival_slot)
                counted_in_queue -= 1
        if k:
            take = min(capacity - q_start, k)
            if counting:
                arrived += k
                accepted += take
                counted_in_queue += take
            queue.extend([(t, counting)] * take)
        t += 1
        if arrived >= packets and counted_in_queue == 0:
            break
    return arrived, accepted, delays, np.array(hist, dtype=np.int64)


def simulate_queue(capacity: int, slotframe_length: int, tx_slots,
                   traffic, config: SimConfig) -> QueueSimStats:
    """Simulate a single queue until ``config.packets`` packets arrived
    per run (counted after warm-up), then drain the counted packets.

    Acceptance is the fraction of counted arrivals that were admitted;
    delays are measured from the arrival slot to the end of the
    transmitting slot, in slots.

    Every node that :func:`~slotmesh.queuemodel.evaluate_node` refuses
    is refused here with the model's
    :class:`~slotmesh.queuemodel.ModelError`, by the model's own check. A
    node offered traffic that it never transmits, which the model
    accepts, raises :class:`SimulationError`: its queue would not drain,
    and so does a Poisson rate too large to draw from.
    """
    rates, probs = traffic._arrays()
    sends = _check_node(capacity, slotframe_length, [tx_slots], rates,
                        probs)[0].tolist()
    if _offered(rates, probs)[0] == 0:
        one = MetricSummary.from_runs([1.0] * config.runs)
        nan = MetricSummary.from_runs([math.nan] * config.runs)
        return QueueSimStats(acceptance=one, delay_slots=nan,
                             queue_histogram=np.zeros(capacity + 1, dtype=np.int64),
                             arrived=0, accepted=0)
    warmup = (config.warmup_slots if config.warmup_slots is not None
              else SINGLE_NODE_WARMUP_FRAMES * slotframe_length)
    if not any(sends):
        raise SimulationError("node never transmits; simulation would not drain")
    hist = np.zeros(capacity + 1, dtype=np.int64)
    ratios, delay_means = [], []
    arrived_total = accepted_total = 0
    for run in range(config.runs):
        rng = np.random.default_rng([config.seed, run])
        arrived, accepted, delays, h = _simulate_queue_run(
            capacity, slotframe_length, sends, traffic, rng,
            config.packets, warmup)
        hist += h
        arrived_total += arrived
        accepted_total += accepted
        ratios.append(accepted / arrived)
        delay_means.append(float(np.mean(delays)) if delays else math.nan)
    return QueueSimStats(
        acceptance=MetricSummary.from_runs(ratios),
        delay_slots=MetricSummary.from_runs(delay_means),
        queue_histogram=hist,
        arrived=arrived_total,
        accepted=accepted_total,
    )


@dataclass(frozen=True)
class RunCounts:
    """Exact packet bookkeeping of one network run (from slot zero)."""

    generated: int
    delivered: int
    dropped: int
    link_lost: int
    residual: int  # still queued when the run stopped

    def conserved(self) -> bool:
        return self.generated == (self.delivered + self.dropped
                                  + self.link_lost + self.residual)


@dataclass(frozen=True)
class NetworkSimStats:
    """Per-run, per-node delivery statistics of a network simulation."""

    delivery: np.ndarray        # (runs, nodes)
    delay_slots: np.ndarray     # (runs, nodes), NaN without deliveries
    throughput_pps: np.ndarray  # (runs,)
    counts: tuple[RunCounts, ...]

    def delivery_summary(self, nodes=None) -> MetricSummary:
        cols = list(nodes) if nodes is not None else slice(None)
        return MetricSummary.from_runs(self.delivery[:, cols].mean(axis=1))

    def delay_summary(self, nodes=None) -> MetricSummary:
        cols = list(nodes) if nodes is not None else slice(None)
        delays = self.delay_slots[:, cols]
        delivered = ~np.isnan(delays)
        # ``np.nanmean``'s sum and count, without its warning for a run in
        # which no selected node delivered (whose mean is NaN)
        with np.errstate(invalid="ignore"):
            per_run = (np.where(delivered, delays, 0.0).sum(axis=1)
                       / delivered.sum(axis=1))
        return MetricSummary.from_runs(per_run)

    def throughput_summary(self) -> MetricSummary:
        return MetricSummary.from_runs(self.throughput_pps)


def _generation_events(rng, p_gen, n_nodes):
    """Draw the packet generation of the next ``_BLOCK`` slots.

    Returns ``(events, row_start, total)``: the packets generated in block
    slot ``r`` are the ``(node, count)`` pairs
    ``events[row_start[r]:row_start[r + 1]]`` in node order, and ``total``
    packets are generated in the whole block.
    """
    counts = _poisson(rng, p_gen, (_BLOCK, n_nodes - 1))
    # the flat indices of a C-ordered block, split by row length, are the
    # (slot, node) pairs of np.nonzero at about half its cost
    flat = np.flatnonzero(counts != 0)
    values = counts.ravel()[flat]
    rows, cols = np.divmod(flat, n_nodes - 1)
    row_start = np.zeros(_BLOCK + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=_BLOCK), out=row_start[1:])
    events = list(zip((cols + 1).tolist(), values.tolist()))
    return events, row_start.tolist(), int(values.sum())


def _simulate_network_run(scenario: NetworkScenario, packets_per_node, warmup,
                          seed):
    rng = np.random.default_rng(seed)
    schedule = scenario.schedule
    topology = scenario.topology
    n_nodes = topology.node_count
    length = schedule.slotframe_length
    capacity = scenario.queue_capacity
    p_gen = scenario.generation_rate

    links_by_slot = [[] for _ in range(length)]
    for n in range(1, n_nodes):
        for i in schedule.tx_slots[n]:
            peer = schedule.counterpart[n][i]
            links_by_slot[i].append(
                (n, peer, scenario.link_per.get((n, peer), 0.0)))

    level = [0] * n_nodes
    # the tracked packets queued at each node as (ticket, origin, gen_slot)
    # in FIFO order; ``served`` counts departures while any is queued
    waiting = [deque() for _ in range(n_nodes)]
    served = [0] * n_nodes
    outstanding = 0  # tracked packets queued
    marks = {}  # node -> leading entries of its bucket: tracked packet or None
    tagged = [packets_per_node if n == 0 else 0 for n in range(n_nodes)]
    nodes_left = n_nodes - 1
    generated = delivered = dropped = link_lost = sink_window = 0
    delivered_tracked = [0] * n_nodes
    delay_sums = [0] * n_nodes
    window_end = None
    gen_base = -_BLOCK  # slot 0 draws the first block

    # safety bound: warm-up, the tagging window and a drain allowance
    expected_window = int(packets_per_node / p_gen * 20) + 200 * length
    max_slots = warmup + expected_window + 200 * length * capacity * n_nodes

    for t, links in zip(range(max_slots + 1), cycle(links_by_slot)):
        r = t - gen_base
        if r == _BLOCK:
            events, row_start, total = _generation_events(rng, p_gen,
                                                          n_nodes)
            generated += total
            gen_base = t
            r = hi = 0
        lo = hi  # this slot generates events[lo:hi]
        hi = row_start[r + 1]

        sent = inbound = ()  # empty tuples: a quiet slot allocates nothing
        for v, w, per in links:
            if level[v]:
                sent += (v,)
                queue = waiting[v]
                packet = None
                if queue and queue[0][0] == served[v]:
                    packet = queue.popleft()[1:]
                    outstanding -= 1
                if per and rng.random() < per:
                    link_lost += 1
                elif w == 0:
                    delivered += 1
                    if window_end is None and t >= warmup:
                        sink_window += 1
                    if packet:
                        origin, gen_slot = packet
                        delivered_tracked[origin] += 1
                        delay_sums[origin] += t - gen_slot
                else:
                    inbound += ((w, packet),)
        if lo == hi:
            if not sent:
                continue  # a quiet slot: nothing generated, nothing sent
            buckets = ()
        else:
            # a node's bucket of arrivals: its tracked generated packets,
            # its untracked ones, then forwarded packets in link order
            buckets = events[lo:hi]
            if t >= warmup and nodes_left:
                for n, m in buckets:
                    tag = min(m, packets_per_node - tagged[n])
                    if tag > 0:
                        marks[n] = [(n, t)] * tag
                        tagged[n] += tag
                        if tagged[n] == packets_per_node:
                            nodes_left -= 1
                            if not nodes_left:
                                window_end = t + 1
        if len(inbound) == 1 and not inbound[0][1]:
            # a lone untracked forwarded packet whose receiver has no
            # generated bucket is a bucket of its own, which draws nothing
            w = inbound[0][0]
            for n, _ in buckets:
                if n == w:
                    break
            else:
                if level[w] < capacity:
                    level[w] += 1
                else:
                    dropped += 1
                inbound = ()
        if inbound:
            # a forwarded packet opens a bucket after the generated ones
            # if its receiver has none
            sizes = dict(buckets)
            for w, packet in inbound:
                m = sizes.get(w, 0)
                if packet:
                    held = marks.setdefault(w, [])
                    held += [None] * (m - len(held))
                    held.append(packet)
                sizes[w] = m + 1
            buckets = sizes.items()
        # ``level`` still holds the levels at slot begin
        for n, m in buckets:
            room = capacity - level[n]
            held = marks.pop(n, ()) if marks else ()
            if m > room:
                # pad the marks to the bucket, shuffle, drop the tail
                if m > 1:  # a one-packet shuffle draws nothing
                    bucket = [*held, *[None] * (m - len(held))]
                    # a list shuffles faster than an ndarray, same draws
                    rng.shuffle(bucket)
                    if held:
                        held = bucket
                dropped += m - room
                m = room
            if held:
                queued = served[n] + level[n]
                for j, packet in enumerate(held[:m]):
                    if packet:
                        waiting[n].append((queued + j, *packet))
                        outstanding += 1
            level[n] += m
        for v in sent:
            level[v] -= 1
        if outstanding:
            for v in sent:
                served[v] += 1
        elif not nodes_left:
            break
    else:
        raise SimulationError(
            f"network simulation did not resolve tracked packets within "
            f"{max_slots} slots")

    slots = t + 1
    # the last block was drawn whole, but its slots after ``t`` never ran
    generated -= sum(m for _, m in events[row_start[slots - gen_base]:])
    counts = RunCounts(generated=generated, delivered=delivered,
                       dropped=dropped, link_lost=link_lost,
                       residual=sum(level))
    if not counts.conserved():
        raise SimulationError(f"packet ledger does not balance: {counts}")
    throughput = sink_window / ((window_end - warmup) * schedule.slot_duration)
    delivered_tracked = np.array(delivered_tracked)
    pdr = delivered_tracked / packets_per_node
    pdr[0] = 1.0
    with np.errstate(invalid="ignore", divide="ignore"):
        delay = np.where(delivered_tracked > 0,
                         np.array(delay_sums) / delivered_tracked, math.nan)
    delay[0] = 0.0
    return pdr, delay, throughput, counts


def simulate_network(scenario: NetworkScenario, config: SimConfig, *,
                     workers: int | None = None) -> NetworkSimStats:
    """Slot-synchronous simulation of the whole network.

    After the warm-up, the next ``config.packets`` packets generated at
    each node are tracked until they are delivered at the sink or dropped;
    per-node delivery ratios and end-to-end delays are computed from the
    tracked packets only. Sink throughput is measured over the tagging
    window. The default warm-up is 15 simulated minutes. The runs go to
    up to ``workers`` processes (``1``: this process). ``None`` gives one
    process per run up to the usable CPUs when the runs are long enough to
    pay for the pool's start (``_default_workers``), else this process.
    A generation rate above ``_MAX_NETWORK_RATE`` packets per slot, or one
    at which ``config.packets`` packets take 2**62 slots or more, raises
    :class:`SimulationError` before any run.
    """
    if workers is not None:
        check_workers(workers)
    n_nodes = scenario.topology.node_count
    rate = scenario.generation_rate
    # nothing to track: no generation, or a sink alone, whose slots would
    # all be quiet, and a quiet slot never ends the run
    if rate == 0 or n_nodes == 1:
        delivery = np.ones((config.runs, n_nodes))
        delay = np.full((config.runs, n_nodes), math.nan)
        delay[:, 0] = 0.0  # no deliveries, no delay; a run sets the sink to 0
        counts = tuple(RunCounts(0, 0, 0, 0, 0) for _ in range(config.runs))
        return NetworkSimStats(delivery=delivery, delay_slots=delay,
                               throughput_pps=np.zeros(config.runs),
                               counts=counts)
    if rate > _MAX_NETWORK_RATE:
        raise SimulationError(f"generation rate {rate:g} packets per slot is "
                              f"above the simulated limit of {_MAX_NETWORK_RATE}")
    # the run's slot bound, an int, counts twenty windows of packets / rate
    if config.packets / rate >= 2**62:
        raise SimulationError(f"generation rate {rate:g} packets per slot is "
                              f"too small to generate {config.packets} "
                              f"packets per node")
    warmup = (config.warmup_slots if config.warmup_slots is not None
              else int(round(NETWORK_WARMUP_SECONDS
                             / scenario.schedule.slot_duration)))
    if workers is None:
        workers = _default_workers(
            config.runs,
            (warmup + config.packets / rate) * n_nodes)
    runs = map_in_processes(
        partial(_simulate_network_run, scenario, config.packets, warmup),
        [[config.seed, run] for run in range(config.runs)], workers)
    pdr, delay, throughput, counts = zip(*runs)
    return NetworkSimStats(delivery=np.array(pdr), delay_slots=np.array(delay),
                           throughput_pps=np.array(throughput),
                           counts=counts)
