"""Discrete-event simulation of the exact queue policy.

Serves as the independent ground truth for the analytical model, both for
a single queue and for full multi-hop networks. The policy: packets
arrive at any time within a slot, at most ``K - q`` are accepted (``q``
being the queue level at slot begin), and a packet leaves at the end of a
transmission slot if and only if it was already queued at slot begin.

Runs with different seeds are aggregated into means and 95% confidence
intervals using the normal approximation over per-run means.

Both slot loops draw their random arrivals in blocks of ``_BLOCK`` slots
and convert each block to Python lists once, so no slot calls numpy. The
network loop walks a per-block list of ``(node, count)`` generation events
through a row pointer; the single-queue loop jumps over the slots of a
block in which its queue is empty and nothing arrives. The random numbers
drawn, and their order, are those of a plain slot-by-slot loop. Every
network run checks its packet ledger (``RunCounts.conserved``).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass

import numpy as np

from .network import NetworkScenario

Z95 = 1.96
_BLOCK = 4096
SINGLE_NODE_WARMUP_FRAMES = 10
NETWORK_WARMUP_SECONDS = 900.0  # 15 simulated minutes


class SimulationError(RuntimeError):
    """Raised when a simulation cannot complete."""


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    runs: int = 10
    packets: int = 10_000
    warmup_slots: int | None = None

    def __post_init__(self):
        if self.runs < 1:
            raise SimulationError("runs must be at least 1")
        if self.packets < 1:
            raise SimulationError("packets must be at least 1")


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
        if not clean:
            return cls(math.nan, math.nan, math.nan, tuple(values))
        mean = float(np.mean(clean))
        if len(clean) > 1:
            half = Z95 * float(np.std(clean, ddof=1)) / math.sqrt(len(clean))
        else:
            half = 0.0
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


def _arrival_arrays(rng, traffic, start_slot, count):
    idx = (start_slot + np.arange(count)) % traffic.slots
    lam = np.asarray(traffic.poisson_rate)[idx]
    prob = np.asarray(traffic.bernoulli_prob)[idx]
    arrivals = rng.poisson(lam)
    arrivals += rng.random(count) < prob
    return arrivals


def _simulate_queue_run(capacity, slotframe_length, tx_set, traffic, rng,
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
        if q_start and t % slotframe_length in tx_set:
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
    """
    if traffic.slots != slotframe_length:
        raise SimulationError("traffic spec length must equal the slotframe length")
    offered = sum(traffic.poisson_rate) + sum(traffic.bernoulli_prob)
    if offered == 0:
        one = MetricSummary.from_runs([1.0] * config.runs)
        nan = MetricSummary.from_runs([math.nan] * config.runs)
        return QueueSimStats(acceptance=one, delay_slots=nan,
                             queue_histogram=np.zeros(capacity + 1, dtype=np.int64),
                             arrived=0, accepted=0)
    warmup = (config.warmup_slots if config.warmup_slots is not None
              else SINGLE_NODE_WARMUP_FRAMES * slotframe_length)
    tx_set = frozenset(tx_slots)
    if not tx_set:
        raise SimulationError("node never transmits; simulation would not drain")
    hist = np.zeros(capacity + 1, dtype=np.int64)
    ratios, delay_means = [], []
    arrived_total = accepted_total = 0
    for run in range(config.runs):
        rng = np.random.default_rng([config.seed, run])
        arrived, accepted, delays, h = _simulate_queue_run(
            capacity, slotframe_length, tx_set, traffic, rng,
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
    slot_duration: float

    def delivery_summary(self, nodes=None) -> MetricSummary:
        cols = list(nodes) if nodes is not None else slice(None)
        return MetricSummary.from_runs(self.delivery[:, cols].mean(axis=1))

    def delay_summary(self, nodes=None) -> MetricSummary:
        cols = list(nodes) if nodes is not None else slice(None)
        with np.errstate(invalid="ignore"):
            per_run = np.nanmean(self.delay_slots[:, cols], axis=1)
        return MetricSummary.from_runs(per_run)

    def throughput_summary(self) -> MetricSummary:
        return MetricSummary.from_runs(self.throughput_pps)


def _generation_events(rng, p_gen, n_nodes):
    """Draw the packet generation of the next ``_BLOCK`` slots.

    The ``(node, count)`` pairs of block slot ``r`` are
    ``events[row_start[r]:row_start[r + 1]]``, in node order.
    """
    counts = rng.poisson(p_gen, size=(_BLOCK, n_nodes - 1))
    rows, cols = np.nonzero(counts)
    row_start = np.searchsorted(rows, np.arange(_BLOCK + 1)).tolist()
    events = list(zip((cols + 1).tolist(), counts[rows, cols].tolist()))
    return events, row_start


def _simulate_network_run(scenario: NetworkScenario, rng, packets_per_node,
                          warmup):
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

    queues = [[] for _ in range(n_nodes)]  # packets: [origin, gen_slot, tracked]
    tagged = [packets_per_node if n == 0 else 0 for n in range(n_nodes)]
    nodes_left = n_nodes - 1
    outstanding = 0
    delivered_tracked = [0] * n_nodes
    delay_sums = [0] * n_nodes
    generated = delivered = dropped = link_lost = 0
    sink_window = 0
    window_end = None

    # safety bound: warm-up, the tagging window and a drain allowance
    expected_window = int(packets_per_node / p_gen * 20) + 200 * length
    max_slots = warmup + expected_window + 200 * length * capacity * n_nodes

    gen_base = -_BLOCK
    t = 0
    while True:
        r = t - gen_base
        if r >= _BLOCK:
            events, row_start = _generation_events(rng, p_gen, n_nodes)
            gen_base = t
            r = 0
        slot = t % length

        inbound = []
        popped = {}
        for v, w, per in links_by_slot[slot]:
            if queues[v]:
                packet = queues[v].pop(0)
                popped[v] = 1
                if per and rng.random() < per:
                    link_lost += 1
                    if packet[2] >= 0:
                        outstanding -= 1
                    continue
                if w == 0:
                    delivered += 1
                    if warmup <= t and (window_end is None or t < window_end):
                        sink_window += 1
                    if packet[2] >= 0:
                        origin = packet[0]
                        delivered_tracked[origin] += 1
                        delay_sums[origin] += t - packet[1]
                        outstanding -= 1
                else:
                    inbound.append((w, packet))

        arrivals = {}
        tagging = t >= warmup and nodes_left > 0
        for n, count in events[row_start[r]:row_start[r + 1]]:
            generated += count
            bucket = arrivals[n] = []
            for _ in range(count):
                if tagging and tagged[n] < packets_per_node:
                    tagged[n] += 1
                    outstanding += 1
                    bucket.append([n, t, 1])
                    if tagged[n] == packets_per_node:
                        nodes_left -= 1
                        if nodes_left == 0:
                            window_end = t + 1
                else:
                    bucket.append([n, t, -1])
        for w, packet in inbound:
            arrivals.setdefault(w, []).append(packet)

        for n, bucket in arrivals.items():
            room = capacity - (len(queues[n]) + popped.get(n, 0))
            if len(bucket) > room:
                # a one-packet shuffle draws no random numbers: skip it
                if len(bucket) > 1:
                    rng.shuffle(bucket)
                for packet in bucket[room:]:
                    dropped += 1
                    if packet[2] >= 0:
                        outstanding -= 1
                bucket = bucket[:room]
            queues[n].extend(bucket)

        t += 1
        if nodes_left == 0 and outstanding == 0:
            break
        if t > max_slots:
            raise SimulationError(
                f"network simulation did not resolve tracked packets within "
                f"{max_slots} slots")

    counts = RunCounts(generated=generated, delivered=delivered,
                       dropped=dropped, link_lost=link_lost,
                       residual=sum(len(q) for q in queues))
    if not counts.conserved():
        raise SimulationError(f"packet ledger does not balance: {counts}")
    if window_end is None:
        window_end = t
    window_slots = max(window_end - warmup, 1)
    throughput = sink_window / (window_slots * schedule.slot_duration)
    delivered_tracked = np.array(delivered_tracked)
    pdr = delivered_tracked / packets_per_node
    pdr[0] = 1.0
    with np.errstate(invalid="ignore", divide="ignore"):
        delay = np.where(delivered_tracked > 0,
                         np.array(delay_sums) / delivered_tracked, math.nan)
    delay[0] = 0.0
    return pdr, delay, throughput, counts


def simulate_network(scenario: NetworkScenario, config: SimConfig) -> NetworkSimStats:
    """Slot-synchronous simulation of the whole network.

    After the warm-up, the next ``config.packets`` packets generated at
    each node are tracked until they are delivered at the sink or dropped;
    per-node delivery ratios and end-to-end delays are computed from the
    tracked packets only. Sink throughput is measured over the tagging
    window. The default warm-up is 15 simulated minutes.
    """
    n_nodes = scenario.topology.node_count
    if scenario.generation_rate == 0:
        delivery = np.ones((config.runs, n_nodes))
        delay = np.zeros((config.runs, n_nodes))
        counts = tuple(RunCounts(0, 0, 0, 0, 0) for _ in range(config.runs))
        return NetworkSimStats(delivery=delivery, delay_slots=delay,
                               throughput_pps=np.zeros(config.runs),
                               counts=counts,
                               slot_duration=scenario.schedule.slot_duration)
    warmup = (config.warmup_slots if config.warmup_slots is not None
              else int(round(NETWORK_WARMUP_SECONDS
                             / scenario.schedule.slot_duration)))
    pdr = np.zeros((config.runs, n_nodes))
    delay = np.zeros((config.runs, n_nodes))
    throughput = np.zeros(config.runs)
    counts = []
    for run in range(config.runs):
        rng = np.random.default_rng([config.seed, run])
        pdr[run], delay[run], throughput[run], c = _simulate_network_run(
            scenario, rng, config.packets, warmup)
        counts.append(c)
    return NetworkSimStats(delivery=pdr, delay_slots=delay,
                           throughput_pps=throughput, counts=tuple(counts),
                           slot_duration=scenario.schedule.slot_duration)
