"""Multi-hop composition of per-node queue models.

Every node of a data-collection tree gets its own queue chain. Forwarded
traffic couples the chains: the probability that node ``n`` receives a
packet in reception slot ``i`` equals the transmission probability of the
transmitting child in that slot, optionally reduced by a per-link packet
error ratio. Because data only flows toward the sink, evaluating children
before parents resolves all couplings in one pass without fixed-point
iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .queuemodel import NodeMetrics, TrafficSpec, evaluate_node, \
    expected_arrivals_per_slotframe, ModelError
from .schedule import Schedule, Topology, validate
from .stationary import StationaryError


class NetworkModelError(ValueError):
    """Raised when a scenario cannot be evaluated."""


@dataclass(frozen=True)
class NetworkScenario:
    """A schedule, a routing topology and homogeneous traffic generation.

    ``generation_rate`` is in packets per slot; every node except the sink
    (node 0) generates at this rate in every slot. ``link_per`` optionally
    maps directed links ``(transmitter, receiver)`` to a static packet
    error ratio.
    """

    schedule: Schedule
    topology: Topology
    generation_rate: float
    queue_capacity: int
    link_per: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        if not self.generation_rate >= 0:
            raise NetworkModelError("generation_rate must be non-negative")
        if self.queue_capacity < 1:
            raise NetworkModelError("queue_capacity must be at least 1")
        object.__setattr__(self, "link_per", dict(self.link_per))
        for link, per in self.link_per.items():
            if not 0.0 <= per <= 1.0:
                raise NetworkModelError(f"PER of link {link} outside [0, 1]")

    @classmethod
    def from_interval(cls, schedule, topology, interval_s: float,
                      queue_capacity: int, link_per=None):
        """Build a scenario from a mean packet generation interval in
        seconds; the rate is slot_duration / interval."""
        if not interval_s > 0:
            raise NetworkModelError("interval must be positive")
        return cls(schedule=schedule, topology=topology,
                   generation_rate=schedule.slot_duration / interval_s,
                   queue_capacity=queue_capacity,
                   link_per=link_per or {})


@dataclass(frozen=True)
class NetworkResult:
    """Per-node metrics plus network-wide delivery figures."""

    scenario: NetworkScenario
    node_metrics: tuple[NodeMetrics, ...]
    delivery_ratio: np.ndarray
    delay_slots: np.ndarray
    rx_probability: np.ndarray

    @property
    def delay_seconds(self) -> np.ndarray:
        return self.delay_slots * self.scenario.schedule.slot_duration

    @property
    def throughput_pps(self) -> float:
        # expected sink arrivals per slotframe over the slotframe duration
        schedule = self.scenario.schedule
        frame_seconds = schedule.slotframe_length * schedule.slot_duration
        return float(self.rx_probability[0].sum()) / frame_seconds


def _evaluation_order(topology: Topology):
    depths = [topology.depth(n) for n in range(topology.node_count)]
    return sorted(range(topology.node_count), key=lambda n: (-depths[n], n)), depths


def evaluate_network(scenario: NetworkScenario, *,
                     variant: str = "full") -> NetworkResult:
    """Solve all node models and compose network-wide metrics.

    The schedule must validate against the topology and every non-root
    transmission must point at the routing parent. ``variant`` selects the
    per-node model: the ``distributed`` approximation folds each node's
    total load into uniform Poisson traffic; ``md1k`` is only meaningful
    without forwarding and therefore restricted to single-hop trees.
    """
    schedule = scenario.schedule
    topology = scenario.topology
    report = validate(schedule, topology)
    if not report.ok:
        raise NetworkModelError("schedule does not validate:\n" + report.summary())
    capacity = scenario.queue_capacity
    length = schedule.slotframe_length
    n_nodes = topology.node_count

    for n in range(1, n_nodes):
        for i in schedule.tx_slots[n]:
            if schedule.counterpart[n][i] != topology.parents[n]:
                raise NetworkModelError(
                    f"node {n} transmits to {schedule.counterpart[n][i]} in "
                    f"slot {i}, but its routing parent is {topology.parents[n]}")

    order, depths = _evaluation_order(topology)
    if variant == "md1k" and max(depths) > 1:
        raise NetworkModelError(
            "the md1k variant has no slot structure and cannot model "
            "forwarding; it is limited to single-hop topologies")

    tx_prob = np.zeros((n_nodes, length))
    rx_prob = np.zeros((n_nodes, length))
    metrics: list[NodeMetrics | None] = [None] * n_nodes

    children = {n: set(topology.children(n)) for n in range(n_nodes)}
    for n in order:
        for i in schedule.rx_slots[n]:
            source = schedule.counterpart[n][i]
            if source not in children[n]:
                raise NetworkModelError(
                    f"node {n} receives from {source} in slot {i}, which is "
                    f"not one of its children")
            per = scenario.link_per.get((source, n), 0.0)
            rx_prob[n, i] = tx_prob[source, i] * (1.0 - per)
        if n == topology.ROOT:
            continue
        rates = (scenario.generation_rate,) * length
        traffic = TrafficSpec(rates, tuple(rx_prob[n]))
        offered = expected_arrivals_per_slotframe(traffic)
        if offered > 0 and not schedule.tx_slots[n]:
            raise NetworkModelError(
                f"node {n} offers traffic but has no transmission slots")
        if variant == "distributed":
            traffic = TrafficSpec.constant(length, rate=offered / length)
        try:
            if variant == "md1k" and schedule.tx_slots[n]:
                node = evaluate_node(capacity, 1, (0,),
                                     TrafficSpec((offered,), (0.0,)))
                tx_per_frame = node.tx_probability[0]
                # one step of the collapsed model is a whole slotframe:
                # rescale its delay to slots and spread the per-frame
                # transmission probability over the node's real slots
                metrics[n] = replace(
                    node, expected_delay_slots=node.expected_delay_slots * length)
                for i in schedule.tx_slots[n]:
                    tx_prob[n, i] = tx_per_frame / len(schedule.tx_slots[n])
                continue
            metrics[n] = evaluate_node(capacity, length, schedule.tx_slots[n],
                                       traffic)
        except (ModelError, StationaryError) as exc:
            raise NetworkModelError(f"node {n}: {exc}") from exc
        tx_prob[n] = metrics[n].tx_probability

    sink_arrivals = float(rx_prob[topology.ROOT].sum())
    sink_marginals = np.zeros(capacity + 1)
    sink_marginals[0] = 1.0
    metrics[topology.ROOT] = NodeMetrics(
        distribution=None,
        tx_probability=np.zeros(length),
        acceptance=1.0,
        expected_delay_slots=0.0,
        queue_marginals=sink_marginals,
        total_arrivals=sink_arrivals,
    )

    delivery = np.ones(n_nodes)
    delay = np.zeros(n_nodes)
    for n in sorted(range(n_nodes), key=lambda m: depths[m]):
        if n == topology.ROOT:
            continue
        p = topology.parents[n]
        delivery[n] = delivery[p] * metrics[n].acceptance
        delay[n] = delay[p] + metrics[n].expected_delay_slots

    return NetworkResult(
        scenario=scenario,
        node_metrics=tuple(metrics),
        delivery_ratio=delivery,
        delay_slots=delay,
        rx_probability=rx_prob,
    )


def max_depth_nodes(topology: Topology) -> tuple[int, ...]:
    """Nodes at maximum hop distance from the sink (the outer ring of a
    concentric network)."""
    depths = [topology.depth(n) for n in range(topology.node_count)]
    top = max(depths)
    return tuple(n for n, d in enumerate(depths) if d == top)


def concentric_topology(rings: int) -> Topology:
    """A sink surrounded by ``rings`` concentric circles, ring ``k``
    holding ``6 k`` evenly spaced nodes.

    Each node parents to the angularly nearest node of the next inner ring
    (ties resolved toward the smaller angle); radio range covers
    parent/child pairs and angular neighbors within a ring. The layout is a
    reconstruction of the usual concentric benchmark network: 2 rings give
    19 nodes, 3 rings give 37.
    """
    if rings < 1:
        raise NetworkModelError("rings must be at least 1")
    counts = [1] + [6 * k for k in range(1, rings + 1)]
    offsets = np.cumsum([0] + counts)
    n_nodes = int(offsets[-1])
    parents: list[int | None] = [None] * n_nodes
    edges = set()
    for k in range(1, rings + 1):
        ring_size = counts[k]
        base = int(offsets[k])
        for j in range(ring_size):
            node = base + j
            if k == 1:
                parent = 0
            else:
                # nearest position on the inner ring, rounding halves down
                parent = int(offsets[k - 1]) + (
                    (2 * j * (k - 1) + k - 1) // (2 * k)) % counts[k - 1]
            parents[node] = parent
            edges.add((parent, node))
            edges.add((node, base + (j + 1) % ring_size))
    return Topology(node_count=n_nodes, edges=frozenset(edges),
                    parents=tuple(parents))
