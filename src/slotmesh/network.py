"""Multi-hop composition of per-node queue models.

Every node of a data-collection tree gets its own queue chain. Forwarded
traffic couples the chains: the probability that a node's parent receives
a packet in one of the node's transmission slots equals the node's
transmission probability in that slot, optionally reduced by the packet
error ratio of the node's uplink; a packet lost there also counts against
the node's delivery ratio. Because data only flows toward the sink,
evaluating children before parents resolves all couplings in one pass
without fixed-point iteration. The tree's levels (``Topology.levels``) are
evaluated deepest first, each as one stack of chains, and each solved
node hands its transmission probabilities to its parent.

A :class:`NetworkScenario` is checked once, when it is built, so the model
and the simulator accept the same scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .queuemodel import NodeMetrics, ModelError, _variant_stack
from .schedule import Schedule, Topology, _ints, _is_finite, validate
from .stationary import StationaryError


class NetworkModelError(ValueError):
    """Raised when a scenario is invalid or cannot be evaluated."""


@dataclass(frozen=True)
class NetworkScenario:
    """A schedule, a routing topology and homogeneous traffic generation.

    ``generation_rate`` is in packets per slot; every node except the sink
    (node 0) generates at this rate in every slot. ``link_per`` optionally
    maps routing uplinks ``(node, parent)`` to a static packet error
    ratio.

    Construction raises :class:`NetworkModelError` unless the schedule
    validates against the topology, every transmission (the sink's
    included) goes to the sender's routing parent, and, at a positive
    rate, every node except the sink has transmission slots. Given
    consistent links, every reception then comes from a child.
    """

    schedule: Schedule
    topology: Topology
    generation_rate: float
    queue_capacity: int
    link_per: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        if not (_is_finite(self.generation_rate) and self.generation_rate >= 0):
            raise NetworkModelError(
                "generation_rate must be a finite non-negative number")
        if not (_ints(self.queue_capacity) and self.queue_capacity >= 1):
            raise NetworkModelError(
                "queue_capacity must be a positive integer")
        object.__setattr__(self, "link_per", dict(self.link_per))
        uplinks = set(enumerate(self.topology.parents[1:], start=1))
        for link, per in self.link_per.items():
            if link not in uplinks or not _ints(*link):
                raise NetworkModelError(
                    f"link {link} of link_per is not a routing uplink "
                    f"(node, parent)")
            if not (_is_finite(per) and 0 <= per <= 1):
                raise NetworkModelError(f"PER of link {link} is not in [0, 1]")
            self.link_per[link] = float(per)
        # the checked numbers are kept as Python ones, as if given so
        object.__setattr__(self, "generation_rate", float(self.generation_rate))
        object.__setattr__(self, "queue_capacity", int(self.queue_capacity))
        report = validate(self.schedule, self.topology)
        if not report.ok:
            raise NetworkModelError("schedule does not validate:\n"
                                    + report.summary())
        schedule, parents = self.schedule, self.topology.parents
        for n, slots in enumerate(schedule.tx_slots):
            for i in slots:
                if schedule.counterpart[n][i] != parents[n]:
                    raise NetworkModelError(
                        f"node {n} transmits to {schedule.counterpart[n][i]} "
                        f"in slot {i}, but its routing parent is {parents[n]}")
            if n and not slots and self.generation_rate > 0:
                raise NetworkModelError(
                    f"node {n} offers traffic but has no transmission slots")

    @classmethod
    def from_interval(cls, schedule, topology, interval_s: float,
                      queue_capacity: int):
        """Build a scenario from a mean packet generation interval in
        seconds; the rate is slot_duration / interval."""
        if not (_is_finite(interval_s) and interval_s > 0):
            raise NetworkModelError("interval must be a finite positive number")
        return cls(schedule=schedule, topology=topology,
                   generation_rate=schedule.slot_duration / float(interval_s),
                   queue_capacity=queue_capacity)


def _check_variant(variant: str, topology: Topology) -> None:
    """Raise :class:`NetworkModelError` if the model ``variant`` cannot
    evaluate ``topology``: ``md1k`` has no slot structure to carry
    forwarded traffic and is therefore restricted to single-hop trees."""
    if variant == "md1k" and len(topology.levels) > 2:
        raise NetworkModelError(
            "the md1k variant has no slot structure and cannot model "
            "forwarding; it is limited to single-hop topologies")


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


def evaluate_network(scenario: NetworkScenario, *,
                     variant: str = "full") -> NetworkResult:
    """Solve all node models and compose network-wide metrics.

    The scenario is valid by construction. ``variant`` selects the
    per-node model, as in :func:`~slotmesh.queuemodel.evaluate_node`, and
    each tree level is solved as one stack under it; ``md1k`` is
    restricted to single-hop trees (:func:`_check_variant`).
    """
    schedule = scenario.schedule
    topology = scenario.topology
    capacity = scenario.queue_capacity
    length = schedule.slotframe_length
    n_nodes = topology.node_count
    levels = topology.levels
    _check_variant(variant, topology)

    rx_prob = np.zeros((n_nodes, length))
    metrics: list[NodeMetrics | None] = [None] * n_nodes
    # the share of a node's transmissions that reaches its parent
    hop = np.ones(n_nodes)
    for (n, _), per in scenario.link_per.items():
        hop[n] = 1.0 - per

    for level in reversed(levels[1:]):
        rates = np.full((len(level), length), scenario.generation_rate)
        try:
            solved = _variant_stack(variant, capacity, length,
                                    [schedule.tx_slots[n] for n in level],
                                    rates, rx_prob[list(level)])
        except (ModelError, StationaryError) as exc:
            raise NetworkModelError(f"node {level[exc.index]}: {exc}") from exc
        for n, node in zip(level, solved):
            metrics[n] = node
            p = topology.parents[n]
            for i in schedule.tx_slots[n]:
                rx_prob[p, i] = node.tx_probability[i] * hop[n]

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
    for level in levels[1:]:
        for n in level:
            p = topology.parents[n]
            delivery[n] = delivery[p] * metrics[n].acceptance * hop[n]
            delay[n] = delay[p] + metrics[n].expected_delay_slots

    return NetworkResult(
        scenario=scenario,
        node_metrics=tuple(metrics),
        delivery_ratio=delivery,
        delay_slots=delay,
        rx_probability=rx_prob,
    )


def concentric_topology(rings: int) -> Topology:
    """A sink surrounded by ``rings`` concentric circles, ring ``k``
    holding ``6 k`` evenly spaced nodes.

    Each node parents to the angularly nearest node of the next inner ring
    (ties resolved toward the smaller angle); radio range covers
    parent/child pairs and angular neighbors within a ring. The layout is a
    reconstruction of the usual concentric benchmark network: 2 rings give
    19 nodes, 3 rings give 37.
    """
    if not (_ints(rings) and rings >= 1):
        raise NetworkModelError("rings must be a positive integer")
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
