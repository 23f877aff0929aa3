"""Slot schedule and topology data model with conflict validation.

A schedule assigns transmission and reception slots within a repeating
slotframe to every node, together with the peer node (counterpart) and
the frequency channel of each assignment. Validation files every
transmission under its (slot, channel) and checks that no two links in
one group can disturb each other: an endpoint of one is a neighbour of an
endpoint of the other.

The module also owns the two number rules, :func:`_ints` and
:func:`_is_finite`, with which every entry point of the package checks
the numbers it is given.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from operator import index, lt

import numpy as np

# IEEE 802.15.4 channel numbers in the 2.4 GHz band.
CHANNELS_2_4GHZ = tuple(range(11, 27))

DEFAULT_SLOT_DURATION = 0.010  # seconds, the usual TSCH slot length

# A directed link (transmitter, receiver) active in some slot.
Link = tuple[int, int]


class ScheduleError(ValueError):
    """Raised for structurally malformed schedules or topologies."""


class ScheduleFormatError(ScheduleError):
    """Raised when a schedule or topology file does not have the expected layout."""


def _ints(*values) -> bool:
    """Whether every one of ``values`` is a Python or numpy integer; a
    bool, Python's or numpy's, is not one, though Python counts its own
    as one. This and :func:`_is_finite` are the number rules of every
    slotmesh entry point."""
    # all Python ints, the common case, skip the subclass tests
    return {int}.issuperset(map(type, values)) or all(
        issubclass(kind, (int, np.integer)) and kind is not bool
        for kind in set(map(type, values)))


def _is_finite(value) -> bool:
    """Whether ``value`` is a Python or numpy integer or float (a bool is
    neither) that converts to a finite float."""
    return (isinstance(value, (float, np.floating)) and np.isfinite(value)
            or _ints(value) and -sys.float_info.max <= value <= sys.float_info.max)


def _check_slot_tuple(slots, length, what):
    prev = -1
    for s in slots:
        if not 0 <= s < length:
            raise ScheduleError(f"{what}: slot {s} outside [0, {length})")
        if s <= prev:
            raise ScheduleError(f"{what}: slot indices must be strictly ascending")
        prev = s


@dataclass(frozen=True)
class Schedule:
    """A fixed multi-hop TDMA schedule over one slotframe.

    ``tx_slots[n]`` / ``rx_slots[n]`` are strictly ascending tuples of slot
    indices, ``counterpart[n][i]`` the peer node for each assigned slot and
    ``channel[n][i]`` the channel used. All containers are treated as
    immutable after construction.

    The constructor enforces structural well-formedness only (field types,
    index ranges, ordering, counterpart/channel domains). Semantic
    invariants such as TX/RX exclusivity and link consistency are checked
    by :func:`validate`, which reports violations instead of raising, so
    schedules read from untrusted files can be diagnosed.
    """

    node_count: int
    slotframe_length: int
    tx_slots: tuple[tuple[int, ...], ...]
    rx_slots: tuple[tuple[int, ...], ...]
    counterpart: tuple[dict[int, int], ...]
    channel: tuple[dict[int, int], ...]
    slot_duration: float = DEFAULT_SLOT_DURATION

    def __post_init__(self):
        if not _ints(self.node_count) or self.node_count < 1:
            raise ScheduleError("node_count must be a positive integer")
        if not _ints(self.slotframe_length) or self.slotframe_length < 1:
            raise ScheduleError("slotframe_length must be a positive integer")
        if not (_is_finite(self.slot_duration) and self.slot_duration > 0):
            raise ScheduleError("slot_duration must be a finite positive number")
        object.__setattr__(self, "slot_duration", float(self.slot_duration))
        for name, kind, what in (("tx_slots", tuple, "collection"),
                                 ("rx_slots", tuple, "collection"),
                                 ("counterpart", dict, "mapping"),
                                 ("channel", dict, "mapping")):
            try:
                value = tuple(map(kind, getattr(self, name)))
            except (TypeError, ValueError):
                raise ScheduleError(f"{name} must hold one {what} per node") from None
            if len(value) != self.node_count:
                raise ScheduleError(f"{name} must have one entry per node")
            object.__setattr__(self, name, value)
        length, count = self.slotframe_length, self.node_count
        for n, (tx, rx, peer, channel) in enumerate(zip(
                self.tx_slots, self.rx_slots, self.counterpart, self.channel)):
            if not _ints(*tx, *rx, *peer.values(), *channel.values()):
                raise ScheduleError(
                    f"node {n}: slots, peers and channels must be integers")
            # a tuple is strictly ascending inside [0, length) when its ends
            # are and each slot is below the next; it is walked slot by
            # slot only to word the error
            for slots, what in ((tx, "tx"), (rx, "rx")):
                if slots and not (0 <= slots[0] and slots[-1] < length
                                  and all(map(lt, slots, slots[1:]))):
                    _check_slot_tuple(slots, length, f"node {n} {what}")
            active = {*tx, *rx}
            for label, mapping in (("counterpart", peer), ("channel", channel)):
                if mapping.keys() != active:
                    raise ScheduleError(
                        f"node {n}: {label} must be defined exactly on its "
                        f"TX and RX slots")
            peers = peer.values()
            if peers and (min(peers) < 0 or max(peers) >= count or n in peers):
                for i, p in peer.items():
                    if not 0 <= p < count or p == n:
                        raise ScheduleError(f"node {n} slot {i}: invalid peer {p}")


@dataclass(frozen=True)
class Topology:
    """Radio connectivity and routing tree of a data-collection network.

    ``edges`` is a symmetric in-range relation (a transmission of either
    endpoint can disturb a reception at the other). ``parents`` encodes a
    routing tree rooted at node 0, the sink. The constructor verifies the
    tree shape and that every parent link is also a radio link.

    ``children[n]`` and ``neighbors[n]`` list a node's routing children
    and radio neighbours in ascending id. ``levels`` groups the nodes by
    hop distance from the sink: the sink first, ascending ids within a
    level, so ``levels[-1]`` is the outer ring. The one pass that builds
    it is also the cycle check.
    """

    node_count: int
    edges: frozenset[tuple[int, int]]
    parents: tuple[int | None, ...]
    levels: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    children: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    neighbors: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    _neighbor_sets: tuple[frozenset[int], ...] = field(init=False, repr=False)

    ROOT = 0

    def __post_init__(self):
        if not _ints(self.node_count) or self.node_count < 1:
            raise ScheduleError("node_count must be a positive integer")
        try:
            edges = tuple(self.edges)
        except TypeError:
            raise ScheduleError("edges must be a collection of node pairs") from None
        norm = set()
        for e in edges:
            if not (isinstance(e, tuple) and len(e) == 2 and _ints(*e)
                    and 0 <= min(e) < max(e) < self.node_count):
                raise ScheduleError(f"invalid edge {e}")
            norm.add((min(e), max(e)))
        object.__setattr__(self, "edges", frozenset(norm))
        # before anything is built per node: a count the parents do not
        # match may be far too large to build for
        try:
            parents = tuple(self.parents)
        except TypeError:
            raise ScheduleError("parents must have one entry per node") from None
        object.__setattr__(self, "parents", parents)
        if len(parents) != self.node_count:
            raise ScheduleError("parents must have one entry per node")
        nbrs = [set() for _ in range(self.node_count)]
        for v, w in norm:
            nbrs[v].add(w)
            nbrs[w].add(v)
        object.__setattr__(self, "_neighbor_sets", tuple(map(frozenset, nbrs)))
        object.__setattr__(self, "neighbors", tuple(tuple(sorted(s)) for s in nbrs))
        if parents[self.ROOT] is not None:
            raise ScheduleError("root (node 0) must have no parent")
        children = [[] for _ in range(self.node_count)]
        for n, p in enumerate(parents):
            if n == self.ROOT:
                continue
            if not _ints(p) or not 0 <= p < self.node_count:
                raise ScheduleError(f"node {n}: invalid parent {p!r}")
            if p == n:
                raise ScheduleError(f"node {n}: node cannot be its own parent")
            if p not in nbrs[n]:
                raise ScheduleError(f"node {n}: parent {p} is not within radio range")
            children[p].append(n)
        object.__setattr__(self, "children", tuple(map(tuple, children)))
        # one pass down the tree; a node it never reaches lies on or behind
        # a parent cycle, named where the walk from the smallest one repeats
        levels, level = [], (self.ROOT,)
        while level:
            levels.append(level)
            level = tuple(sorted(c for n in level for c in children[n]))
        unreached = set(range(self.node_count)).difference(*levels)
        if unreached:
            v, seen = min(unreached), set()
            while v not in seen:
                seen.add(v)
                v = parents[v]
            raise ScheduleError(f"parent pointers contain a cycle through node {v}")
        object.__setattr__(self, "levels", tuple(levels))

    def _near(self, node: int) -> frozenset[int]:
        # a node id the topology lacks has no neighbours
        return self._neighbor_sets[node] if 0 <= node < self.node_count else frozenset()


@dataclass(frozen=True)
class ConflictReport:
    """Result of validating a schedule against a topology.

    ``channel_collisions`` holds one entry per unordered pair of mutually
    disturbing links that share slot and channel; two links disturb each
    other when an endpoint of one is a neighbour of an endpoint of the
    other.
    """

    channel_collisions: tuple[tuple[int, Link, Link], ...]
    invariant_violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.channel_collisions and not self.invariant_violations

    def summary(self) -> str:
        lines = []
        if self.ok:
            lines.append("schedule is conflict-free and valid")
        for v in self.invariant_violations:
            lines.append(f"invariant violated: {v}")
        for slot, l1, l2 in self.channel_collisions:
            lines.append(
                f"channel collision in slot {slot}: link {l1[0]}->{l1[1]} and "
                f"link {l2[0]}->{l2[1]} share channel")
        return "\n".join(lines)


def _link_range(topology: Topology, link: Link) -> frozenset[int]:
    """The nodes within radio range of either endpoint of ``link``."""
    return topology._near(link[0]) | topology._near(link[1])


def _disturbs(topology: Topology, l1: Link, l2: Link) -> bool:
    # Link 2 can disturb link 1 when either of its endpoints is a neighbour
    # of either endpoint of link 1 (data and acknowledgment directions both
    # considered). The callers pass links of distinct transmitters;
    # validate applies this a group at a time, taking each link's range once.
    return not _link_range(topology, l1).isdisjoint(l2)


def validate(schedule: Schedule, topology: Topology) -> ConflictReport:
    """Check a schedule for conflicts and invariant violations.

    Never raises for semantic problems; everything is collected in the
    report. One pass over each node's cells checks TX/RX exclusivity and
    link consistency and files each transmission under its (slot,
    transmitter channel). A schedule is conflict-free when no two links of
    one group disturb each other; collisions are reported sorted by slot
    and link pair.
    """
    violations = []
    if schedule.node_count != topology.node_count:
        violations.append(
            f"node_count_mismatch: schedule has {schedule.node_count} nodes, "
            f"topology has {topology.node_count}")
    tx_sets = [set(t) for t in schedule.tx_slots]
    rx_sets = [set(r) for r in schedule.rx_slots]
    groups: dict[tuple[int, int], list[Link]] = {}
    for n in range(schedule.node_count):
        peer, channel = schedule.counterpart[n], schedule.channel[n]
        for i in sorted(tx_sets[n] & rx_sets[n]):
            violations.append(f"tx_rx_overlap: node {n} slot {i}")
        for i in schedule.tx_slots[n]:
            m = peer[i]
            if i not in rx_sets[m] or schedule.counterpart[m].get(i) != n:
                violations.append(f"link_consistency: node {n} tx slot {i} -> {m}")
            elif channel[i] != schedule.channel[m][i]:
                violations.append(f"channel_mismatch: link ({n},{m}) slot {i}")
            # nodes come in ascending order, so every group stays sorted
            groups.setdefault((i, channel[i]), []).append((n, m))
        for i in schedule.rx_slots[n]:
            m = peer[i]
            if i not in tx_sets[m] or schedule.counterpart[m].get(i) != n:
                violations.append(f"link_consistency: node {n} rx slot {i} <- {m}")
    collisions = []
    for (slot, _), links in groups.items():
        for a, l1 in enumerate(links[:-1]):
            near = _link_range(topology, l1)
            collisions += [(slot, l1, l2) for l2 in links[a + 1:]
                           if not near.isdisjoint(l2)]
    collisions.sort()
    return ConflictReport(channel_collisions=tuple(collisions),
                          invariant_violations=tuple(violations))


# ---------------------------------------------------------------------------
# file formats (JSON, strict about unknown keys)

def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str):
    if not obj.keys() <= allowed:
        raise ScheduleFormatError(
            f"{where}: unknown keys {sorted(obj.keys() - allowed)}")
    if not required <= obj.keys():
        raise ScheduleFormatError(
            f"{where}: missing keys {sorted(required - obj.keys())}")


_NODE_KEYS = {"id", "tx", "rx"}
_CELL_KEYS = {"slot", "peer", "channel"}


def schedule_to_dict(schedule: Schedule) -> dict:
    # the fields may hold numpy integers, which json does not write;
    # ``index`` makes them Python ints at a quarter of the cost of ``int``
    nodes = []
    for n in range(schedule.node_count):
        peer, channel = schedule.counterpart[n], schedule.channel[n]
        nodes.append({
            "id": n,
            "tx": [{"slot": index(i), "peer": index(peer[i]),
                    "channel": index(channel[i])} for i in schedule.tx_slots[n]],
            "rx": [{"slot": index(i), "peer": index(peer[i]),
                    "channel": index(channel[i])} for i in schedule.rx_slots[n]],
        })
    return {
        "slotframe_length": index(schedule.slotframe_length),
        "slot_duration_s": schedule.slot_duration,
        "nodes": nodes,
    }


def schedule_from_dict(data: dict) -> Schedule:
    if not isinstance(data, dict):
        raise ScheduleFormatError("schedule file must contain a JSON object")
    _require_keys(data, {"slotframe_length", "slot_duration_s", "nodes"},
                  {"slotframe_length", "nodes"}, "schedule")
    nodes = data["nodes"]
    if not isinstance(nodes, list) or not nodes:
        raise ScheduleFormatError("schedule: 'nodes' must be a non-empty list")
    count = len(nodes)
    tx = [None] * count
    rx = [None] * count
    cp = [None] * count
    ch = [None] * count
    # each entry and cell is tested by one comparison of its keys; the
    # checks that word an error run only on a failure
    for entry in nodes:
        if not (isinstance(entry, dict) and entry.keys() == _NODE_KEYS):
            if not isinstance(entry, dict):
                raise ScheduleFormatError("schedule: node entries must be objects")
            _require_keys(entry, _NODE_KEYS, _NODE_KEYS, "schedule node")
        n = entry["id"]
        if not _ints(n) or not 0 <= n < count or tx[n] is not None:
            raise ScheduleFormatError(
                f"schedule: node ids must cover 0..{count - 1} exactly once (got {n!r})")
        for kind in ("tx", "rx"):
            listed = entry[kind]
            if not isinstance(listed, list):
                raise ScheduleFormatError(f"schedule node {n}: '{kind}' must be a list")
            for cell in listed:
                if not (isinstance(cell, dict) and cell.keys() == _CELL_KEYS):
                    if not isinstance(cell, dict):
                        raise ScheduleFormatError(
                            f"schedule node {n}: {kind} cells must be objects")
                    _require_keys(cell, _CELL_KEYS, _CELL_KEYS,
                                  f"schedule node {n} {kind} cell")
        cells = entry["tx"] + entry["rx"]
        tx[n] = [cell["slot"] for cell in entry["tx"]]
        rx[n] = [cell["slot"] for cell in entry["rx"]]
        # slots are dict keys below, so they are checked first
        if not _ints(*tx[n], *rx[n]):
            raise ScheduleFormatError(f"schedule node {n}: slots must be integers")
        cp[n] = {cell["slot"]: cell["peer"] for cell in cells}
        ch[n] = {cell["slot"]: cell["channel"] for cell in cells}
        if len(cp[n]) < len(cells):
            # a slot listed under both tx and rx is representable (and
            # reported by validate) only while peer and channel agree
            first = {}
            for cell in cells:
                i, pair = cell["slot"], (cell["peer"], cell["channel"])
                if first.setdefault(i, pair) != pair:
                    raise ScheduleFormatError(
                        f"schedule node {n}: slot {i} assigned twice with "
                        f"conflicting peer or channel")
    try:
        return Schedule(
            node_count=count,
            slotframe_length=data["slotframe_length"],
            tx_slots=tuple(tuple(t) for t in tx),
            rx_slots=tuple(tuple(r) for r in rx),
            counterpart=tuple(cp),
            channel=tuple(ch),
            slot_duration=data.get("slot_duration_s", DEFAULT_SLOT_DURATION),
        )
    except ScheduleError as exc:
        raise ScheduleFormatError(f"schedule: {exc}") from exc


def topology_to_dict(topology: Topology) -> dict:
    return {
        "nodes": index(topology.node_count),
        "edges": sorted([index(v), index(w)] for v, w in topology.edges),
        "parents": [p if p is None else index(p) for p in topology.parents],
    }


def topology_from_dict(data: dict) -> Topology:
    if not isinstance(data, dict):
        raise ScheduleFormatError("topology file must contain a JSON object")
    _require_keys(data, {"nodes", "edges", "parents"}, {"nodes", "edges", "parents"},
                  "topology")
    edges = data["edges"]
    if not isinstance(edges, list):
        raise ScheduleFormatError("topology: 'edges' must be a list")
    pairs = []
    for e in edges:
        if not isinstance(e, list) or len(e) != 2 or not _ints(*e):
            raise ScheduleFormatError(f"topology: bad edge {e!r}")
        pairs.append((e[0], e[1]))
    parents = data["parents"]
    if not isinstance(parents, list):
        raise ScheduleFormatError("topology: 'parents' must be a list")
    try:
        return Topology(
            node_count=data["nodes"],
            edges=frozenset(pairs),
            parents=tuple(parents),
        )
    except ScheduleError as exc:
        raise ScheduleFormatError(f"topology: {exc}") from exc


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_schedule(path) -> Schedule:
    return schedule_from_dict(_read_json(path))


def save_schedule(schedule: Schedule, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(schedule_to_dict(schedule)) + "\n")


def load_topology(path) -> Topology:
    return topology_from_dict(_read_json(path))


def save_topology(topology: Topology, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(topology_to_dict(topology)) + "\n")
