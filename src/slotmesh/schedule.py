"""Slot schedule and topology data model with conflict validation.

A schedule assigns transmission and reception slots within a repeating
slotframe to every node, together with the peer node (counterpart) and
the frequency channel of each assignment. Validation checks that no two
links that can disturb each other are active in the same slot on the
same channel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

# IEEE 802.15.4 channel numbers in the 2.4 GHz band.
CHANNELS_2_4GHZ = tuple(range(11, 27))

DEFAULT_SLOT_DURATION = 0.010  # seconds, the usual TSCH slot length

# A directed link (transmitter, receiver) active in some slot.
Link = tuple[int, int]


class ScheduleError(ValueError):
    """Raised for structurally malformed schedules or topologies."""


class ScheduleFormatError(ScheduleError):
    """Raised when a schedule or topology file does not have the expected layout."""


def _check_slot_tuple(slots, length, what):
    prev = -1
    for s in slots:
        if not isinstance(s, int) or isinstance(s, bool):
            raise ScheduleError(f"{what}: slot index {s!r} is not an integer")
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

    The constructor enforces structural well-formedness only (index ranges,
    ordering, counterpart/channel domains). Semantic invariants such as
    TX/RX exclusivity and link consistency are checked by :func:`validate`,
    which reports violations instead of raising, so schedules read from
    untrusted files can be diagnosed.
    """

    node_count: int
    slotframe_length: int
    tx_slots: tuple[tuple[int, ...], ...]
    rx_slots: tuple[tuple[int, ...], ...]
    counterpart: tuple[dict[int, int], ...]
    channel: tuple[dict[int, int], ...]
    slot_duration: float = DEFAULT_SLOT_DURATION

    def __post_init__(self):
        if self.node_count < 1:
            raise ScheduleError("node_count must be positive")
        if self.slotframe_length < 1:
            raise ScheduleError("slotframe_length must be positive")
        if not self.slot_duration > 0:
            raise ScheduleError("slot_duration must be positive")
        object.__setattr__(self, "tx_slots", tuple(tuple(t) for t in self.tx_slots))
        object.__setattr__(self, "rx_slots", tuple(tuple(r) for r in self.rx_slots))
        object.__setattr__(self, "counterpart", tuple(dict(c) for c in self.counterpart))
        object.__setattr__(self, "channel", tuple(dict(c) for c in self.channel))
        for name in ("tx_slots", "rx_slots", "counterpart", "channel"):
            if len(getattr(self, name)) != self.node_count:
                raise ScheduleError(f"{name} must have one entry per node")
        for n in range(self.node_count):
            _check_slot_tuple(self.tx_slots[n], self.slotframe_length, f"node {n} tx")
            _check_slot_tuple(self.rx_slots[n], self.slotframe_length, f"node {n} rx")
            active = set(self.tx_slots[n]) | set(self.rx_slots[n])
            for label, mapping in (("counterpart", self.counterpart[n]),
                                   ("channel", self.channel[n])):
                if set(mapping) != active:
                    raise ScheduleError(
                        f"node {n}: {label} must be defined exactly on its "
                        f"TX and RX slots")
            for i, peer in self.counterpart[n].items():
                if not isinstance(peer, int) or isinstance(peer, bool):
                    raise ScheduleError(f"node {n} slot {i}: peer must be an integer")
                if not 0 <= peer < self.node_count or peer == n:
                    raise ScheduleError(f"node {n} slot {i}: invalid peer {peer}")


@dataclass(frozen=True)
class Topology:
    """Radio connectivity and routing tree of a data-collection network.

    ``edges`` is a symmetric in-range relation (a transmission of either
    endpoint can disturb a reception at the other). ``parents`` encodes a
    routing tree rooted at node 0, the sink. The constructor verifies the
    tree shape and that every parent link is also a radio link.
    """

    node_count: int
    edges: frozenset[tuple[int, int]]
    parents: tuple[int | None, ...]
    _children: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    _neighbors: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    ROOT = 0

    def __post_init__(self):
        if self.node_count < 1:
            raise ScheduleError("node_count must be positive")
        norm = set()
        for e in self.edges:
            v, w = e
            if not (0 <= v < self.node_count and 0 <= w < self.node_count) or v == w:
                raise ScheduleError(f"invalid edge {e}")
            norm.add((min(v, w), max(v, w)))
        object.__setattr__(self, "edges", frozenset(norm))
        parents = tuple(self.parents)
        object.__setattr__(self, "parents", parents)
        if len(parents) != self.node_count:
            raise ScheduleError("parents must have one entry per node")
        if parents[self.ROOT] is not None:
            raise ScheduleError("root (node 0) must have no parent")
        for n, p in enumerate(parents):
            if n == self.ROOT:
                continue
            if not isinstance(p, int) or isinstance(p, bool) or not 0 <= p < self.node_count:
                raise ScheduleError(f"node {n}: invalid parent {p!r}")
            if p == n:
                raise ScheduleError(f"node {n}: node cannot be its own parent")
            if not self.in_range(p, n):
                raise ScheduleError(f"node {n}: parent {p} is not within radio range")
        # every node must reach the root without cycles
        for n in range(self.node_count):
            seen = set()
            v = n
            while v != self.ROOT:
                if v in seen:
                    raise ScheduleError(f"parent pointers contain a cycle through node {v}")
                seen.add(v)
                v = parents[v]
        children = [[] for _ in range(self.node_count)]
        for n, p in enumerate(parents):
            if p is not None:
                children[p].append(n)
        object.__setattr__(self, "_children", tuple(tuple(sorted(c)) for c in children))
        nbrs = [set() for _ in range(self.node_count)]
        for v, w in self.edges:
            nbrs[v].add(w)
            nbrs[w].add(v)
        object.__setattr__(self, "_neighbors", tuple(tuple(sorted(s)) for s in nbrs))

    def in_range(self, v: int, w: int) -> bool:
        """Whether a transmission of ``v`` can disturb a reception at ``w``."""
        return (min(v, w), max(v, w)) in self.edges

    def children(self, node: int) -> tuple[int, ...]:
        return self._children[node]

    def neighbors(self, node: int) -> tuple[int, ...]:
        return self._neighbors[node]

    def depth(self, node: int) -> int:
        d = 0
        while node != self.ROOT:
            node = self.parents[node]
            d += 1
        return d


@dataclass(frozen=True)
class ConflictReport:
    """Result of validating a schedule against a topology.

    ``active_links`` and ``disturbing_union`` only list slots with at least
    one active link. ``channel_collisions`` holds one entry per unordered
    pair of mutually disturbing links that share slot and channel.
    """

    active_links: dict[int, frozenset[Link]]
    disturbing: dict[tuple[int, Link], frozenset[Link]]
    disturbing_union: dict[int, frozenset[Link]]
    channel_collisions: tuple[tuple[int, Link, Link], ...]
    invariant_violations: tuple[str, ...]

    @property
    def conflict_free(self) -> bool:
        return not self.channel_collisions

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


def active_links(schedule: Schedule, slot: int) -> set[Link]:
    """All links (transmitter, receiver) active during ``slot``."""
    if not 0 <= slot < schedule.slotframe_length:
        raise ScheduleError(f"slot {slot} outside [0, {schedule.slotframe_length})")
    links = set()
    for n in range(schedule.node_count):
        if slot in schedule.counterpart[n] and slot in set(schedule.tx_slots[n]):
            links.add((n, schedule.counterpart[n][slot]))
    return links


def _disturbs(topology: Topology, l1: Link, l2: Link) -> bool:
    # The four constellations in which link 2 can disturb link 1: any
    # endpoint of link 2 within range of any endpoint of link 1 (data and
    # acknowledgment directions both considered).
    v1, w1 = l1
    v2, w2 = l2
    if v1 == v2:
        return False
    return (topology.in_range(v2, v1) or topology.in_range(v2, w1)
            or topology.in_range(w2, v1) or topology.in_range(w2, w1))


def disturbing_links(schedule: Schedule, topology: Topology, slot: int,
                     link: Link) -> set[Link]:
    """Other links active in ``slot`` that can disturb ``link``.

    ``link`` must itself be active in the slot.
    """
    links = active_links(schedule, slot)
    if link not in links:
        raise ScheduleError(f"link {link} is not active in slot {slot}")
    return {l2 for l2 in links if l2 != link and _disturbs(topology, link, l2)}


def validate(schedule: Schedule, topology: Topology) -> ConflictReport:
    """Check a schedule for conflicts and invariant violations.

    Never raises for semantic problems; everything is collected in the
    report. A schedule is conflict-free when no two mutually disturbing
    links in any slot share a frequency channel.
    """
    violations = []
    if schedule.node_count != topology.node_count:
        violations.append(
            f"node_count_mismatch: schedule has {schedule.node_count} nodes, "
            f"topology has {topology.node_count}")
    for n in range(schedule.node_count):
        overlap = set(schedule.tx_slots[n]) & set(schedule.rx_slots[n])
        for i in sorted(overlap):
            violations.append(f"tx_rx_overlap: node {n} slot {i}")
        for i in schedule.tx_slots[n]:
            m = schedule.counterpart[n][i]
            if i not in set(schedule.rx_slots[m]) or schedule.counterpart[m].get(i) != n:
                violations.append(f"link_consistency: node {n} tx slot {i} -> {m}")
            elif schedule.channel[n][i] != schedule.channel[m][i]:
                violations.append(f"channel_mismatch: link ({n},{m}) slot {i}")
        for i in schedule.rx_slots[n]:
            m = schedule.counterpart[n][i]
            if i not in set(schedule.tx_slots[m]) or schedule.counterpart[m].get(i) != n:
                violations.append(f"link_consistency: node {n} rx slot {i} <- {m}")

    per_slot = {}
    disturbing = {}
    union = {}
    collisions = []
    for slot in range(schedule.slotframe_length):
        links = active_links(schedule, slot)
        if not links:
            continue
        per_slot[slot] = frozenset(links)
        u = set()
        ordered = sorted(links)
        for l1 in ordered:
            d = {l2 for l2 in links if l2 != l1 and _disturbs(topology, l1, l2)}
            disturbing[(slot, l1)] = frozenset(d)
            u |= d
        union[slot] = frozenset(u)
        for a, l1 in enumerate(ordered):
            for l2 in ordered[a + 1:]:
                if not _disturbs(topology, l1, l2):
                    continue
                if schedule.channel[l1[0]][slot] == schedule.channel[l2[0]][slot]:
                    collisions.append((slot, l1, l2))
    return ConflictReport(
        active_links=per_slot,
        disturbing=disturbing,
        disturbing_union=union,
        channel_collisions=tuple(collisions),
        invariant_violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# file formats (JSON, strict about unknown keys)

def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ScheduleFormatError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ScheduleFormatError(f"{where}: missing keys {sorted(missing)}")


def schedule_to_dict(schedule: Schedule) -> dict:
    nodes = []
    for n in range(schedule.node_count):
        nodes.append({
            "id": n,
            "tx": [{"slot": i, "peer": schedule.counterpart[n][i],
                    "channel": schedule.channel[n][i]} for i in schedule.tx_slots[n]],
            "rx": [{"slot": i, "peer": schedule.counterpart[n][i],
                    "channel": schedule.channel[n][i]} for i in schedule.rx_slots[n]],
        })
    return {
        "slotframe_length": schedule.slotframe_length,
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
    for entry in nodes:
        if not isinstance(entry, dict):
            raise ScheduleFormatError("schedule: node entries must be objects")
        _require_keys(entry, {"id", "tx", "rx"}, {"id", "tx", "rx"}, "schedule node")
        n = entry["id"]
        if not isinstance(n, int) or not 0 <= n < count or tx[n] is not None:
            raise ScheduleFormatError(
                f"schedule: node ids must cover 0..{count - 1} exactly once (got {n!r})")
        tx[n], rx[n], cp[n], ch[n] = [], [], {}, {}
        for kind, target in (("tx", tx[n]), ("rx", rx[n])):
            cells = entry[kind]
            if not isinstance(cells, list):
                raise ScheduleFormatError(f"schedule node {n}: '{kind}' must be a list")
            for cell in cells:
                if not isinstance(cell, dict):
                    raise ScheduleFormatError(f"schedule node {n}: {kind} cells must be objects")
                _require_keys(cell, {"slot", "peer", "channel"},
                              {"slot", "peer", "channel"}, f"schedule node {n} {kind} cell")
                i = cell["slot"]
                target.append(i)
                if i in cp[n] and (cp[n][i], ch[n][i]) != (cell["peer"], cell["channel"]):
                    # a slot listed under both tx and rx is representable (and
                    # reported by validate) only while peer and channel agree
                    raise ScheduleFormatError(
                        f"schedule node {n}: slot {i} assigned twice with "
                        f"conflicting peer or channel")
                cp[n][i] = cell["peer"]
                ch[n][i] = cell["channel"]
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
    except ScheduleFormatError:
        raise
    except ScheduleError as exc:
        raise ScheduleFormatError(f"schedule: {exc}") from exc


def topology_to_dict(topology: Topology) -> dict:
    return {
        "nodes": topology.node_count,
        "edges": sorted([list(e) for e in topology.edges]),
        "parents": list(topology.parents),
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
        if not isinstance(e, list) or len(e) != 2:
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
    except ScheduleFormatError:
        raise
    except ScheduleError as exc:
        raise ScheduleFormatError(f"topology: {exc}") from exc


def load_schedule(path) -> Schedule:
    with open(path, "r", encoding="utf-8") as fh:
        return schedule_from_dict(json.load(fh))


def save_schedule(schedule: Schedule, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schedule_to_dict(schedule), fh, indent=2)
        fh.write("\n")


def load_topology(path) -> Topology:
    with open(path, "r", encoding="utf-8") as fh:
        return topology_from_dict(json.load(fh))


def save_topology(topology: Topology, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(topology_to_dict(topology), fh, indent=2)
        fh.write("\n")
