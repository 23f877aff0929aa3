"""Schedule generators for data-collection trees.

Three generators are provided: a sender-based dedicated baseline (one
transmission slot per node, slotframe length equal to the node count), a
traffic-aware single-channel schedule and a traffic-aware multi-channel
schedule. The traffic-aware generators give every node one transmission
slot per node in its subtree, so forwarding capacity matches offered load.

The traffic-aware algorithms are executed as deterministic message-driven
procedures: nodes exchange messages over an in-process FIFO queue with
reliable, ordered delivery, and children are always visited in ascending
node id, so identical inputs produce byte-identical schedules.
"""

from __future__ import annotations

from collections import deque

from .schedule import CHANNELS_2_4GHZ, DEFAULT_SLOT_DURATION, Schedule, Topology

ALGORITHMS = ("sbd", "ta-sc", "ta-mc")


class SchedulerError(RuntimeError):
    """Raised when schedule construction fails."""


class ChannelExhaustionError(SchedulerError):
    """No free channel was left for a slot allocation."""


class _MessageQueue:
    """FIFO message transport shared by the distributed algorithms."""

    def __init__(self, trace=None):
        self._pending = deque()
        self.trace = trace

    def send(self, kind, src, dst, payload=(), record=True):
        if self.trace is not None and record:
            rendered = " ".join(str(p) for p in payload)
            self.trace.append(f"{kind} {src}->{dst}" + (f" {rendered}" if rendered else ""))
        self._pending.append((kind, src, dst, payload))

    def run(self, handler):
        while self._pending:
            kind, src, dst, payload = self._pending.popleft()
            handler(kind, src, dst, payload)


def proper_descendants(topology: Topology, trace=None) -> tuple[int, ...]:
    """Count proper descendants with a message-driven depth-first pass:
    entry ``n`` is the number of nodes strictly below ``n``.

    A node receiving ``forward`` starts counting; leaves reply with
    ``backtrack`` carrying their subtree size, which parents accumulate.
    Exactly ``2 (N - 1)`` messages are exchanged on a tree of ``N`` nodes
    (the initial activation of the root is not counted).
    """
    n_nodes = topology.node_count
    gamma = [0] * n_nodes
    next_child = [0] * n_nodes
    queue = _MessageQueue(trace)

    def handle_node(n):
        kids = topology.children(n)
        if next_child[n] < len(kids):
            u = kids[next_child[n]]
            next_child[n] += 1
            queue.send("forward", n, u)
        elif n != topology.ROOT:
            queue.send("backtrack", n, topology.parents[n], (gamma[n] + 1,))

    def dispatch(kind, src, dst, payload):
        if kind == "forward":
            gamma[dst] = 0
            handle_node(dst)
        elif kind == "backtrack":
            (size,) = payload
            gamma[dst] += size
            handle_node(dst)

    queue.send("forward", -1, topology.ROOT, record=False)
    queue.run(dispatch)
    if gamma[topology.ROOT] != n_nodes - 1:
        raise SchedulerError("descendant pass did not cover the whole tree")
    return tuple(gamma)


def _assemble(topology, length, tx, rx, counterpart, channel,
              slot_duration) -> Schedule:
    return Schedule(
        node_count=topology.node_count,
        slotframe_length=length,
        tx_slots=tuple(tuple(sorted(t)) for t in tx),
        rx_slots=tuple(tuple(sorted(r)) for r in rx),
        counterpart=tuple(counterpart),
        channel=tuple(channel),
        slot_duration=slot_duration,
    )


def schedule_orchestra_sbd(topology: Topology, *,
                           slot_duration=DEFAULT_SLOT_DURATION) -> Schedule:
    """Sender-based dedicated baseline: node ``n`` transmits to its parent
    in slot ``n`` of a slotframe of length ``N``.

    Slot 0 stays free for shared traffic, so the root (node 0) never
    transmits. With one link per slot the schedule is trivially
    conflict-free; a single channel is used throughout (channel hopping
    for interference mitigation is orthogonal to the slot assignment).
    """
    n_nodes = topology.node_count
    tx = [[] for _ in range(n_nodes)]
    rx = [[] for _ in range(n_nodes)]
    counterpart = [dict() for _ in range(n_nodes)]
    channel = [dict() for _ in range(n_nodes)]
    for n in range(1, n_nodes):
        p = topology.parents[n]
        tx[n].append(n)
        counterpart[n][n] = p
        channel[n][n] = CHANNELS_2_4GHZ[0]
        rx[p].append(n)
        counterpart[p][n] = n
        channel[p][n] = CHANNELS_2_4GHZ[0]
    return _assemble(topology, n_nodes, tx, rx, counterpart, channel,
                     slot_duration)


def schedule_ta_single(topology: Topology, trace=None, *,
                       slot_duration=DEFAULT_SLOT_DURATION) -> Schedule:
    """Traffic-aware single-channel schedule.

    A depth-first token walks the tree; on the way back up, every non-root
    node claims a run of consecutive slots toward its parent, one per node
    in its subtree, starting at the running offset carried by the token.
    At most one link is active per slot in the whole network.
    """
    n_nodes = topology.node_count
    gamma = proper_descendants(topology)
    length = 1 + sum(gamma[n] + 1 for n in range(1, n_nodes))
    tx = [[] for _ in range(n_nodes)]
    rx = [[] for _ in range(n_nodes)]
    counterpart = [dict() for _ in range(n_nodes)]
    channel = [dict() for _ in range(n_nodes)]
    next_child = [0] * n_nodes
    queue = _MessageQueue(trace)

    def dispatch(kind, src, dst, payload):
        n = dst
        if kind == "track":
            (z,) = payload
            kids = topology.children(n)
            if next_child[n] < len(kids):
                u = kids[next_child[n]]
                next_child[n] += 1
                queue.send("track", n, u, (z,))
            elif n != topology.ROOT:
                p = topology.parents[n]
                for i in range(z, z + gamma[n] + 1):
                    tx[n].append(i)
                    counterpart[n][i] = p
                    channel[n][i] = CHANNELS_2_4GHZ[0]
                    queue.send("assign_rx", n, p, (i,))
                queue.send("track", n, p, (z + gamma[n] + 1,))
        elif kind == "assign_rx":
            (i,) = payload
            rx[n].append(i)
            counterpart[n][i] = src
            channel[n][i] = CHANNELS_2_4GHZ[0]

    queue.send("track", -1, topology.ROOT, (1,), record=False)
    queue.run(dispatch)
    return _assemble(topology, length, tx, rx, counterpart, channel,
                     slot_duration)


def schedule_ta_multi(topology: Topology, channels=CHANNELS_2_4GHZ, trace=None, *,
                      slot_duration=DEFAULT_SLOT_DURATION) -> Schedule:
    """Traffic-aware multi-channel schedule.

    Parents allocate reception slots for each child in turn, reusing time
    slots across the network and separating disturbing links by channel.
    Every allocation is announced to the one-hop neighborhoods of both
    endpoints, and each neighbor forwards the announcement once to its own
    parent, which blocks the channel in the two-hop surrounding. The
    smallest non-blocked channel is chosen; since the conflict graph can
    need arbitrarily many colors, exhaustion of the channel set is an
    error.
    """
    gamma = proper_descendants(topology)
    channels = tuple(sorted(channels))
    if not channels:
        raise SchedulerError("channel set must not be empty")
    n_nodes = topology.node_count
    per_node = [gamma[n] if n == topology.ROOT else 2 * gamma[n] + 1
                for n in range(n_nodes)]
    length = 1 + max(per_node)
    tx = [[] for _ in range(n_nodes)]
    rx = [[] for _ in range(n_nodes)]
    busy = [set() for _ in range(n_nodes)]  # slots in tx or rx of the node
    counterpart = [dict() for _ in range(n_nodes)]
    channel = [dict() for _ in range(n_nodes)]
    blocked = [dict() for _ in range(n_nodes)]  # slot -> channels blocked
    next_child = [0] * n_nodes
    queue = _MessageQueue(trace)

    def pick_channel(n, i):
        taken = blocked[n].get(i, ())
        for c in channels:
            if c not in taken:
                return c
        raise ChannelExhaustionError(
            f"no free channel for node {n} in slot {i}; "
            f"all {len(channels)} channels are blocked")

    def dispatch(kind, src, dst, payload):
        n = dst
        if kind == "track":
            kids = topology.children(n)
            if next_child[n] < len(kids):
                u = kids[next_child[n]]
                next_child[n] += 1
                remaining = gamma[u] + 1
                for i in range(1, length):  # slot 0 is reserved
                    if i in busy[n]:
                        continue
                    rx[n].append(i)
                    busy[n].add(i)
                    counterpart[n][i] = u
                    c = pick_channel(n, i)
                    channel[n][i] = c
                    queue.send("assign_tx", n, u, (i, c))
                    for v in topology.neighbors(n):
                        if v != u:
                            queue.send("block", n, v, (i, c, True))
                    remaining -= 1
                    if remaining == 0:
                        break
                else:
                    raise SchedulerError(
                        f"node {n} ran out of slots while allocating for "
                        f"child {u}")
                queue.send("track", n, u)
            elif n != topology.ROOT:
                queue.send("track", n, topology.parents[n])
        elif kind == "assign_tx":
            i, c = payload
            tx[n].append(i)
            busy[n].add(i)
            counterpart[n][i] = src
            channel[n][i] = c
            for v in topology.neighbors(n):
                if v != src:
                    queue.send("block", n, v, (i, c, True))
        elif kind == "block":
            i, c, forward = payload
            blocked[n].setdefault(i, set()).add(c)
            if forward and n != topology.ROOT:
                queue.send("block", n, topology.parents[n], (i, c, False))

    queue.send("track", -1, topology.ROOT, record=False)
    queue.run(dispatch)
    return _assemble(topology, length, tx, rx, counterpart, channel,
                     slot_duration)


def generate(algorithm: str, topology: Topology, trace=None, *,
             slot_duration=DEFAULT_SLOT_DURATION) -> Schedule:
    """Dispatch by algorithm name (``sbd``, ``ta-sc`` or ``ta-mc``)."""
    if algorithm == "sbd":
        return schedule_orchestra_sbd(topology, slot_duration=slot_duration)
    if algorithm == "ta-sc":
        return schedule_ta_single(topology, trace=trace,
                                  slot_duration=slot_duration)
    if algorithm == "ta-mc":
        return schedule_ta_multi(topology, trace=trace,
                                 slot_duration=slot_duration)
    raise SchedulerError(f"unknown algorithm {algorithm!r} "
                         f"(expected one of {ALGORITHMS})")
