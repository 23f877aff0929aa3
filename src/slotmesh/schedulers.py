"""Schedule generators for data-collection trees.

``generate(algorithm, topology)`` builds one of three schedules: a
sender-based dedicated baseline (``sbd``: one transmission slot per node,
slotframe length equal to the node count), a traffic-aware single-channel
schedule (``ta-sc``) and a traffic-aware multi-channel schedule
(``ta-mc``). The traffic-aware generators give every node one transmission
slot per node in its subtree, so forwarding capacity matches offered load.

The traffic-aware algorithms are executed as deterministic message-driven
procedures: nodes exchange messages over an in-process FIFO queue with
reliable, ordered delivery, and children are always visited in ascending
node id, so identical inputs produce byte-identical schedules. In
``ta-mc`` the ``block`` messages of one announcement are sent back to
back, as are the forwards they set off, so each group is one queue entry,
handled in one call; the trace still has one line per message, written
where each is sent, so it reads as if each had been queued alone.
"""

from __future__ import annotations

from collections import defaultdict, deque

from .schedule import CHANNELS_2_4GHZ, DEFAULT_SLOT_DURATION, Schedule, Topology


class SchedulerError(RuntimeError):
    """Raised when schedule construction fails."""


class ChannelExhaustionError(SchedulerError):
    """No free channel was left for a slot allocation."""


class _MessageQueue:
    """FIFO message transport shared by the distributed algorithms.

    ``send`` queues one message from ``src`` to ``dst``. ``send_each``
    queues the messages ``kind payload`` from each of ``srcs`` to the
    matching one of ``dsts`` as one entry: nothing can run between
    messages sent back to back, so the handler takes them in one call,
    with the two sequences in place of sender and receiver. Either way
    ``trace`` gets one line per message when it is sent."""

    def __init__(self, trace=None):
        self._pending = deque()
        self.trace = trace
        if trace is None:
            # untraced, sending is queueing: no trace test per message
            self.send = self.send_each = self._queue

    def _queue(self, kind, src, dst, payload=()):
        self._pending.append((kind, src, dst, payload))

    def _log(self, kind, links, payload):
        rendered = "".join(f" {p}" for p in payload)
        self.trace.extend(f"{kind} {src}->{dst}{rendered}" for src, dst in links)

    def send(self, kind, src, dst, payload=()):
        self._log(kind, ((src, dst),), payload)
        self._queue(kind, src, dst, payload)

    def send_each(self, kind, srcs, dsts, payload=()):
        self._log(kind, zip(srcs, dsts), payload)
        self._queue(kind, srcs, dsts, payload)

    def run(self, handler):
        while self._pending:
            kind, src, dst, payload = self._pending.popleft()
            handler(kind, src, dst, payload)


class _Cells:
    """The tx and rx slots of each node, with the peer and channel of
    every slot, as a generator fills them in."""

    def __init__(self, n_nodes):
        self.tx = [[] for _ in range(n_nodes)]
        self.rx = [[] for _ in range(n_nodes)]
        self.peer = [{} for _ in range(n_nodes)]
        self.channel = [{} for _ in range(n_nodes)]

    def add(self, slots, n, i, peer, channel=CHANNELS_2_4GHZ[0]):
        """Give node ``n`` slot ``i`` in ``slots`` (``self.tx`` or
        ``self.rx``) toward ``peer`` on ``channel``."""
        slots[n].append(i)
        self.peer[n][i] = peer
        self.channel[n][i] = channel

    def schedule(self, length, slot_duration) -> Schedule:
        return Schedule(
            node_count=len(self.tx),
            slotframe_length=length,
            tx_slots=tuple(tuple(sorted(t)) for t in self.tx),
            rx_slots=tuple(tuple(sorted(r)) for r in self.rx),
            counterpart=tuple(self.peer),
            channel=tuple(self.channel),
            slot_duration=slot_duration,
        )


def proper_descendants(topology: Topology, trace=None) -> tuple[int, ...]:
    """Count proper descendants with a message-driven depth-first pass:
    entry ``n`` is the number of nodes strictly below ``n``.

    A node receiving ``forward`` starts counting; leaves reply with
    ``backtrack`` carrying their subtree size, which parents accumulate.
    Exactly ``2 (N - 1)`` messages are exchanged on a tree of ``N`` nodes
    (the initial activation of the root is not counted).
    """
    gamma = [0] * topology.node_count
    children = [iter(c) for c in topology.children]
    queue = _MessageQueue(trace)

    def dispatch(kind, src, n, payload):
        if kind == "backtrack":
            gamma[n] += payload[0]
        u = next(children[n], None)
        if u is not None:
            queue.send("forward", n, u)
        elif n != topology.ROOT:
            queue.send("backtrack", n, topology.parents[n], (gamma[n] + 1,))

    dispatch("forward", -1, topology.ROOT, ())
    queue.run(dispatch)
    if gamma[topology.ROOT] != topology.node_count - 1:
        raise SchedulerError("descendant pass did not cover the whole tree")
    return tuple(gamma)


def _orchestra_sbd(topology, trace, slot_duration) -> Schedule:
    """Sender-based dedicated baseline: node ``n`` transmits to its parent
    in slot ``n`` of a slotframe of length ``N``.

    Slot 0 stays free for shared traffic, so the root (node 0) never
    transmits. With one link per slot the schedule is trivially
    conflict-free; a single channel is used throughout (channel hopping
    for interference mitigation is orthogonal to the slot assignment).
    No messages are exchanged, so ``trace`` stays empty.
    """
    cells = _Cells(topology.node_count)
    for n in range(1, topology.node_count):
        p = topology.parents[n]
        cells.add(cells.tx, n, n, p)
        cells.add(cells.rx, p, n, n)
    return cells.schedule(topology.node_count, slot_duration)


def _ta_single(topology, trace, slot_duration) -> Schedule:
    """Traffic-aware single-channel schedule.

    A depth-first token walks the tree; on the way back up, every non-root
    node claims a run of consecutive slots toward its parent, one per node
    in its subtree, starting at the running offset carried by the token.
    At most one link is active per slot in the whole network.
    """
    gamma = proper_descendants(topology)
    length = 1 + sum(g + 1 for g in gamma[1:])
    cells = _Cells(topology.node_count)
    children = [iter(c) for c in topology.children]
    queue = _MessageQueue(trace)

    def dispatch(kind, src, n, payload):
        if kind == "assign_rx":
            cells.add(cells.rx, n, payload[0], src)
            return
        (z,) = payload
        u = next(children[n], None)
        if u is not None:
            queue.send("track", n, u, (z,))
        elif n != topology.ROOT:
            p = topology.parents[n]
            for i in range(z, z + gamma[n] + 1):
                cells.add(cells.tx, n, i, p)
                queue.send("assign_rx", n, p, (i,))
            queue.send("track", n, p, (z + gamma[n] + 1,))

    dispatch("track", -1, topology.ROOT, (1,))
    queue.run(dispatch)
    return cells.schedule(length, slot_duration)


def _ta_multi(topology, trace, slot_duration) -> Schedule:
    """Traffic-aware multi-channel schedule.

    Parents allocate reception slots for each child in turn, reusing time
    slots across the network and separating disturbing links by channel.
    Every allocation is announced to the one-hop neighborhoods of both
    endpoints, and each neighbor forwards the announcement once to its own
    parent, which blocks the channel in the two-hop surrounding. The
    smallest non-blocked channel of ``CHANNELS_2_4GHZ`` is chosen; since
    the conflict graph can need arbitrarily many colors, exhaustion of the
    channel set is an error.
    """
    gamma = proper_descendants(topology)
    # a list, so that a one-node tree (no gamma[1:]) still has a maximum
    length = 1 + max([gamma[0], *(2 * g + 1 for g in gamma[1:])])
    cells = _Cells(topology.node_count)
    # per slot: channel -> nodes where it is blocked in that slot
    blocked = [defaultdict(set) for _ in range(length)]
    children = [iter(c) for c in topology.children]
    queue = _MessageQueue(trace)

    def pick_channel(n, i):
        taken = blocked[i]
        for c in CHANNELS_2_4GHZ:
            if n not in taken.get(c, ()):
                return c
        raise ChannelExhaustionError(
            f"no free channel for node {n} in slot {i}; "
            f"all {len(CHANNELS_2_4GHZ)} channels are blocked")

    def announce(n, peer, i, c):
        # one entry for the announcement to every neighbour but the peer
        targets = [v for v in topology.neighbors[n] if v != peer]
        queue.send_each("block", (n,) * len(targets), targets, (i, c, True))

    def dispatch(kind, src, n, payload):
        if kind == "track":
            u = next(children[n], None)
            if u is None:
                if n != topology.ROOT:
                    queue.send("track", n, topology.parents[n])
                return
            remaining = gamma[u] + 1
            for i in range(1, length):  # slot 0 is reserved
                if i in cells.peer[n]:
                    continue
                c = pick_channel(n, i)
                cells.add(cells.rx, n, i, u, c)
                queue.send("assign_tx", n, u, (i, c))
                announce(n, u, i, c)
                remaining -= 1
                if remaining == 0:
                    break
            else:
                raise SchedulerError(
                    f"node {n} ran out of slots while allocating for "
                    f"child {u}")
            queue.send("track", n, u)
        elif kind == "assign_tx":
            i, c = payload
            cells.add(cells.tx, n, i, src, c)
            announce(n, src, i, c)
        elif kind == "block":
            # n holds the receivers of one announcement or of its forwards
            i, c, forward = payload
            blocked[i][c].update(n)
            if forward:
                senders = [v for v in n if v != topology.ROOT]
                queue.send_each("block", senders,
                                [topology.parents[v] for v in senders],
                                (i, c, False))

    dispatch("track", -1, topology.ROOT, ())
    queue.run(dispatch)
    return cells.schedule(length, slot_duration)


_GENERATORS = {"sbd": _orchestra_sbd, "ta-sc": _ta_single, "ta-mc": _ta_multi}
ALGORITHMS = tuple(_GENERATORS)


def generate(algorithm: str, topology: Topology, trace=None, *,
             slot_duration=DEFAULT_SLOT_DURATION) -> Schedule:
    """Build the schedule of ``algorithm`` (one of :data:`ALGORITHMS`) for
    ``topology``. The messages a generator exchanges are appended to the
    list ``trace``, if one is given, one line per message."""
    if algorithm not in ALGORITHMS:
        raise SchedulerError(f"unknown algorithm {algorithm!r} "
                             f"(expected one of {ALGORITHMS})")
    return _GENERATORS[algorithm](topology, trace, slot_duration)
