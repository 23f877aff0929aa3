import pytest

from slotmesh.network import concentric_topology
from slotmesh.schedule import (Schedule, Topology, active_links,
                               schedule_to_dict, validate)
from slotmesh.schedulers import (ChannelExhaustionError, SchedulerError,
                                 generate, proper_descendants,
                                 schedule_orchestra_sbd, schedule_ta_multi,
                                 schedule_ta_single)


def subtree_sizes(topology):
    """Independent recursive count of proper descendants."""
    def count(n):
        return sum(1 + count(c) for c in topology.children(n))
    return tuple(count(n) for n in range(topology.node_count))


def path_topology(n):
    edges = {(k, k + 1) for k in range(n - 1)}
    parents = (None,) + tuple(range(n - 1))
    return Topology(n, frozenset(edges), parents)


def test_descendants_single_node():
    topo = Topology(1, frozenset(), (None,))
    assert proper_descendants(topo) == (0,)


def test_descendants_path():
    topo = path_topology(3)
    counts = proper_descendants(topo)
    assert counts == (2, 1, 0)
    assert topo.children(0) == (1,) and counts[1] == 1
    assert topo.children(1) == (2,) and counts[2] == 0


def test_descendants_concentric_matches_recursive_oracle():
    for rings in (1, 2, 3):
        topo = concentric_topology(rings)
        info = proper_descendants(topo)
        assert info == subtree_sizes(topo)
        assert info[0] == topo.node_count - 1
        for n in range(topo.node_count):
            assert info[n] == sum(info[child] + 1
                                  for child in topo.children(n))


def test_descendants_concentric_19():
    info = proper_descendants(concentric_topology(2))
    assert info[0] == 18
    assert all(info[n] == 2 for n in range(1, 7))
    assert all(info[n] == 0 for n in range(7, 19))


def test_descendant_pass_message_count():
    # the depth-first pass needs one activation and one reply per non-root
    for topo in (path_topology(5), concentric_topology(2)):
        trace = []
        proper_descendants(topo, trace=trace)
        assert len(trace) == 2 * (topo.node_count - 1)
        kinds = [line.split()[0] for line in trace]
        assert kinds.count("forward") == topo.node_count - 1
        assert kinds.count("backtrack") == topo.node_count - 1


def test_sbd_structure():
    topo = concentric_topology(2)
    sched = schedule_orchestra_sbd(topo)
    assert sched.slotframe_length == 19
    assert len(sched.rx_slots[0]) == 6
    for n in range(1, 19):
        assert sched.tx_slots[n] == (n,)
        assert sched.counterpart[n][n] == topo.parents[n]
    assert active_links(sched, 0) == set()
    assert validate(sched, topo).ok


def test_sbd_three_node_path():
    topo = path_topology(3)
    sched = schedule_orchestra_sbd(topo)
    assert sched.slotframe_length == 3
    assert sched.tx_slots == ((), (1,), (2,))
    assert sched.counterpart[1][1] == 0 and sched.counterpart[2][2] == 1
    assert validate(sched, topo).ok


def test_ta_single_slot_counts():
    topo = concentric_topology(2)
    info = proper_descendants(topo)
    sched = schedule_ta_single(topo)
    assert sched.slotframe_length == 31
    assert len(sched.rx_slots[0]) == 18
    for n in range(1, 19):
        assert len(sched.tx_slots[n]) == info[n] + 1
    assert validate(sched, topo).ok


def test_ta_single_one_link_per_slot():
    topo = concentric_topology(2)
    sched = schedule_ta_single(topo)
    for slot in range(sched.slotframe_length):
        assert len(active_links(sched, slot)) <= 1
    assert active_links(sched, 0) == set()


def test_ta_single_leaf_under_root():
    topo = path_topology(2)
    sched = schedule_ta_single(topo)
    assert sched.slotframe_length == 2
    assert sched.tx_slots[1] == (1,)


def test_ta_single_larger_network_length_formula():
    topo = concentric_topology(3)
    info = proper_descendants(topo)
    sched = schedule_ta_single(topo)
    assert sched.slotframe_length == 1 + sum(
        info[n] + 1 for n in range(1, topo.node_count))
    assert sched.slotframe_length == 85
    assert validate(sched, topo).ok


def test_ta_multi_slotframe_lengths():
    topo = concentric_topology(2)
    sched = schedule_ta_multi(topo)
    assert sched.slotframe_length == 19
    assert len(sched.rx_slots[0]) == 18
    topo3 = concentric_topology(3)
    assert schedule_ta_multi(topo3).slotframe_length == 37


def test_ta_multi_slot_counts_and_validity():
    for rings in (1, 2, 3):
        topo = concentric_topology(rings)
        info = proper_descendants(topo)
        sched = schedule_ta_multi(topo)
        report = validate(sched, topo)
        assert report.ok
        assert not report.channel_collisions
        for n in range(1, topo.node_count):
            assert len(sched.tx_slots[n]) == info[n] + 1


def test_ta_multi_first_slot_coloring():
    sched = schedule_ta_multi(concentric_topology(2))
    channels = {sched.channel[v][1] for v, _ in active_links(sched, 1)}
    assert len(channels) == 3


def test_ta_multi_first_slot_conflict_graph_shape():
    # three channels are forced by the structure of the first data slot:
    # its conflict graph is connected and contains triangles
    from slotmesh.schedule import disturbing_links
    topo = concentric_topology(2)
    sched = schedule_ta_multi(topo)
    links = sorted(active_links(sched, 1))
    adj = {l: disturbing_links(sched, topo, 1, l) for l in links}
    seen = {links[0]}
    frontier = [links[0]]
    while frontier:
        for other in adj[frontier.pop()]:
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    assert seen == set(links)
    assert any(c in adj[a] and c in adj[b]
               for a in links for b in adj[a] for c in adj[b])


def test_ta_multi_disturbers_on_distinct_channels():
    topo = concentric_topology(2)
    sched = schedule_ta_multi(topo)
    from slotmesh.schedule import disturbing_links
    for slot in range(1, sched.slotframe_length):
        for link in active_links(sched, slot):
            for other in disturbing_links(sched, topo, slot, link):
                assert sched.channel[link[0]][slot] != sched.channel[other[0]][slot]


def test_ta_multi_channel_exhaustion():
    topo = concentric_topology(2)
    with pytest.raises(ChannelExhaustionError) as err:
        schedule_ta_multi(topo, channels=(11,))
    assert "slot" in str(err.value)


def test_generators_deterministic():
    topo = concentric_topology(2)
    for alg in ("sbd", "ta-sc", "ta-mc"):
        a = schedule_to_dict(generate(alg, topo))
        b = schedule_to_dict(generate(alg, topo))
        assert a == b


def test_generate_rejects_unknown_algorithm():
    with pytest.raises(SchedulerError):
        generate("magic", concentric_topology(1))


def test_shared_slot_left_free():
    topo = concentric_topology(2)
    for alg in ("sbd", "ta-sc", "ta-mc"):
        sched = generate(alg, topo)
        assert active_links(sched, 0) == set()
