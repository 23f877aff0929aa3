import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_tree, slot_links
from slotmesh.network import concentric_topology
from slotmesh.schedulers import generate
from slotmesh.schedule import (Schedule, ScheduleError, ScheduleFormatError,
                               Topology, _disturbs, load_schedule,
                               load_topology, save_schedule,
                               save_topology, schedule_from_dict,
                               schedule_to_dict, topology_from_dict,
                               topology_to_dict, validate)


def _two_link_schedule(ch1=11, ch2=12):
    # two branches below the root; links 2->1 and 4->3 share slot 0
    return Schedule(
        node_count=5, slotframe_length=2,
        tx_slots=((), (), (0,), (), (0,)),
        rx_slots=((), (0,), (), (0,), ()),
        counterpart=({}, {0: 2}, {0: 1}, {0: 4}, {0: 3}),
        channel=({}, {0: ch1}, {0: ch1}, {0: ch2}, {0: ch2}),
    )


def _branch_topology(extra=()):
    edges = {(0, 1), (1, 2), (0, 3), (3, 4)} | set(extra)
    return Topology(node_count=5, edges=frozenset(edges),
                    parents=(None, 0, 1, 0, 3))


def test_disturbing_links_disjoint():
    # all endpoints of the two links mutually out of range
    topo = _branch_topology()
    assert not _disturbs(topo, (2, 1), (4, 3))
    assert not _disturbs(topo, (4, 3), (2, 1))
    assert validate(_two_link_schedule(ch1=11, ch2=11), topo).ok


def test_disturbing_links_hidden_node():
    # transmitter 4 reaches receiver 1 of the other link but not its
    # transmitter 2: the classic hidden-node constellation
    topo = _branch_topology(extra={(1, 4)})
    assert _disturbs(topo, (2, 1), (4, 3))
    assert _disturbs(topo, (4, 3), (2, 1))


def test_disturbing_links_requires_active_link():
    # disturbing links in different slots do not collide
    sched = Schedule(
        node_count=5, slotframe_length=2,
        tx_slots=((), (), (0,), (), (1,)),
        rx_slots=((), (0,), (), (1,), ()),
        counterpart=({}, {0: 2}, {0: 1}, {1: 4}, {1: 3}),
        channel=({}, {0: 11}, {0: 11}, {1: 11}, {1: 11}),
    )
    topo = _branch_topology(extra={(1, 4)})
    assert _disturbs(topo, (2, 1), (4, 3))
    assert validate(sched, topo).ok


def test_disturbing_never_contains_query_link():
    sched = _two_link_schedule(ch1=11, ch2=11)
    topo = _branch_topology(extra={(1, 4), (2, 3), (2, 4), (1, 3)})
    # the one collision pairs the two links, never a link with itself
    assert validate(sched, topo).channel_collisions == ((0, (2, 1), (4, 3)),)


def test_validate_example_schedule(three_node_schedule, path_topology):
    report = validate(three_node_schedule, path_topology)
    assert report.ok
    assert not report.channel_collisions


def test_validate_reports_channel_collision():
    sched = _two_link_schedule(ch1=11, ch2=11)
    topo = _branch_topology(extra={(1, 4)})
    report = validate(sched, topo)
    assert report.channel_collisions
    assert len(report.channel_collisions) == 1
    slot, l1, l2 = report.channel_collisions[0]
    assert slot == 0 and {l1, l2} == {(2, 1), (4, 3)}


def test_validate_frequency_diversity_resolves_conflict():
    sched = _two_link_schedule(ch1=11, ch2=12)
    topo = _branch_topology(extra={(1, 4)})
    assert not validate(sched, topo).channel_collisions


def test_validate_reports_tx_rx_overlap():
    sched = Schedule(
        node_count=2, slotframe_length=2,
        tx_slots=((), (0,)), rx_slots=((0,), (0,)),
        counterpart=({0: 1}, {0: 0}), channel=({0: 11}, {0: 11}))
    report = validate(sched, Topology(2, frozenset({(0, 1)}), (None, 0)))
    assert any(v.startswith("tx_rx_overlap") for v in report.invariant_violations)


def test_validate_reports_link_inconsistency():
    sched = Schedule(
        node_count=3, slotframe_length=2,
        tx_slots=((), (0,), ()), rx_slots=((), (), (0,)),
        counterpart=({}, {0: 0}, {0: 1}), channel=({}, {0: 11}, {0: 11}))
    topo = Topology(3, frozenset({(0, 1), (1, 2)}), (None, 0, 1))
    report = validate(sched, topo)
    assert any(v.startswith("link_consistency") for v in report.invariant_violations)


def test_single_link_per_slot_validates_everywhere(three_node_schedule):
    # any schedule with at most one active link per slot is conflict-free
    # against every topology
    full = Topology(3, frozenset({(0, 1), (0, 2), (1, 2)}), (None, 0, 0))
    assert not validate(three_node_schedule, full).channel_collisions


def test_schedule_constructor_rejects_malformed():
    with pytest.raises(ScheduleError):
        Schedule(node_count=1, slotframe_length=2, tx_slots=((3,),),
                 rx_slots=((),), counterpart=({3: 0},), channel=({3: 11},))
    with pytest.raises(ScheduleError):
        Schedule(node_count=2, slotframe_length=4, tx_slots=((2, 1), ()),
                 rx_slots=((), (1, 2)),
                 counterpart=({1: 1, 2: 1}, {1: 0, 2: 0}),
                 channel=({1: 11, 2: 11}, {1: 11, 2: 11}))
    with pytest.raises(ScheduleError):
        # counterpart not defined on all active slots
        Schedule(node_count=2, slotframe_length=2, tx_slots=((), (0,)),
                 rx_slots=((0,), ()), counterpart=({}, {0: 0}),
                 channel=({0: 11}, {0: 11}))
    with pytest.raises(ScheduleError, match="node_count"):
        Schedule(node_count=0, slotframe_length=2, tx_slots=(), rx_slots=(),
                 counterpart=(), channel=())
    with pytest.raises(ScheduleError, match="channel must have one entry"):
        Schedule(node_count=2, slotframe_length=2, tx_slots=((), ()),
                 rx_slots=((), ()), counterpart=({}, {}), channel=({},))
    with pytest.raises(ScheduleError, match="invalid peer 2"):
        Schedule(node_count=2, slotframe_length=2, tx_slots=((), (0,)),
                 rx_slots=((0,), ()), counterpart=({0: 1}, {0: 2}),
                 channel=({0: 11}, {0: 11}))


def test_topology_rejects_broken_trees():
    with pytest.raises(ScheduleError):
        Topology(3, frozenset({(0, 1)}), (None, 0, 1))  # parent not in range
    with pytest.raises(ScheduleError):
        Topology(3, frozenset({(1, 2), (0, 1)}), (None, 2, 1))  # cycle
    with pytest.raises(ScheduleError):
        Topology(2, frozenset({(0, 1)}), (0, 0))  # root with a parent
    with pytest.raises(ScheduleError, match="invalid edge"):
        Topology(2, frozenset({(0, 2)}), (None, 0))
    with pytest.raises(ScheduleError, match="invalid parent 2"):
        Topology(2, frozenset({(0, 1)}), (None, 2))
    with pytest.raises(ScheduleError, match="cannot be its own parent"):
        Topology(2, frozenset({(0, 1)}), (None, 1))


@pytest.mark.parametrize("edge", [(0, 1, 2), 5],
                         ids=["three_endpoints", "not_a_pair"])
def test_topology_rejects_malformed_edge(edge):
    with pytest.raises(ScheduleError) as error:
        Topology(2, frozenset({edge}), (None, 0))
    assert str(error.value) == f"invalid edge {edge}"


@pytest.mark.parametrize("parents, node", [
    ((None, 2, 1), 1),
    # node 2 hangs behind the cycle 3 -> 4 -> 3, which its walk enters at 3
    ((None, 0, 3, 4, 3), 3),
    # nodes 1 and 6 reach the sink; the walk from 2 returns to 2
    ((None, 0, 5, 2, 3, 4, 1), 2),
])
def test_topology_names_the_cycle(parents, node):
    edges = frozenset((n, p) for n, p in enumerate(parents)
                      if p is not None and p != n)
    with pytest.raises(ScheduleError, match=(
            f"^parent pointers contain a cycle through node {node}$")):
        Topology(len(parents), edges, parents)


def _brute_force_levels(topology):
    depths = []
    for n in range(topology.node_count):
        d = 0
        while n != Topology.ROOT:
            n, d = topology.parents[n], d + 1
        depths.append(d)
    return tuple(tuple(n for n, d in enumerate(depths) if d == level)
                 for level in range(max(depths) + 1))


def test_levels_group_nodes_by_depth():
    topologies = [concentric_topology(rings) for rings in range(1, 9)]
    topologies += [random_tree(seed, 2 + seed) for seed in range(50)]
    for topo in topologies:
        assert topo.levels == _brute_force_levels(topo)


def test_long_path_builds():
    count = 5000
    topo = Topology(count, frozenset((n, n + 1) for n in range(count - 1)),
                    (None, *range(count - 1)))
    assert topo.levels == tuple((n,) for n in range(count))


def test_schedule_roundtrip(tmp_path, three_node_schedule):
    path = tmp_path / "sched.json"
    save_schedule(three_node_schedule, path)
    loaded = load_schedule(path)
    assert loaded == three_node_schedule
    # byte-identical rewrite
    second = tmp_path / "again.json"
    save_schedule(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_topology_roundtrip(tmp_path, path_topology):
    path = tmp_path / "topo.json"
    save_topology(path_topology, path)
    assert load_topology(path) == path_topology


def test_numpy_built_files_match_python_built(tmp_path):
    # json writes no numpy integer; the files must not tell the two apart
    topology = concentric_topology(2)
    schedule = generate("ta-mc", topology)
    ints = np.int64, np.int32, np.int16
    np_topology = Topology(
        node_count=np.int64(topology.node_count),
        edges=frozenset((np.int32(v), np.int64(w)) for v, w in topology.edges),
        parents=tuple(p if p is None else ints[p % 3](p)
                      for p in topology.parents))
    np_schedule = Schedule(
        node_count=np.int64(schedule.node_count),
        slotframe_length=np.int32(schedule.slotframe_length),
        tx_slots=tuple(tuple(map(np.int64, t)) for t in schedule.tx_slots),
        rx_slots=tuple(tuple(map(np.int16, r)) for r in schedule.rx_slots),
        counterpart=tuple({np.int64(i): np.int32(m) for i, m in c.items()}
                          for c in schedule.counterpart),
        channel=tuple({np.int16(i): np.int64(ch) for i, ch in c.items()}
                      for c in schedule.channel),
        slot_duration=np.float64(schedule.slot_duration))
    for save, load, python_built, numpy_built in (
            (save_schedule, load_schedule, schedule, np_schedule),
            (save_topology, load_topology, topology, np_topology)):
        save(python_built, tmp_path / "python.json")
        save(numpy_built, tmp_path / "numpy.json")
        assert ((tmp_path / "numpy.json").read_bytes()
                == (tmp_path / "python.json").read_bytes())
        assert load(tmp_path / "numpy.json") == python_built == numpy_built


def test_load_reads_indented_files(tmp_path, three_node_schedule,
                                   path_topology):
    # files written with ``indent=2``, as earlier versions saved them
    sched_path = tmp_path / "sched.json"
    sched_path.write_text(
        json.dumps(schedule_to_dict(three_node_schedule), indent=2) + "\n")
    assert load_schedule(sched_path) == three_node_schedule
    topo_path = tmp_path / "topo.json"
    topo_path.write_text(
        json.dumps(topology_to_dict(path_topology), indent=2) + "\n")
    assert load_topology(topo_path) == path_topology


def test_schedule_file_rejects_unknown_keys(three_node_schedule):
    data = schedule_to_dict(three_node_schedule)
    data["surprise"] = 1
    with pytest.raises(ScheduleFormatError):
        schedule_from_dict(data)
    data = schedule_to_dict(three_node_schedule)
    data["nodes"][0]["tx"] = [{"slot": 1, "peer": 1, "channel": 11, "x": 0}]
    with pytest.raises(ScheduleFormatError):
        schedule_from_dict(data)


_CELL = {"slot": 0, "peer": 1, "channel": 11}


def _two_nodes(tx0, rx0=(), ids=(0, 1)):
    """A two-node schedule file body whose node 0 lists ``tx0`` and
    ``rx0``; node 1 lists nothing."""
    return {"slotframe_length": 3, "nodes": [
        {"id": ids[0], "tx": tx0, "rx": list(rx0)},
        {"id": ids[1], "tx": [], "rx": []}]}


@pytest.mark.parametrize("data,message", [
    (_two_nodes([5]), "schedule node 0: tx cells must be objects"),
    (_two_nodes([{**_CELL, "x": 0}]),
     "schedule node 0 tx cell: unknown keys ['x']"),
    (_two_nodes([], [{"slot": 0, "peer": 1}]),
     "schedule node 0 rx cell: missing keys ['channel']"),
    (_two_nodes({}), "schedule node 0: 'tx' must be a list"),
    (_two_nodes([], ids=(0, 0)),
     "schedule: node ids must cover 0..1 exactly once (got 0)"),
    (_two_nodes([_CELL], [{**_CELL, "peer": 0}]),
     "schedule node 0: slot 0 assigned twice with conflicting peer or channel"),
    # the first conflict in file order is named, not the first slot listed
    (_two_nodes([_CELL, {**_CELL, "slot": 1}],
                [{**_CELL, "slot": 1, "channel": 12}, {**_CELL, "peer": 0}]),
     "schedule node 0: slot 1 assigned twice with conflicting peer or channel"),
], ids=["cell_not_object", "cell_unknown_key", "cell_missing_channel",
        "tx_not_list", "node_id_twice", "slot_conflicting_peer",
        "first_conflict_named"])
def test_schedule_file_error_words(data, message):
    with pytest.raises(ScheduleFormatError) as exc:
        schedule_from_dict(data)
    assert str(exc.value) == message


def test_topology_count_checked_against_parents_before_building():
    # ten to the thirty neighbour sets would never finish building
    with pytest.raises(ScheduleFormatError) as exc:
        topology_from_dict({"nodes": 10**30, "edges": [[0, 1]],
                            "parents": [None, 0]})
    assert str(exc.value) == "topology: parents must have one entry per node"


def test_topology_file_rejects_bad_content(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"nodes": 2, "edges": [[0, 1]],
                                "parents": [None, 0], "extra": True}))
    with pytest.raises(ScheduleFormatError):
        load_topology(path)


@st.composite
def _random_scenario(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    length = draw(st.integers(min_value=1, max_value=6))
    parents = [None] + [draw(st.integers(min_value=0, max_value=k - 1))
                        for k in range(1, n)]
    extra = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=8))
    edges = {(p, k) for k, p in enumerate(parents) if p is not None}
    edges |= {(v, w) for v, w in extra if v != w}
    # one transmitter per slot keeps the schedule structurally simple
    tx_of_slot = [draw(st.integers(min_value=0, max_value=n - 1))
                  for _ in range(length)]
    tx = [[] for _ in range(n)]
    rx = [[] for _ in range(n)]
    cp = [dict() for _ in range(n)]
    ch = [dict() for _ in range(n)]
    for slot, v in enumerate(tx_of_slot):
        if v == 0:
            continue
        w = parents[v]
        tx[v].append(slot)
        cp[v][slot] = w
        ch[v][slot] = 11
        rx[w].append(slot)
        cp[w][slot] = v
        ch[w][slot] = 11
    schedule = Schedule(node_count=n, slotframe_length=length,
                        tx_slots=tuple(tuple(t) for t in tx),
                        rx_slots=tuple(tuple(r) for r in rx),
                        counterpart=tuple(cp), channel=tuple(ch))
    return schedule, Topology(n, frozenset(edges), tuple(parents))


@given(_random_scenario())
@settings(max_examples=60, deadline=None)
def test_disturbing_links_symmetric(scenario):
    schedule, topology = scenario
    for slot in range(schedule.slotframe_length):
        links = sorted(slot_links(schedule, slot))
        for l1 in links:
            for l2 in links:
                if l1 != l2:
                    assert (_disturbs(topology, l1, l2)
                            == _disturbs(topology, l2, l1))


@st.composite
def _multi_transmitter_scenario(draw):
    # several disjoint links per slot on channels 11/12, over a random tree
    # with random extra edges
    n = draw(st.integers(min_value=2, max_value=9))
    length = draw(st.integers(min_value=1, max_value=5))
    parents = [None] + [draw(st.integers(min_value=0, max_value=k - 1))
                        for k in range(1, n)]
    extra = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=3 * n))
    edges = {(p, k) for k, p in enumerate(parents) if p is not None}
    edges |= {(v, w) for v, w in extra if v != w}
    tx = [[] for _ in range(n)]
    rx = [[] for _ in range(n)]
    cp = [dict() for _ in range(n)]
    ch = [dict() for _ in range(n)]
    for slot in range(length):
        order = draw(st.permutations(range(n)))
        for k in range(draw(st.integers(min_value=0, max_value=n // 2))):
            v, w = order[2 * k], order[2 * k + 1]
            channel = draw(st.sampled_from((11, 12)))
            tx[v].append(slot)
            rx[w].append(slot)
            cp[v][slot], cp[w][slot] = w, v
            ch[v][slot] = ch[w][slot] = channel
    schedule = Schedule(node_count=n, slotframe_length=length,
                        tx_slots=tuple(tuple(t) for t in tx),
                        rx_slots=tuple(tuple(r) for r in rx),
                        counterpart=tuple(cp), channel=tuple(ch))
    return schedule, Topology(n, frozenset(edges), tuple(parents))


@given(_multi_transmitter_scenario())
@settings(max_examples=150, deadline=None)
def test_collisions_match_brute_force(scenario):
    schedule, topology = scenario
    expected = []
    for slot in range(schedule.slotframe_length):
        links = sorted((v, schedule.counterpart[v][slot])
                       for v in range(schedule.node_count)
                       if slot in schedule.tx_slots[v])
        for a, l1 in enumerate(links):
            for l2 in links[a + 1:]:
                same_channel = (schedule.channel[l1[0]][slot]
                                == schedule.channel[l2[0]][slot])
                near = any((min(x, y), max(x, y)) in topology.edges
                           for x in l1 for y in l2)
                if same_channel and near:
                    expected.append((slot, l1, l2))
    report = validate(schedule, topology)
    assert report.channel_collisions == tuple(expected)
    assert report.invariant_violations == ()


def test_validate_schedule_larger_than_topology():
    # node 5 exists only in the schedule: it has no neighbours, so link
    # 2->5 disturbs nothing, while 2->1 and 4->3 still collide via (1, 4)
    sched = Schedule(
        node_count=6, slotframe_length=2,
        tx_slots=((), (), (0, 1), (), (0, 1), ()),
        rx_slots=((), (0,), (), (0, 1), (), (1,)),
        counterpart=({}, {0: 2}, {0: 1, 1: 5}, {0: 4, 1: 4}, {0: 3, 1: 3},
                     {1: 2}),
        channel=({}, {0: 11}, {0: 11, 1: 11}, {0: 11, 1: 11}, {0: 11, 1: 11},
                 {1: 11}))
    topo = _branch_topology(extra={(1, 4)})
    report = validate(sched, topo)
    assert report.invariant_violations == (
        "node_count_mismatch: schedule has 6 nodes, topology has 5",)
    assert report.channel_collisions == ((0, (2, 1), (4, 3)),)
    assert not _disturbs(topo, (2, 5), (4, 3))
