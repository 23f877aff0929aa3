import hashlib
import itertools
import json

import pytest

from conftest import random_tree, slot_links
from slotmesh.network import concentric_topology
from slotmesh.schedule import (Schedule, Topology, _disturbs,
                               schedule_to_dict, validate)
from slotmesh.schedulers import (ALGORITHMS, ChannelExhaustionError,
                                 SchedulerError, generate, proper_descendants)


def subtree_sizes(topology):
    """Independent recursive count of proper descendants."""
    def count(n):
        return sum(1 + count(c) for c in topology.children[n])
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
    assert topo.children[0] == (1,) and counts[1] == 1
    assert topo.children[1] == (2,) and counts[2] == 0


def test_descendants_concentric_matches_recursive_oracle():
    for rings in (1, 2, 3):
        topo = concentric_topology(rings)
        info = proper_descendants(topo)
        assert info == subtree_sizes(topo)
        assert info[0] == topo.node_count - 1
        for n in range(topo.node_count):
            assert info[n] == sum(info[child] + 1
                                  for child in topo.children[n])


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
    sched = generate("sbd", topo)
    assert sched.slotframe_length == 19
    assert len(sched.rx_slots[0]) == 6
    for n in range(1, 19):
        assert sched.tx_slots[n] == (n,)
        assert sched.counterpart[n][n] == topo.parents[n]
    assert slot_links(sched, 0) == set()
    assert validate(sched, topo).ok


def test_sbd_three_node_path():
    topo = path_topology(3)
    sched = generate("sbd", topo)
    assert sched.slotframe_length == 3
    assert sched.tx_slots == ((), (1,), (2,))
    assert sched.counterpart[1][1] == 0 and sched.counterpart[2][2] == 1
    assert validate(sched, topo).ok


def test_ta_single_slot_counts():
    topo = concentric_topology(2)
    info = proper_descendants(topo)
    sched = generate("ta-sc", topo)
    assert sched.slotframe_length == 31
    assert len(sched.rx_slots[0]) == 18
    for n in range(1, 19):
        assert len(sched.tx_slots[n]) == info[n] + 1
    assert validate(sched, topo).ok


def test_ta_single_one_link_per_slot():
    topo = concentric_topology(2)
    sched = generate("ta-sc", topo)
    for slot in range(sched.slotframe_length):
        assert len(slot_links(sched, slot)) <= 1
    assert slot_links(sched, 0) == set()


def test_ta_single_leaf_under_root():
    topo = path_topology(2)
    sched = generate("ta-sc", topo)
    assert sched.slotframe_length == 2
    assert sched.tx_slots[1] == (1,)


def test_ta_single_larger_network_length_formula():
    topo = concentric_topology(3)
    info = proper_descendants(topo)
    sched = generate("ta-sc", topo)
    assert sched.slotframe_length == 1 + sum(
        info[n] + 1 for n in range(1, topo.node_count))
    assert sched.slotframe_length == 85
    assert validate(sched, topo).ok


def test_ta_multi_slotframe_lengths():
    topo = concentric_topology(2)
    sched = generate("ta-mc", topo)
    assert sched.slotframe_length == 19
    assert len(sched.rx_slots[0]) == 18
    topo3 = concentric_topology(3)
    assert generate("ta-mc", topo3).slotframe_length == 37


def test_ta_multi_slot_counts_and_validity():
    for rings in (1, 2, 3):
        topo = concentric_topology(rings)
        info = proper_descendants(topo)
        sched = generate("ta-mc", topo)
        report = validate(sched, topo)
        assert report.ok
        assert not report.channel_collisions
        for n in range(1, topo.node_count):
            assert len(sched.tx_slots[n]) == info[n] + 1


def test_ta_multi_first_slot_coloring():
    sched = generate("ta-mc", concentric_topology(2))
    channels = {sched.channel[v][1] for v, _ in slot_links(sched, 1)}
    assert len(channels) == 3


def test_ta_multi_first_slot_conflict_graph_shape():
    # three channels are forced by the structure of the first data slot:
    # its conflict graph is connected and contains triangles
    topo = concentric_topology(2)
    sched = generate("ta-mc", topo)
    links = sorted(slot_links(sched, 1))
    adj = {l: {other for other in links
               if other != l and _disturbs(topo, l, other)} for l in links}
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


def test_ta_multi_channel_exhaustion():
    # complete radio graph: the root, 17 children of the root and one leaf
    # under each; the 17 receptions the root's children schedule in slot 1
    # all disturb one another, one more than the 16 channels
    parents = (None,) + (0,) * 17 + tuple(range(1, 18))
    topo = Topology(35, frozenset(itertools.combinations(range(35), 2)),
                    parents)
    with pytest.raises(ChannelExhaustionError,
                       match="no free channel for node 17 in slot 1"):
        generate("ta-mc", topo)


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
        assert slot_links(sched, 0) == set()


GOLDEN_TOPOLOGIES = {
    "rings1": lambda: concentric_topology(1),
    "rings2": lambda: concentric_topology(2),
    "rings3": lambda: concentric_topology(3),
    "rings6": lambda: concentric_topology(6),
    "rings8": lambda: concentric_topology(8),
    "single": lambda: Topology(1, frozenset(), (None,)),
    "tree12": lambda: random_tree(1, 12),
    "tree25": lambda: random_tree(2, 25),
    "tree40": lambda: random_tree(3, 40),
    "tree120": lambda: random_tree(4, 120),
}


def golden_digest(algorithm, topology):
    """sha256 of the schedule file body and the message trace."""
    trace = []
    if algorithm == "descendants":
        body = json.dumps(proper_descendants(topology, trace=trace))
    else:
        body = json.dumps(schedule_to_dict(
            generate(algorithm, topology, trace=trace)), sort_keys=True)
    return hashlib.sha256("\n".join([body, *trace]).encode()).hexdigest()


# sha256 of golden_digest, recorded when the generators were last
# rewritten; a change here means a schedule or a message order changed
GOLDEN = {
    "rings1": {
        "descendants":
            "2f84e271566edb4b9a193da9e85df11e9645c9bffa70c993172ead01947b1c2f",
        "sbd":
            "77f7cd59dc70d23bef9e6162840fe764e5a3c3a261c92a68dce1f8659272fce7",
        "ta-sc":
            "643248ffb9af2c03a34079f7a28d5d1d05b317bcde1517d6292320d1cef40c5a",
        "ta-mc":
            "8d0661eb5207ed2912b86b597aea0269295246e35b2d9ecfef604868fadeb43b",
    },
    "rings2": {
        "descendants":
            "e21a780ba114a30e98c7b7d8ed7c58c12bf13d2b3919dfa8b6fd1e19758202fb",
        "sbd":
            "d9628a1bde35a47c73ad635b2e3d20a6be0da09f6d5c4587abfadf35cf2ba268",
        "ta-sc":
            "be4b34412f98a9a80ec6f1620a607b5d2454d9d79120137ebdbd7c2e65c8d46c",
        "ta-mc":
            "7b5b8876a71be264d12c4b13113b8716028196ca5421305f62fa402b9fa753bd",
    },
    "rings3": {
        "descendants":
            "14bbd7e0b6181afd653eececeb426725166171073cf6dce687073870f58ba842",
        "sbd":
            "03eddeefc514ff0b17a2545adc3fb44a8c4aa7f1d3358a8d15f8a2b868962262",
        "ta-sc":
            "8679f186f9bd45e9ae64763e2d5f6d6ffc30cb593dce872a1614a3d8fa7f474f",
        "ta-mc":
            "038bdb40538d4efb9a892814367a7990d358036bcce77998399ac24028a81198",
    },
    "rings6": {
        "descendants":
            "04f7443cf4d2a3810edefcc6f5c5d3ed2e0f8fe021ab7f3fc11150a753045d62",
        "sbd":
            "42c4e9d9da60feae52d2a94f47accd9f54c07c315018fc35f4de491e302a41e0",
        "ta-sc":
            "bee835cdf40fdd68aee8800ab1cad00fbcb5f8d5e45f1fe53366a51fb2c59840",
        "ta-mc":
            "83b1ef2be6471f80fb5e0d7f7e35f65abd289c9b7cc3662c0f1e56714ac48186",
    },
    "rings8": {
        "descendants":
            "c51ae481ccd133847d69b8a41d5feb1e8a9f03cc0459a312164dd5eadb659eca",
        "sbd":
            "91bfb308d4e9579a69c597ab4462f8dcfceb7b62bc7557a6f6e7efcd58a547fb",
        "ta-sc":
            "51993545cc876a40ae52781ced7006ed56eaceae73ceb1f402ecaa5f0510e8fd",
        "ta-mc":
            "72a533871d3a20d39fa67e26432cc6234e37fe4ea903e28bda2fcdf3dbdbe077",
    },
    "single": {
        "descendants":
            "d0bca111f8628137adc4c16f123496dcdd1d590d06cb5d9acd68b39fe656fb97",
        "sbd":
            "c6ea8f08df5afd6b4c085cd12e0c6e84e041b2723e9ed147384a2c8c2df69e7a",
        "ta-sc":
            "c6ea8f08df5afd6b4c085cd12e0c6e84e041b2723e9ed147384a2c8c2df69e7a",
        "ta-mc":
            "c6ea8f08df5afd6b4c085cd12e0c6e84e041b2723e9ed147384a2c8c2df69e7a",
    },
    "tree12": {
        "descendants":
            "5017d63e479cc3097d368c51e9d03ceb893ca541556adcbd1ad900b91a18ac17",
        "sbd":
            "3e788988a4fb49e06b3ab3802a03f1f69a25a5bb19623b923e22f37b40398e4f",
        "ta-sc":
            "edb37c96eb97f580980f9e5d5c8af88eb6e71ac79e673694d4caf0bde6513f66",
        "ta-mc":
            "97e964972b203f09160fa41dfdafc147aa9ee0661a319d897055289e1f93c35a",
    },
    "tree25": {
        "descendants":
            "9f337c47cff60ce14bbdf3175bdc538d1340038356ac8581f6e96d4a21882b9d",
        "sbd":
            "d52316ff5884ef90e991c51ca2ac7f4b7ef6afa4fff098ed12fd2a3c1360dc25",
        "ta-sc":
            "5c616be60daa2d8241505074d13cf082a28e3ef855eb1cb1a16f19bab9633c2a",
        "ta-mc":
            "423bf7ea18cea60acd718b72696ea66cc42209eb2717fae9504bef544096d45e",
    },
    "tree40": {
        "descendants":
            "4a390d3288a8e101fb175689b182f79c70d897627757466f1f36f0870f42d6be",
        "sbd":
            "b3800950592b074bc77f993cc2fe59d0b069840003987e28860d978045ce5b96",
        "ta-sc":
            "4097495337445f7a044ba41c4a4f6fe24a7c27f66eb12536009ba8516988e141",
        "ta-mc":
            "32d28ef3de89e7d85755f93280aa78d9508653917a03c4361c43df326141fd78",
    },
    "tree120": {
        "descendants":
            "64848c178a2a9de159f2c0a07223d2571d2c20e450564258c6228e8f02de7392",
        "sbd":
            "3e1af1146a05a01a27e3c69b24eabe8a30521a464bbea88510f47882592f6265",
        "ta-sc":
            "707b8f6681dd7f1a54cbdf97b38bb8201aad10867c90394ca8357a7950da794d",
        "ta-mc":
            "797b1ae955b189ee6119f8d351f5645aa1605321f460ed5f1f1e2303e0bfcc48",
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_generators_golden(case):
    topology = GOLDEN_TOPOLOGIES[case]()
    assert {algorithm: golden_digest(algorithm, topology)
            for algorithm in ("descendants", *ALGORITHMS)} == GOLDEN[case]


def test_untraced_generation_matches_traced():
    # without a trace the transport only queues, a path of its own
    for case in sorted(GOLDEN):
        topology = GOLDEN_TOPOLOGIES[case]()
        for algorithm in ALGORITHMS:
            assert (generate(algorithm, topology)
                    == generate(algorithm, topology, trace=[]))
