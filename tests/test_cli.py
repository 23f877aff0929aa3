import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slotmesh
from conftest import invalid_networks
from slotmesh import cli
from slotmesh.cli import main
from slotmesh.network import concentric_topology
from slotmesh.schedule import (load_schedule, save_schedule, save_topology,
                               schedule_to_dict)
from slotmesh.schedulers import generate


@pytest.fixture
def files(tmp_path, three_node_schedule, path_topology):
    sched = tmp_path / "sched.json"
    topo = tmp_path / "topo.json"
    save_schedule(three_node_schedule, sched)
    save_topology(path_topology, topo)
    return tmp_path, str(sched), str(topo)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_validate_ok(files, capsys):
    _, sched, topo = files
    assert main(["validate", "--schedule", sched, "--topology", topo]) == 0
    assert "conflict-free" in capsys.readouterr().out


def test_parser_is_built_once_per_process(files, capsys):
    # main parses every command line with one parser, which parsing leaves
    # as it was: a second command gets its own defaults
    _, sched, topo = files
    assert cli.build_parser() is cli.build_parser()
    assert main(["validate", "--schedule", sched, "--topology", topo]) == 0
    args = cli.build_parser().parse_args(["sweep", "--spec", "s.json"])
    assert (args.func, args.workers, args.out) == (cli.cmd_sweep, 1, None)
    capsys.readouterr()


def test_validate_reports_violation(files, capsys):
    tmp_path, _, topo = files
    bad = {
        "slotframe_length": 2,
        "slot_duration_s": 0.01,
        "nodes": [
            {"id": 0, "tx": [], "rx": [{"slot": 0, "peer": 1, "channel": 11}]},
            {"id": 1,
             "tx": [{"slot": 0, "peer": 0, "channel": 11}],
             "rx": [{"slot": 1, "peer": 0, "channel": 11}]},
            {"id": 2, "tx": [], "rx": []},
        ],
    }
    # slot 1 appears in node 1 rx without a matching transmitter
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code = main(["validate", "--schedule", str(path), "--topology", topo])
    assert code == 1
    assert "link_consistency" in capsys.readouterr().out


def test_validate_tx_rx_overlap_names_invariant(files, capsys):
    tmp_path, _, topo = files
    bad = {
        "slotframe_length": 2,
        "slot_duration_s": 0.01,
        "nodes": [
            {"id": 0, "tx": [], "rx": [{"slot": 0, "peer": 1, "channel": 11}]},
            {"id": 1,
             "tx": [{"slot": 0, "peer": 0, "channel": 11}],
             "rx": [{"slot": 0, "peer": 0, "channel": 11}]},
            {"id": 2, "tx": [], "rx": []},
        ],
    }
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(bad))
    code = main(["validate", "--schedule", str(path), "--topology", topo])
    assert code == 1
    assert "tx_rx_overlap" in capsys.readouterr().out


def test_validate_channel_mismatch_names_invariant(files, capsys):
    tmp_path, _, topo = files
    bad = {
        "slotframe_length": 2,
        "slot_duration_s": 0.01,
        "nodes": [
            {"id": 0, "tx": [], "rx": [{"slot": 0, "peer": 1, "channel": 11}]},
            {"id": 1, "tx": [{"slot": 0, "peer": 0, "channel": 12}], "rx": []},
            {"id": 2, "tx": [], "rx": []},
        ],
    }
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(bad))
    code = main(["validate", "--schedule", str(path), "--topology", topo])
    assert code == 1
    assert "channel_mismatch: link (1,0) slot 0" in capsys.readouterr().out


_TX = {"slot": 0, "peer": 1, "channel": 11}
_NODES = [{"id": 0, "tx": [], "rx": []}]
_DIRECTORY = object()  # the path is made a directory


def _link(channel):
    """Nodes 0 and 1 of a two-node schedule linked in slot 0 on
    ``channel``, set on both ends."""
    return {"slotframe_length": 2, "nodes": [
        {"id": 0, "tx": [{**_TX, "channel": channel}], "rx": []},
        {"id": 1, "tx": [], "rx": [{"slot": 0, "peer": 0, "channel": channel}]}]}


@pytest.mark.parametrize("kind,content", [
    ("schedule", []),
    ("schedule", {"slotframe_length": 2, "nodes": _NODES, "extra": 1}),
    ("schedule", {"nodes": _NODES}),
    ("schedule", {"slotframe_length": 2, "nodes": []}),
    ("schedule", {"slotframe_length": 2, "nodes": [3]}),
    ("schedule", {"slotframe_length": 2, "nodes": [{"id": 0, "tx": []}]}),
    ("schedule", {"slotframe_length": 2, "nodes": _NODES * 2}),
    ("schedule", {"slotframe_length": 2,
                  "nodes": [{"id": 0, "tx": {}, "rx": []}]}),
    ("schedule", {"slotframe_length": 2,
                  "nodes": [{"id": 0, "tx": [0], "rx": []}]}),
    ("schedule", {"slotframe_length": 2,
                  "nodes": [{"id": 0, "tx": [{"slot": 0}], "rx": []}]}),
    ("schedule", {"slotframe_length": 2,
                  "nodes": [{"id": 0, "tx": [_TX],
                             "rx": [{**_TX, "channel": 12}]}]}),
    ("schedule", {"slotframe_length": 0, "nodes": _NODES}),
    ("schedule", {"slotframe_length": 7.0, "nodes": _NODES}),
    ("schedule", {"slotframe_length": 2, "slot_duration_s": "0.01",
                  "nodes": _NODES}),
    ("schedule", _link("x")),
    ("schedule", _link(None)),
    ("schedule", {"slotframe_length": 2,
                  "nodes": [_NODES[0], {"id": True, "tx": [], "rx": []}]}),
    ("schedule", {"slotframe_length": 2,
                  "nodes": [{"id": 0, "tx": [{**_TX, "slot": [0]}], "rx": []}]}),
    ("schedule", _DIRECTORY),
    ("schedule", b"\xff\xfe\x00"),
    ("schedule", b'{"slotframe_length": 2, "slot_duration_s": 1e999, '
                 b'"nodes": [{"id": 0, "tx": [], "rx": []}]}'),
    ("schedule", {"slotframe_length": 2, "slot_duration_s": 10**400,
                  "nodes": _NODES}),
    ("topology", []),
    ("topology", {"nodes": 3, "edges": []}),
    ("topology", {"nodes": 3, "edges": {}, "parents": [None, 0, 1]}),
    ("topology", {"nodes": 3, "edges": [[0]], "parents": [None, 0, 1]}),
    ("topology", {"nodes": 3, "edges": [[0, 1], [1, 2]], "parents": None}),
    ("topology", {"nodes": 3, "edges": [[0, 1], [1, 2]], "parents": [None, 0]}),
    # refused before a neighbour set is built per node
    ("topology", {"nodes": 10**30, "edges": [[0, 1]], "parents": [None, 0]}),
    ("topology", {"nodes": 7.0, "edges": [], "parents": [None]}),
    ("topology", {"nodes": "7", "edges": [], "parents": [None]}),
    ("topology", {"nodes": 2, "edges": [[0.0, 1]], "parents": [None, 0]}),
    ("topology", {"nodes": 2, "edges": [["a", 1]], "parents": [None, 0]}),
    ("topology", {"nodes": 2, "edges": [[[0], 1]], "parents": [None, 0]}),
    ("topology", _DIRECTORY),
], ids=["schedule_list", "schedule_unknown_key", "schedule_missing_key",
        "nodes_empty", "node_not_object", "node_missing_key", "node_id_twice",
        "tx_not_list", "cell_not_object", "cell_missing_key",
        "slot_conflicting_peer", "slotframe_zero", "slotframe_float",
        "slot_duration_string", "channel_string", "channel_null", "id_bool",
        "slot_list", "schedule_directory", "schedule_not_utf8",
        "slot_duration_infinite", "slot_duration_huge_int", "topology_list", "topology_missing_key", "edges_not_list",
        "edge_short", "parents_not_list", "parents_short", "nodes_huge",
        "nodes_float",
        "nodes_string", "edge_float", "edge_string", "edge_list",
        "topology_directory"])
def test_malformed_file_is_input_error(files, capsys, kind, content):
    tmp_path, sched, topo = files
    path = tmp_path / "malformed.json"
    if content is _DIRECTORY:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(json.dumps(content))
    paths = {"schedule": sched, "topology": topo, kind: str(path)}
    code = main(["validate", "--schedule", paths["schedule"],
                 "--topology", paths["topology"]])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {kind} file") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command,option", [
    ("analyze", "--out"), ("analyze", "--marginals"), ("simulate", "--out"),
    ("schedule", "--out"), ("schedule", "--topology-out"),
    ("schedule", "--trace")])
def test_unwritable_output_is_input_error(files, capsys, command, option):
    tmp_path, sched, topo = files
    target = tmp_path / "a_directory"
    target.mkdir()
    if command == "schedule":
        argv = ["schedule", "--algorithm", "sbd", "--rings", "1",
                "--out", str(tmp_path / "s.json")]
    else:
        argv = [command, "--schedule", sched, "--topology", topo,
                "--rate", "0.01", "--queue", "4"]
    if command == "simulate":
        argv += ["--runs", "1", "--packets", "5", "--warmup-slots", "10"]
    # a repeated --out replaces the earlier one
    assert main(argv + [option, str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert repr(str(target)) in err


def test_schedule_error_words_reach_validate(files, capsys):
    tmp_path, _, topo = files
    path = tmp_path / "cell.json"
    path.write_text(json.dumps({"slotframe_length": 3, "nodes": [
        {"id": 0, "tx": [5], "rx": []}]}))
    assert main(["validate", "--schedule", str(path), "--topology", topo]) == 2
    assert capsys.readouterr().err == (
        f"error: schedule file {str(path)!r}: "
        f"schedule node 0: tx cells must be objects\n")


def test_malformed_json_is_input_error(files, capsys):
    tmp_path, _, topo = files
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    code = main(["validate", "--schedule", str(path), "--topology", topo])
    assert code == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_schedule_generation(tmp_path, capsys):
    out = tmp_path / "generated.json"
    topo_out = tmp_path / "topo.json"
    code = main(["schedule", "--algorithm", "ta-mc", "--rings", "2",
                 "--out", str(out), "--topology-out", str(topo_out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "slotframe_length=19" in text
    assert "root_rx_slots=18" in text
    sched = load_schedule(out)
    assert sched.slotframe_length == 19
    assert main(["validate", "--schedule", str(out),
                 "--topology", str(topo_out)]) == 0


@pytest.mark.parametrize("algorithm", ["sbd", "ta-sc", "ta-mc"])
def test_schedule_from_topology_file_matches_rings(tmp_path, capsys,
                                                   algorithm):
    rings, from_file = tmp_path / "rings.json", tmp_path / "file.json"
    topo = tmp_path / "topo.json"
    assert main(["schedule", "--algorithm", algorithm, "--rings", "2",
                 "--out", str(rings), "--topology-out", str(topo)]) == 0
    printed = capsys.readouterr().out
    assert main(["schedule", "--algorithm", algorithm, "--topology", str(topo),
                 "--out", str(from_file)]) == 0
    assert capsys.readouterr().out == printed
    assert from_file.read_bytes() == rings.read_bytes()


def test_schedule_prints_ta_sc_length(tmp_path, capsys):
    out = tmp_path / "tasc.json"
    main(["schedule", "--algorithm", "ta-sc", "--rings", "2", "--out", str(out)])
    assert "slotframe_length=31" in capsys.readouterr().out


def test_schedule_prints_sbd_shape(tmp_path, capsys):
    out = tmp_path / "sbd.json"
    main(["schedule", "--algorithm", "sbd", "--rings", "2", "--out", str(out)])
    text = capsys.readouterr().out
    assert "slotframe_length=19" in text
    assert "root_rx_slots=6" in text


def test_schedule_trace(tmp_path):
    out = tmp_path / "s.json"
    trace = tmp_path / "trace.log"
    main(["schedule", "--algorithm", "ta-sc", "--rings", "1",
          "--out", str(out), "--trace", str(trace)])
    lines = trace.read_text().splitlines()
    assert lines
    assert all(line.split()[0] in ("track", "assign_rx") for line in lines)


def test_analyze_csv(files, tmp_path):
    _, sched, topo = files
    out = tmp_path / "analysis.csv"
    marg = tmp_path / "marginals.csv"
    code = main(["analyze", "--schedule", sched, "--topology", topo,
                 "--rate", "0.02", "--queue", "6", "--out", str(out),
                 "--marginals", str(marg)])
    assert code == 0
    rows = _read_csv(out)
    assert rows[0] == list(("node", "paccept", "delay_slots", "delay_seconds",
                            "pdr", "e2e_delay_slots", "e2e_delay_seconds"))
    assert rows[1][0] == "0"
    assert float(rows[1][1]) == 1.0 and float(rows[1][5]) == 0.0
    assert rows[-1][0] == "throughput_pps"
    mrows = _read_csv(marg)
    assert mrows[0] == ["node", "q", "probability"]
    assert len(mrows) == 1 + 3 * 7  # three nodes, K+1 levels each


def test_analyze_deterministic(files, tmp_path):
    _, sched, topo = files
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        main(["analyze", "--schedule", sched, "--topology", topo,
              "--rate", "0.01", "--queue", "4", "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()


def test_analyze_interval_flag(files, tmp_path):
    _, sched, topo = files
    out = tmp_path / "by_interval.csv"
    code = main(["analyze", "--schedule", sched, "--topology", topo,
                 "--interval", "1.0", "--queue", "4", "--out", str(out)])
    assert code == 0


def test_analyze_single_node_reference_point(tmp_path):
    # one node feeding the sink through one slot of a five-slot frame at
    # one packet per frame: acceptance lands at the known 0.95
    sched = {
        "slotframe_length": 5,
        "slot_duration_s": 0.01,
        "nodes": [
            {"id": 0, "tx": [], "rx": [{"slot": 2, "peer": 1, "channel": 11}]},
            {"id": 1, "tx": [{"slot": 2, "peer": 0, "channel": 11}], "rx": []},
        ],
    }
    topo = {"nodes": 2, "edges": [[0, 1]], "parents": [None, 0]}
    sched_path = tmp_path / "s.json"
    topo_path = tmp_path / "t.json"
    sched_path.write_text(json.dumps(sched))
    topo_path.write_text(json.dumps(topo))
    out = tmp_path / "ref.csv"
    code = main(["analyze", "--schedule", str(sched_path),
                 "--topology", str(topo_path), "--rate", "0.2",
                 "--queue", "10", "--out", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert abs(float(rows[2][1]) - 0.95) <= 0.005  # node 1 paccept


def test_sweep(tmp_path):
    spec = {
        "parameter": "p_gen",
        "grid": {"min": 0.0, "max": 0.02, "count": 3, "scale": "linear"},
        "queue_capacities": [4, 8],
        "schedules": ["sbd", "ta-mc"],
        "topology": {"rings": 1},
    }
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[0] == list(("schedule", "variant", "K", "rate", "metric", "value"))
    body = rows[1:]
    assert len(body) == 2 * 2 * 3 * 4  # schedules x K x grid x metrics
    zero = [r for r in body if float(r[3]) == 0.0 and r[4] == "throughput_pps"]
    assert zero and all(float(r[5]) == 0.0 for r in zero)


def test_sweep_workers_match_serial(tmp_path):
    # the process pool returns the points in task order; in one process the
    # points share one memo of solved chains, in the pool none
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps({
        "grid": {"min": 0.0, "max": 0.1, "count": 3},
        "schedules": ["sbd", "ta-mc"],
        "variants": ["full", "distributed", "md1k"],
        "topology": {"rings": 1},
    }))
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"sweep{workers}.csv"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out),
                     "--workers", workers]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 1 + 2 * 3 * 3 * 4


def test_cli_import_leaves_process_pool_out():
    # only runs spread over several workers need the process pool, whose
    # import would slow every command's start
    src = str(Path(slotmesh.__file__).resolve().parents[1])
    code = ("import sys, slotmesh.simulate; "
            "print('concurrent.futures.process' in sys.modules); "
            "import slotmesh.cli; "
            "print('concurrent.futures.process' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "False"]


def _sbd_files(tmp_path, slot_duration):
    """A rings-1 sbd schedule file with the given slot duration, and its
    topology file."""
    topo = concentric_topology(1)
    sched_path, topo_path = tmp_path / "s.json", tmp_path / "t.json"
    save_schedule(generate("sbd", topo, slot_duration=slot_duration),
                  sched_path)
    save_topology(topo, topo_path)
    return str(sched_path), str(topo_path)


def test_sweep_log_grid_over_files(tmp_path):
    sched, topo = _sbd_files(tmp_path, 0.01)
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps({
        "grid": {"min": 0.001, "max": 0.1, "count": 3, "scale": "log"},
        "schedules": [{"file": sched, "name": "from-file"}, "sbd"],
        "topology": {"file": topo},
    }))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 0
    body = _read_csv(out)[1:]
    assert len(body) == 2 * 3 * 4  # schedules x grid x metrics
    assert [r[0] for r in body[::12]] == ["from-file", "sbd"]
    assert [float(r[3]) for r in body[:12:4]] == pytest.approx([0.001, 0.01, 0.1])
    # the file holds the schedule the sweep generates
    assert [r[4:] for r in body[:12]] == [r[4:] for r in body[12:]]


def test_interval_sweep_uses_schedule_slot_duration(tmp_path):
    sched, topo = _sbd_files(tmp_path, 0.015)
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps({
        "parameter": "interval",
        "grid": {"min": 1.0, "max": 2.0, "count": 2},
        "schedules": [{"file": sched}],
        "topology": {"file": topo},
    }))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 0
    swept = [r for r in _read_csv(out)[1:] if r[4] == "throughput_pps"]
    assert float(swept[0][3]) == pytest.approx(0.015)
    analyzed = tmp_path / "analyze.csv"
    assert main(["analyze", "--schedule", sched, "--topology", topo,
                 "--interval", "1.0", "--queue", "16",
                 "--out", str(analyzed)]) == 0
    want = float(_read_csv(analyzed)[-1][1])
    assert float(swept[0][5]) == pytest.approx(want, abs=1e-6)


def test_interval_sweep_matches_p_gen_sweep(tmp_path):
    # an interval v sweeps the point p_gen = slot_duration / v
    slot, lo, hi = 0.02, 0.5, 4.0
    common = {"queue_capacities": [3, 8], "schedules": ["sbd", "ta-mc"],
              "variants": ["full", "distributed"], "topology": {"rings": 1},
              "slot_duration_s": slot}
    rows = []
    for name, extra in (
            ("interval", {"parameter": "interval",
                          "grid": {"min": lo, "max": hi, "count": 2}}),
            ("p_gen", {"grid": {"min": slot / hi, "max": slot / lo,
                                "count": 2}})):
        spec_path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        spec_path.write_text(json.dumps({**common, **extra}))
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 0
        rows.append(_read_csv(out)[1:])
    assert len(rows[0]) == 2 * 2 * 2 * 2 * 4
    assert sorted(rows[0]) == sorted(rows[1])
    assert [r[3] for r in rows[0][:8:4]] == ["0.04", "0.005"]


_GRID = {"min": 0.0, "max": 0.01, "count": 3}


@pytest.mark.parametrize("spec", [
    {"grid": {"min": 0.1, "max": 0.01, "count": 3}, "topology": {"rings": 1}},
    {"grid": _GRID, "queue_capacities": ["16"], "topology": {"rings": 1}},
    {"grid": _GRID, "queue_capacities": [2.5], "topology": {"rings": 1}},
    {"grid": _GRID, "queue_capacities": [True], "topology": {"rings": 1}},
    {"grid": {"min": 0.0, "max": 0.01}, "topology": {"rings": 1}},
    {"grid": {**_GRID, "count": 2.5}, "topology": {"rings": 1}},
    {"grid": {**_GRID, "count": True}, "topology": {"rings": 1}},
    {"grid": {**_GRID, "min": "0"}, "topology": {"rings": 1}},
    {"grid": {**_GRID, "max": 1e999}, "topology": {"rings": 1}},
    {"grid": {**_GRID, "max": 10**400}, "topology": {"rings": 1}},
    {"grid": [0.0, 0.01, 3], "topology": {"rings": 1}},
    [1, 2],
    {"grid": _GRID, "topology": {"rings": "2"}},
    {"grid": _GRID, "topology": "rings"},
    {"grid": _GRID, "topology": {"rings": 1}, "slot_duration_s": "x"},
    {"grid": _GRID, "topology": {"rings": 1}, "schedules": [{"file": 3}]},
    {"grid": _GRID, "topology": {"file": 3}},
    {"grid": _GRID, "topology": {"rings": 1}, "variants": "full"},
    {"grid": _GRID, "topology": {"rings": 1}, "schedules": "sbd"},
    {"grid": _GRID, "topology": {"rings": 1}, "queue_capacities": []},
    {"grid": _GRID, "topology": {"rings": 1}, "variants": []},
    {"grid": _GRID, "topology": {"rings": 1}, "schedules": []},
    {"grid": _GRID, "topology": {"rings": 0}},
    {"grid": _GRID, "topology": {"rings": 1}, "queue_capacities": [0]},
    {"grid": {**_GRID, "scale": "log"}, "topology": {"rings": 1}},
    {"grid": {**_GRID, "scale": "cubic"}, "topology": {"rings": 1}},
    {"grid": {**_GRID, "count": 1}, "topology": {"rings": 1}},
    {"grid": _GRID, "topology": {"rings": 1}, "rate": 0.01},
    {"grid": _GRID, "topology": {"rings": 1}, "parameter": "rate"},
    {"grid": _GRID, "topology": {"rings": 1}, "variants": ["fancy"]},
    {"grid": _GRID, "topology": {"rings": 1}, "parameter": "interval"},
    {"grid": {**_GRID, "min": -0.01}, "topology": {"rings": 1}},
    {"grid": _GRID, "topology": {"file": "missing.json"}},
    {"grid": _GRID, "topology": {"rings": 1},
     "schedules": [{"file": "missing.json"}]},
], ids=["min_above_max", "capacity_string", "capacity_float",
        "capacity_bool", "count_missing", "count_float", "count_bool",
        "min_string", "max_infinite", "max_huge_int", "grid_list", "spec_list", "rings_string",
        "topology_string", "slot_duration_string", "schedule_file_int",
        "topology_file_int", "variants_string", "schedules_string",
        "capacities_empty", "variants_empty", "schedules_empty",
        "rings_zero", "capacity_zero", "log_min_zero", "scale_unknown",
        "count_one", "key_unknown", "parameter_unknown", "variant_unknown",
        "interval_zero", "rate_negative", "topology_file_missing",
        "schedule_file_missing"])
def test_sweep_rejects_bad_grid(tmp_path, capsys, monkeypatch, spec):
    monkeypatch.chdir(tmp_path)  # the file names in the specs do not exist
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["sweep", "--spec", str(spec_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_sweep_rejects_multihop_md1k_before_any_point(tmp_path, capsys,
                                                     monkeypatch):
    # md1k is single-hop only: a rings-2 spec fails before its first point
    evaluated = []
    monkeypatch.setattr(cli, "evaluate_network",
                        lambda *args, **kwargs: evaluated.append(args))
    spec_path, out = tmp_path / "sweep.json", tmp_path / "sweep.csv"
    spec_path.write_text(json.dumps({"grid": _GRID, "topology": {"rings": 2},
                                     "variants": ["full", "md1k"]}))
    assert main(["sweep", "--spec", str(spec_path), "--out", str(out),
                 "--workers", "1"]) == 1
    assert "md1k" in capsys.readouterr().err
    assert not out.exists()
    assert evaluated == []


@pytest.mark.parametrize("text", [None, "{ not json", _DIRECTORY,
                                  b"\xff\xfe\x00"],
                         ids=["missing", "unparsable", "directory", "not_utf8"])
def test_sweep_rejects_unreadable_spec(tmp_path, capsys, text):
    spec_path = tmp_path / "sweep.json"
    if text is _DIRECTORY:
        spec_path.mkdir()
    elif isinstance(text, bytes):
        spec_path.write_bytes(text)
    elif text is not None:
        spec_path.write_text(text)
    assert main(["sweep", "--spec", str(spec_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: sweep spec {str(spec_path)!r}")


def test_simulate_csv_shape(tmp_path, capsys):
    sched_path, topo_path = _sbd_files(tmp_path, 0.01)
    out = tmp_path / "sim.csv"
    code = main(["simulate", "--schedule", sched_path,
                 "--topology", topo_path, "--rate", "0.02",
                 "--queue", "4", "--seed", "1", "--runs", "5",
                 "--packets", "50", "--warmup-slots", "500",
                 "--out", str(out), "--compare-model"])
    assert code == 0
    rows = _read_csv(out)
    per_run = [r for r in rows[1:] if r[0] != "agg"]
    agg = [r for r in rows[1:] if r[0] == "agg"]
    assert len(per_run) == 5 * 3  # five runs, three metrics
    assert len(agg) == 3
    printed = capsys.readouterr().out
    assert printed.count("inside CI:") == 3


@pytest.mark.parametrize("runs", [3, 1])
def test_compare_model_verdicts_at_zero_width(tmp_path, capsys, runs):
    # every run delivers every tracked packet, a CI of zero width that the
    # sbd model's delivery ratio of 0.9999999989 lies within one packet
    # of; a single run gives no CI at all
    topo = concentric_topology(2)
    sched_path, topo_path = tmp_path / "s.json", tmp_path / "t.json"
    save_schedule(generate("sbd", topo), sched_path)
    save_topology(topo, topo_path)
    assert main(["simulate", "--schedule", str(sched_path),
                 "--topology", str(topo_path), "--rate", "0.01",
                 "--queue", "16", "--seed", "1", "--runs", str(runs),
                 "--packets", "50", "--warmup-slots", "500",
                 "--out", str(tmp_path / "sim.csv"), "--compare-model"]) == 0
    lines = capsys.readouterr().out.splitlines()
    verdicts = {line.split(":")[0]: line.split()[-1] for line in lines}
    assert list(verdicts) == ["pdr_outer_mean", "delay_outer_mean_s",
                              "throughput_pps"]
    if runs == 1:
        assert set(verdicts.values()) == {"n/a"}
    else:
        assert "ci=[1, 1]" in lines[0]
        assert verdicts["pdr_outer_mean"] == "yes"


def test_single_run_has_no_ci(tmp_path):
    # one run gives a mean but no 95 % interval, so the bounds are NaN
    sched_path, topo_path = _sbd_files(tmp_path, 0.01)
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--schedule", sched_path,
                 "--topology", topo_path, "--rate", "0.02", "--queue", "4",
                 "--seed", "1", "--runs", "1", "--packets", "50",
                 "--warmup-slots", "500", "--out", str(out)]) == 0
    agg = [r for r in _read_csv(out)[1:] if r[0] == "agg"]
    assert [r[1] for r in agg] == ["pdr_outer_mean", "delay_outer_mean_s",
                                   "throughput_pps"]
    for _, _, mean, low, high in agg:
        assert mean != "nan" and low == high == "nan"


def test_simulate_deterministic(tmp_path):
    sched_path, topo_path = _sbd_files(tmp_path, 0.01)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        main(["simulate", "--schedule", sched_path,
              "--topology", topo_path, "--rate", "0.02",
              "--queue", "4", "--seed", "3", "--runs", "2",
              "--packets", "30", "--warmup-slots", "300", "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("name", ["collision", "past_parent", "rate_inf"])
def test_simulate_rejects_invalid_scenario(tmp_path, capsys, name):
    # what analyze rejects, simulate rejects too
    if name == "rate_inf":
        topo = concentric_topology(1)
        sched, rate = generate("sbd", topo), "inf"
    else:
        (sched, topo), rate = invalid_networks()[name], "0.01"
    topo_path = tmp_path / "t.json"
    sched_path = tmp_path / "s.json"
    save_topology(topo, topo_path)
    save_schedule(sched, sched_path)
    code = main(["simulate", "--schedule", str(sched_path),
                 "--topology", str(topo_path), "--rate", rate,
                 "--queue", "4", "--runs", "1", "--packets", "10"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_simulate_rate_too_large_to_draw_is_domain_error(tmp_path, capsys):
    topo = concentric_topology(2)
    sched_path, topo_path = tmp_path / "tamc.json", tmp_path / "topo.json"
    save_schedule(generate("ta-mc", topo), sched_path)
    save_topology(topo, topo_path)
    code = main(["simulate", "--schedule", str(sched_path),
                 "--topology", str(topo_path), "--rate", "1e20",
                 "--queue", "16", "--runs", "1", "--packets", "10"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert "1e+20" in err


def test_analyze_load_below_smallest_normal_float_is_domain_error(files,
                                                                  capsys):
    _, sched, topo = files
    assert main(["analyze", "--schedule", sched, "--topology", topo,
                 "--rate", "5e-324", "--queue", "16"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("rate", ["1e-310", "1e7"])
def test_simulate_rate_it_cannot_run_is_domain_error(files, capsys, rate):
    _, sched, topo = files
    assert main(["simulate", "--schedule", sched, "--topology", topo,
                 "--rate", rate, "--queue", "16", "--runs", "1",
                 "--packets", "10", "--warmup-slots", "0",
                 "--workers", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze", "simulate"])
@pytest.mark.parametrize("interval", ["0", "-1"])
def test_nonpositive_interval_is_domain_error(files, capsys, command, interval):
    _, sched, topo = files
    assert main([command, "--schedule", sched, "--topology", topo,
                 "--interval", interval, "--queue", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("duration", ["-1", "inf", "nan"])
def test_bad_slot_duration_is_domain_error(tmp_path, capsys, duration):
    out = tmp_path / "s.json"
    assert main(["schedule", "--algorithm", "sbd", "--rings", "1",
                 "--out", str(out), "--slot-duration", duration]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not out.exists()


def test_negative_warmup_is_domain_error(files, capsys):
    _, sched, topo = files
    assert main(["simulate", "--schedule", sched, "--topology", topo,
                 "--rate", "0.01", "--queue", "4", "--runs", "1",
                 "--packets", "10", "--warmup-slots", "-5000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_negative_seed_is_domain_error(files, capsys):
    _, sched, topo = files
    assert main(["simulate", "--schedule", sched, "--topology", topo,
                 "--rate", "0.01", "--queue", "4", "--runs", "1",
                 "--packets", "10", "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err == "error: seed must not be negative\n"


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_sweep_rejects_nonpositive_workers(files, capsys, workers):
    # sweep and simulate check --workers in one place, as a domain error
    tmp_path, sched, topo = files
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps({
        "grid": {"min": 0.0, "max": 0.1, "count": 3},
        "topology": {"rings": 1},
    }))
    message = "error: workers must be an integer of at least 1\n"
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--spec", str(spec_path), "--out", str(out),
                 "--workers", workers]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--schedule", sched, "--topology", topo,
                 "--rate", "0.01", "--queue", "4", "--runs", "2",
                 "--packets", "10", "--workers", workers,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_missing_file_is_input_error(capsys):
    assert main(["validate", "--schedule", "nope.json",
                 "--topology", "alsono.json"]) == 2
