import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slotmesh
from conftest import slot_blocks
from slotmesh import queuemodel
from slotmesh.queuemodel import (ModelError, TrafficSpec,
                                 acceptance_probability, arrival_pmf,
                                 build_chain, _offered)


def test_spec_validation():
    with pytest.raises(ModelError):
        TrafficSpec((-0.1,), (0.0,))
    with pytest.raises(ModelError):
        TrafficSpec((0.1,), (1.5,))
    with pytest.raises(ModelError):
        TrafficSpec((0.1, 0.2), (0.0,))
    spec = TrafficSpec.constant(4, rate=0.3, prob=0.1)
    assert len(spec.poisson_rate) == 4


def test_pmf_no_traffic():
    arrivals = arrival_pmf([0.0], [0.0], 2)
    assert arrivals[0, 0] == 1.0
    assert arrivals[0, 1] == 0.0


def test_pmf_certain_single_packet():
    arrivals = arrival_pmf([0.0], [1.0], 2)
    assert arrivals[0, 1] == 1.0
    assert arrivals[0, 0] == 0.0
    chain = build_chain(1, 1, (), TrafficSpec((0.0,), (1.0,)))
    # the tail column of the empty queue's row holds P(A >= 1)
    assert slot_blocks(chain)[0, 0, 1] == 1.0


def test_pmf_mixture_value():
    # direct evaluation of the mixture: k=1 combines "no forwarded packet,
    # one generated" and "forwarded packet, none generated"
    expected = 0.4 * math.exp(-0.3) + 0.6 * 0.3 * math.exp(-0.3)
    assert arrival_pmf([0.3], [0.4], 2)[0, 1] == pytest.approx(
        expected, abs=1e-15)


def test_pmf_mixture_monte_carlo():
    arrivals = arrival_pmf([0.3], [0.4], 4)
    rng = np.random.default_rng(1234)
    n = 400_000
    samples = rng.poisson(0.3, n) + (rng.random(n) < 0.4)
    for k in range(4):
        frac = float(np.mean(samples == k))
        se = math.sqrt(frac * (1 - frac) / n)
        assert abs(arrivals[0, k] - frac) < 4 * se + 1e-9


def test_tail_zero_is_one():
    spec = TrafficSpec((2.0,), (0.3,))
    # the full queue's row ends in P(A >= 0)
    assert slot_blocks(build_chain(3, 1, (), spec))[0, 3, 3] == 1.0


@given(st.floats(min_value=0.0, max_value=4.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=12))
@settings(max_examples=200)
def test_tail_is_complement_of_pmf_sum(lam, prob, k):
    chain = build_chain(12, 1, (), TrafficSpec((lam,), (prob,)))
    head = sum(arrival_pmf([lam], [prob], 13)[0, :k])
    # without a departure, row K - k of a block ends in P(A >= k)
    tail = slot_blocks(chain)[0, 12 - k, 12]
    assert tail == pytest.approx(1.0 - head, abs=1e-12)


def _long_tails(rate, prob, count):
    """``P(A >= r)`` for r = 0..count-1 in long double: the pmf from its
    recurrence, summed from the top over 200 terms past the table, where
    a rate of at most 8 leaves nothing that long double can hold."""
    poisson = np.empty(count + 200, dtype=np.longdouble)
    poisson[0] = np.exp(-np.longdouble(rate))
    for k in range(1, len(poisson)):
        poisson[k] = poisson[k - 1] * np.longdouble(rate) / k
    shifted = np.concatenate([[np.longdouble(0)], poisson[:-1]])
    pmf = (1 - np.longdouble(prob)) * poisson + np.longdouble(prob) * shifted
    return np.cumsum(pmf[::-1])[::-1][:count]


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float")
def test_tails_and_room_table_match_long_double():
    # column K of the slot blocks and the acceptance room table
    # E[min(A, r)] of 400 random tables, in absolute error
    rng = np.random.default_rng(17)
    worst_tail = worst_room = 0.0
    for _ in range(400):
        capacity = int(rng.choice([1, 2, 6, 16, 64]))
        length = int(rng.integers(1, 5))
        rates, probs = rng.uniform(0, 8, length), rng.uniform(0, 1, length)
        chain = build_chain(capacity, length, (),
                            TrafficSpec(tuple(rates), tuple(probs)))
        blocks, count = slot_blocks(chain), capacity + 1
        rooms = np.arange(count)
        # room r as a one-slot chain at level K - r; dividing by an offered
        # 128 and multiplying back is exact
        grid = np.zeros((count, 1, count))
        grid[rooms, 0, capacity - rooms] = 1.0
        for i in range(length):
            tails = _long_tails(rates[i], probs[i], count)
            # without a departure, row K - r of a block ends in P(A >= r)
            worst_tail = max(worst_tail, float(np.abs(
                blocks[i, ::-1, -1] - tails).max()))
            rows = np.broadcast_to(chain.rows[i], (count, 1, count))
            room = 128.0 * acceptance_probability(grid, rows,
                                                  np.full(count, 128.0))
            want = np.concatenate([[0], np.cumsum(tails[1:])])
            worst_room = max(worst_room, float(np.abs(room - want).max()))
    assert worst_tail <= 4e-15
    # twice the 1.561e-13 that the room table read as head plus complement
    # reached; the error is mostly the arrival pmf's own
    assert worst_room <= 3.12e-13


def test_expected_arrivals_trivial():
    assert _offered(*TrafficSpec.constant(7)._arrays())[0] == 0.0


def test_expected_arrivals_uniform_rate():
    # five slots at rate 1/5 offer one packet per slotframe
    spec = TrafficSpec.constant(5, rate=0.2)
    assert _offered(*spec._arrays())[0] == pytest.approx(1.0, abs=1e-15)


def test_expected_arrivals_closed_form():
    spec = TrafficSpec((0.1, 0.7, 0.0), (0.5, 0.0, 0.9))
    expected = (0.1 + 0.7 + 0.0) + (0.5 + 0.0 + 0.9)
    assert _offered(*spec._arrays())[0] == pytest.approx(expected, abs=1e-15)


def test_expected_arrivals_matches_sampling():
    # Monte-Carlo oracle over whole slotframes, three standard errors
    rng = np.random.default_rng(42)
    spec = TrafficSpec((0.4, 0.0, 1.1), (0.2, 0.8, 0.0))
    frames = 300_000
    lam = np.array(spec.poisson_rate)
    prob = np.array(spec.bernoulli_prob)
    totals = (rng.poisson(lam, size=(frames, 3))
              + (rng.random((frames, 3)) < prob)).sum(axis=1)
    se = totals.std(ddof=1) / math.sqrt(frames)
    assert abs(_offered(*spec._arrays())[0] - totals.mean()) < 3 * se


_RUNTIME_WORK = """
import slotmesh
from slotmesh import cli
topology = slotmesh.concentric_topology(1)
schedule = slotmesh.generate("ta-mc", topology)
assert slotmesh.validate(schedule, topology).ok
scenario = slotmesh.NetworkScenario(schedule=schedule, topology=topology,
                                    generation_rate=0.01, queue_capacity=8)
for variant in ("full", "distributed", "md1k"):
    slotmesh.evaluate_network(scenario, variant=variant)
slotmesh.solve(slotmesh.build_chain(3, 2, (1,), slotmesh.TrafficSpec(
    (0.5, 0.0), (0.2, 0.0))))
slotmesh.simulate_network(scenario, slotmesh.SimConfig(
    seed=1, runs=1, packets=5, warmup_slots=100))
with tempfile.TemporaryDirectory() as tmp:
    spec = os.path.join(tmp, "spec.json")
    with open(spec, "w") as f:
        json.dump({"parameter": "p_gen",
                   "grid": {"min": 0.0, "max": 0.02, "count": 2},
                   "variants": ["full", "distributed", "md1k"],
                   "queue_capacities": [4], "schedules": ["sbd"],
                   "topology": {"rings": 1}}, f)
    out = os.path.join(tmp, "out.csv")
    assert cli.main(["sweep", "--spec", spec, "--out", out]) == 0
"""


def _runtime_probe(before: str, after: str) -> list[str]:
    """The words printed by a fresh interpreter, ``src/`` on its path, that
    runs ``before``, the evaluation, validation, simulation and sweep
    above, then ``after``."""
    src = str(Path(slotmesh.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "\n".join(["import json, os, sys, tempfile", before,
                      _RUNTIME_WORK, after])
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_import_does_not_load_scipy_stats():
    # scipy takes about half a second to import; evaluation, validation,
    # simulation and the CLI need only numpy, so they must run with every
    # scipy import blocked
    assert _runtime_probe(
        'sys.modules["scipy"] = None  # every scipy import now raises '
        'ImportError', 'print("ok")') == ["ok"]


def test_runtime_loads_numpy_only():
    # the test modules import scipy themselves, so only a fresh process
    # shows what the package loads: of the installed packages, numpy alone
    third_party = _runtime_probe("import site\nbefore = set(sys.modules)", """
sites = tuple(site.getsitepackages() + [site.getusersitepackages()])
assert not [name for name in sys.modules if name.split(".")[0] == "scipy"]
print(*sorted({name.split(".")[0] for name, module in sys.modules.items()
               if name not in before
               and (getattr(module, "__file__", None) or "").startswith(sites)}))
""")
    assert third_party == ["numpy"]


def _lgamma_poisson(lam, k):
    if lam == 0.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


@pytest.mark.parametrize("capacity", [0, 1, 16, 512])
def test_arrival_table_matches_lgamma_reference(capacity):
    rates = (0.0, 1e-6, 0.05, 1.0, 16.0, 100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = arrival_pmf(rates, (0.0,) * len(rates), capacity + 1)
    for lam, row in zip(rates, table):
        want = np.array([_lgamma_poisson(lam, k) for k in range(capacity + 1)])
        large = want > 1e-250
        assert np.all(np.abs(row[large] - want[large]) <= 1e-10 * want[large])
        assert np.all(row[~large] <= 2e-250)
    assert table[0, 0] == 1.0 and np.all(table[0, 1:] == 0.0)


def test_each_distinct_arrival_row_is_built_once(monkeypatch):
    # a uniform load on one transmission slot: 19 slot rows of one rate,
    # then the quiet run, the run with the slot, and the slot's own row,
    # whose copy starts as the row of no arrivals: four distinct rows
    # from arrival_pmf, and every row as a chain built row by row has it
    sizes = []
    pmf = queuemodel.arrival_pmf

    def counted(rates, probs, count):
        sizes.append(len(rates))
        return pmf(rates, probs, count)

    monkeypatch.setattr(queuemodel, "arrival_pmf", counted)
    chain = build_chain(16, 19, (0,), TrafficSpec.constant(19, rate=0.05))
    assert sizes == [4]
    assert len(np.unique(chain.rows, axis=0)) == 1
    quiet = build_chain(16, 1, (), TrafficSpec.constant(1, rate=0.05))
    assert np.array_equal(chain.rows[0], quiet.rows[0])
