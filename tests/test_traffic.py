import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slotmesh
from slotmesh.queuemodel import (ModelError, TrafficSpec, arrival_pmf,
                                 arrival_tail, expected_arrivals_per_slotframe)


def test_spec_validation():
    with pytest.raises(ModelError):
        TrafficSpec((-0.1,), (0.0,))
    with pytest.raises(ModelError):
        TrafficSpec((0.1,), (1.5,))
    with pytest.raises(ModelError):
        TrafficSpec((0.1, 0.2), (0.0,))
    spec = TrafficSpec.constant(4, rate=0.3, prob=0.1)
    assert spec.slots == 4


def test_pmf_no_traffic():
    spec = TrafficSpec((0.0,), (0.0,))
    assert arrival_pmf(spec, 0, 0) == 1.0
    assert arrival_pmf(spec, 0, 1) == 0.0


def test_pmf_certain_single_packet():
    spec = TrafficSpec((0.0,), (1.0,))
    assert arrival_pmf(spec, 0, 1) == 1.0
    assert arrival_pmf(spec, 0, 0) == 0.0
    assert arrival_tail(spec, 0, 1) == 1.0


def test_pmf_mixture_value():
    # direct evaluation of the mixture: k=1 combines "no forwarded packet,
    # one generated" and "forwarded packet, none generated"
    spec = TrafficSpec((0.3,), (0.4,))
    expected = 0.4 * math.exp(-0.3) + 0.6 * 0.3 * math.exp(-0.3)
    assert arrival_pmf(spec, 0, 1) == pytest.approx(expected, abs=1e-15)


def test_pmf_mixture_monte_carlo():
    spec = TrafficSpec((0.3,), (0.4,))
    rng = np.random.default_rng(1234)
    n = 400_000
    samples = rng.poisson(0.3, n) + (rng.random(n) < 0.4)
    for k in range(4):
        frac = float(np.mean(samples == k))
        se = math.sqrt(frac * (1 - frac) / n)
        assert abs(arrival_pmf(spec, 0, k) - frac) < 4 * se + 1e-9


def test_tail_zero_is_one():
    spec = TrafficSpec((2.0,), (0.3,))
    assert arrival_tail(spec, 0, 0) == 1.0


@given(st.floats(min_value=0.0, max_value=4.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=12))
@settings(max_examples=200)
def test_tail_is_complement_of_pmf_sum(lam, prob, k):
    spec = TrafficSpec((lam,), (prob,))
    head = sum(arrival_pmf(spec, 0, j) for j in range(k))
    assert arrival_tail(spec, 0, k) == pytest.approx(1.0 - head, abs=1e-12)


def test_expected_arrivals_trivial():
    assert expected_arrivals_per_slotframe(TrafficSpec.constant(7)) == 0.0


def test_expected_arrivals_uniform_rate():
    # five slots at rate 1/5 offer one packet per slotframe
    spec = TrafficSpec.constant(5, rate=0.2)
    assert expected_arrivals_per_slotframe(spec) == pytest.approx(1.0, abs=1e-15)


def test_expected_arrivals_closed_form():
    spec = TrafficSpec((0.1, 0.7, 0.0), (0.5, 0.0, 0.9))
    expected = (0.1 + 0.7 + 0.0) + (0.5 + 0.0 + 0.9)
    assert expected_arrivals_per_slotframe(spec) == pytest.approx(expected, abs=1e-15)


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
    assert abs(expected_arrivals_per_slotframe(spec) - totals.mean()) < 3 * se


def test_import_does_not_load_scipy_stats():
    # scipy.stats takes most of a second to import and the arrival layer
    # only needs scipy.special
    src = str(Path(slotmesh.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, slotmesh; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"
