"""Tests of the benchmark's oracle.

Run from the root of the repository:

    python3 -m pytest perfbench/test_oracle.py -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402

PARAMS = {
    1: (5.67, 0.48, 8.79, 4.56),
    2: (13.0, 6.5, 0.3),
    3: (2.72, 1.0, 0.09, 9.52, 4.0, 0.08),
    4: (11.8, -0.93, 0.057, -1.2e-3),
}


@pytest.mark.parametrize("kind", [1, 2, 3, 4])
def test_slope_matches_central_difference(kind):
    rng = np.random.default_rng(kind)
    base = np.array(PARAMS[kind])
    params = base * rng.uniform(0.6, 1.4, size=(50, len(base)))
    speeds = rng.uniform(0.05, 20.0, size=40)
    h = 1e-6 * np.maximum(1.0, speeds)
    fd = (oracle.torque(kind, params, speeds + h)
          - oracle.torque(kind, params, speeds - h)) / (2 * h)
    closed = oracle.slope(kind, params, speeds)
    assert np.max(np.abs(closed - fd) / np.maximum(1.0, np.abs(closed))) < 1e-6


def test_torque_at_zero_speed():
    assert oracle.torque(1, PARAMS[1], [0.0])[0, 0] == 0.0
    assert oracle.torque(2, PARAMS[2], [0.0])[0, 0] == 13.0
    assert oracle.torque(4, PARAMS[4], [0.0])[0, 0] == 11.8


def test_m2_closed_form_is_the_margin_zero():
    for omega in (3.0, 6.0, 9.0):
        w = oracle.m2_boundary_wob(PARAMS[2], omega)
        below, above = oracle.margin_1dof(2, PARAMS[2], omega, [w * 0.999, w * 1.001])[0]
        assert below > 0 > above


def test_fraction_counts_unstable_particles():
    rng = np.random.default_rng(7)
    params = np.array(PARAMS[2]) * rng.uniform(0.6, 1.4, size=(500, 3))
    wob = np.linspace(50.0, 700.0, 30)
    frac, tie = oracle.fraction_1dof(2, params, 5.0, wob)
    direct = oracle.unstable_1dof(2, params, 5.0, wob).mean(axis=0)
    assert not tie.any()
    np.testing.assert_array_equal(frac, direct)


def test_rightmost_sign_follows_margin():
    for omega, wob in ((2.0, 600.0), (15.0, 100.0)):
        mu = oracle.rightmost_1dof(2, PARAMS[2], omega, wob)
        margin = oracle.margin_1dof(2, PARAMS[2], omega, [wob])[0, 0]
        assert (mu >= 0) == (margin <= 0)


def test_fe_plant_with_one_dof_matches_closed_form():
    # one DOF with mass I, stiffness k, damping c: the 1-DOF plant itself
    k = oracle.I_EQ * oracle.OMEGA_N ** 2
    plant = oracle.FePlant([[oracle.I_EQ]], [[k]], [[oracle.C_EQ]])
    for d in (-300.0, -100.0, 50.0):
        tau = -(oracle.C_EQ + d) / oracle.I_EQ
        disc = tau * tau - 4 * oracle.OMEGA_N ** 2
        want = 0.5 * tau if disc < 0 else 0.5 * (tau + math.sqrt(disc))
        assert plant.rightmost([d])[0] == pytest.approx(want, abs=1e-12)


def test_percentile_wob_is_the_first_crossing():
    rng = np.random.default_rng(3)
    params = np.array(PARAMS[2]) * rng.uniform(0.8, 1.2, size=(1000, 3))
    w = oracle.percentile_wob(2, params, 5.0, 0.02)
    frac, _ = oracle.fraction_1dof(2, params, 5.0, [w * (1 - 1e-9), w * (1 + 1e-9)])
    assert frac[0] < 0.02 <= frac[1]
