import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drillstab.bitrock import (BitRockModel, PARAM_COUNTS, SIGN_CONSTRAINTS,
                               WobRatio, torque, torque_batch,
                               torque_derivative, torque_derivative_batch,
                               validate_params)
from drillstab.calibration import default_bounds
from drillstab.errors import DomainError
from drillstab.reference import REFERENCE_PARAMS, W_REF_KN


def central_diff(model, r, s, h):
    return (torque(model, r, s + h) - torque(model, r, s - h)) / (2 * h)


class TestTorqueExamples:
    def test_m1_zero_speed_gives_zero(self, m1, r1):
        # tanh(0) = 0 and the rational term vanishes at the origin
        assert torque(m1, r1, 0.0) == 0.0

    def test_m2_static_torque(self, m2, r1):
        assert torque(m2, r1, 0.0) == pytest.approx(13.0, rel=1e-15)

    def test_m3_high_speed_matches_scalar_oracle(self, m3, r1):
        a0, a1, a2, a3, a4, a5 = REFERENCE_PARAMS[3]
        oracle = a0 * math.exp(-a1 * (200.0 - a2) ** 2) + a3 - a4 * math.tanh(a5 * 200.0)
        value = torque(m3, r1, 200.0)
        assert value == pytest.approx(oracle, rel=1e-6)
        # large-speed asymptote r (a3 - a4)
        assert value == pytest.approx(5.52, abs=1e-6)

    def test_m4_static_torque(self, m4, r1):
        assert torque(m4, r1, 0.0) == pytest.approx(11.8, rel=1e-15)

    def test_array_input_matches_scalar(self, m3, r1):
        speeds = np.array([0.0, 0.5, 3.0, 12.0])
        arr = torque(m3, r1, speeds)
        assert arr.shape == speeds.shape
        for s, v in zip(speeds, arr):
            assert v == pytest.approx(torque(m3, r1, float(s)), rel=1e-15)


class TestDerivativeExamples:
    def test_m2_derivative_at_zero(self, m2, r1):
        assert torque_derivative(m2, r1, 0.0) == pytest.approx(-(13 - 6.5) * 0.3,
                                                               rel=1e-12)
        # cross-check by finite difference (one-sided step stays in domain)
        h = 1e-6
        fd = (torque(m2, r1, 2 * h) - torque(m2, r1, 0.0)) / (2 * h)
        assert torque_derivative(m2, r1, h) == pytest.approx(fd, rel=1e-6)

    def test_m4_derivative_at_zero_is_c1(self, m4, r1):
        assert torque_derivative(m4, r1, 0.0) == -0.93

    @pytest.mark.parametrize("kind", [1, 3])
    def test_m1_m3_match_finite_difference(self, kind, r1):
        model = BitRockModel(kind=kind, params=REFERENCE_PARAMS[kind])
        rng = np.random.default_rng(42)
        for s in rng.uniform(1e-3, 30.0, size=20):
            h = 1e-6 * max(1.0, s)
            closed = torque_derivative(model, r1, float(s))
            fd = central_diff(model, r1, float(s), h)
            assert abs(closed - fd) <= 1e-6 * max(1.0, abs(closed))


class TestDomainErrors:
    def test_negative_speed_rejected(self, m2, r1):
        with pytest.raises(DomainError):
            torque(m2, r1, -0.1)
        with pytest.raises(DomainError):
            torque_derivative(m2, r1, -0.1)

    def test_nonfinite_speed_rejected(self, m2, r1):
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                torque(m2, r1, bad)

    def test_negative_speed_in_array_rejected(self, m2, r1):
        with pytest.raises(DomainError):
            torque(m2, r1, np.array([1.0, -2.0]))


class TestInvariants:
    @pytest.mark.parametrize("kind,params", [
        (1, (1.0, 1.0, 1.0)),                 # wrong length
        (3, (1.0,) * 4),
        (1, (5.0, -0.1, 1.0, 1.0)),           # b1 <= 0
        (1, (5.0, 0.5, 1.0, 0.0)),            # b3 <= 0
        (2, (6.5, 13.0, 0.3)),                # t_sb < t_cb
        (2, (13.0, -1.0, 0.3)),               # t_cb < 0
        (2, (13.0, 6.5, 0.0)),                # g_b <= 0
        (3, (1.0, -1.0, 0.0, 1.0, 1.0, 0.1)),  # a1 <= 0
        (3, (1.0, 1.0, 0.0, 1.0, 1.0, -0.1)),  # a5 <= 0
        (4, (1.0, math.nan, 0.0, 0.0)),        # non-finite
        (5, (1.0,)),                           # unknown kind
    ])
    def test_invalid_params_rejected(self, kind, params):
        with pytest.raises(DomainError):
            BitRockModel(kind=kind, params=params)

    @pytest.mark.parametrize("kind", [1, 2, 3])
    def test_positive_indices_reject_zero_accept_lower_bound(self, kind):
        positive, _ = SIGN_CONSTRAINTS[kind]
        for j in positive:
            p = list(REFERENCE_PARAMS[kind])
            p[j] = 0.0
            with pytest.raises(DomainError):
                validate_params(kind, p)
            p[j] = default_bounds(kind)[j][0]
            assert validate_params(kind, p)[j] == 1e-12

    def test_reference_values_are_valid(self):
        for kind, params in REFERENCE_PARAMS.items():
            BitRockModel(kind=kind, params=params)

    def test_wob_ratio(self):
        wob = WobRatio(w=122.1, w_ref=244.2)
        assert wob.r == 122.1 / 244.2
        assert WobRatio.from_ratio(1.0, W_REF_KN).r == 1.0
        with pytest.raises(DomainError):
            WobRatio(w=0.0, w_ref=1.0)
        with pytest.raises(DomainError):
            WobRatio(w=1.0, w_ref=-1.0)


class TestM2Shape:
    def test_strictly_decreasing_and_dynamic_plateau(self, m2, r1):
        speeds = np.linspace(0.0, 40.0, 400)
        values = torque(m2, r1, speeds)
        assert (np.diff(values) < 0).all()
        # limit at infinity is r * t_cb
        assert torque(m2, r1, 1000.0 / 0.3) == pytest.approx(6.5, rel=1e-6)


class TestM1Shape:
    def test_bounded_with_tanh_saturation(self, m1, r1):
        values = torque(m1, r1, np.linspace(0.0, 1e6, 200))
        assert np.isfinite(values).all()
        # rational hump vanishes, tanh saturates: limit r * b0
        assert torque(m1, r1, 1e6) == pytest.approx(5.67, rel=1e-3)


_valid_models = st.sampled_from([1, 2, 3, 4]).flatmap(lambda kind: st.tuples(
    st.just(kind),
    {
        1: st.tuples(st.floats(0.5, 15), st.floats(0.05, 3),
                     st.floats(0.5, 15), st.floats(0.05, 8)),
        2: st.tuples(st.floats(1, 10), st.floats(0.05, 1.5)).map(
            lambda t: (t[0] * 1.8, t[0], t[1])),
        3: st.tuples(st.floats(0.3, 6), st.floats(0.05, 4), st.floats(0, 1.5),
                     st.floats(2, 15), st.floats(0.3, 6), st.floats(0.02, 1)),
        4: st.tuples(st.floats(2, 15), st.floats(-2, 2), st.floats(-0.3, 0.3),
                     st.floats(-0.01, 0.01)),
    }[kind],
))


@settings(max_examples=120, deadline=None)
@given(_valid_models, st.floats(0.1, 3.0), st.floats(0.0, 30.0))
def test_r_scaling_property(kp, r, speed):
    kind, params = kp
    model = BitRockModel(kind=kind, params=params)
    wob = WobRatio.from_ratio(r, W_REF_KN)
    scaled = torque(model, wob, speed)
    base = torque(model, 1.0, speed)
    assert scaled == pytest.approx(r * base, rel=1e-12, abs=1e-12)


@settings(max_examples=120, deadline=None)
@given(_valid_models, st.floats(0.01, 30.0))
def test_derivative_consistent_with_torque(kp, speed):
    kind, params = kp
    model = BitRockModel(kind=kind, params=params)
    h = 1e-6 * max(1.0, speed)
    closed = torque_derivative(model, 1.0, speed)
    fd = central_diff(model, 1.0, speed, h)
    assert abs(closed - fd) <= 1e-6 * max(1.0, abs(closed))


def test_batch_matches_scalar_paths(r1):
    rng = np.random.default_rng(7)
    speeds = np.linspace(0.0, 20.0, 17)
    for kind in (1, 2, 3, 4):
        base = np.array(REFERENCE_PARAMS[kind])
        table = base[None, :] * rng.uniform(0.8, 1.2, size=(5, len(base)))
        tq = torque_batch(kind, table, r1, speeds)
        dq = torque_derivative_batch(kind, table, r1, speeds)
        assert tq.shape == (5, 17)
        for i in range(5):
            model = BitRockModel(kind=kind, params=tuple(table[i]))
            # both paths run the same formula on the same operands
            assert np.array_equal(tq[i], torque(model, r1, speeds))
            assert np.array_equal(dq[i], torque_derivative(model, r1, speeds))


def test_param_counts():
    assert PARAM_COUNTS == {1: 4, 2: 3, 3: 6, 4: 4}
