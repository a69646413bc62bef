import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drillstab.bitrock import BitRockModel, WobRatio, torque
from drillstab.dynamics import (KNM_TO_NM, LumpedDrillString, OperatingPoint,
                                TorsionalState, equilibrium_state,
                                equilibrium_twist, jacobian_1dof, simulate)
from drillstab.errors import DomainError, IntegrationError
from drillstab.reference import REFERENCE_PARAMS, W_REF_KN


def state_space_rhs(model, r, ds, op, state):
    """Right-hand side (theta', theta'') of the first-order system.

    The torque law is evaluated at max(speed, 0); the linear terms use the
    raw speed (they are defined for any sign).
    """
    tq = KNM_TO_NM * torque(model, r, max(state.theta_dot, 0.0))
    acc = (ds.k_eq * (op.omega * state.time - state.theta)
           + ds.c_eq * (op.omega - state.theta_dot) - tq) / ds.i_eq
    return state.theta_dot, acc


class TestFromModal:
    def test_reference_drill_string(self):
        ds = LumpedDrillString.from_modal(383.33, 0.85, 0.25)
        # k_eq = 0.85^2 * 383.33, c_eq = 0.5 * sqrt(383.33 * k_eq)
        assert ds.k_eq == pytest.approx(276.955925, rel=1e-12)
        assert ds.c_eq == pytest.approx(162.91525, rel=1e-9)

    def test_unit_case(self):
        ds = LumpedDrillString.from_modal(1.0, 1.0, 0.5)
        assert ds.k_eq == 1.0
        assert ds.c_eq == 1.0

    def test_nonpositive_rejected(self):
        for bad in ((0.0, 1, 1), (1, -1, 1), (1, 1, 0.0)):
            with pytest.raises(DomainError):
                LumpedDrillString.from_modal(*bad)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.floats(1e-3, 10))
    def test_round_trip(self, i_eq, omega_n, xi):
        ds = LumpedDrillString.from_modal(i_eq, omega_n, xi)
        assert ds.omega_n == pytest.approx(omega_n, rel=1e-12)
        assert ds.xi == pytest.approx(xi, rel=1e-12)


class TestEquilibrium:
    def test_m2_twist_at_ten_rad_s(self, m2, r1, plant):
        op = OperatingPoint(omega=10.0, wob=W_REF_KN)
        oracle = ((13 - 6.5) * math.exp(-3.0) + 6.5) * 1000.0 / plant.k_eq
        theta0 = equilibrium_twist(m2, r1, plant, op)
        assert theta0 == pytest.approx(oracle, rel=1e-12)
        assert theta0 == pytest.approx(24.64, abs=0.01)

    def test_zero_torque_zero_twist(self, r1, plant):
        flat = BitRockModel(kind=4, params=(0.0, 0.0, 0.0, 0.0))
        op = OperatingPoint(omega=10.0, wob=W_REF_KN)
        assert equilibrium_twist(flat, r1, plant, op) == 0.0

    def test_twist_linear_in_r(self, m3, plant):
        op = OperatingPoint(omega=8.0, wob=W_REF_KN)
        t1 = equilibrium_twist(m3, 0.7, plant, op)
        t2 = equilibrium_twist(m3, 1.4, plant, op)
        assert t2 == pytest.approx(2.0 * t1, rel=1e-12)

    def test_rhs_at_equilibrium_is_omega_zero(self, m2, m3, r1, plant):
        for model, omega in ((m2, 10.0), (m3, 4.5), (m2, 2.0)):
            op = OperatingPoint(omega=omega, wob=W_REF_KN)
            state = equilibrium_state(model, r1, plant, op, time=3.7)
            d_theta, d_speed = state_space_rhs(model, r1, plant, op, state)
            assert d_theta == pytest.approx(omega, abs=1e-12)
            assert abs(d_speed) < 1e-10


class TestJacobian:
    def test_derivative_free_case_reduces_to_linear_oscillator(self, r1, plant):
        flat = BitRockModel(kind=4, params=(5.0, 0.0, 0.0, 0.0))
        op = OperatingPoint(omega=5.0, wob=W_REF_KN)
        a = jacobian_1dof(flat, r1, plant, op)
        wn, xi = plant.omega_n, plant.xi
        assert a[0, 0] == 0.0 and a[0, 1] == 1.0
        assert a[1, 0] == pytest.approx(-wn * wn, rel=1e-15)
        assert a[1, 1] == pytest.approx(-2 * wn * xi, rel=1e-15)

    def test_m2_entry_at_ten_rad_s(self, m2, r1, plant):
        op = OperatingPoint(omega=10.0, wob=W_REF_KN)
        a = jacobian_1dof(m2, r1, plant, op)
        oracle = -2 * 0.85 * 0.25 + 1.95e3 * math.exp(-3.0) / 383.33
        assert a[1, 1] == pytest.approx(oracle, rel=1e-12)
        assert a[1, 1] == pytest.approx(-0.172, abs=5e-4)

    def test_determinant_is_omega_n_squared(self, m1, m2, m3, m4, r1, plant):
        for model in (m1, m2, m3, m4):
            for omega in (1.0, 5.0, 12.0):
                a = jacobian_1dof(model, r1, plant,
                                  OperatingPoint(omega=omega, wob=W_REF_KN))
                # structural: det = -a01 * a10 with a00 = 0
                assert a[0, 0] == 0.0 and a[0, 1] == 1.0
                assert -a[1, 0] == pytest.approx(plant.omega_n ** 2, rel=1e-15)


class TestSimulate:
    def test_zero_torque_settles_to_table_speed(self, r1, plant):
        flat = BitRockModel(kind=4, params=(0.0, 0.0, 0.0, 0.0))
        op = OperatingPoint(omega=3.0, wob=W_REF_KN)
        start = TorsionalState(theta=0.0, theta_dot=0.0, time=0.0)
        traj = simulate(flat, r1, plant, op, start, t_end=80.0, dt=1e-3)
        assert abs(traj.theta_dots[-1] - op.omega) < 1e-3 * op.omega
        # theta tracks the table angle up to the (zero) equilibrium twist
        assert traj.thetas[-1] == pytest.approx(op.omega * traj.times[-1],
                                                rel=1e-3)

    def test_sample_count(self, r1, plant):
        flat = BitRockModel(kind=4, params=(1.0, 0.0, 0.0, 0.0))
        op = OperatingPoint(omega=3.0, wob=W_REF_KN)
        start = TorsionalState(theta=0.0, theta_dot=3.0, time=0.0)
        traj = simulate(flat, r1, plant, op, start, t_end=1.0005, dt=1e-3)
        assert len(traj) == math.ceil(1.0005 / 1e-3) + 1

    def test_stable_point_decays(self, m2, r1, plant):
        # omega = 10 rad/s lies in the stable region for the reference M2 fit
        op = OperatingPoint(omega=10.0, wob=W_REF_KN)
        start = equilibrium_state(m2, r1, plant, op, speed_perturbation=0.01)
        traj = simulate(m2, r1, plant, op, start, t_end=120.0, dt=1e-3)
        dev = np.abs(traj.theta_dots - op.omega)
        assert dev[-1] < dev[0] / 10.0
        # envelope decays: late-window peak below early-window peak
        n = len(dev)
        assert dev[int(0.8 * n):].max() < dev[:int(0.2 * n)].max()

    def test_unstable_point_reaches_stick_slip(self, m2, r1, plant):
        # omega = 6 rad/s is unstable; limit cycle hits zero speed and
        # overshoots the table speed
        op = OperatingPoint(omega=6.0, wob=W_REF_KN)
        start = equilibrium_state(m2, r1, plant, op, speed_perturbation=0.01)
        traj = simulate(m2, r1, plant, op, start, t_end=150.0, dt=1e-3)
        assert traj.theta_dots.min() == 0.0
        assert traj.theta_dots.max() > 1.2 * op.omega

    def test_richardson_fourth_order(self, m2, r1, plant):
        # smooth stable trajectory: halving dt should shrink the error ~16x
        op = OperatingPoint(omega=10.0, wob=W_REF_KN)
        start = equilibrium_state(m2, r1, plant, op, speed_perturbation=0.05)

        def final_state(dt):
            traj = simulate(m2, r1, plant, op, start, t_end=20.0, dt=dt)
            return np.array([traj.thetas[-1], traj.theta_dots[-1]])

        ref = final_state(0.0025)
        e1 = np.linalg.norm(final_state(0.04) - ref)
        e2 = np.linalg.norm(final_state(0.02) - ref)
        assert e1 / e2 > 10.0

    def test_divergence_raises_integration_error(self, r1, plant):
        # strong negative damping from the torque law blows the state up
        runaway = BitRockModel(kind=4, params=(0.0, -500.0, 0.0, 0.0))
        op = OperatingPoint(omega=5.0, wob=W_REF_KN)
        start = TorsionalState(theta=0.0, theta_dot=5.0, time=0.0)
        with pytest.raises(IntegrationError) as err:
            simulate(runaway, r1, plant, op, start, t_end=2.0, dt=1e-3)
        assert 0.0 <= err.value.last_valid_time < 2.0

    @pytest.mark.parametrize("kind", [1, 2, 3, 4])
    @pytest.mark.parametrize("r", [0.8, WobRatio(w=300.0, w_ref=W_REF_KN)])
    def test_first_step_is_rk4_of_state_space_rhs(self, kind, r, plant):
        model = BitRockModel(kind=kind, params=REFERENCE_PARAMS[kind])
        op = OperatingPoint(omega=7.0, wob=W_REF_KN)
        start = equilibrium_state(model, r, plant, op, time=0.3,
                                  speed_perturbation=0.2)
        dt, half = 1e-3, 0.5e-3

        def acc(th, v, t):
            return state_space_rhs(model, r, plant, op,
                                   TorsionalState(theta=th, theta_dot=v, time=t))[1]

        th, v, t = start.theta, start.theta_dot, start.time
        a1 = acc(th, v, t)
        th2, v2 = th + half * v, v + half * a1
        a2 = acc(th2, v2, t + half)
        th3, v3 = th + half * v2, v + half * a2
        a3 = acc(th3, v3, t + half)
        th4, v4 = th + dt * v3, v + dt * a3
        a4 = acc(th4, v4, t + dt)
        v_new = v + dt * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0
        th_new = th + dt * (v + 2.0 * v2 + 2.0 * v3 + v4) / 6.0
        assert v_new > 0.0
        traj = simulate(model, r, plant, op, start, t_end=2 * dt, dt=dt)
        assert (traj.thetas[1], traj.theta_dots[1]) == (th_new, v_new)

    def test_bad_steps_rejected(self, m2, r1, plant):
        op = OperatingPoint(omega=5.0, wob=W_REF_KN)
        start = TorsionalState(theta=0.0, theta_dot=5.0, time=0.0)
        with pytest.raises(DomainError):
            simulate(m2, r1, plant, op, start, t_end=1.0, dt=0.0)
        with pytest.raises(DomainError):
            simulate(m2, r1, plant, op, start, t_end=1e-4, dt=1e-3)


class TestStateValidation:
    def test_state_requires_finite_entries(self):
        with pytest.raises(DomainError):
            TorsionalState(theta=math.nan, theta_dot=0.0, time=0.0)

    def test_operating_point_positive(self):
        with pytest.raises(DomainError):
            OperatingPoint(omega=0.0, wob=1.0)
        with pytest.raises(DomainError):
            OperatingPoint(omega=1.0, wob=0.0)
