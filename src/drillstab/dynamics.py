"""Single degree-of-freedom torsional drill-string model.

The bit angle theta obeys

    I_eq theta'' + c_eq theta' + k_eq theta
        = k_eq Omega t + c_eq Omega - T_bit(theta')

with the rotary table turning at constant speed Omega and T_bit one of
the bit-rock laws (kN m, converted to N m here). The module provides the
state-space form, the dynamic equilibrium, the linearized Jacobian used
for stability classification, and a fixed-step RK4 integrator with a
simple sticking approximation for cross-checking the linear analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitrock import BitRockModel, TORQUE_LAWS, as_ratio, torque, torque_derivative
from .errors import DomainError, IntegrationError

KNM_TO_NM = 1000.0


@dataclass(frozen=True)
class LumpedDrillString:
    """Equivalent 1-DOF parameters: inertia (kg m^2), viscous damping
    (N m s/rad) and torsional stiffness (N m/rad)."""

    i_eq: float
    c_eq: float
    k_eq: float

    def __post_init__(self):
        for name in ("i_eq", "c_eq", "k_eq"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise DomainError(f"{name} must be positive and finite, got {v}")

    @property
    def omega_n(self) -> float:
        """Undamped natural frequency, rad/s."""
        return math.sqrt(self.k_eq / self.i_eq)

    @property
    def xi(self) -> float:
        """Damping ratio."""
        return self.c_eq / (2.0 * math.sqrt(self.i_eq * self.k_eq))

    @classmethod
    def from_modal(cls, i_eq: float, omega_n: float, xi: float) -> "LumpedDrillString":
        """Build from inertia plus modal values (omega_n rad/s, xi)."""
        for name, v in (("i_eq", i_eq), ("omega_n", omega_n), ("xi", xi)):
            if not (math.isfinite(v) and v > 0):
                raise DomainError(f"{name} must be positive and finite, got {v}")
        k_eq = i_eq * omega_n * omega_n
        c_eq = 2.0 * xi * math.sqrt(i_eq * k_eq)
        return cls(i_eq=i_eq, c_eq=c_eq, k_eq=k_eq)


@dataclass(frozen=True)
class OperatingPoint:
    """Rotary-table speed Omega (rad/s) and weight on bit W (kN)."""

    omega: float
    wob: float

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise DomainError(f"omega must be positive and finite, got {self.omega}")
        if not (math.isfinite(self.wob) and self.wob > 0):
            raise DomainError(f"wob must be positive and finite, got {self.wob}")


@dataclass(frozen=True)
class TorsionalState:
    """Bit angle (rad), bit speed (rad/s) and the time stamp (s)."""

    theta: float
    theta_dot: float
    time: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.theta, self.theta_dot, self.time)):
            raise DomainError("state components must all be finite")


def equilibrium_twist(model: BitRockModel, r, ds: LumpedDrillString,
                      op: OperatingPoint) -> float:
    """Steady twist theta0 (rad) at which the elastic torque balances the
    bit torque: k_eq * theta0 = T_bit(Omega)."""
    return KNM_TO_NM * torque(model, r, op.omega) / ds.k_eq


def equilibrium_state(model: BitRockModel, r, ds: LumpedDrillString,
                      op: OperatingPoint, time: float = 0.0,
                      speed_perturbation: float = 0.0) -> TorsionalState:
    """State on the rotating equilibrium x* = (Omega t - theta0, Omega),
    optionally with the speed perturbed by the given fraction of Omega."""
    theta0 = equilibrium_twist(model, r, ds, op)
    return TorsionalState(theta=op.omega * time - theta0,
                          theta_dot=op.omega * (1.0 + speed_perturbation),
                          time=time)


def state_space_rhs(model: BitRockModel, r, ds: LumpedDrillString,
                    op: OperatingPoint, state: TorsionalState) -> tuple[float, float]:
    """Right-hand side (theta', theta'') of the first-order system.

    The torque law is evaluated at max(speed, 0); the linear terms use the
    raw speed (they are defined for any sign).
    """
    tq = KNM_TO_NM * torque(model, r, max(state.theta_dot, 0.0))
    acc = (ds.k_eq * (op.omega * state.time - state.theta)
           + ds.c_eq * (op.omega - state.theta_dot) - tq) / ds.i_eq
    return state.theta_dot, acc


def jacobian_1dof(model: BitRockModel, r, ds: LumpedDrillString,
                  op: OperatingPoint) -> np.ndarray:
    """2x2 Jacobian of the state-space system at the rotating equilibrium.

    [[0, 1], [-omega_n^2, -2 omega_n xi - T_bit'(Omega)/I_eq]] with the
    torque derivative in N m s/rad.
    """
    dt_nm = KNM_TO_NM * torque_derivative(model, r, op.omega)
    wn = ds.omega_n
    return np.array([
        [0.0, 1.0],
        [-wn * wn, -2.0 * wn * ds.xi - dt_nm / ds.i_eq],
    ])


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step time series of the torsional state."""

    times: np.ndarray
    thetas: np.ndarray
    theta_dots: np.ndarray

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, i: int) -> TorsionalState:
        return TorsionalState(theta=float(self.thetas[i]),
                              theta_dot=float(self.theta_dots[i]),
                              time=float(self.times[i]))

    @property
    def final(self) -> TorsionalState:
        return self[len(self) - 1]


def simulate(model: BitRockModel, r, ds: LumpedDrillString, op: OperatingPoint,
             initial: TorsionalState, t_end: float, dt: float = 1e-3) -> Trajectory:
    """Integrate the governing equation with fixed-step RK4.

    Sticking approximation: whenever a step would drive the bit speed
    negative, the speed is held at zero for that step and the angle is
    frozen (the laws are defined for speed >= 0 only). The returned series
    has ceil(t_end / dt) + 1 samples starting at the initial state.

    Raises IntegrationError (with the last finite time) if the state
    diverges.
    """
    if not (dt > 0 and math.isfinite(dt)):
        raise DomainError(f"dt must be positive and finite, got {dt}")
    if not (t_end > dt and math.isfinite(t_end)):
        raise DomainError(f"t_end must exceed dt, got {t_end}")

    n_steps = math.ceil(t_end / dt)
    times = np.empty(n_steps + 1)
    thetas = np.empty(n_steps + 1)
    speeds = np.empty(n_steps + 1)

    # locals for the hot loop; acc rejects non-finite states and clamps the
    # speed to >= 0, so the law runs without torque()'s speed checks
    i_eq, c_eq, k_eq = ds.i_eq, ds.c_eq, ds.k_eq
    law, params, rv = TORQUE_LAWS[model.kind], model.params, as_ratio(r)
    omega = op.omega
    t0 = initial.time

    class _Diverged(Exception):
        pass

    def acc(th, v, t):
        if not (math.isfinite(th) and math.isfinite(v)):
            raise _Diverged
        tq = KNM_TO_NM * law(rv, params, v if v > 0.0 else 0.0, math)
        return (k_eq * (omega * t - th) + c_eq * (omega - v) - tq) / i_eq

    th, v = initial.theta, initial.theta_dot
    if v < 0:
        raise DomainError("initial bit speed must be >= 0")
    times[0], thetas[0], speeds[0] = t0, th, v
    half = 0.5 * dt
    for i in range(1, n_steps + 1):
        t = t0 + (i - 1) * dt
        try:
            a1 = acc(th, v, t)
            th2, v2 = th + half * v, v + half * a1
            a2 = acc(th2, v2, t + half)
            th3, v3 = th + half * v2, v + half * a2
            a3 = acc(th3, v3, t + half)
            th4, v4 = th + dt * v3, v + dt * a3
            a4 = acc(th4, v4, t + dt)
            v_new = v + dt * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0
            if v_new < 0.0:
                # stick: hold the bit for this step while the table winds up
                v_new = 0.0
                th_new = th
            else:
                th_new = th + dt * (v + 2.0 * v2 + 2.0 * v3 + v4) / 6.0
            if not (math.isfinite(th_new) and math.isfinite(v_new)):
                raise _Diverged
        except (_Diverged, OverflowError):
            raise IntegrationError(
                f"state diverged within the step after t={t:.6g} s",
                last_valid_time=t) from None
        th, v = th_new, v_new
        times[i], thetas[i], speeds[i] = t0 + i * dt, th, v

    return Trajectory(times=times, thetas=thetas, theta_dots=speeds)
