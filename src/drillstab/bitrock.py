"""Bit-rock interaction torque laws.

Four candidate laws relate torque on bit (kN m) to bit angular speed
(rad/s), each scaled by the weight-on-bit ratio r = W / W_ref:

* kind 1: saturating tanh plus a rational hump, params (b0, b1, b2, b3)
* kind 2: exponential decay between a static and a dynamic plateau,
  params (t_sb, t_cb, g_b)
* kind 3: Gaussian bump + constant gain - tanh tail, params (a0..a5)
* kind 4: cubic polynomial, params (c0, c1, c2, c3)

Each law's torque and slope T'(speed) are written once, in one table
(TORQUE_LAWS, SLOPE_LAWS), and its sign constraints once (SIGN_CONSTRAINTS).
A scalar speed takes the same formula run with `math` (the fast path the
time integrator binds in its loop); arrays and parameter tables run it with
numpy. All laws are defined for speed >= 0 only; negative speeds are
rejected rather than clamped so that integrator bugs surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

PARAM_NAMES = {
    1: ("b0", "b1", "b2", "b3"),
    2: ("t_sb", "t_cb", "g_b"),
    3: ("a0", "a1", "a2", "a3", "a4", "a5"),
    4: ("c0", "c1", "c2", "c3"),
}

PARAM_COUNTS = {k: len(v) for k, v in PARAM_NAMES.items()}
MODEL_KINDS = tuple(PARAM_NAMES)

# per law: the parameter indices that must be > 0, and a chain of indices
# whose values must be non-increasing down to >= 0 (m2: t_sb >= t_cb >= 0)
SIGN_CONSTRAINTS = {1: ((1, 3), ()), 2: ((2,), (0, 1)), 3: ((1, 5), ()), 4: ((), ())}


# formulas (rv, p, s, m): p holds floats or (m, 1) columns, m is math or numpy
def _torque_m1(rv, p, s, m):
    b0, b1, b2, b3 = p
    return rv * b0 * (m.tanh(b1 * s) + b2 * s / (1.0 + b3 * s * s))


def _slope_m1(rv, p, s, m):
    b0, b1, b2, b3 = p
    th = m.tanh(b1 * s)
    q = 1.0 + b3 * s * s
    return -rv * b0 * (b1 * (th * th - 1.0) - b2 / q + 2.0 * b2 * b3 * s * s / (q * q))


def _torque_m2(rv, p, s, m):
    t_sb, t_cb, g_b = p
    return rv * ((t_sb - t_cb) * m.exp(-g_b * s) + t_cb)


def _slope_m2(rv, p, s, m):
    t_sb, t_cb, g_b = p
    return -rv * (t_sb - t_cb) * g_b * m.exp(-g_b * s)


def _torque_m3(rv, p, s, m):
    a0, a1, a2, a3, a4, a5 = p
    return rv * (a0 * m.exp(-a1 * (s - a2) ** 2) + a3 - a4 * m.tanh(a5 * s))


def _slope_m3(rv, p, s, m):
    a0, a1, a2, a3, a4, a5 = p
    th = m.tanh(a5 * s)
    return rv * (a4 * a5 * (th * th - 1.0)
                 + (2.0 * a2 - 2.0 * s) * a0 * a1 * m.exp(-a1 * (s - a2) ** 2))


def _torque_m4(rv, p, s, m):
    c0, c1, c2, c3 = p
    return rv * (c0 + s * (c1 + s * (c2 + s * c3)))


def _slope_m4(rv, p, s, m):
    c0, c1, c2, c3 = p
    return rv * (c1 + 2.0 * c2 * s + 3.0 * c3 * s * s)


TORQUE_LAWS = {1: _torque_m1, 2: _torque_m2, 3: _torque_m3, 4: _torque_m4}
SLOPE_LAWS = {1: _slope_m1, 2: _slope_m2, 3: _slope_m3, 4: _slope_m4}


@dataclass(frozen=True)
class WobRatio:
    """Weight on bit W and reference weight W_ref, both in kN."""

    w: float
    w_ref: float

    def __post_init__(self):
        if not (math.isfinite(self.w) and self.w > 0):
            raise DomainError(f"weight on bit must be positive and finite, got {self.w}")
        if not (math.isfinite(self.w_ref) and self.w_ref > 0):
            raise DomainError(f"reference weight must be positive and finite, got {self.w_ref}")

    @property
    def r(self) -> float:
        """Dimensionless ratio w / w_ref."""
        return self.w / self.w_ref

    @classmethod
    def from_ratio(cls, r: float, w_ref: float) -> "WobRatio":
        return cls(w=r * w_ref, w_ref=w_ref)


def signs_hold(kind: int, p) -> bool:
    """Whether the float sequence p meets the sign constraints of law kind."""
    positive, descending = SIGN_CONSTRAINTS[kind]
    chain = [p[i] for i in descending] + [0.0]
    return (all(p[i] > 0 for i in positive)
            and all(a >= b for a, b in zip(chain, chain[1:])))


def validate_params(kind: int, params) -> tuple[float, ...]:
    """Check a parameter vector against the sign constraints of its law.

    Raises DomainError on wrong length, non-finite entries, or violated
    constraints. Returns the vector as a tuple of floats.
    """
    if kind not in PARAM_COUNTS:
        raise DomainError(f"unknown model kind {kind}; expected one of {MODEL_KINDS}")
    p = tuple(float(v) for v in params)
    if len(p) != PARAM_COUNTS[kind]:
        raise DomainError(
            f"model {kind} takes {PARAM_COUNTS[kind]} parameters, got {len(p)}"
        )
    if not all(math.isfinite(v) for v in p):
        raise DomainError(f"model {kind} parameters must be finite, got {p}")
    if not signs_hold(kind, p):
        names, (positive, descending) = PARAM_NAMES[kind], SIGN_CONSTRAINTS[kind]
        rules = [f"{names[i]} > 0" for i in positive]
        if descending:
            rules.append(" >= ".join(names[i] for i in descending) + " >= 0")
        raise DomainError(f"model {kind} requires " + " and ".join(rules)
                          + f", got {p}")
    return p


@dataclass(frozen=True)
class BitRockModel:
    """One torque law: the kind index plus its parameter vector.

    Parameters are stored in the documented per-law order (see
    PARAM_NAMES); units are such that with speed in rad/s the torque
    comes out in kN m.
    """

    kind: int
    params: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "params", validate_params(self.kind, self.params))


def as_ratio(r) -> float:
    """The ratio W / W_ref of a WobRatio, or r itself as a float."""
    return r.r if isinstance(r, WobRatio) else float(r)


def _speed(speed):
    """Reject negative or non-finite speeds; return the speed and the module
    its formula runs with (math for a scalar, numpy for an array)."""
    if isinstance(speed, np.ndarray):
        if speed.size and (not np.isfinite(speed).all() or (speed < 0).any()):
            raise DomainError("speeds must be finite and >= 0")
        return speed, np
    s = float(speed)
    if not math.isfinite(s) or s < 0:
        raise DomainError(f"speed must be finite and >= 0, got {speed}")
    return s, math


def torque_eval(kind: int, params, r, speed):
    """Torque for a raw (kind, params) pair; no invariant validation.

    Called by ``torque`` and by ``calibration.metric_arrays``, the misfit
    behind the public ``metric``; ``fit`` binds ``TORQUE_LAWS`` itself and
    the ABC sampler calls ``torque_batch``. Library users should go through
    ``torque``.
    """
    s, m = _speed(speed)
    return TORQUE_LAWS[kind](as_ratio(r), params, s, m)


def torque(model: BitRockModel, r, speed):
    """Torque on bit in kN m at the given speed (rad/s, scalar or array)."""
    return torque_eval(model.kind, model.params, r, speed)


def torque_derivative(model: BitRockModel, r, speed):
    """d(torque)/d(speed) in kN m s/rad (closed forms, scalar or array)."""
    s, m = _speed(speed)
    return SLOPE_LAWS[model.kind](as_ratio(r), model.params, s, m)


def _batch(laws, kind, params, r, speeds) -> np.ndarray:
    rv = as_ratio(r)
    s = np.asarray(speeds, dtype=float)[None, :]
    P = np.asarray(params, dtype=float)
    if P.ndim != 2 or P.shape[1] != PARAM_COUNTS[kind]:
        raise DomainError(f"params must have shape (m, {PARAM_COUNTS[kind]})")
    return laws[kind](rv, [P[:, j:j + 1] for j in range(P.shape[1])], s, np)


def torque_batch(kind: int, params: np.ndarray, r, speeds: np.ndarray) -> np.ndarray:
    """Evaluate one law for a table of parameter vectors.

    params has shape (m, p), speeds shape (d,); returns an (m, d) torque
    table. No invariant validation: callers (the ABC sampler, stability
    maps) draw parameters from pre-validated boxes.
    """
    return _batch(TORQUE_LAWS, kind, params, r, speeds)


def torque_derivative_batch(kind: int, params: np.ndarray, r, speeds: np.ndarray) -> np.ndarray:
    """Derivative counterpart of torque_batch, shape (m, d)."""
    return _batch(SLOPE_LAWS, kind, params, r, speeds)
