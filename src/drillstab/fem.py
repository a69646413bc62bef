"""Torsional finite-element model of the drill string.

Linear two-node torsion elements with consistent mass are assembled over
two uniform sections (drill pipe, then BHA). The top degree of freedom is
eliminated (the rotary table imposes a constant speed), damping is
proportional (C = alpha M + beta K), and the bit-rock torque enters the
stability Jacobian as an extra damping term on the last (bit) DOF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitrock import BitRockModel, torque_derivative
from .dynamics import KNM_TO_NM, OperatingPoint
from .errors import DomainError, NumericError


def polar_moment(d_outer: float, d_inner: float) -> float:
    """Polar area moment pi/32 (Do^4 - Di^4) of an annular section, m^4."""
    if not (d_outer > d_inner > 0):
        raise DomainError(
            f"need d_outer > d_inner > 0, got {d_outer}, {d_inner}")
    return math.pi / 32.0 * (d_outer**4 - d_inner**4)


@dataclass(frozen=True)
class DrillStringGeometry:
    """Material and section geometry of the two-section column (SI units)."""

    shear_modulus: float
    density: float
    l_dp: float
    l_bha: float
    d_dp_outer: float
    d_dp_inner: float
    d_bha_outer: float
    d_bha_inner: float

    def __post_init__(self):
        for name in ("shear_modulus", "density", "l_dp", "l_bha"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise DomainError(f"{name} must be positive and finite, got {v}")
        if not (self.d_dp_outer > self.d_dp_inner > 0):
            raise DomainError("drill-pipe diameters must satisfy outer > inner > 0")
        if not (self.d_bha_outer > self.d_bha_inner > 0):
            raise DomainError("BHA diameters must satisfy outer > inner > 0")

    @property
    def j_dp(self) -> float:
        return polar_moment(self.d_dp_outer, self.d_dp_inner)

    @property
    def j_bha(self) -> float:
        return polar_moment(self.d_bha_outer, self.d_bha_inner)


def element_matrices(j: float, l_el: float, density: float,
                     shear_modulus: float) -> tuple[np.ndarray, np.ndarray]:
    """Consistent 2x2 mass and stiffness matrices of one torsion element."""
    for name, v in (("j", j), ("l_el", l_el), ("density", density),
                    ("shear_modulus", shear_modulus)):
        if not (math.isfinite(v) and v > 0):
            raise DomainError(f"{name} must be positive and finite, got {v}")
    m = density * j * l_el * np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
    k = shear_modulus * j / l_el * np.array([[1.0, -1.0], [-1.0, 1.0]])
    return m, k


@dataclass(frozen=True)
class FemTorsionalModel:
    """Assembled model after eliminating the fixed top DOF.

    mass/stiffness are (n_el x n_el) symmetric matrices; the proportional
    damping alpha*mass + beta*stiffness is computed from them.
    """

    n_dp: int
    n_bha: int
    mass: np.ndarray
    stiffness: np.ndarray
    alpha: float
    beta: float

    @property
    def n_el(self) -> int:
        return self.n_dp + self.n_bha

    @property
    def damping(self) -> np.ndarray:
        return self.alpha * self.mass + self.beta * self.stiffness

    def __post_init__(self):
        n = self.n_el
        if self.n_dp < 1 or self.n_bha < 1:
            raise DomainError("need at least one element per section")
        for name in ("mass", "stiffness"):
            a = getattr(self, name)
            if a.shape != (n, n):
                raise DomainError(f"{name} must be {n}x{n}, got {a.shape}")
            if not np.allclose(a, a.T, rtol=0, atol=1e-9 * max(1.0, abs(a).max())):
                raise DomainError(f"{name} must be symmetric")
        for name in ("mass", "stiffness"):
            try:
                np.linalg.cholesky(getattr(self, name))
            except np.linalg.LinAlgError:
                raise NumericError(
                    f"constrained {name} matrix is not positive definite; "
                    "assembly or boundary condition is miswired") from None


def assemble(geometry: DrillStringGeometry, n_dp: int = 1, n_bha: int = 1,
             alpha: float = 0.0, beta: float = 0.0) -> FemTorsionalModel:
    """Assemble the constrained system with uniform elements per section.

    DOF 0 (top of the drill pipe) is eliminated; the remaining DOFs run
    down the column, the last one being the bit.
    """
    if n_dp < 1 or n_bha < 1:
        raise DomainError("need at least one element per section")
    # written so that NaN fails the test
    if not (0 <= alpha < math.inf and 0 <= beta < math.inf):
        raise DomainError("proportional damping coefficients must be finite "
                          f"and >= 0, got alpha={alpha}, beta={beta}")
    n = n_dp + n_bha
    mass = np.zeros((n + 1, n + 1))
    stiff = np.zeros((n + 1, n + 1))
    sections = [(geometry.l_dp / n_dp, geometry.j_dp)] * n_dp \
        + [(geometry.l_bha / n_bha, geometry.j_bha)] * n_bha
    for e, (l_el, j) in enumerate(sections):
        m_el, k_el = element_matrices(j, l_el, geometry.density,
                                      geometry.shear_modulus)
        mass[e:e + 2, e:e + 2] += m_el
        stiff[e:e + 2, e:e + 2] += k_el
    mass = mass[1:, 1:]
    stiff = stiff[1:, 1:]
    model = FemTorsionalModel(n_dp=n_dp, n_bha=n_bha, mass=mass,
                              stiffness=stiff, alpha=alpha, beta=beta)
    with np.errstate(over="ignore"):
        if not np.isfinite(model.damping).all():
            raise DomainError("damping alpha*M + beta*K overflows at "
                              f"alpha={alpha}, beta={beta}")
    return model


def modal_properties(model: FemTorsionalModel) -> list[tuple[float, float]]:
    """Natural frequencies (rad/s, ascending) and modal damping ratios.

    Frequencies solve the symmetric-definite problem K v = w^2 M v, reduced
    with M = L L^T to the standard problem (L^-1 K L^-T) u = w^2 u; the
    ratios come from the proportional-damping closed form
    xi_i = (alpha / w_i + beta * w_i) / 2.
    """
    try:
        low = np.linalg.cholesky(model.mass)
        w2 = np.linalg.eigvalsh(np.linalg.solve(
            low, np.linalg.solve(low, model.stiffness).T))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"generalized eigensolver failed: {exc}") from exc
    if not (w2 > 0).all():
        raise NumericError("constrained system has non-positive eigenvalues")
    omegas = np.sqrt(w2)
    xis = (model.alpha / omegas + model.beta * omegas) / 2.0
    return [(float(w), float(x)) for w, x in zip(omegas, xis)]


def state_matrix(model: FemTorsionalModel, bit_damping) -> np.ndarray:
    """2n x 2n state matrix [[0, I], [-M^-1 K, -M^-1 C_NL]] where C_NL adds
    ``bit_damping`` (N m s/rad) to the bit diagonal entry.

    An array of bit dampings gives a stack of shape
    (*bit_damping.shape, 2n, 2n): -M^-1 K is solved once, and each matrix
    has the bits of its own scalar call.
    """
    c = np.asarray(bit_damping, dtype=float)
    n = model.n_el
    c_nl = np.broadcast_to(model.damping, (*c.shape, n, n)).copy()
    c_nl[..., -1, -1] += c
    a = np.zeros((*c.shape, 2 * n, 2 * n))
    a[..., :n, n:] = np.eye(n)
    a[..., n:, :n] = -np.linalg.solve(model.mass, model.stiffness)
    a[..., n:, n:] = -np.linalg.solve(model.mass, c_nl)
    return a


def jacobian_fem(model: FemTorsionalModel, bitrock: BitRockModel, r,
                 op: OperatingPoint) -> np.ndarray:
    """State matrix whose bit damping is the bit torque derivative."""
    return state_matrix(model, KNM_TO_NM * torque_derivative(bitrock, r, op.omega))


def eigenvalues_general(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a general real square matrix, or of each matrix
    of a stack of shape (..., n, n), solved in one call.

    Each eigenpair is residual-checked (||A v - lambda v|| <= 1e-8 ||A||
    for unit v, with each matrix's own norm); each matrix's values come
    back sorted by (real, imag) along the last axis, so complex conjugates
    sit adjacent. One non-finite matrix in a stack fails the whole call.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise DomainError(f"need a square matrix or a stack of them, "
                          f"got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError("matrix entries must be finite")
    try:
        vals, vecs = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver did not converge: {exc}") from exc
    norm_a = np.linalg.norm(a, 2, axis=(-2, -1))[..., None]
    resid = np.linalg.norm(a @ vecs - vecs * vals[..., None, :], axis=-2)
    scale = norm_a * np.linalg.norm(vecs, axis=-2)
    if (resid > 1e-8 * np.maximum(scale, np.finfo(float).tiny)).any():
        raise NumericError("eigenpair residual exceeded 1e-8 * ||A||")
    order = np.lexsort((vals.imag, vals.real))
    return np.take_along_axis(vals, order, axis=-1)
