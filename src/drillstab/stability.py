"""Torsional stability maps over the (Omega, W) operational plane.

A point is stable when every eigenvalue of the linearized system has real
part below -1e-10 (ties count as unstable). The plant sees a torque law
only through the bit damping c = 1000 r T'(Omega), linear in r = W / W_ref,
so a point is stable exactly when c exceeds the plant's critical bit
damping c*, and each parameter vector has one threshold r* per Omega
(unstable at and above it when c* < 0, at and below it when c* >= 0, as for
an undamped plant). A cell's instability probability is the (weighted, for
mixtures) share of particles unstable at its r; a boundary point is the
exact threshold where that share reaches the percentile. The share is
monotone along W, so each Omega column crosses the percentile at most once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .bitrock import (BitRockModel, WobRatio, torque_derivative,
                      torque_derivative_batch)
from .dataio import write_table
from .dynamics import KNM_TO_NM, LumpedDrillString, OperatingPoint, jacobian_1dof
from .errors import DomainError, InsufficientSamplesError, NumericError
from .fem import (FemTorsionalModel, eigenvalues_general, jacobian_fem,
                  state_matrix)

RAD_S_TO_RPM = 30.0 / math.pi

STABLE_TIE_TOL = 1e-10

DEFAULT_OMEGA_RANGE = (1.0, 20.0)
DEFAULT_WOB_FRACTIONS = (0.2, 3.0)
DEFAULT_RESOLUTION = (80, 80)
# the half-line guard: 100 log-spaced bit dampings per side of c*, 1e-6 to
# 1e6 times max(1, |c*|) away (the maps evaluate |c| of order 1e4)
_GUARD_POINTS = 100
_GUARD_SPAN = 1e6
# (particle, Omega column) slope cells per component in one block of a map
_BLOCK_CELLS = 4096


@dataclass(frozen=True)
class StabilityGrid:
    """Rectangular classification grid.

    ``stable[i, j]`` refers to (omega_axis[i], wob_axis[j]). Stochastic
    maps also carry ``p_unstable`` with the per-cell instability
    probability (None for deterministic maps).
    """

    omega_axis: np.ndarray
    wob_axis: np.ndarray
    stable: np.ndarray
    p_unstable: np.ndarray | None

    def __post_init__(self):
        if (np.diff(self.omega_axis) <= 0).any() or (np.diff(self.wob_axis) <= 0).any():
            raise DomainError("grid axes must be strictly increasing")
        shape = (len(self.omega_axis), len(self.wob_axis))
        if self.stable.shape != shape:
            raise DomainError(f"classification must have shape {shape}")

    @property
    def cell_sizes(self) -> tuple[float, float]:
        return (float(self.omega_axis[1] - self.omega_axis[0]),
                float(self.wob_axis[1] - self.wob_axis[0]))


@dataclass(frozen=True)
class BoundaryCurve:
    """Stable/unstable interface as (Omega, W) points, ascending Omega,
    at most one per Omega column."""

    points: np.ndarray

    def __len__(self) -> int:
        return len(self.points)

    def pieces(self, omega_step: float) -> list[np.ndarray]:
        """The points in ascending Omega (stable sort), split where Omega
        jumps by over 1.5 ``omega_step`` (the curve left the window)."""
        pts = self.points[np.argsort(self.points[:, 0], kind="stable")]
        gaps = np.flatnonzero(np.diff(pts[:, 0]) > 1.5 * omega_step)
        return np.split(pts, gaps + 1)


def classify(model: BitRockModel, plant, op: OperatingPoint,
             w_ref: float) -> bool:
    """True when the linearized system at (Omega, W) is strictly stable.

    ``plant`` is either a LumpedDrillString or a FemTorsionalModel.
    """
    r = WobRatio(op.wob, w_ref)
    if isinstance(plant, LumpedDrillString):
        a = jacobian_1dof(model, r, plant, op)
    elif isinstance(plant, FemTorsionalModel):
        a = jacobian_fem(plant, model, r, op)
    else:
        raise DomainError(f"unsupported plant type {type(plant).__name__}")
    return bool(eigenvalues_general(a).real.max() < -STABLE_TIE_TOL)


def _rightmost(plant, c: np.ndarray) -> np.ndarray:
    """Rightmost eigenvalue real part at each bit damping in ``c`` (N m s/rad);
    the 1-DOF plant solves its quadratic (trace/determinant) in closed form."""
    if isinstance(plant, LumpedDrillString):
        tau = -2.0 * plant.omega_n * plant.xi - c / plant.i_eq
        disc = tau * tau - 4.0 * plant.omega_n ** 2
        return np.where(disc < 0, 0.5 * tau,
                        0.5 * (tau + np.sqrt(np.maximum(disc, 0.0))))
    if isinstance(plant, FemTorsionalModel):
        return eigenvalues_general(state_matrix(plant, c)).real.max(axis=-1)
    raise DomainError(f"unsupported plant type {type(plant).__name__}")


def _stable(plant, c) -> np.ndarray:
    return _rightmost(plant, np.atleast_1d(c)) < -STABLE_TIE_TOL


def classify_trace(model: BitRockModel, plant: LumpedDrillString,
                   op: OperatingPoint, w_ref: float) -> bool:
    """Independent 1-DOF route: rightmost eigenvalue from the closed-form
    quadratic, same tie rule as ``classify``."""
    r = WobRatio(op.wob, w_ref)
    d_nm = KNM_TO_NM * torque_derivative(model, r, op.omega)
    return bool(_stable(plant, d_nm)[0])


# a huge plant input overflows to inf or NaN, which the guard scan rejects
@np.errstate(over="ignore", invalid="ignore")
def critical_damping(plant) -> float:
    """Critical bit damping c* (N m s/rad): a point is stable exactly when
    its bit damping c = 1000 r T'(Omega) exceeds c*.

    Closed form -c_eq + 2 STABLE_TIE_TOL i_eq for the 1-DOF plant (ties
    stay unstable, as in ``classify``); FE plants bisect the rightmost
    eigenvalue to adjacent floats. Raises NumericError unless the guard
    scan finds the stable set to be c > c*; maps stay inside its span.
    """
    if isinstance(plant, LumpedDrillString):
        c_star = -plant.c_eq + 2.0 * STABLE_TIE_TOL * plant.i_eq
    else:
        # doubling lo ends, as the state matrix's trace grows without bound
        # as c -> -inf; a plant no c up to 1e12 stabilizes fails the guard
        lo, hi = -1.0, 1.0
        while _stable(plant, lo)[0]:
            lo *= 2.0
        while hi < 1e12 and not _stable(plant, hi)[0]:
            hi *= 2.0
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (lo, mid) if _stable(plant, mid)[0] else (mid, hi)
        c_star = lo
    scale = max(1.0, abs(c_star))
    offsets = np.geomspace(1e-6 * scale, _GUARD_SPAN * scale, _GUARD_POINTS)
    if _stable(plant, c_star - offsets).any() \
            or not _stable(plant, c_star + offsets).all():
        raise NumericError(
            f"the stable set in bit damping is not the half-line c > {c_star!r}"
            "; threshold maps do not apply")
    return c_star


def _axes(omega_range, wob_range, resolution, w_ref):
    """Grid axes; a ``None`` end of ``wob_range`` takes its default."""
    wob_range = tuple(f * w_ref if v is None else v
                      for v, f in zip(wob_range, DEFAULT_WOB_FRACTIONS))
    n_om, n_w = resolution
    if n_om < 2 or n_w < 2:
        raise DomainError("resolution must be at least 2 per axis")
    if not (0 < omega_range[0] < omega_range[1] < math.inf):
        raise DomainError(f"bad omega range {omega_range}")
    if not (0 < wob_range[0] < wob_range[1] < math.inf):
        raise DomainError(f"bad wob range {wob_range}")
    return (np.linspace(omega_range[0], omega_range[1], n_om),
            np.linspace(wob_range[0], wob_range[1], n_w))


def _shares(thresholds, u) -> np.ndarray:
    """Share of each row of sorted ``thresholds`` at or below each u."""
    return np.array([np.searchsorted(t, u, side="right")
                     for t in thresholds]) / thresholds.shape[1]


def _probability(weights, shares) -> np.ndarray:
    """Instability probability: the weighted sum of the components' shares."""
    return sum(w * s for w, s in zip(weights, shares))


# overflowing slopes reach the span check as inf or NaN
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _threshold_map(components, weights, plant, w_ref, omega_axis, wob_axis,
                   percentile, c_star):
    """Shared body of every map, worked on blocks of Omega columns.

    ``components`` is a list of (kind, phis) (joint sign constraints need
    not hold). A particle with slope s = 1000 T'(Omega) is unstable where
    s r <= c*: with sign that of -c*, at and above u* = sign c*/s in
    u = sign r (u* = sign inf where sign s >= 0).

    A block holds _BLOCK_CELLS // (largest particle count) columns, at
    least one: each component's slopes over a block are one
    ``torque_derivative_batch`` call, and no table outgrows a block.

    A share counts thresholds at or below u with weights >= 0, and IEEE
    rounding is monotone, so each row is monotone in u: it crosses the
    percentile at most once, and its two ends decide whether it does.
    """
    if not 0 <= percentile <= 1:
        raise DomainError(f"percentile must lie in [0, 1], got {percentile}")
    if any(len(phis) == 0 for _, phis in components):
        raise InsufficientSamplesError("every mapped model needs a particle")
    if c_star is None:
        c_star = critical_damping(plant)
    sign = 1.0 if c_star < 0 else -1.0
    u_axis = sign * wob_axis / w_ref
    n_om = len(omega_axis)
    step = max(1, _BLOCK_CELLS // max(len(phis) for _, phis in components))
    p = np.empty((n_om, len(wob_axis)))
    wob_star = np.full(n_om, np.nan)
    flips = np.zeros((len(components), n_om), dtype=bool)
    s_abs = 0.0
    for start in range(0, n_om, step):
        block = slice(start, start + step)
        # (column, particle) slopes and sorted thresholds of each component
        slopes = [KNM_TO_NM * torque_derivative_batch(
            kind, phis, 1.0, omega_axis[block]).T for kind, phis in components]
        # np.max, unlike max, keeps a NaN slope for the span check
        s_abs = np.max([s_abs, *(np.abs(s).max() for s in slopes)])
        thresholds = [np.sort(np.where(sign * s < 0, sign * c_star / s,
                                       sign * np.inf)) for s in slopes]
        shares = [_shares(t, u_axis) for t in thresholds]
        flips[:, block] = [(s[:, 0] < percentile) != (s[:, -1] < percentile)
                           for s in shares]
        p[block] = _probability(weights, shares)
        change = np.diff(p[block] < percentile, axis=1)
        for k in np.flatnonzero(change.any(axis=1)):
            # the first pooled threshold in the flipping cell pair at
            # which the probability reaches the percentile
            j = np.argmax(change[k])
            lo, hi = sorted(u_axis[j:j + 2])
            pooled = np.concatenate([t[k] for t in thresholds])
            cand = np.sort(pooled[(pooled > lo) & (pooled <= hi)])
            at_cand = _probability(weights, [_shares(t[k:k + 1], cand)
                                             for t in thresholds])[0]
            hit = np.argmax(at_cand >= percentile)
            wob_star[start + k] = sign * cand[hit] * w_ref
    span = _GUARD_SPAN * max(1.0, abs(c_star))
    # written so that a NaN slope fails the test
    if not abs(c_star) + s_abs * wob_axis[-1] / w_ref <= span:
        raise NumericError("the map evaluates bit dampings that are not finite"
                           f" or lie beyond c* +- {span!r}, the span the "
                           "half-line guard scanned")
    # a mixture boundary only spans the columns between the first and last
    # flip of every component's own field (all columns of one component)
    inside = (np.maximum.accumulate(flips, axis=1)
              & np.maximum.accumulate(flips[:, ::-1], axis=1)[:, ::-1])
    keep = inside.all(axis=0) & ~np.isnan(wob_star)
    return p, BoundaryCurve(np.column_stack([omega_axis[keep], wob_star[keep]]))


def map_deterministic(model: BitRockModel, plant, w_ref: float,
                      omega_range=DEFAULT_OMEGA_RANGE, wob_range=(None, None),
                      resolution=DEFAULT_RESOLUTION, c_star=None
                      ) -> tuple[StabilityGrid, BoundaryCurve]:
    """Classify a dense grid for one parameter vector and extract the
    boundary W*(Omega) = W_ref c* / (1000 T'(Omega)). This is the mixture
    map of that one particle at percentile 1 (its share is 0 or 1), without
    the probability field; the keywords are those of ``map_mixture``."""
    grid, curve = map_mixture([(model.kind, [model.params])], [1.0], plant,
                              w_ref, omega_range, wob_range, resolution, 1.0,
                              c_star)
    return replace(grid, p_unstable=None), curve


def map_stochastic(kind: int, phis: np.ndarray, plant, w_ref: float,
                   omega_range=DEFAULT_OMEGA_RANGE, wob_range=(None, None),
                   resolution=DEFAULT_RESOLUTION, percentile: float = 0.02,
                   c_star=None) -> tuple[StabilityGrid, BoundaryCurve]:
    """Instability-probability field over a nonempty posterior particle set
    plus the contour where the probability crosses ``percentile``: the
    mixture map of that one component."""
    return map_mixture([(kind, phis)], [1.0], plant, w_ref, omega_range,
                       wob_range, resolution, percentile, c_star)


def map_mixture(components, weights, plant, w_ref: float,
                omega_range=DEFAULT_OMEGA_RANGE, wob_range=(None, None),
                resolution=DEFAULT_RESOLUTION, percentile: float = 0.02,
                c_star=None) -> tuple[StabilityGrid, BoundaryCurve]:
    """Weighted mixture of per-model stochastic maps.

    ``components`` is a sequence of (kind, phis); ``weights`` must be
    nonnegative and sum to 1. The mixture boundary is truncated to the
    Omega columns where every component's own percentile contour exists
    (beyond that the mixture carries no information about the missing
    component). Each ``None`` end of ``wob_range`` defaults to
    DEFAULT_WOB_FRACTIONS times ``w_ref``; ``c_star`` takes a precomputed
    ``critical_damping(plant)``.
    """
    weights = np.asarray(weights, dtype=float)
    if len(weights) != len(components):
        raise DomainError("one weight per component required")
    # written so that NaN and inf fail the test
    if not ((weights >= 0).all() and abs(weights.sum() - 1.0) <= 1e-12):
        raise DomainError("weights must be nonnegative and sum to 1")
    omega_axis, wob_axis = _axes(omega_range, wob_range, resolution, w_ref)
    p, curve = _threshold_map(components, weights, plant, w_ref,
                              omega_axis, wob_axis, percentile, c_star)
    grid = StabilityGrid(omega_axis=omega_axis, wob_axis=wob_axis,
                         stable=p < percentile, p_unstable=p)
    return grid, curve


def boundary_separation(a: BoundaryCurve, b: BoundaryCurve,
                        cell_sizes: tuple[float, float]) -> float:
    """Worst-case distance between two boundary curves, in grid cells.

    Curves are split into their ``BoundaryCurve.pieces``.
    Each piece's interior points are measured against the other curve's
    full polylines; piece end points are skipped because they carry
    window-clipping truncation, not boundary information. Points outside
    the Omega overlap of the two curves are skipped for the same reason.
    Returns the symmetric maximum of the point-to-polyline distances in
    cell-normalized coordinates (inf if either curve is empty).
    """
    if len(a) == 0 or len(b) == 0:
        return math.inf
    cell = np.asarray(cell_sizes, dtype=float)
    lo = max(a.points[:, 0].min(), b.points[:, 0].min())
    hi = min(a.points[:, 0].max(), b.points[:, 0].max())

    def point_to_polyline(p, qs):
        best = math.inf
        for q in qs:
            if len(q) == 1:
                best = min(best, float(np.linalg.norm(p - q[0])))
                continue
            seg = q[1:] - q[:-1]
            rel = p[None, :] - q[:-1]
            denom = np.einsum("ij,ij->i", seg, seg)
            with np.errstate(invalid="ignore", divide="ignore"):
                t = np.einsum("ij,ij->i", rel, seg) / denom
            t = np.clip(np.where(denom > 0, t, 0.0), 0.0, 1.0)
            d = np.linalg.norm(rel - t[:, None] * seg, axis=1)
            best = min(best, float(d.min()))
        return best

    def one_way(ps, qs):
        worst = 0.0
        for piece in ps:
            interior = piece[1:-1] if len(piece) > 2 else piece[:0]
            for p in interior:
                if not (lo / cell[0] <= p[0] <= hi / cell[0]):
                    continue
                worst = max(worst, point_to_polyline(p, qs))
        return worst

    pa, pb = ([piece / cell for piece in c.pieces(cell[0])] for c in (a, b))
    return max(one_way(pa, pb), one_way(pb, pa))


def grid_to_csv(grid: StabilityGrid, path, w_ref: float) -> Path:
    """Cell-center export: omega (rad/s and RPM), W (kN and r), value(s)."""
    n_om, n_w = grid.stable.shape
    header = ["omega_rad_s", "omega_rpm", "wob_kn", "r", "stable"]
    columns = [np.repeat(grid.omega_axis, n_w),
               np.repeat(grid.omega_axis * RAD_S_TO_RPM, n_w),
               np.tile(grid.wob_axis, n_om), np.tile(grid.wob_axis / w_ref, n_om),
               grid.stable.astype(int).ravel()]
    if grid.p_unstable is not None:
        header.append("p_unstable")
        columns.append(grid.p_unstable.ravel())
    return write_table(path, header, columns)


def boundary_to_csv(curve: BoundaryCurve, path, w_ref: float) -> Path:
    om, w = curve.points.T
    return write_table(path, ["omega_rad_s", "omega_rpm", "wob_kn", "r"],
                       [om, om * RAD_S_TO_RPM, w, w / w_ref])
