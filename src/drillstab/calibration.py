"""Deterministic least-squares calibration of the torque laws.

The misfit is the relative quadratic metric

    rho(phi) = ||y - A(phi)||^2 / ||y||^2

over the calibration subset of a dataset, minimized with Nelder-Mead
under box bounds derived from each law's sign constraints (parameter
combinations that violate a law's invariants score +inf, which keeps the
simplex inside the valid region).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .bitrock import (BitRockModel, PARAM_COUNTS, SIGN_CONSTRAINTS, params_valid,
                      torque_eval, validate_params)
from .dataio import TorqueDataset
from .errors import DataError, DomainError

_EPS_POSITIVE = 1e-12


@dataclass(frozen=True)
class FitResult:
    """Outcome of one least-squares minimization."""

    model: BitRockModel
    metric_value: float
    iterations: int
    converged: bool


def default_bounds(kind: int) -> list[tuple[float, float]]:
    """Lower/upper box bounds implied by the sign constraints of a law."""
    positive, descending = SIGN_CONSTRAINTS[kind]
    return [(_EPS_POSITIVE, np.inf) if j in positive
            else (0.0, np.inf) if j in descending
            else (-np.inf, np.inf) for j in range(PARAM_COUNTS[kind])]


def metric_arrays(kind: int, params, r, speeds: np.ndarray,
                  torques: np.ndarray) -> float:
    """rho for raw arrays; no invariant validation (optimizer path)."""
    resid = torques - torque_eval(kind, tuple(float(v) for v in params), r, speeds)
    ynorm = float(np.dot(torques, torques))
    return float(np.dot(resid, resid) / ynorm)


def metric(dataset: TorqueDataset, model: BitRockModel, r) -> float:
    """Relative squared misfit of a model over the calibration samples."""
    dataset.require_calibration()
    y = dataset.calibration_torques
    if not np.dot(y, y) > 0:
        raise DataError("calibration torques are all zero; metric undefined")
    return metric_arrays(model.kind, model.params, r,
                         dataset.calibration_speeds, y)


def _clip_to_bounds(x: np.ndarray, bounds) -> np.ndarray:
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    return np.clip(x, lo, hi)


def fit(dataset: TorqueDataset, kind: int, r, initial, bounds=None,
        max_evals: int = 50_000, n_starts: int = 1, jitter: float = 0.2,
        seed: int = 0) -> FitResult:
    """Fit one law to the calibration samples with Nelder-Mead.

    ``initial`` must satisfy the law's invariants. With ``n_starts > 1``
    the remaining starts jitter the initial point multiplicatively by
    U(1-jitter, 1+jitter) (deterministic under ``seed``) and the best
    vertex over all starts is returned. Hitting the evaluation cap yields
    ``converged=False`` with the best parameters found, not an exception.
    """
    dataset.require_calibration()
    y = dataset.calibration_torques
    if not np.dot(y, y) > 0:
        raise DataError("calibration torques are all zero; metric undefined")
    if n_starts < 1:
        raise DomainError("n_starts must be >= 1")
    x0 = np.array(validate_params(kind, initial), dtype=float)
    if bounds is None:
        bounds = default_bounds(kind)
    if len(bounds) != PARAM_COUNTS[kind]:
        raise DomainError(f"bounds must have {PARAM_COUNTS[kind]} entries")
    x0 = _clip_to_bounds(x0, bounds)
    if not params_valid(kind, x0):
        raise DomainError("initial point violates the model invariants")
    speeds = dataset.calibration_speeds

    def objective(x):
        if not params_valid(kind, x):
            return np.inf
        return metric_arrays(kind, x, r, speeds, y)

    rng = np.random.default_rng(seed)
    starts = [x0]
    for _ in range(n_starts - 1):
        cand = x0 * rng.uniform(1.0 - jitter, 1.0 + jitter, size=x0.shape)
        cand = _clip_to_bounds(cand, bounds)
        starts.append(cand if params_valid(kind, cand) else x0)

    best_x, best_f, total_nfev, converged = x0, objective(x0), 0, True
    sp_bounds = scipy.optimize.Bounds(
        np.array([b[0] for b in bounds]), np.array([b[1] for b in bounds]))
    for start in starts:
        res = scipy.optimize.minimize(
            objective, start, method="Nelder-Mead", bounds=sp_bounds,
            options=dict(maxfev=max_evals, xatol=1e-10, fatol=1e-14,
                         adaptive=True))
        total_nfev += res.nfev
        if res.fun < best_f:
            best_x, best_f = np.asarray(res.x), float(res.fun)
        converged = converged and bool(res.success)

    return FitResult(model=BitRockModel(kind=kind, params=tuple(best_x)),
                     metric_value=best_f, iterations=total_nfev,
                     converged=converged)


def fit_all(dataset: TorqueDataset, r, initials: dict[int, tuple], **kwargs
            ) -> dict[int, FitResult]:
    """Fit every law in ``initials``; returns kind -> FitResult."""
    return {kind: fit(dataset, kind, r, initial, **kwargs)
            for kind, initial in sorted(initials.items())}
