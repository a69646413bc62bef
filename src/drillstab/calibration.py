"""Deterministic least-squares calibration of the torque laws.

The misfit is the relative quadratic metric

    rho(phi) = ||y - A(phi)||^2 / ||y||^2

over the calibration subset of a dataset, minimized with Nelder-Mead
under box bounds derived from each law's sign constraints (parameter
combinations that violate a law's invariants score +inf, which keeps the
simplex inside the valid region).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .bitrock import (BitRockModel, PARAM_COUNTS, SIGN_CONSTRAINTS, TORQUE_LAWS,
                      as_ratio, signs_hold, torque_eval, validate_params)
from .dataio import TorqueDataset
from .errors import DomainError, NumericError

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
    return metric_arrays(model.kind, model.params, r,
                         dataset.calibration_speeds, dataset.calibration_torques)


def fit(dataset: TorqueDataset, kind: int, r, initial,
        max_evals: int = 50_000, n_starts: int = 1, jitter: float = 0.2,
        seed: int = 0) -> FitResult:
    """Fit one law to the calibration samples with Nelder-Mead.

    ``initial`` must satisfy the law's invariants. With ``n_starts > 1``
    the remaining starts jitter the initial point multiplicatively by
    U(1-jitter, 1+jitter) (deterministic under ``seed``) and the best
    vertex over all starts is returned. Hitting the evaluation cap yields
    ``converged=False`` with the best parameters found, not an exception;
    a misfit that is not finite at ``initial`` raises NumericError.
    """
    dataset.require_calibration()
    if n_starts < 1:
        raise DomainError("n_starts must be >= 1")
    # the start draws span 2 jitter; written so that NaN fails the test
    if not 0 <= 2.0 * jitter < math.inf:
        raise DomainError(f"jitter must be >= 0 with 2 * jitter finite, got {jitter}")
    lo, hi = np.array(default_bounds(kind)).T
    x0 = np.clip(np.array(validate_params(kind, initial), dtype=float), lo, hi)
    if not signs_hold(kind, x0.tolist()):
        raise DomainError("initial point violates the model invariants")
    # bound once; a TorqueDataset holds only finite speeds >= 0, so the
    # objective runs the law without torque_eval's speed checks
    speeds, y = dataset.calibration_speeds, dataset.calibration_torques
    law, rv, ynorm = TORQUE_LAWS[kind], as_ratio(r), float(np.dot(y, y))

    def objective(x):
        p = x.tolist()
        if not signs_hold(kind, p):
            return np.inf
        resid = y - law(rv, p, speeds, np)
        return float(np.dot(resid, resid) / ynorm)

    best_x, best_f, total_nfev, converged = x0, objective(x0), 0, True
    if not best_f < math.inf:
        raise NumericError(f"the misfit is {best_f} at the initial point")
    rng = np.random.default_rng(seed)
    starts = [x0]
    for _ in range(n_starts - 1):
        cand = x0 * rng.uniform(1.0 - jitter, 1.0 + jitter, size=x0.shape)
        cand = np.clip(cand, lo, hi)
        # off the invariants, or where the misfit overflows, start at x0
        starts.append(cand if objective(cand) < math.inf else x0)

    for start in starts:
        res = scipy.optimize.minimize(
            objective, start, method="Nelder-Mead",
            bounds=scipy.optimize.Bounds(lo, hi),
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
