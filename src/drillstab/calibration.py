"""Deterministic least-squares calibration of the torque laws.

The misfit is the relative quadratic metric

    rho(phi) = ||y - A(phi)||^2 / ||y||^2

over the calibration subset of a dataset, written once (``_misfit``):
``metric`` scores a model with it, and ``fit`` minimizes it with
Nelder-Mead under box bounds derived from each law's sign constraints
(parameter combinations that violate a law's invariants score +inf, which
keeps the simplex inside the valid region).

The minimizer is a float-list port of scipy's bounded adaptive
Nelder-Mead (scipy 1.17 ``_minimize_neldermead``) that reproduces it bit
for bit, so the package runs on numpy alone; the tests keep scipy as the
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitrock import (BitRockModel, PARAM_COUNTS, SIGN_CONSTRAINTS, TORQUE_LAWS,
                      as_ratio, signs_hold, validate_params)
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


def _misfit(dataset: TorqueDataset, kind: int, r):
    """rho(p) of law ``kind`` over the calibration samples of ``dataset``,
    +inf where p breaks the law's sign constraints."""
    dataset.require_calibration()
    # a TorqueDataset holds only finite speeds >= 0, so the law runs
    # without torque()'s speed checks
    speeds, y = dataset.calibration_speeds, dataset.calibration_torques
    law, rv, ynorm = TORQUE_LAWS[kind], as_ratio(r), float(np.dot(y, y))

    def rho(p) -> float:
        if not signs_hold(kind, p):
            return math.inf
        resid = y - law(rv, p, speeds, np)
        return float(np.dot(resid, resid) / ynorm)

    return rho


def metric(dataset: TorqueDataset, model: BitRockModel, r) -> float:
    """Relative squared misfit of a model over the calibration samples."""
    return _misfit(dataset, model.kind, r)(model.params)


class _EvalCapReached(Exception):
    """The evaluation budget of _nelder_mead is spent."""


def _clip(x: list, lo: list, hi: list) -> list:
    """np.clip on floats: NaN passes through and a bound wins a tie, so
    -0.0 against a 0.0 lower bound becomes 0.0."""
    return [a if v <= a else b if v >= b else v for v, a, b in zip(x, lo, hi)]


def _order(sim: list, fsim: list) -> tuple[list, list]:
    # np.argsort, not sorted(): ties (several +inf vertices) and NaN must
    # land where scipy puts them
    ind = np.argsort(fsim).tolist()
    return [sim[i] for i in ind], [fsim[i] for i in ind]


def _nelder_mead(fun, x0: list, lo: list, hi: list, max_evals: int,
                 xatol: float, fatol: float) -> tuple[list, float, int, bool]:
    """Bounded adaptive Nelder-Mead on float lists.

    Step for step scipy's ``minimize(method="Nelder-Mead", adaptive=True,
    bounds=...)`` with ``maxfev=max_evals``, each float operation in the
    same order, so both return the same bits. Returns (x, fun, nfev,
    success); fun is NaN when any vertex scores NaN.
    """
    n = len(x0)
    chi, psi, sigma = 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= max_evals:
            raise _EvalCapReached
        nfev += 1
        return fun(x)

    def along(c):
        # xbar + c (xbar - worst) as scipy writes it: reflection c = 1,
        # expansion chi, outside contraction psi, inside contraction -psi
        # (exact: 1 + -psi is 1 - psi, and a - (-b) is a + b)
        return _clip([(1 + c) * a - c * w for a, w in zip(xbar, sim[-1])], lo, hi)

    x0 = _clip(x0, lo, hi)
    sim = [x0] + [x0[:k] + [(1 + 0.05) * v if v != 0 else 0.00025] + x0[k + 1:]
                  for k, v in enumerate(x0)]
    # a vertex pushed past an upper bound is reflected back inside
    sim = [_clip([2 * b - v if v > b else v for v, b in zip(x, hi)], lo, hi)
           for x in sim]
    fsim = [math.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _EvalCapReached:
        pass
    sim, fsim = _order(*_order(sim, fsim))      # scipy sorts twice

    while nfev < max_evals:
        try:
            if (all(abs(v - v0) <= xatol for x in sim[1:]
                    for v, v0 in zip(x, sim[0]))
                    and all(abs(fsim[0] - fv) <= fatol for fv in fsim[1:])):
                break
            xbar = sim[0]
            for x in sim[1:-1]:
                xbar = [a + v for a, v in zip(xbar, x)]
            xbar = [a / n for a in xbar]
            xr = along(1)
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = along(chi)
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                outside = fxr < fsim[-1]
                xc = along(psi if outside else -psi)
                fxc = f(xc)
                if fxc <= fxr if outside else fxc < fsim[-1]:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        # a cap reached here leaves fsim[j] stale, as in scipy
                        sim[j] = _clip([a + sigma * (v - a)
                                        for a, v in zip(sim[0], sim[j])], lo, hi)
                        fsim[j] = f(sim[j])
        except _EvalCapReached:
            pass
        sim, fsim = _order(sim, fsim)
    fval = math.nan if any(math.isnan(v) for v in fsim) else fsim[0]
    return sim[0], fval, nfev, nfev < max_evals


# a start or vertex whose misfit overflows scores inf or NaN, which the search
# handles; entered once per fit, not per objective call
@np.errstate(over="ignore", invalid="ignore")
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
    objective = _misfit(dataset, kind, r)
    if n_starts < 1:
        raise DomainError("n_starts must be >= 1")
    # the start draws span 2 jitter; written so that NaN fails the test
    if not 0 <= 2.0 * jitter < math.inf:
        raise DomainError(f"jitter must be >= 0 with 2 * jitter finite, got {jitter}")
    lo, hi = (list(b) for b in zip(*default_bounds(kind)))
    x0 = _clip(list(validate_params(kind, initial)), lo, hi)
    best_x, best_f, total_nfev, converged = x0, objective(x0), 0, True
    if not best_f < math.inf:
        raise NumericError(f"the misfit is {best_f} at the initial point")
    rng = np.random.default_rng(seed)
    starts = [x0]
    for _ in range(n_starts - 1):
        scale = rng.uniform(1.0 - jitter, 1.0 + jitter, size=len(x0)).tolist()
        cand = _clip([v * u for v, u in zip(x0, scale)], lo, hi)
        # off the invariants, or where the misfit overflows, start at x0
        starts.append(cand if objective(cand) < math.inf else x0)

    for start in starts:
        x, fx, nfev, success = _nelder_mead(objective, start, lo, hi, max_evals,
                                            xatol=1e-10, fatol=1e-14)
        total_nfev += nfev
        if fx < best_f:
            best_x, best_f = x, fx
        converged = converged and success

    return FitResult(model=BitRockModel(kind=kind, params=tuple(best_x)),
                     metric_value=best_f, iterations=total_nfev,
                     converged=converged)


def fit_all(dataset: TorqueDataset, r, initials: dict[int, tuple], **kwargs
            ) -> dict[int, FitResult]:
    """Fit every law in ``initials``; returns kind -> FitResult."""
    return {kind: fit(dataset, kind, r, initial, **kwargs)
            for kind, initial in sorted(initials.items())}
