"""Independent oracle behind every correctness check of the benchmark.

Nothing here imports drillstab. The four torque laws and their slopes are
written out from the table in the top-level README, in a different algebraic
form than the package uses (sech^2 rather than tanh^2 - 1, the quotient rule
written out). The 1-DOF stability test is the trace condition in closed form,
and the FE test builds its own block state matrix from the plant's M, K and C
and calls ``numpy.linalg.eigvals``. The readers parse the package's CSV and
JSON outputs without going through its own parsers.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# README: reference weight on bit and the equivalent 1-DOF modal values
W_REF_KN = 244.2
I_EQ = 383.33
OMEGA_N = 0.85
XI = 0.25
C_EQ = 2.0 * XI * I_EQ * OMEGA_N        # 2 xi sqrt(I k) with k = I omega_n^2
KNM_TO_NM = 1000.0

PARAM_COUNTS = {1: 4, 2: 3, 3: 6, 4: 4}
MAX_PARAMS = 6

# a point counts as unstable when the rightmost eigenvalue is >= -STABLE_TIE
STABLE_TIE = 1e-10
# relative band around a 1-DOF threshold, and absolute band around a zero FE
# eigenvalue, inside which two implementations may round differently
R_TIE_REL = 1e-9
EIG_TIE = 1e-6

# published 10-DOF natural frequencies (rad/s), 8 drill-pipe + 2 BHA elements
PUBLISHED_10DOF_OMEGAS = (0.83, 2.66, 4.76, 7.11, 9.73, 12.62, 15.63, 18.23,
                          22.75, 45.00)


def _columns(kind: int, params) -> tuple[list[np.ndarray], np.ndarray]:
    p = np.atleast_2d(np.asarray(params, dtype=float))
    if p.shape[1] < PARAM_COUNTS[kind]:
        raise ValueError(f"m{kind} needs {PARAM_COUNTS[kind]} parameters")
    return [p[:, j:j + 1] for j in range(PARAM_COUNTS[kind])], p


def torque(kind: int, params, speeds) -> np.ndarray:
    """Torque at r = 1 in kN m, shape (particles, speeds)."""
    c, _ = _columns(kind, params)
    s = np.asarray(speeds, dtype=float).reshape(1, -1)
    if kind == 1:
        b0, b1, b2, b3 = c
        return b0 * np.tanh(b1 * s) + b0 * b2 * s / (1.0 + b3 * s ** 2)
    if kind == 2:
        t_sb, t_cb, g_b = c
        return t_cb + (t_sb - t_cb) * np.exp(-g_b * s)
    if kind == 3:
        a0, a1, a2, a3, a4, a5 = c
        return a3 + a0 * np.exp(-a1 * (s - a2) ** 2) - a4 * np.tanh(a5 * s)
    c0, c1, c2, c3 = c
    return c0 + c1 * s + c2 * s ** 2 + c3 * s ** 3


def slope(kind: int, params, speeds) -> np.ndarray:
    """d torque / d speed at r = 1 in kN m s/rad, shape (particles, speeds)."""
    c, _ = _columns(kind, params)
    s = np.asarray(speeds, dtype=float).reshape(1, -1)
    if kind == 1:
        b0, b1, b2, b3 = c
        q = 1.0 + b3 * s ** 2
        return b0 * b1 / np.cosh(b1 * s) ** 2 + b0 * b2 * (q - 2.0 * b3 * s ** 2) / q ** 2
    if kind == 2:
        t_sb, t_cb, g_b = c
        return -g_b * (t_sb - t_cb) * np.exp(-g_b * s)
    if kind == 3:
        a0, a1, a2, a3, a4, a5 = c
        return (-2.0 * a0 * a1 * (s - a2) * np.exp(-a1 * (s - a2) ** 2)
                - a4 * a5 / np.cosh(a5 * s) ** 2)
    c0, c1, c2, c3 = c
    return c1 + 2.0 * c2 * s + 3.0 * c3 * s ** 2


def rho(kind: int, params, speeds, torques) -> np.ndarray:
    """Relative squared misfit ||y - A||^2 / ||y||^2, one value per row."""
    y = np.asarray(torques, dtype=float)
    resid = torque(kind, params, speeds) - y[None, :]
    return (resid ** 2).sum(axis=1) / (y ** 2).sum()


# ------------------------------------------------------------ 1-DOF plant

def margin_1dof(kind: int, params, omega: float, wob) -> np.ndarray:
    """1000 r T'(Omega) + c_eq, shape (particles, len(wob)).

    The 1-DOF Jacobian has a positive determinant, so the point is unstable
    exactly when its trace is >= 0, i.e. when this margin is <= 0.
    """
    d1 = slope(kind, params, [omega])[:, 0]
    r = np.atleast_1d(np.asarray(wob, dtype=float)) / W_REF_KN
    return KNM_TO_NM * np.outer(d1, r) + C_EQ


def unstable_1dof(kind: int, params, omega: float, wob) -> np.ndarray:
    """Ties count as unstable, as in the package."""
    return margin_1dof(kind, params, omega, wob) <= 0.0


def rightmost_1dof(kind: int, params, omega: float, wob: float) -> float:
    """Rightmost eigenvalue real part of the 1-DOF Jacobian (one particle)."""
    d_nm = KNM_TO_NM * (wob / W_REF_KN) * float(slope(kind, params, [omega])[0, 0])
    tau = -2.0 * OMEGA_N * XI - d_nm / I_EQ
    disc = tau * tau - 4.0 * OMEGA_N ** 2
    return 0.5 * tau if disc < 0 else 0.5 * (tau + math.sqrt(disc))


def thresholds_1dof(kind: int, params, omega: float) -> np.ndarray:
    """Per-particle ratio r_i = W/W_ref at and above which the particle is
    unstable at this Omega (inf when its slope is not negative)."""
    d1 = KNM_TO_NM * slope(kind, params, [omega])[:, 0]
    with np.errstate(divide="ignore"):
        return np.where(d1 < 0, -C_EQ / np.where(d1 < 0, d1, -1.0), np.inf)


def fraction_1dof(kind: int, params, omega: float, wob
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Unstable particle fraction at each W, and a mask of the W values where
    some particle sits within the tie band of its threshold."""
    thr = np.sort(thresholds_1dof(kind, params, omega))
    r = np.atleast_1d(np.asarray(wob, dtype=float)) / W_REF_KN
    counts = np.searchsorted(thr, r, side="right")
    lo = np.searchsorted(thr, r * (1.0 - R_TIE_REL), side="left")
    hi = np.searchsorted(thr, r * (1.0 + R_TIE_REL), side="right")
    return counts / len(thr), hi > lo


def percentile_wob(kind: int, params, omega: float, percentile: float) -> float:
    """Smallest W at which the unstable fraction reaches ``percentile``."""
    thr = np.sort(thresholds_1dof(kind, params, omega))
    k = max(1, math.ceil(percentile * len(thr) - 1e-9))
    return float(thr[k - 1] * W_REF_KN)


def m2_boundary_wob(params, omega: float) -> float:
    """Closed-form m2 boundary W*(Omega) on the 1-DOF plant."""
    t_sb, t_cb, g_b = params
    return W_REF_KN * C_EQ * math.exp(g_b * omega) / (KNM_TO_NM * (t_sb - t_cb) * g_b)


def m4_boundary_wob(params, omega: float) -> float:
    """Closed-form m4 boundary; inf where the cubic's slope is not negative."""
    _, c1, c2, c3 = params
    d = c1 + 2.0 * c2 * omega + 3.0 * c3 * omega ** 2
    return math.inf if d >= 0 else W_REF_KN * C_EQ / (KNM_TO_NM * -d)


# --------------------------------------------------------------- FE plant

class FePlant:
    """Block state matrix [[0, I], [-M^-1 K, -M^-1 (C + d e_n e_n^T)]] of a
    torsional FE plant, with d the bit damping added by the torque slope."""

    def __init__(self, mass, stiffness, damping):
        m = np.asarray(mass, dtype=float)
        self.n = n = len(m)
        self.base = np.zeros((2 * n, 2 * n))
        self.base[:n, n:] = np.eye(n)
        self.base[n:, :n] = -np.linalg.solve(m, stiffness)
        self.base[n:, n:] = -np.linalg.solve(m, damping)
        self.bit_column = np.linalg.solve(m, np.eye(n)[:, -1])

    def rightmost(self, bit_damping) -> np.ndarray:
        """Rightmost eigenvalue real part for each bit damping (N m s/rad)."""
        d = np.atleast_1d(np.asarray(bit_damping, dtype=float))
        a = np.repeat(self.base[None], len(d), axis=0)
        a[:, self.n:, -1] -= d[:, None] * self.bit_column[None, :]
        return np.linalg.eigvals(a).real.max(axis=1)

    def bit_damping(self, kind: int, params, omega: float, wob: float) -> np.ndarray:
        return KNM_TO_NM * (wob / W_REF_KN) * slope(kind, params, [omega])[:, 0]


# ---------------------------------------------------------------- readers

def read_dataset(path) -> tuple[np.ndarray, np.ndarray]:
    """Calibration speeds and torques of a package dataset CSV."""
    speeds, torques = [], []
    header = None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        cells = line.split(",")
        if header is None:
            header = cells
            continue
        if len(cells) < 3 or cells[2] in ("", "calibration"):
            speeds.append(float(cells[0]))
            torques.append(float(cells[1]))
    return np.array(speeds), np.array(torques)


def read_table(path) -> tuple[list[str], np.ndarray]:
    """Header and float matrix of an all-numeric CSV."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    rows = [[float(c) for c in line.split(",")] for line in lines[1:] if line]
    return lines[0].split(","), np.array(rows).reshape(len(rows), -1)


def read_population(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(kinds, NaN-padded parameters, distances) of a population CSV."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()[1:]
    kinds = np.empty(len(lines), dtype=int)
    phis = np.full((len(lines), MAX_PARAMS), np.nan)
    dists = np.empty(len(lines))
    for i, line in enumerate(lines):
        cells = line.split(",")
        kinds[i] = int(cells[0])
        for j, c in enumerate(cells[1:1 + MAX_PARAMS]):
            if c:
                phis[i, j] = float(c)
        dists[i] = float(cells[-1])
    return kinds, phis, dists


def read_bundle(directory) -> dict:
    """An ABC state bundle as plain arrays plus its JSON manifest."""
    directory = Path(directory)
    manifest = json.loads((directory / "abc_state.json").read_text())
    pops = [read_population(directory / f"population_{g:02d}.csv")
            for g in range(1, len(manifest["tolerances"]) + 1)]
    return dict(manifest=manifest, populations=pops,
                tolerances=[float(t) for t in manifest["tolerances"]])


def prior_box(center, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Uniform box center*(1 -/+ delta), ordered so lo <= hi."""
    c = np.asarray(center, dtype=float)
    a, b = c * (1.0 - delta), c * (1.0 + delta)
    return np.minimum(a, b), np.maximum(a, b)
