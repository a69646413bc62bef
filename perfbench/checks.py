"""Correctness checks of the package's outputs against the oracle.

Each check reads what a CLI stage wrote and compares it with a computation
of the oracle, or with a property the method must have. A failed check
raises ``CheckFailed`` with the first discrepancies it found.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import oracle


class CheckFailed(Exception):
    pass


def _require(problems: list[str], what: str) -> None:
    if problems:
        raise CheckFailed(f"{what}: {len(problems)} problem(s): {problems[:3]}")


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def bracket_half_width(resolution: int, refine: int = 10) -> float:
    """Half width (kN) of the W bracket a boundary point was bisected to."""
    cell = (3.0 - 0.2) * oracle.W_REF_KN / (resolution - 1)
    return cell / 2 ** (refine + 1)


# ------------------------------------------------------------- fit stage

def fit_report(report_path, speeds, torques, generator) -> dict[int, np.ndarray]:
    """Reported rho equals the oracle's rho at the reported parameters, and
    the m3 fit is no worse than the generating parameters. Returns the
    fitted parameter vectors."""
    report = json.loads(Path(report_path).read_text())
    problems, fitted = [], {}
    for kind in (1, 2, 3, 4):
        entry = report[f"m{kind}"]
        phi = np.array([float(v) for v in entry["params"]])
        fitted[kind] = phi
        want = float(oracle.rho(kind, phi, speeds, torques)[0])
        if not _close(float(entry["metric"]), want, 1e-9):
            problems.append(f"m{kind} rho {entry['metric']} vs oracle {want!r}")
    at_generator = float(oracle.rho(3, generator, speeds, torques)[0])
    if not float(report["m3"]["metric"]) <= at_generator * (1 + 1e-12):
        problems.append(f"m3 rho {report['m3']['metric']} above the generator's "
                        f"{at_generator!r}")
    _require(problems, "fit report")
    return fitted


# -------------------------------------------------------------- ABC stage

def abc_bundle(directory, speeds, torques, centers, delta: float, n: int,
               rng, eps_floor=None, sample: int = 300) -> dict:
    """Invariants of an ABC state bundle.

    Every population has n rows with NaN padding past each law's parameter
    count; tolerances start at inf, strictly decrease and each is the median
    of the previous population's distances; every distance is below its
    tolerance and a sample matches the oracle; every particle lies in the
    prior box around ``centers``; with ``eps_floor`` the schedule ends at or
    below it. Returns the bundle as read.
    """
    bundle = oracle.read_bundle(directory)
    tol = bundle["tolerances"]
    problems = []
    if not tol or tol[0] != math.inf:
        problems.append(f"first tolerance {tol[:1]} is not inf")
    for g, (kinds, phis, dists) in enumerate(bundle["populations"], start=1):
        if len(kinds) != n:
            problems.append(f"population {g} has {len(kinds)} rows, not {n}")
        if g > 1:
            prev = bundle["populations"][g - 2][2]
            if not tol[g - 1] < tol[g - 2]:
                problems.append(f"tolerance {g} does not decrease")
            if tol[g - 1] != float(np.median(prev)):
                problems.append(f"tolerance {g} is not the previous median")
        if not (dists < tol[g - 1]).all():
            problems.append(f"population {g} has distances >= {tol[g - 1]!r}")
        for kind in (1, 2, 3, 4):
            rows = phis[kinds == kind]
            p = oracle.PARAM_COUNTS[kind]
            if not (np.isfinite(rows[:, :p]).all() and np.isnan(rows[:, p:]).all()):
                problems.append(f"population {g} m{kind} padding is wrong")
                continue
            lo, hi = oracle.prior_box(centers[kind], delta)
            slack = 1e-12 * np.maximum(abs(lo), abs(hi))
            if not ((rows[:, :p] >= lo - slack) & (rows[:, :p] <= hi + slack)).all():
                problems.append(f"population {g} m{kind} leaves the prior box")
        if set(np.unique(kinds)) - {1, 2, 3, 4}:
            problems.append(f"population {g} has unknown model tags")
        picks = rng.choice(len(kinds), size=min(sample, len(kinds)), replace=False)
        for i in picks:
            kind = int(kinds[i])
            want = float(oracle.rho(kind, phis[i], speeds, torques)[0])
            if not _close(float(dists[i]), want, 1e-9):
                problems.append(f"population {g} row {i} distance {dists[i]!r} "
                                f"vs oracle {want!r}")
                break
    if eps_floor is not None and not tol[-1] <= eps_floor:
        problems.append(f"final tolerance {tol[-1]!r} above eps_floor {eps_floor}")
    _require(problems, f"ABC bundle {Path(directory).name}")
    return bundle


def prior_centers_match(bundle: dict, fitted: dict[int, np.ndarray]) -> None:
    """The bundle's prior boxes are centred on the fit report's estimates."""
    problems = [f"m{k}" for k in (1, 2, 3, 4)
                if not np.array_equal(
                    [float(v) for v in bundle["manifest"]["priors"][str(k)]["center"]],
                    fitted[k])]
    _require(problems, "prior centres differ from the fit report")


def probability_evolution(path, bundle: dict) -> None:
    """Each listed probability is the tag count of its population over n."""
    header, rows = oracle.read_table(path)
    problems = []
    if len(rows) != len(bundle["populations"]):
        problems.append(f"{len(rows)} rows for {len(bundle['populations'])} populations")
    for row, (kinds, _, _) in zip(rows, bundle["populations"]):
        for j, kind in enumerate((1, 2, 3, 4)):
            want = int((kinds == kind).sum()) / len(kinds)
            if row[3 + j] != want:
                problems.append(f"population {int(row[0])} p_m{kind} {row[3 + j]!r} "
                                f"vs {want!r}")
    _require(problems, "probability evolution")


def same_bytes(dir_a, dir_b) -> None:
    """Two bundles hold the same files with the same bytes."""
    a, b = Path(dir_a), Path(dir_b)
    names = sorted(p.name for p in a.iterdir())
    problems = [] if names == sorted(p.name for p in b.iterdir()) else ["file sets"]
    problems += [name for name in names
                 if (b / name).exists()
                 and (a / name).read_bytes() != (b / name).read_bytes()]
    _require(problems, "serial and parallel bundles differ")


# ---------------------------------------------------------- 1-DOF maps

def boundary(path) -> np.ndarray:
    _, rows = oracle.read_table(path)
    return rows[:, [0, 2]] if len(rows) else np.empty((0, 2))


def deterministic_1dof(out_dir, params: dict, resolution: int) -> None:
    """m2/m4 boundaries match their closed forms; m1/m3 boundary points
    straddle the oracle's stability change."""
    out_dir = Path(out_dir)
    h = bracket_half_width(resolution) * (1 + 1e-6)
    problems = []
    for kind, closed in ((2, oracle.m2_boundary_wob), (4, oracle.m4_boundary_wob)):
        pts = boundary(out_dir / f"map_m{kind}_boundary.csv")
        if len(pts) < 3:
            problems.append(f"m{kind}: only {len(pts)} boundary points")
        for om, w in pts:
            want = closed(params[kind], om)
            if not abs(w - want) <= 1e-3 * want:
                problems.append(f"m{kind} at {om:.4f}: {w!r} vs {want!r}")
    for kind in (1, 3):
        pts = boundary(out_dir / f"map_m{kind}_boundary.csv")
        if len(pts) < 3:
            problems.append(f"m{kind}: only {len(pts)} boundary points")
        for om, w in pts:
            lo, hi = oracle.unstable_1dof(kind, params[kind], om, [w - h, w + h])[0]
            if lo == hi:
                problems.append(f"m{kind} at ({om:.4f}, {w:.4f}) no flip")
    _require(problems, "1-DOF deterministic boundaries")


def stochastic_1dof(grid_path, kind: int, phis: np.ndarray) -> None:
    """p_unstable equals the oracle's particle fraction in every cell away
    from ties; at most 1% of cells may be set aside as ties."""
    _, rows = oracle.read_table(grid_path)
    problems, ties = [], 0
    for om in np.unique(rows[:, 0]):
        cells = rows[rows[:, 0] == om]
        frac, tie = oracle.fraction_1dof(kind, phis, om, cells[:, 2])
        ties += int(tie.sum())
        bad = (cells[:, 5] != frac) & ~tie
        problems += [f"({om:.4f}, {w:.4f}) p={p:.17g} vs {f:.17g}"
                     for w, p, f in zip(cells[bad, 2], cells[bad, 5], frac[bad])]
    if ties > 0.01 * len(rows):
        problems.append(f"{ties} of {len(rows)} cells are ties")
    _require(problems, f"m{kind} stochastic field")


def mixture_1dof(out_dir, components, weights, percentile: float,
                 resolution: int) -> None:
    """The mixture field is the weighted sum of the component fields, and
    each mixture boundary point lies between the component percentile
    boundaries of its column."""
    out_dir = Path(out_dir)
    _, rows = oracle.read_table(out_dir / "map_mixture_grid.csv")
    h = bracket_half_width(resolution) * (1 + 1e-6)
    problems = []
    for om in np.unique(rows[:, 0]):
        cells = rows[rows[:, 0] == om]
        want = np.zeros(len(cells))
        tie = np.zeros(len(cells), dtype=bool)
        for (kind, phis), wgt in zip(components, weights):
            frac, t = oracle.fraction_1dof(kind, phis, om, cells[:, 2])
            want += wgt * frac
            tie |= t
        bad = ~tie & (abs(cells[:, 5] - want) > 1e-12)
        problems += [f"({om:.4f}, {w:.4f}) p={p:.17g} vs {f:.17g}"
                     for w, p, f in zip(cells[bad, 2], cells[bad, 5], want[bad])]
    pts = boundary(out_dir / "map_mixture_boundary.csv")
    if len(pts) < 3:
        problems.append(f"only {len(pts)} mixture boundary points")
    for om, w in pts:
        comp = [oracle.percentile_wob(kind, phis, om, percentile)
                for kind, phis in components]
        if not min(comp) - h <= w <= max(comp) + h:
            problems.append(f"mixture at {om:.4f}: {w!r} outside {comp}")
    _require(problems, "mixture map")


# ------------------------------------------------------------- FE maps

def fem_modes(path) -> None:
    """10-DOF natural frequencies within 2% of the published table."""
    _, rows = oracle.read_table(path)
    problems = [f"mode {i + 1}: {w!r} vs {q}"
                for i, (w, q) in enumerate(zip(rows[:, 1], oracle.PUBLISHED_10DOF_OMEGAS))
                if not abs(w - q) <= 0.02 * q]
    if len(rows) != len(oracle.PUBLISHED_10DOF_OMEGAS):
        problems.append(f"{len(rows)} modes")
    _require(problems, "10-DOF modal frequencies")


def deterministic_fem(out_dir, plant: oracle.FePlant, params: dict,
                      resolution: int, rng, sample: int = 6) -> None:
    """At sampled boundary points of each law, the oracle's rightmost
    eigenvalue changes stability across the bisection bracket."""
    out_dir = Path(out_dir)
    h = bracket_half_width(resolution) * (1 + 1e-6)
    problems, checked = [], 0
    for kind in (1, 2, 3, 4):
        pts = boundary(out_dir / f"map_m{kind}_boundary.csv")
        if len(pts) < 3:
            problems.append(f"m{kind}: only {len(pts)} boundary points")
            continue
        for i in rng.choice(len(pts), size=min(sample, len(pts)), replace=False):
            om, w = pts[i]
            d = [plant.bit_damping(kind, params[kind], om, x)[0] for x in (w - h, w + h)]
            mu = plant.rightmost(d)
            if (abs(mu) < oracle.EIG_TIE).any():
                continue
            checked += 1
            if (mu[0] < -oracle.STABLE_TIE) == (mu[1] < -oracle.STABLE_TIE):
                problems.append(f"m{kind} at ({om:.4f}, {w:.4f}): no flip, {mu}")
    if checked < 2 * sample:     # half of the points sampled over four laws
        problems.append(f"only {checked} boundary points away from ties")
    _require(problems, "FE deterministic boundaries")


def fem_fraction(plant: oracle.FePlant, kind: int, phis: np.ndarray,
                 om: float, w: float) -> tuple[float, bool]:
    """Unstable particle fraction at one cell, and whether any is a tie."""
    mu = plant.rightmost(plant.bit_damping(kind, phis, om, w))
    return float((mu >= -oracle.STABLE_TIE).mean()), bool((abs(mu) < oracle.EIG_TIE).any())


def fem_field(grid_path, plant: oracle.FePlant, components, weights, rng,
              sample: int = 3) -> None:
    """At sampled cells, p_unstable equals the weighted per-particle eigen
    fraction of the oracle (one component for a stochastic map)."""
    _, rows = oracle.read_table(grid_path)
    problems, checked = [], 0
    for i in rng.choice(len(rows), size=min(sample, len(rows)), replace=False):
        om, w, p = rows[i, 0], rows[i, 2], rows[i, 5]
        parts = [fem_fraction(plant, kind, phis, om, w) for kind, phis in components]
        if any(tie for _, tie in parts):
            continue
        checked += 1
        want = sum(wgt * f for wgt, (f, _) in zip(weights, parts))
        if abs(p - want) > 1e-12:
            problems.append(f"({om:.4f}, {w:.4f}) p={p:.17g} vs {want:.17g}")
    if checked == 0:
        problems.append("every sampled cell is a tie")
    _require(problems, f"FE field {Path(grid_path).name}")


# ------------------------------------------------------------ simulation

def decays(speeds: np.ndarray, omega: float) -> None:
    dev = np.abs(speeds - omega)
    if not dev[-1] < dev[0] / 10.0:
        raise CheckFailed(f"stable point at {omega:.4f} kept deviation "
                          f"{dev[-1]:.3g} from {dev[0]:.3g}")


def stick_slips(speeds: np.ndarray, omega: float) -> None:
    if not (speeds.min() == 0.0 and speeds.max() > 1.02 * omega):
        raise CheckFailed(f"unstable point at {omega:.4f}: speed range "
                          f"[{speeds.min():.3g}, {speeds.max():.3g}]")
