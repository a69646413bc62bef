"""Acceptance suite: one test per top-level criterion.

Each test prints an ``ACCEPTANCE <n> [PASS|FAIL]`` line (visible with
``pytest -s`` and in failure reports) and then asserts. Criterion 7 runs
at desk scale (populations of 5000 particles, thresholds 0.85/0.10) by
default; set DRILLSTAB_ABC_FULL=1 for the full 25000-particle run with
thresholds 0.90/0.05.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from drillstab import abc, cli
from drillstab.bitrock import (BitRockModel, MODEL_KINDS, WobRatio,
                               torque, torque_derivative)
from drillstab.calibration import fit, fit_all
from drillstab.dataio import synthesize
from drillstab.dynamics import (OperatingPoint, equilibrium_state,
                                simulate)
from drillstab.fem import assemble, modal_properties
from drillstab.reference import (REFERENCE_GEOMETRY, REFERENCE_PARAMS,
                                 W_REF_KN, reference_model)
from drillstab.stability import (boundary_separation, classify,
                                 map_deterministic, map_mixture,
                                 map_stochastic)

ABC_FULL = os.environ.get("DRILLSTAB_ABC_FULL") == "1"
ABC_N = 25_000 if ABC_FULL else 5_000
ABC_SELECTED_MIN = 0.90 if ABC_FULL else 0.85
ABC_REJECTED_MAX = 0.05 if ABC_FULL else 0.10


def report(num, name, passed, detail=""):
    print(f"\nACCEPTANCE {num} [{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def quoted_close(computed, quoted, rel=0.02, decimals=2):
    """Published values carry fixed decimal precision: allow the larger of
    the relative band and one unit in the last printed decimal."""
    return abs(computed - quoted) <= max(rel * abs(quoted), 10.0 ** -decimals)


@pytest.fixture(scope="module")
def pipeline_runs():
    """Synthetic pipeline for criteria 7 and 8: per seed, fit all four laws
    to noisy M3 data, build delta=0.4 priors, run the rejection sampler."""
    runs = []
    generator = reference_model(3)
    r1 = WobRatio.from_ratio(1.0, W_REF_KN)
    for seed in range(5):
        dataset = synthesize(generator, r1, noise_std=0.8, seed=seed)
        fits = fit_all(dataset, r1,
                       {k: REFERENCE_PARAMS[k] for k in MODEL_KINDS},
                       n_starts=3, seed=seed)
        priors = abc.build_priors(fits, 0.4)
        state = abc.run(dataset, priors, n=ABC_N, eps_floor=0.014, seed=seed)
        runs.append(dict(seed=seed, dataset=dataset, fits=fits, state=state))
    return runs


def test_criterion_1_fem_modal_regression(geometry):
    t0 = time.perf_counter()
    failures = []

    def check(modes, omegas, xis, label):
        for i, ((w, xi), wq, xq) in enumerate(zip(modes, omegas, xis)):
            if not quoted_close(w, wq):
                failures.append(f"{label} omega[{i}]={w:.4f} vs {wq}")
            if not quoted_close(xi, xq):
                failures.append(f"{label} xi[{i}]={xi:.4f} vs {xq}")

    check(modal_properties(assemble(geometry, 1, 1, alpha=0.5, beta=0.006)),
          (0.85, 15.60), (0.30, 0.06), "2dof")
    ten_omegas = (0.83, 2.66, 4.76, 7.11, 9.73, 12.62, 15.63, 18.23, 22.75,
                  45.00)
    check(modal_properties(assemble(geometry, 8, 2, alpha=0.5, beta=0.006)),
          ten_omegas,
          (0.30, 0.10, 0.07, 0.06, 0.05, 0.06, 0.06, 0.07, 0.08, 0.14),
          "10dof beta=0.006")
    check(modal_properties(assemble(geometry, 8, 2, alpha=0.5, beta=0.0021)),
          ten_omegas,
          (0.30, 0.10, 0.06, 0.04, 0.03, 0.03, 0.03, 0.03, 0.03, 0.05),
          "10dof beta=0.0021")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    report(1, "FE modal regression", ok,
           f"mismatches={failures or 'none'}, {elapsed:.3f}s")


def test_criterion_2_derivative_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    sampler = {
        1: lambda: (rng.uniform(0.5, 15), rng.uniform(0.05, 3),
                    rng.uniform(0.5, 15), rng.uniform(0.05, 8)),
        2: lambda: (lambda tcb: (tcb * rng.uniform(1.0, 2.5), tcb,
                                 rng.uniform(0.05, 1.5)))(rng.uniform(1, 10)),
        3: lambda: (rng.uniform(0.3, 6), rng.uniform(0.05, 4),
                    rng.uniform(0, 1.5), rng.uniform(2, 15),
                    rng.uniform(0.3, 6), rng.uniform(0.02, 1)),
        4: lambda: (rng.uniform(2, 15), rng.uniform(-2, 2),
                    rng.uniform(-0.3, 0.3), rng.uniform(-0.01, 0.01)),
    }
    worst = 0.0
    for case in range(1000):
        kind = int(rng.integers(1, 5))
        model = BitRockModel(kind=kind, params=sampler[kind]())
        r = WobRatio.from_ratio(rng.uniform(0.5, 2.0), W_REF_KN)
        s = float(rng.uniform(0.01, 30.0))
        h = 1e-6 * max(1.0, s)
        closed = torque_derivative(model, r, s)
        fd = (torque(model, r, s + h) - torque(model, r, s - h)) / (2 * h)
        worst = max(worst, abs(closed - fd) / max(1.0, abs(closed)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 1.0
    report(2, "derivative correctness", ok,
           f"worst relative error {worst:.2e} over 1000 cases, {elapsed:.2f}s")


def test_criterion_3_analytic_stability_boundaries(m2, m4, plant):
    t0 = time.perf_counter()
    problems = []

    def m2_wstar(om):
        t_sb, t_cb, g_b = REFERENCE_PARAMS[2]
        return W_REF_KN * plant.c_eq * math.exp(g_b * om) \
            / (1000.0 * (t_sb - t_cb) * g_b)

    def m4_wstar(om):
        _, c1, c2, c3 = REFERENCE_PARAMS[4]
        slope = c1 + 2 * c2 * om + 3 * c3 * om * om
        return math.inf if slope >= 0 else W_REF_KN * plant.c_eq / (1000 * -slope)

    for model, oracle, label in ((m2, m2_wstar, "m2"), (m4, m4_wstar, "m4")):
        _, curve = map_deterministic(model, plant, W_REF_KN)
        if len(curve) < 20:
            problems.append(f"{label}: only {len(curve)} boundary points")
        for om, w in curve.points:
            want = oracle(om)
            if abs(w - want) / want > 1e-3:
                problems.append(f"{label} at omega={om:.3f}: {w:.3f} vs "
                                f"{want:.3f}")
    # crossing of the exponential law's boundary through r=1
    omega_star = math.log(1000 * 6.5 * 0.3 / plant.c_eq) / 0.3
    crossing_ok = abs(omega_star - 8.27) < 0.01
    op_lo = OperatingPoint(omega=omega_star * 0.999, wob=W_REF_KN)
    op_hi = OperatingPoint(omega=omega_star * 1.001, wob=W_REF_KN)
    flip_ok = (not classify(m2, plant, op_lo, W_REF_KN)
               and classify(m2, plant, op_hi, W_REF_KN))
    elapsed = time.perf_counter() - t0
    ok = not problems and crossing_ok and flip_ok and elapsed < 10.0
    report(3, "analytic stability boundaries", ok,
           f"omega*={omega_star:.4f} rad/s, worst issues={problems[:3] or 'none'}, "
           f"{elapsed:.1f}s")


def test_criterion_4_one_dof_fe_map_equivalence(plant):
    t0 = time.perf_counter()
    plants = {
        "1dof": plant,
        "2dof": assemble(REFERENCE_GEOMETRY, 1, 1, alpha=0.5, beta=0.006),
        "10dof": assemble(REFERENCE_GEOMETRY, 8, 2, alpha=0.5, beta=0.0021),
    }
    cell = (19.0 / 79, (3.0 - 0.2) * W_REF_KN / 79)
    worst = 0.0
    detail = []
    for kind in MODEL_KINDS:
        model = reference_model(kind)
        curves = {name: map_deterministic(model, p, W_REF_KN)[1]
                  for name, p in plants.items()}
        for a, b in (("1dof", "2dof"), ("1dof", "10dof"), ("2dof", "10dof")):
            sep = boundary_separation(curves[a], curves[b], cell)
            worst = max(worst, sep)
            if sep > 1.0:
                detail.append(f"m{kind} {a}/{b}: {sep:.2f} cells")
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 120.0
    report(4, "1-DOF / FE map equivalence", ok,
           f"worst separation {worst:.2f} grid cells "
           f"({detail or 'all pairs within one cell'}), {elapsed:.1f}s")


def test_criterion_5_linear_vs_nonlinear_consistency(m2, plant, r1):
    t0 = time.perf_counter()

    def mu(omega, wob):
        d = 1000.0 * torque_derivative(m2, WobRatio(wob, W_REF_KN), omega)
        tau = -2 * plant.omega_n * plant.xi - d / plant.i_eq
        disc = tau * tau - 4 * plant.omega_n ** 2
        return 0.5 * tau if disc < 0 else 0.5 * (tau + math.sqrt(disc))

    omegas = np.linspace(1, 20, 80)
    wobs = np.linspace(0.2 * W_REF_KN, 3 * W_REF_KN, 80)
    stable_cells, unstable_cells = [], []
    for om in omegas:
        for w in wobs:
            m = mu(float(om), float(w))
            if m < -0.03:
                stable_cells.append((float(om), float(w), m))
            elif m > 0.03:
                unstable_cells.append((float(om), float(w), m))
    # deterministic spread: sort by omega and take evenly spaced picks
    stable_cells.sort()
    unstable_cells.sort()
    picks_s = [stable_cells[i] for i in
               np.linspace(0, len(stable_cells) - 1, 10).astype(int)]
    picks_u = [unstable_cells[i] for i in
               np.linspace(0, len(unstable_cells) - 1, 10).astype(int)]

    failures = []
    for om, w, m in picks_s:
        op = OperatingPoint(omega=om, wob=w)
        wob = WobRatio(w, W_REF_KN)
        assert classify(m2, plant, op, W_REF_KN)
        t_end = min(250.0, max(40.0, 3.0 * math.log(10) / -m))
        start = equilibrium_state(m2, wob, plant, op, speed_perturbation=0.01)
        traj = simulate(m2, wob, plant, op, start, t_end=t_end)
        dev = np.abs(traj.theta_dots - om)
        if not dev[-1] < dev[0] / 10.0:
            failures.append(f"stable ({om:.2f},{w:.0f}) kept dev "
                            f"{dev[-1]:.3g} vs {dev[0]:.3g}")
    for om, w, m in picks_u:
        op = OperatingPoint(omega=om, wob=w)
        wob = WobRatio(w, W_REF_KN)
        assert not classify(m2, plant, op, W_REF_KN)
        t_end = min(400.0, 1.6 * math.log(100) / m + 30.0)
        start = equilibrium_state(m2, wob, plant, op, speed_perturbation=0.01)
        traj = simulate(m2, wob, plant, op, start, t_end=t_end)
        if not (traj.theta_dots.min() == 0.0
                and traj.theta_dots.max() > 1.02 * om):
            failures.append(
                f"unstable ({om:.2f},{w:.0f}) min={traj.theta_dots.min():.3g} "
                f"max={traj.theta_dots.max():.3g} vs omega={om:.2f}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    report(5, "linear vs nonlinear consistency", ok,
           f"10 stable decayed, 10 unstable stick-slipped "
           f"({failures or 'no deviations'}), {elapsed:.1f}s")


def test_criterion_6_least_squares_recovery(r1):
    t0 = time.perf_counter()
    worst = {}
    for kind in MODEL_KINDS:
        generator = reference_model(kind)
        dataset = synthesize(generator, r1, noise_std=0.0, seed=0)
        start = tuple(1.2 * v for v in REFERENCE_PARAMS[kind])
        res = fit(dataset, kind, r1, start)
        rel = max(abs(g - w) / abs(w)
                  for g, w in zip(res.model.params, REFERENCE_PARAMS[kind]))
        worst[f"m{kind}"] = rel
    elapsed = time.perf_counter() - t0
    ok = all(v < 1e-3 for v in worst.values()) and elapsed < 10.0
    report(6, "least-squares recovery", ok,
           "worst relative errors "
           + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
           + f", {elapsed:.1f}s")


def test_criterion_7_abc_model_selection(pipeline_runs, unvalidated_rho):
    t0 = time.perf_counter()
    structural = []
    outcomes = []
    for run in pipeline_runs:
        state = run["state"]
        dataset = run["dataset"]
        tol = state.tolerances
        if not all(a > b for a, b in zip(tol, tol[1:])):
            structural.append(f"seed {run['seed']}: tolerances not decreasing")
        speeds = dataset.calibration_speeds
        y = dataset.calibration_torques
        for g, pop in enumerate(state.populations, start=1):
            for kind in MODEL_KINDS:
                phis = pop.particles_of(kind)
                if not len(phis):
                    continue
                pred = np.array([unvalidated_rho(kind, phi, speeds, y)
                                 for phi in phis[:: max(1, len(phis) // 200)]])
                if not (pred < pop.tolerance).all():
                    structural.append(
                        f"seed {run['seed']} pop {g} m{kind}: stored distance "
                        "fails re-validation")
        probs = [float(p) for p in
                 abc.model_posterior(state, state.n_populations)]
        outcomes.append((run["seed"], probs))
    threshold_fails = []
    for seed, p in outcomes:
        if not p[1] + p[2] > ABC_SELECTED_MIN:
            threshold_fails.append(
                f"seed {seed}: P(m2)+P(m3)={p[1] + p[2]:.3f} <= {ABC_SELECTED_MIN}")
        if not p[0] < ABC_REJECTED_MAX:
            threshold_fails.append(
                f"seed {seed}: P(m1)={p[0]:.3f} >= {ABC_REJECTED_MAX}")
        if not p[3] < ABC_REJECTED_MAX:
            threshold_fails.append(
                f"seed {seed}: P(m4)={p[3]:.3f} >= {ABC_REJECTED_MAX}")
    elapsed = time.perf_counter() - t0
    scale = f"n={ABC_N}, thresholds {ABC_SELECTED_MIN}/{ABC_REJECTED_MAX}"
    probs_str = "; ".join(
        f"seed {s}: " + " ".join(f"P(m{k})={v:.3f}" for k, v in
                                 zip(MODEL_KINDS, p))
        for s, p in outcomes)
    ok = not structural and not threshold_fails and elapsed < 600.0
    report(7, "ABC model selection", ok,
           f"{scale}; {probs_str}; structural={structural or 'ok'}; "
           f"thresholds={'met' if not threshold_fails else threshold_fails}; "
           f"{elapsed:.0f}s")


def test_criterion_8_stochastic_boundary_ordering(pipeline_runs, plant):
    t0 = time.perf_counter()
    run = pipeline_runs[0]
    state = run["state"]
    pop = state.populations[-1]
    cell_w = (3.0 - 0.2) * W_REF_KN / 79
    issues = []

    component_curves = {}
    for kind in (2, 3):
        phis = pop.particles_of(kind)
        _, stoch = map_stochastic(kind, phis, plant, W_REF_KN,
                                  percentile=0.02)
        component_curves[kind] = stoch
        _, det = map_deterministic(run["fits"][kind].model, plant, W_REF_KN)
        det_by_om = {round(om, 9): w for om, w in det.points}
        for om, w in stoch.points:
            w_map = det_by_om.get(round(om, 9))
            if w_map is not None and w > w_map + cell_w:
                issues.append(f"m{kind} at omega={om:.2f}: 2% boundary "
                              f"{w:.1f} above MAP {w_map:.1f}")

    sets = [(2, pop.particles_of(2)), (3, pop.particles_of(3))]
    _, mix = map_mixture(sets, (0.4, 0.6), plant, W_REF_KN, percentile=0.02)
    c2 = {round(om, 9): w for om, w in component_curves[2].points}
    c3 = {round(om, 9): w for om, w in component_curves[3].points}
    for om, w in mix.points:
        key = round(om, 9)
        if key in c2 and key in c3:
            lo = min(c2[key], c3[key]) - cell_w
            hi = max(c2[key], c3[key]) + cell_w
            if not lo <= w <= hi:
                issues.append(f"mixture at omega={om:.2f}: {w:.1f} outside "
                              f"[{lo:.1f}, {hi:.1f}]")
    elapsed = time.perf_counter() - t0
    ok = not issues and len(mix) > 0 and elapsed < 300.0
    report(8, "stochastic boundary ordering", ok,
           f"{len(component_curves[2])}/{len(component_curves[3])} component "
           f"points, {len(mix)} mixture points, issues={issues[:3] or 'none'}, "
           f"{elapsed:.0f}s")


def test_criterion_9_cli_determinism(tmp_path):
    t0 = time.perf_counter()

    def csv_bytes(d):
        return {str(p.relative_to(d)): p.read_bytes()
                for p in sorted(d.rglob("*.csv"))}

    issues = []
    gen = tmp_path / "gen"
    assert cli.main(["gen-data", "--out-dir", str(gen), "--model", "m3",
                     "--noise", "0.8", "--seed", "3"]) == 0
    commands = {
        "fit": ["fit", "--data", str(gen / "dataset.csv"), "--models", "m2,m3"],
        "abc": ["abc", "--data", str(gen / "dataset.csv"), "--n", "300",
                "--max-populations", "2", "--seed", "5", "--threads", "1"],
        "map": ["map", "--models", "m2,m3", "--resolution", "20"],
        "fem-modes": ["fem-modes", "--n-dp", "8", "--n-bha", "2"],
    }
    for name, argv in commands.items():
        first = tmp_path / name
        assert cli.main(argv + ["--out-dir", str(first)]) == 0
        second = tmp_path / f"{name}_replay"
        assert cli.main(["replay", "--manifest", str(first / "manifest.json"),
                         "--out-dir", str(second)]) == 0
        if csv_bytes(first) != csv_bytes(second):
            issues.append(f"{name}: replay differs")
    parallel = tmp_path / "abc_parallel"
    assert cli.main(commands["abc"][:-2] + ["--threads", "4", "--out-dir",
                                            str(parallel)]) == 0
    if csv_bytes(tmp_path / "abc") != csv_bytes(parallel):
        issues.append("abc: serial vs parallel differ")
    elapsed = time.perf_counter() - t0
    ok = not issues
    report(9, "CLI determinism", ok,
           f"gen-data/fit/abc/map/fem-modes replayed byte-identically, "
           f"serial==parallel ({issues or 'ok'}), {elapsed:.0f}s")
