"""The three workloads: their inputs, their rounds of CLI stages, their checks.

Every workload runs the whole chain (fit, abc, deterministic, stochastic and
mixture maps, time-domain simulation), so every end-to-end metric exists on
every workload; the workloads differ in which stages carry the weight:

* ``calibrate``: paper-scale ABC (n = 25000) on three m3 datasets; the maps
  are a coarse 40x40 pass over the bundle the first ABC stage wrote.
* ``maps_1dof``: 80x80 maps on the 1-DOF plant from a bundle the benchmark
  builds itself, plus ten simulations; fit and ABC run at desk scale.
* ``maps_fem``: 80x80 deterministic and coarse stochastic and mixture maps
  on the 10-DOF FE plant; fit and ABC run at desk scale.
"""

from __future__ import annotations

import gc
import math
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import checks
import oracle
from checks import CheckFailed

from drillstab import abc, cli, dynamics, fem
from drillstab.bitrock import BitRockModel, WobRatio
from drillstab.reference import REFERENCE_GEOMETRY, REFERENCE_PARAMS

# Dataset noise seeds stay fixed: how many ABC populations a dataset needs
# (five, six or seven) sets the ABC cost by up to a factor of four, so seeds
# drawn per run would swamp the timing. The run seed drives everything else.
DATASET_SEEDS = (0, 1, 2)
NOISE = 0.8
PRIOR_DELTA = 0.4
EPS_FLOOR = 0.014
PERCENTILE = 0.02
# the 10-DOF FE plant: 8 drill-pipe and 2 BHA elements
FEM_PLANT = {"n_dp": 8, "n_bha": 2, "alpha": 0.5, "beta": 0.0021}
FEM_FLAGS = [flag for key, value in FEM_PLANT.items()
             for flag in (f"--{key.replace('_', '-')}", value)]
FEM_ARGS = ["--plant", "fem", *FEM_FLAGS]

# simulated operating points: rightmost eigenvalue at least this far from 0,
# so the fixed horizons below are long enough for decay or stick-slip
SIM_MARGIN = 0.15
SIM_T_STABLE = 50.0
SIM_T_UNSTABLE = 80.0

STAGE_METRIC = {"fit": "fit_s", "abc": "abc_s",
                "map_deterministic": "map_deterministic_s",
                "map_stochastic": "map_stochastic_s",
                "map_mixture": "map_mixture_s"}
ROUND_METRICS = ("fit_s", "abc_s", "map_deterministic_s", "map_stochastic_s",
                 "map_mixture_s", "simulate_s")


class StageFailed(Exception):
    pass


class Bench:
    """One run: counts operations, times stages, runs checks.

    An operation is one CLI stage, one simulation or one check.
    """

    def __init__(self, seed: int, threads: int, tracer=None):
        self.seed = seed
        self.threads = threads
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.check_failures = 0
        self.errors: list[str] = []
        self.times: dict[str, float] = defaultdict(float)
        self.sampler_seeds = [int(s) for s in np.random.SeedSequence(seed)
                              .generate_state(len(DATASET_SEEDS))]

    def rng(self, label: str) -> np.random.Generator:
        """A generator for one named input, fixed by the run seed."""
        return np.random.default_rng([self.seed, sum(map(ord, label))])

    def _span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    def stage(self, name: str, argv: list) -> float:
        """Run one CLI stage in-process; its wall time is charged to the
        stage's end-to-end metric."""
        gc.collect()
        self.attempted += 1
        with self._span(f"cli.{name}"):
            t0 = time.perf_counter()
            code = cli.main([str(a) for a in argv])
            dt = time.perf_counter() - t0
        if code != 0:
            self.failed += 1
            self.errors.append(f"stage {name} exited {code}: {argv}")
            raise StageFailed(name)
        if name in STAGE_METRIC and not (self.tracer and self.tracer.tag):
            self.times[STAGE_METRIC[name]] += dt
        return dt

    def check(self, name: str, fn, *args, **kwargs):
        """Run one check; a check that cannot read its output fails too."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except CheckFailed as exc:
            message = str(exc)
        except Exception:       # noqa: BLE001  (reported with its traceback)
            message = traceback.format_exc()
        self.failed += 1
        self.check_failures += 1
        self.errors.append(f"check {name}: {message}")
        return None

    def abc_stage(self, out: Path, data: Path, n: int, seed: int) -> None:
        def argv(out_dir, threads):
            return ["abc", "--out-dir", out_dir, "--data", data, "--n", n,
                    "--seed", seed, "--threads", threads]

        self.stage("abc", argv(out, self.threads))
        if self.tracer is not None:
            # the same run on one thread: the serial baseline, and a check
            # that serial and parallel sampling agree to the byte
            serial = out.with_name(out.name + "_serial")
            self.tracer.tag = "serial"
            try:
                self.stage("abc", argv(serial, 1))
            finally:
                self.tracer.tag = None
            self.check("serial bundle", checks.same_bytes, out / "abc_state",
                       serial / "abc_state")

    def simulate(self, points: list[tuple[float, float]], stable: bool) -> None:
        """Time-domain cross-checks of the m2 boundary on the 1-DOF plant."""
        model = BitRockModel(kind=2, params=REFERENCE_PARAMS[2])
        plant = dynamics.LumpedDrillString.from_modal(oracle.I_EQ, oracle.OMEGA_N, oracle.XI)
        t_end = SIM_T_STABLE if stable else SIM_T_UNSTABLE
        for om, w in points:
            op = dynamics.OperatingPoint(omega=om, wob=w)
            r = WobRatio(w, oracle.W_REF_KN)
            start = dynamics.equilibrium_state(model, r, plant, op,
                                               speed_perturbation=0.01)
            gc.collect()
            self.attempted += 1
            with self._span("dynamics.simulate"):
                t0 = time.perf_counter()
                traj = dynamics.simulate(model, r, plant, op, start, t_end=t_end)
                self.times["simulate_s"] += time.perf_counter() - t0
            self.check("simulation", checks.decays if stable else checks.stick_slips,
                       traj.theta_dots, om)


# ------------------------------------------------------------------ inputs

def make_datasets(b: Bench, d: Path, seeds=DATASET_SEEDS) -> dict:
    """m3 datasets through ``gen-data``, read back by the oracle."""
    gen = ",".join(repr(v) for v in REFERENCE_PARAMS[3])
    out = {}
    for ds in seeds:
        b.stage("gen_data", ["gen-data", "--out-dir", d / f"data{ds}", "--model", "m3",
                             "--params", gen, "--noise", NOISE, "--seed", ds])
        path = d / f"data{ds}" / "dataset.csv"
        out[ds] = (path, *oracle.read_dataset(path))
    return out


def build_bundle(directory: Path, rng, speeds, torques,
                 counts: list[dict[int, int]]) -> list[dict[int, np.ndarray]]:
    """An ABC state bundle made without the package's sampler.

    Population g holds ``counts[g][kind]`` particles of each law, drawn from
    the uniform prior box (published estimates +/- 40%) and kept when the
    oracle's distance is below the tolerance: inf for population 1, then
    the median of the previous population's distances. Rows are shuffled
    into one acceptance order and written through ``abc.save_state``.
    Returns each population's particles per law.
    """
    priors = {k: abc.PriorSpec.from_center(k, REFERENCE_PARAMS[k], PRIOR_DELTA)
              for k in (1, 2, 3, 4)}
    pops, tolerances, particles = [], [], []
    tol = math.inf
    for pop_counts in counts:
        kinds, phis, dists, attempts = [], [], [], 0
        for kind, count in sorted(pop_counts.items()):
            pr, p = priors[kind], oracle.PARAM_COUNTS[kind]
            have = 0
            while have < count:
                draw = pr.lo + rng.random((max(2 * count, 256), p)) * (pr.hi - pr.lo)
                dist = oracle.rho(kind, draw, speeds, torques)
                keep = np.flatnonzero(dist < tol)[:count - have]
                attempts += len(draw)
                padded = np.full((len(keep), oracle.MAX_PARAMS), np.nan)
                padded[:, :p] = draw[keep]
                kinds.append(np.full(len(keep), kind))
                phis.append(padded)
                dists.append(dist[keep])
                have += len(keep)
        order = rng.permutation(sum(pop_counts.values()))
        pop = abc.Population(kinds=np.concatenate(kinds)[order],
                             phis=np.concatenate(phis)[order],
                             distances=np.concatenate(dists)[order],
                             tolerance=tol, attempts=attempts)
        pops.append(pop)
        tolerances.append(tol)
        particles.append({k: pop.particles_of(k) for k in (1, 2, 3, 4)})
        tol = float(np.median(pop.distances))
    n = sum(counts[0].values())
    state = abc.AbcState(populations=pops, tolerances=tolerances,
                         next_tolerance=tol, stopped_by="max_populations", n=n,
                         seed=0, eps_floor=EPS_FLOOR,
                         model_prior=(0.25, 0.25, 0.25, 0.25), priors=priors)
    abc.save_state(state, directory)
    return particles


def sim_points(rng, n: int) -> tuple[list, list]:
    """n stable and n unstable operating points of m2 on the 1-DOF plant."""
    stable, unstable = [], []
    while len(stable) < n or len(unstable) < n:
        om = float(rng.uniform(1.0, 20.0))
        w = float(rng.uniform(0.2, 3.0) * oracle.W_REF_KN)
        mu = oracle.rightmost_1dof(2, REFERENCE_PARAMS[2], om, w)
        if mu <= -SIM_MARGIN and len(stable) < n:
            stable.append((om, w))
        elif mu >= SIM_MARGIN and len(unstable) < n:
            unstable.append((om, w))
    return stable, unstable


# ----------------------------------------------------------- shared steps

def fit_and_abc(b: Bench, r: Path, data: tuple, ds: int, n: int, seed: int
                ) -> tuple[Path, dict | None]:
    """``fit`` then ``abc`` on one dataset, with their checks. Returns the
    bundle directory and the bundle as the oracle read it (None when a
    check failed before it was read)."""
    path, speeds, torques = data
    b.stage("fit", ["fit", "--out-dir", r / f"fit{ds}", "--data", path,
                    "--starts", 3, "--seed", seed])
    fitted = b.check("fit report", checks.fit_report, r / f"fit{ds}" / "fit_report.json",
                     speeds, torques, REFERENCE_PARAMS[3])
    out = r / f"abc{ds}"
    b.abc_stage(out, path, n, seed)
    bundle = None
    if fitted is not None:
        bundle = b.check("ABC bundle", checks.abc_bundle, out / "abc_state", speeds,
                         torques, fitted, PRIOR_DELTA, n, b.rng(f"bundle{ds}"),
                         eps_floor=EPS_FLOOR)
        if bundle is not None:
            b.check("prior centres", checks.prior_centers_match, bundle, fitted)
            b.check("probabilities", checks.probability_evolution,
                    out / "probability_evolution.csv", bundle)
    return out / "abc_state", bundle


def desk_scale_abc(b: Bench, r: Path, data: dict, n: int) -> None:
    """``fit`` and a small ``abc`` on every dataset: the map workloads'
    share of the chain."""
    for i, ds in enumerate(DATASET_SEEDS):
        fit_and_abc(b, r, data[ds], ds, n, b.sampler_seeds[i])


def maps_1dof(b: Bench, r: Path, state_dir: Path, particles: dict,
              resolution: int) -> None:
    """Deterministic, stochastic (m2, m3) and mixture maps on the 1-DOF
    plant, checked against the oracle."""
    res = ["--resolution", resolution]
    b.stage("map_deterministic", ["map", "--out-dir", r / "det", *res])
    b.check("deterministic 1-DOF", checks.deterministic_1dof, r / "det",
            REFERENCE_PARAMS, resolution)
    b.stage("map_stochastic", ["map", "--out-dir", r / "sto", "--mode", "stochastic",
                               "--abc-state", state_dir, *res])
    comps = [(k, particles[k]) for k in (2, 3)]
    for kind, phis in comps:
        b.check(f"stochastic m{kind}", checks.stochastic_1dof,
                r / "sto" / f"map_m{kind}_p{PERCENTILE:g}_grid.csv", kind, phis)
    b.stage("map_mixture", ["map", "--out-dir", r / "mix", "--mode", "mixture",
                            "--abc-state", state_dir, *res])
    counts = [len(phis) for _, phis in comps]
    weights = [c / sum(counts) for c in counts]
    b.check("mixture", checks.mixture_1dof, r / "mix", comps, weights, PERCENTILE,
            resolution)


# ------------------------------------------------------------- workloads

class Calibrate:
    """gen-data -> fit -> abc at paper scale on three m3 datasets, then a
    coarse pass of the maps over the first bundle and two simulations."""

    n = 25_000
    map_resolution = 40

    def setup(self, b: Bench, d: Path) -> dict:
        stable, unstable = sim_points(b.rng("sim"), 2)
        return dict(data=make_datasets(b, d), stable=stable, unstable=unstable)

    def setup_checks(self, b: Bench, inputs: dict) -> None:
        pass

    def round(self, b: Bench, inputs: dict, r: Path) -> None:
        bundles = [fit_and_abc(b, r, inputs["data"][ds], ds, self.n, b.sampler_seeds[i])
                   for i, ds in enumerate(DATASET_SEEDS)]
        state_dir, bundle = bundles[0]
        kinds, phis, _ = (bundle or oracle.read_bundle(state_dir))["populations"][-1]
        particles = {k: phis[kinds == k, :oracle.PARAM_COUNTS[k]] for k in (1, 2, 3, 4)}
        maps_1dof(b, r, state_dir, particles, self.map_resolution)
        b.simulate(inputs["stable"], stable=True)
        b.simulate(inputs["unstable"], stable=False)


class MapWorkload:
    """Set-up shared by the map workloads: the datasets, a bundle built from
    ``counts`` without the sampler, and the simulated operating points."""

    n_abc = 5_000       # the acceptance tests' desk scale
    counts: list[dict[int, int]]
    n_sims: int

    def setup(self, b: Bench, d: Path) -> dict:
        data = make_datasets(b, d)
        _, speeds, torques = data[DATASET_SEEDS[0]]
        particles = build_bundle(d / "bundle", b.rng("bundle"), speeds, torques,
                                 self.counts)
        stable, unstable = sim_points(b.rng("sim"), self.n_sims)
        return dict(data=data, bundle=d / "bundle", particles=particles,
                    stable=stable, unstable=unstable)

    def setup_checks(self, b: Bench, inputs: dict) -> None:
        _, speeds, torques = inputs["data"][DATASET_SEEDS[0]]
        b.check("built bundle", checks.abc_bundle, inputs["bundle"], speeds, torques,
                REFERENCE_PARAMS, PRIOR_DELTA, sum(self.counts[0].values()),
                b.rng("bundle-check"))


class Maps1Dof(MapWorkload):
    """80x80 maps on the 1-DOF plant from a benchmark-built bundle of
    25000 particles per population, and ten simulations."""

    resolution = 80
    n_sims = 5
    counts = [{1: 6250, 2: 6250, 3: 6250, 4: 6250},
              {1: 3000, 2: 6000, 3: 15000, 4: 1000}]

    def round(self, b: Bench, inputs: dict, r: Path) -> None:
        desk_scale_abc(b, r, inputs["data"], self.n_abc)
        maps_1dof(b, r, inputs["bundle"], inputs["particles"][-1], self.resolution)
        b.simulate(inputs["stable"], stable=True)
        b.simulate(inputs["unstable"], stable=False)


class MapsFem(MapWorkload):
    """80x80 deterministic maps on the 10-DOF FE plant, a coarse stochastic
    m2 map over 700 particles and a coarser m2+m3 mixture, from a
    benchmark-built bundle of 1200 particles per population."""

    resolution = 80
    n_sims = 2
    stochastic_resolution = 8
    mixture_resolution = 3
    # every column of this window crosses the 2% contour, so the number of
    # bisection steps, and with it the cost, does not depend on the seed
    omega_window = ["--omega-min", 6.5, "--omega-max", 10.5]
    counts = [{1: 450, 2: 150, 3: 150, 4: 450},
              {1: 200, 2: 700, 3: 150, 4: 150}]

    def setup(self, b: Bench, d: Path) -> dict:
        inputs = super().setup(b, d)
        plant = fem.assemble(REFERENCE_GEOMETRY, **FEM_PLANT)
        inputs["plant"] = oracle.FePlant(plant.mass, plant.stiffness, plant.damping)
        return inputs

    def round(self, b: Bench, inputs: dict, r: Path) -> None:
        plant = inputs["plant"]
        desk_scale_abc(b, r, inputs["data"], self.n_abc)
        b.stage("fem_modes", ["fem-modes", "--out-dir", r / "modes", *FEM_FLAGS])
        b.check("modal table", checks.fem_modes, r / "modes" / "modes.csv")
        b.stage("map_deterministic", ["map", "--out-dir", r / "det", *FEM_ARGS,
                                      "--resolution", self.resolution])
        b.check("deterministic FE", checks.deterministic_fem, r / "det", plant,
                REFERENCE_PARAMS, self.resolution, b.rng("fem-det"))
        b.stage("map_stochastic", ["map", "--out-dir", r / "sto", *FEM_ARGS,
                                   "--mode", "stochastic", "--models", "m2",
                                   "--abc-state", inputs["bundle"], *self.omega_window,
                                   "--resolution", self.stochastic_resolution])
        final, first = inputs["particles"][-1], inputs["particles"][0]
        b.check("stochastic FE", checks.fem_field,
                r / "sto" / f"map_m2_p{PERCENTILE:g}_grid.csv", plant,
                [(2, final[2])], [1.0], b.rng("fem-sto"))
        b.stage("map_mixture", ["map", "--out-dir", r / "mix", *FEM_ARGS,
                                "--mode", "mixture", "--population", 1,
                                "--abc-state", inputs["bundle"], *self.omega_window,
                                "--resolution", self.mixture_resolution])
        comps = [(k, first[k]) for k in (2, 3)]
        counts = [len(phis) for _, phis in comps]
        b.check("mixture FE", checks.fem_field, r / "mix" / "map_mixture_grid.csv",
                plant, comps, [c / sum(counts) for c in counts], b.rng("fem-mix"))
        b.simulate(inputs["stable"], stable=True)
        b.simulate(inputs["unstable"], stable=False)


WORKLOADS = {"calibrate": Calibrate, "maps_1dof": Maps1Dof, "maps_fem": MapsFem}
