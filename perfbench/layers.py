"""Per-layer metrics of the traced run.

Two sources, both timed from the benchmark's own code:

* spans around the package's public functions during one traced round
  (``install`` wraps them where the CLI and the map code resolve them), and
* short kernel timings at fixed shapes (``kernel_rates``), for the layers
  whose single calls are too small to wrap one by one.
"""

from __future__ import annotations

import math
import statistics
import time
from pathlib import Path

import numpy as np

from drillstab import abc, bitrock, cli, dynamics, fem, stability, svgplot
from drillstab.reference import (REFERENCE_GEOMETRY, REFERENCE_PARAMS, W_REF_KN,
                                 reference_plant)
from workloads import FEM_PLANT

# abc._CHUNK proposals split over four laws, against 100 calibration speeds
SAMPLER_CHUNK_ROWS = 8192 // 4
CALIBRATION_SPEEDS = 100
# one column of a 1-DOF stochastic map: every particle at one speed
STOCHASTIC_COLUMN_ROWS = 6000


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def _cells(kwargs) -> int:
    n_om, n_w = kwargs.get("resolution", stability.DEFAULT_RESOLUTION)
    return n_om * n_w


def install(tracer) -> None:
    """Wrap the public functions the CLI stages call."""
    def run_attrs(args, kwargs, state):
        attempts = sum(p.attempts for p in state.populations)
        return dict(attempts=attempts, populations=state.n_populations,
                    accepted=state.n * state.n_populations)

    def curve_attrs(args, kwargs, result):
        return dict(boundary_points=len(result[1]))

    def stochastic_attrs(args, kwargs, result):
        return dict(boundary_points=len(result[1]),
                    particle_cells=len(args[1]) * _cells(kwargs))

    def mixture_attrs(args, kwargs, result):
        return dict(boundary_points=len(result[1]),
                    particle_cells=sum(len(p) for _, p in args[0]) * _cells(kwargs))

    wraps = [
        (cli, "fit", "calibration.fit",
         lambda a, k, res: dict(nfev=res.iterations)),
        (cli, "read_csv", "dataio.read_csv", None),
        (cli, "write_csv", "dataio.write_csv", None),
        (cli, "map_deterministic", "stability.map_deterministic", curve_attrs),
        (cli, "map_stochastic", "stability.map_stochastic", stochastic_attrs),
        (cli, "map_mixture", "stability.map_mixture", mixture_attrs),
        (cli, "grid_to_csv", "stability.grid_to_csv", None),
        (cli, "boundary_to_csv", "stability.boundary_to_csv", None),
        (abc, "run", "abc.run", run_attrs),
        (abc, "save_state", "abc.save_state",
         lambda a, k, res: dict(bytes=_dir_bytes(res))),
        (abc, "load_state", "abc.load_state",
         lambda a, k, res: dict(bytes=_dir_bytes(a[0]))),
        (abc, "posterior_stats", "abc.posterior_stats", None),
        (abc, "predictive_envelope", "abc.predictive_envelope", None),
        (svgplot, "render", "svgplot.render", None),
    ]
    for module, attr, name, annotate in wraps:
        tracer.wrap(module, attr, name, annotate)


def _rate(fn, work: float, min_time: float = 0.1, repeats: int = 3) -> float:
    """Median work per second over ``repeats`` time-boxed loops of ``fn``."""
    fn()
    rates = []
    for _ in range(repeats):
        calls, t0 = 0, time.perf_counter()
        while True:
            fn()
            calls += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= min_time:
                break
        rates.append(calls * work / elapsed)
    return statistics.median(rates)


def kernel_rates(speeds: np.ndarray) -> dict[str, float]:
    """Calls or evaluations per second of the small kernels, at fixed inputs."""
    rng = np.random.default_rng(0)
    speeds = np.asarray(speeds, dtype=float)[:CALIBRATION_SPEEDS]
    boxes = {k: abc.PriorSpec.from_center(k, REFERENCE_PARAMS[k], 0.4)
             for k in (1, 2, 3, 4)}
    chunk = {k: boxes[k].sample_from_unit(
        rng.random((SAMPLER_CHUNK_ROWS, bitrock.PARAM_COUNTS[k]))) for k in boxes}
    column = boxes[2].sample_from_unit(rng.random((STOCHASTIC_COLUMN_ROWS, 3)))
    m2 = bitrock.BitRockModel(kind=2, params=REFERENCE_PARAMS[2])
    r = bitrock.WobRatio(250.0, W_REF_KN)
    op = dynamics.OperatingPoint(omega=8.0, wob=250.0)
    lumped = reference_plant()
    fe2 = fem.assemble(REFERENCE_GEOMETRY, 1, 1, alpha=0.5, beta=0.006)
    fe10 = fem.assemble(REFERENCE_GEOMETRY, **FEM_PLANT)
    jac = {2: dynamics.jacobian_1dof(m2, r, lumped, op),
           4: fem.jacobian_fem(fe2, m2, r, op),
           20: fem.jacobian_fem(fe10, m2, r, op)}
    sim_op = dynamics.OperatingPoint(omega=12.0, wob=200.0)
    sim_r = bitrock.WobRatio(200.0, W_REF_KN)
    sim_start = dynamics.equilibrium_state(m2, sim_r, lumped, sim_op,
                                           speed_perturbation=0.01)

    def torque_chunk():
        for k, rows in chunk.items():
            bitrock.torque_batch(k, rows, 1.0, speeds)

    out = {
        "bitrock.torque_batch.evals_per_s": _rate(
            torque_chunk, 4 * SAMPLER_CHUNK_ROWS * len(speeds)),
        "bitrock.torque_derivative_batch.evals_per_s": _rate(
            lambda: bitrock.torque_derivative_batch(2, column, 1.0, np.array([8.0])),
            STOCHASTIC_COLUMN_ROWS),
        "bitrock.torque.scalar_calls_per_s": _rate(
            lambda: [bitrock.torque(m2, r, 5.0) for _ in range(100)], 100),
        "stability.classify.1dof.calls_per_s": _rate(
            lambda: [stability.classify(m2, lumped, op, W_REF_KN) for _ in range(20)], 20),
        "stability.classify.fem10.calls_per_s": _rate(
            lambda: [stability.classify(m2, fe10, op, W_REF_KN) for _ in range(20)], 20),
        "fem.jacobian_fem.calls_per_s": _rate(
            lambda: [fem.jacobian_fem(fe10, m2, r, op) for _ in range(20)], 20),
        "dynamics.simulate.steps_per_s": _rate(
            lambda: dynamics.simulate(m2, sim_r, lumped, sim_op, sim_start, t_end=5.0),
            5000),
    }
    for n, a in jac.items():
        out[f"fem.eigenvalues_general.n{n}.calls_per_s"] = _rate(
            lambda a=a: [fem.eigenvalues_general(a) for _ in range(20)], 20)
    return out


def src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src").rglob("*.py")))


CLI_STAGES = ("fit", "abc", "map_deterministic", "map_stochastic", "map_mixture")


def span_metrics(tracer) -> dict[str, float]:
    """Layer totals over the traced round; the serial ABC twin counts only
    towards ``abc.run.serial_s``, and CSV writes happen in the set-up."""
    t = tracer.total
    attempts = tracer.attr_sum("abc.run", "attempts")
    accepted = tracer.attr_sum("abc.run", "accepted")
    run_s = t("abc.run")
    prob_s = t("stability.map_stochastic") + t("stability.map_mixture")
    cells = (tracer.attr_sum("stability.map_stochastic", "particle_cells")
             + tracer.attr_sum("stability.map_mixture", "particle_cells"))
    out = {
        "calibration.fit_s": t("calibration.fit"),
        "calibration.fit.nfev": tracer.attr_sum("calibration.fit", "nfev"),
        "abc.run_s": run_s,
        "abc.run.serial_s": t("abc.run", tag="serial"),
        "abc.run.attempts": attempts,
        "abc.run.accepted": accepted,
        "abc.run.proposals_per_s": attempts / run_s if run_s else math.nan,
        "abc.run.populations": tracer.attr_sum("abc.run", "populations"),
        "abc.run.accept_ratio": accepted / attempts if attempts else math.nan,
        "abc.save_state_s": t("abc.save_state"),
        "abc.save_state.bytes": tracer.attr_sum("abc.save_state", "bytes"),
        "abc.load_state_s": t("abc.load_state"),
        "abc.load_state.bytes": tracer.attr_sum("abc.load_state", "bytes"),
        "abc.posterior_stats_s": t("abc.posterior_stats"),
        "abc.predictive_envelope_s": t("abc.predictive_envelope"),
        "abc.predictive_envelope.calls": len(tracer.select("abc.predictive_envelope")),
        "stability.map_deterministic_s": t("stability.map_deterministic"),
        "stability.map_stochastic_s": t("stability.map_stochastic"),
        "stability.map_mixture_s": t("stability.map_mixture"),
        "stability.particle_cells_per_s": cells / prob_s if prob_s else math.nan,
        "stability.boundary_points": sum(
            tracer.attr_sum(f"stability.map_{m}", "boundary_points")
            for m in ("deterministic", "stochastic", "mixture")),
        "stability.grid_to_csv_s": t("stability.grid_to_csv"),
        "svgplot.render_s": t("svgplot.render"),
        "dataio.read_csv_s": t("dataio.read_csv"),
        "dataio.write_csv_s": t("dataio.write_csv", tag="setup"),
    }
    for stage in CLI_STAGES:
        out[f"cli.{stage}.self_s"] = sum(tracer.self_time(s)
                                         for s in tracer.select(f"cli.{stage}"))
    return out


# name -> unit, in the order the traced run prints them
UNITS = {
    "bitrock.torque_batch.evals_per_s": "1/s",
    "bitrock.torque_derivative_batch.evals_per_s": "1/s",
    "bitrock.torque.scalar_calls_per_s": "1/s",
    "calibration.fit_s": "s",
    "calibration.fit.nfev": "count",
    "abc.run_s": "s",
    "abc.run.serial_s": "s",
    "abc.run.attempts": "count",
    "abc.run.accepted": "count",
    "abc.run.proposals_per_s": "1/s",
    "abc.run.populations": "count",
    "abc.run.accept_ratio": "ratio",
    "abc.save_state_s": "s",
    "abc.save_state.bytes": "bytes",
    "abc.load_state_s": "s",
    "abc.load_state.bytes": "bytes",
    "abc.posterior_stats_s": "s",
    "abc.predictive_envelope_s": "s",
    "abc.predictive_envelope.calls": "count",
    "stability.map_deterministic_s": "s",
    "stability.classify.1dof.calls_per_s": "1/s",
    "stability.classify.fem10.calls_per_s": "1/s",
    "stability.map_stochastic_s": "s",
    "stability.map_mixture_s": "s",
    "stability.particle_cells_per_s": "1/s",
    "stability.boundary_points": "count",
    "stability.grid_to_csv_s": "s",
    "fem.eigenvalues_general.n2.calls_per_s": "1/s",
    "fem.eigenvalues_general.n4.calls_per_s": "1/s",
    "fem.eigenvalues_general.n20.calls_per_s": "1/s",
    "fem.jacobian_fem.calls_per_s": "1/s",
    "dynamics.simulate.steps_per_s": "1/s",
    "svgplot.render_s": "s",
    "dataio.read_csv_s": "s",
    "dataio.write_csv_s": "s",
    "cli.fit.self_s": "s",
    "cli.abc.self_s": "s",
    "cli.map_deterministic.self_s": "s",
    "cli.map_stochastic.self_s": "s",
    "cli.map_mixture.self_s": "s",
    "src_lines": "count",
    "trace.overhead_pct": "%",
}
