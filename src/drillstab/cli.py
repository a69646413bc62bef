"""Batch command line for the calibration / ABC / stability-map pipeline.

Commands:

* ``gen-data``  - synthesize a torque-vs-speed CSV dataset
* ``fit``       - least-squares calibration of one or all torque laws
* ``abc``       - ABC rejection run: state bundle, probability evolution,
                  marginals, correlations, predictive envelopes
* ``map``       - deterministic / stochastic / mixture stability maps
* ``fem-modes`` - modal table of the torsional FE model
* ``replay``    - re-run any command from its manifest

Every command writes ``manifest.json`` (command, config, seed, versions,
wall time) into its output directory; re-running via ``replay`` with the
same config produces byte-identical CSV and SVG outputs, serial or
parallel. Exit codes: 0 success, 2 config error, 3 numeric failure,
4 data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, abc as abc_mod, svgplot
from .bitrock import BitRockModel, MODEL_KINDS, PARAM_COUNTS, WobRatio
from .calibration import fit
from .dataio import read_csv, synthesize, write_csv
from .dynamics import LumpedDrillString
from .errors import (ConfigError, DataError, DrillstabError, DomainError,
                     NumericError)
from .fem import DrillStringGeometry, assemble, modal_properties
from .reference import (REFERENCE_GEOMETRY, REFERENCE_INERTIA,
                        REFERENCE_OMEGA_N, REFERENCE_PARAMS, REFERENCE_XI,
                        W_REF_KN)
from .stability import (RAD_S_TO_RPM, boundary_to_csv, critical_damping,
                        grid_to_csv, map_deterministic, map_mixture,
                        map_stochastic)

_MODEL_NAMES = {f"m{k}": k for k in MODEL_KINDS}


def _model_kind(name: str) -> int:
    if name not in _MODEL_NAMES:
        raise ConfigError(
            f"unknown model {name!r}; valid options: {', '.join(_MODEL_NAMES)}")
    return _MODEL_NAMES[name]


def _model_list(text: str) -> list[int]:
    return [_model_kind(tok.strip()) for tok in text.split(",") if tok.strip()]


def _floats(text: str, flag: str) -> list[float]:
    """Parse the comma-separated numbers given to ``flag``."""
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} takes comma-separated numbers, got {text!r}") from None


def _params_for(kind: int, spec) -> tuple[float, ...]:
    """Resolve a parameter spec: None/'reference', a --params string or floats."""
    if spec in (None, "reference"):
        return REFERENCE_PARAMS[kind]
    if isinstance(spec, str):
        spec = _floats(spec, "--params")
    vals = tuple(float(v) for v in spec)
    if len(vals) != PARAM_COUNTS[kind]:
        raise ConfigError(
            f"model m{kind} takes {PARAM_COUNTS[kind]} parameters, got {len(vals)}")
    return vals


def _resolve_threads(threads) -> int:
    if threads in (None, 0):
        return os.cpu_count() or 1
    return max(1, int(threads))


def _write_text(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return path.name


def _write_manifest(out_dir: Path, command: str, config: dict,
                    outputs: list[str], t0: float) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": config.get("seed", 0),
        "versions": {
            "drillstab": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "wall_time_s": round(time.monotonic() - t0, 3),
        "outputs": sorted(outputs),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _out_dir(config) -> Path:
    out = Path(config["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------- gen-data

def run_gen_data(config: dict) -> list[str]:
    out = _out_dir(config)
    kind = _model_kind(config["model"])
    params = _params_for(kind, config.get("params"))
    model = BitRockModel(kind=kind, params=params)
    w_ref = float(config.get("w_ref", W_REF_KN))
    r = WobRatio.from_ratio(float(config.get("r", 1.0)), w_ref)
    n = int(config.get("n", 200))
    if n < 2:
        raise ConfigError("--n must be at least 2")
    speeds = np.linspace(float(config.get("speed_min", 0.5)),
                         float(config.get("speed_max", 15.0)), n)
    dataset = synthesize(model, r, speeds=speeds,
                         noise_std=float(config.get("noise", 0.0)),
                         seed=int(config.get("seed", 0)), w_ref=w_ref)
    name = config.get("filename", "dataset.csv")
    write_csv(dataset, out / name)
    return [name]


# --------------------------------------------------------------------- fit

def _fit_models(dataset, kinds, config) -> dict[int, "FitResult"]:
    r = WobRatio.from_ratio(float(config.get("r", 1.0)), dataset.w_ref)
    initial = config.get("initial")
    if initial is not None and len(kinds) != 1:
        raise ConfigError("--initial applies to a single --models entry")
    if isinstance(initial, str) and initial != "reference":
        initial = _floats(initial, "--initial")
    results = {}
    for kind in kinds:
        results[kind] = fit(dataset, kind, r, _params_for(kind, initial),
                            max_evals=int(config.get("max_evals", 50_000)),
                            n_starts=int(config.get("starts", 1)),
                            jitter=float(config.get("jitter", 0.2)),
                            seed=int(config.get("seed", 0)))
    return results


def run_fit(config: dict) -> list[str]:
    out = _out_dir(config)
    dataset = read_csv(config["data"], speed_unit=config.get("speed_unit", "rad_s"))
    kinds = _model_list(config.get("models", "m1,m2,m3,m4"))
    results = _fit_models(dataset, kinds, config)
    report = {
        f"m{k}": {
            "params": [repr(v) for v in res.model.params],
            "metric": repr(res.metric_value),
            "evaluations": res.iterations,
            "converged": res.converged,
        } for k, res in sorted(results.items())
    }
    outputs = [_write_text(out / "fit_report.json",
                           json.dumps(report, indent=2, sort_keys=True) + "\n")]
    lines = [f"{'model':<6} {'rho':<12} {'nfev':<7} conv  parameters"]
    for k, res in sorted(results.items()):
        pstr = ", ".join(f"{v:.6g}" for v in res.model.params)
        lines.append(f"m{k:<5} {res.metric_value:<12.6g} {res.iterations:<7d} "
                     f"{str(res.converged):<5} {pstr}")
    outputs.append(_write_text(out / "fit_report.txt", "\n".join(lines) + "\n"))
    return outputs


# --------------------------------------------------------------------- abc

def run_abc(config: dict) -> list[str]:
    out = _out_dir(config)
    dataset = read_csv(config["data"], speed_unit=config.get("speed_unit", "rad_s"))
    r = WobRatio.from_ratio(float(config.get("r", 1.0)), dataset.w_ref)
    delta = float(config.get("delta", 0.4))
    seed = int(config.get("seed", 0))

    centers_mode = config.get("prior_centers", "fit")
    if centers_mode == "reference":
        centers = {k: REFERENCE_PARAMS[k] for k in MODEL_KINDS}
    elif centers_mode == "fit":
        centers = _fit_models(dataset, list(MODEL_KINDS),
                              {**config, "starts": int(config.get("starts", 3))})
    else:
        raise ConfigError("prior_centers must be 'fit' or 'reference'")
    priors = abc_mod.build_priors(centers, delta)

    model_prior = config.get("model_prior") or [0.25] * 4
    if isinstance(model_prior, str):
        model_prior = _floats(model_prior, "--model-prior")
    state = abc_mod.run(dataset, priors, model_prior=model_prior,
                        n=int(config.get("n", 25_000)),
                        eps_floor=float(config.get("eps_floor", 0.014)),
                        max_populations=int(config.get("max_populations", 20)),
                        seed=seed, r=r,
                        threads=_resolve_threads(config.get("threads")))
    abc_mod.save_state(state, out / "abc_state")
    outputs = [f"abc_state/population_{g:02d}.csv"
               for g in range(1, state.n_populations + 1)]
    outputs.append("abc_state/abc_state.json")

    # probability / tolerance evolution
    lines = ["population,tolerance,attempts," +
             ",".join(f"p_m{k}" for k in MODEL_KINDS)]
    evo = []
    for g in range(1, state.n_populations + 1):
        probs = [float(p) for p in abc_mod.model_posterior(state, g)]
        evo.append(probs)
        lines.append(f"{g},{state.tolerances[g - 1]!r},"
                     f"{state.populations[g - 1].attempts},"
                     + ",".join(repr(p) for p in probs))
    outputs.append(_write_text(out / "probability_evolution.csv",
                               "\n".join(lines) + "\n"))

    final = state.n_populations
    coverage = float(config.get("envelope_coverage", 0.98))
    rich = [k for k in MODEL_KINDS
            if state.populations[-1].count(k) >= 50]
    speeds = np.linspace(float(dataset.speeds.min()),
                         float(dataset.speeds.max()), 200)
    envelopes = {}
    for k in rich:
        stats = abc_mod.posterior_stats(state, final, k)
        lines = ["param,bin_lo,bin_hi,count"]
        for j, name in enumerate(stats.param_names):
            e, c = stats.bin_edges[j], stats.bin_counts[j]
            for b in range(len(c)):
                lines.append(f"{name},{float(e[b])!r},{float(e[b + 1])!r},{int(c[b])}")
        outputs.append(_write_text(out / f"marginals_m{k}.csv",
                                   "\n".join(lines) + "\n"))
        lines = ["," + ",".join(stats.param_names)]
        for j, name in enumerate(stats.param_names):
            row = [name] + [repr(float(v)) for v in stats.correlation[j]]
            lines.append(",".join(row))
        outputs.append(_write_text(out / f"correlation_m{k}.csv",
                                   "\n".join(lines) + "\n"))
        low, high = envelopes[k] = abc_mod.predictive_envelope(
            state, final, k, speeds, coverage=coverage, r=r)
        lines = ["speed_rad_s,torque_low_knm,torque_high_knm"]
        for s, lo_v, hi_v in zip(speeds, low, high):
            lines.append(f"{float(s)!r},{float(lo_v)!r},{float(hi_v)!r}")
        outputs.append(_write_text(out / f"envelope_m{k}.csv",
                                   "\n".join(lines) + "\n"))

    if not config.get("no_svg"):
        evo_arr = np.array(evo)
        gens = list(range(1, state.n_populations + 1))
        series = [svgplot.Series(x=gens, y=list(evo_arr[:, i]), label=f"m{k}")
                  for i, k in enumerate(MODEL_KINDS)]
        outputs.append(_write_text(
            out / "model_probabilities.svg",
            svgplot.render(series, "population", "posterior probability",
                           "model probability evolution")))
        tol = [state.tolerances[g] for g in range(1, state.n_populations)]
        if tol:
            series = [svgplot.Series(x=gens[1:], y=tol, label="tolerance")]
            outputs.append(_write_text(
                out / "tolerance_evolution.svg",
                svgplot.render(series, "population", "tolerance",
                               "tolerance schedule (population 1 accepts all)")))
        for k in rich:
            low, high = envelopes[k]
            band = svgplot.FillBand(x=list(speeds), y_low=list(low),
                                    y_high=list(high),
                                    label=f"{coverage:.0%} envelope")
            pts = [svgplot.Series(x=list(dataset.calibration_speeds),
                                  y=list(dataset.calibration_torques),
                                  label="calibration", color="#d62728",
                                  points=True),
                   svgplot.Series(x=list(dataset.validation_speeds),
                                  y=list(dataset.validation_torques),
                                  label="validation", color="#1f77b4",
                                  points=True)]
            outputs.append(_write_text(
                out / f"predictions_m{k}.svg",
                svgplot.render(pts, "bit speed [rad/s]", "torque on bit [kN m]",
                               f"posterior predictions, model m{k}",
                               bands=[band])))
    return outputs


# --------------------------------------------------------------------- map

def _make_plant(config):
    if config.get("plant", "1dof") == "1dof":
        return LumpedDrillString.from_modal(
            float(config.get("i_eq", REFERENCE_INERTIA)),
            float(config.get("omega_n", REFERENCE_OMEGA_N)),
            float(config.get("xi", REFERENCE_XI)))
    if config["plant"] == "fem":
        geo = REFERENCE_GEOMETRY
        over = {k: float(config[k]) for k in
                ("shear_modulus", "density", "l_dp", "l_bha", "d_dp_outer",
                 "d_dp_inner", "d_bha_outer", "d_bha_inner") if k in config}
        if over:
            geo = DrillStringGeometry(**{**geo.__dict__, **over})
        return assemble(geo, n_dp=int(config.get("n_dp", 1)),
                        n_bha=int(config.get("n_bha", 1)),
                        alpha=float(config.get("alpha", 0.5)),
                        beta=float(config.get("beta", 0.006)))
    raise ConfigError("plant must be '1dof' or 'fem'")


def _grid_kwargs(config, w_ref):
    wob_range = None
    if "wob_min" in config or "wob_max" in config:
        wob_range = (float(config.get("wob_min", 0.2 * w_ref)),
                     float(config.get("wob_max", 3.0 * w_ref)))
    res = int(config.get("resolution", 80))
    return dict(
        omega_range=(float(config.get("omega_min", 1.0)),
                     float(config.get("omega_max", 20.0))),
        wob_range=wob_range,
        resolution=(res, res),
    )


def run_map(config: dict) -> list[str]:
    out = _out_dir(config)
    w_ref = float(config.get("w_ref", W_REF_KN))
    plant = _make_plant(config)
    mode = config.get("mode", "deterministic")
    kwargs = dict(_grid_kwargs(config, w_ref), c_star=critical_damping(plant))
    outputs = []
    curves = []

    if mode == "deterministic":
        kinds = _model_list(config.get("models", "m1,m2,m3,m4"))
        for kind in kinds:
            model = BitRockModel(kind=kind,
                                 params=_params_for(kind, config.get("params")))
            grid, curve = map_deterministic(model, plant, w_ref, **kwargs)
            outputs.append(grid_to_csv(grid, out / f"map_m{kind}_grid.csv",
                                       w_ref).name)
            outputs.append(boundary_to_csv(
                curve, out / f"map_m{kind}_boundary.csv", w_ref).name)
            curves.append((f"m{kind} (MAP)", curve, False))
    elif mode in ("stochastic", "mixture"):
        if "abc_state" not in config:
            raise ConfigError(f"--abc-state is required for mode {mode}")
        g = config.get("population")
        g, pop = abc_mod.load_population(config["abc_state"],
                                         None if g is None else int(g))
        kinds = _model_list(config.get("models", "m2,m3"))
        pct = float(config.get("percentile", 0.02))
        min_particles = int(config.get("min_particles", 100))
        sets = []
        for kind in kinds:
            phis = pop.particles_of(kind)
            if len(phis) < min_particles:
                raise DataError(
                    f"model m{kind} has {len(phis)} particles in population "
                    f"{g}; need >= {min_particles}")
            sets.append((kind, phis))
        if mode == "stochastic":
            for kind, phis in sets:
                grid, curve = map_stochastic(kind, phis, plant, w_ref,
                                             percentile=pct,
                                             min_particles=min_particles,
                                             **kwargs)
                tag = f"m{kind}_p{pct:g}"
                outputs.append(grid_to_csv(grid, out / f"map_{tag}_grid.csv",
                                           w_ref).name)
                outputs.append(boundary_to_csv(
                    curve, out / f"map_{tag}_boundary.csv", w_ref).name)
                curves.append((f"m{kind} ({pct:.0%} unstable)", curve, True))
        else:
            weights = config.get("weights")
            if weights is None:
                counts = [pop.count(k) for k, _ in sets]
                total = sum(counts)
                if total == 0:
                    raise DataError("no particles for the mixture components")
                weights = [c / total for c in counts]
            elif isinstance(weights, str):
                weights = _floats(weights, "--weights")
            grid, curve = map_mixture(sets, weights, plant, w_ref,
                                      percentile=pct,
                                      min_particles=min_particles, **kwargs)
            outputs.append(grid_to_csv(grid, out / "map_mixture_grid.csv",
                                       w_ref).name)
            outputs.append(boundary_to_csv(
                curve, out / "map_mixture_boundary.csv", w_ref).name)
            label = "+".join(f"{w:.0%} m{k}" for (k, _), w in zip(sets, weights))
            curves.append((f"mixture {label}", curve, True))
    else:
        raise ConfigError("mode must be deterministic, stochastic or mixture")

    if not config.get("no_svg") and curves:
        res = int(config.get("resolution", 80))
        omega_span = (float(config.get("omega_max", 20.0))
                      - float(config.get("omega_min", 1.0)))
        gap = 1.5 * omega_span / max(res - 1, 1)
        series = []
        for idx, (label, curve, dashed) in enumerate(curves):
            if len(curve) == 0:
                continue
            # split at window-exit gaps so re-entering branches are not
            # bridged by a spurious segment
            pts = curve.points
            breaks = np.flatnonzero(np.diff(pts[:, 0]) > gap)
            color = svgplot.PALETTE[idx % len(svgplot.PALETTE)]
            for i, piece in enumerate(np.split(pts, breaks + 1)):
                series.append(svgplot.Series(
                    x=[om * RAD_S_TO_RPM for om in piece[:, 0]],
                    y=list(piece[:, 1]), label=label if i == 0 else "",
                    color=color, dashed=dashed))
        if series:
            outputs.append(_write_text(
                out / "map_boundaries.svg",
                svgplot.render(series, "rotary speed [RPM]",
                               f"weight on bit [kN]  (r = W / {w_ref:g} kN)",
                               "torsional stability boundaries "
                               "(below curve: stable)")))
    return outputs


# --------------------------------------------------------------- fem-modes

def run_fem_modes(config: dict) -> list[str]:
    out = _out_dir(config)
    plant = _make_plant({**config, "plant": "fem"})
    modes = modal_properties(plant)
    lines = ["mode,omega_rad_s,omega_rpm,xi"]
    for i, (w, xi) in enumerate(modes, start=1):
        lines.append(f"{i},{w!r},{w * RAD_S_TO_RPM!r},{xi!r}")
    outputs = [_write_text(out / "modes.csv", "\n".join(lines) + "\n")]
    txt = [f"{'mode':<5} {'omega [rad/s]':<14} {'omega [RPM]':<12} xi"]
    txt += [f"{i:<5d} {w:<14.4f} {w * RAD_S_TO_RPM:<12.3f} {xi:.4f}"
            for i, (w, xi) in enumerate(modes, start=1)]
    outputs.append(_write_text(out / "modes.txt", "\n".join(txt) + "\n"))
    return outputs


# ------------------------------------------------------------------ replay

_COMMANDS = {
    "gen-data": run_gen_data,
    "fit": run_fit,
    "abc": run_abc,
    "map": run_map,
    "fem-modes": run_fem_modes,
}


def run_replay(config: dict) -> list[str]:
    try:
        manifest = json.loads(Path(config["manifest"]).read_text())
        command, inner = manifest["command"], dict(manifest["config"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"cannot read manifest {config['manifest']}: {exc}") from None
    if command not in _COMMANDS:
        raise ConfigError(f"manifest names unknown command {command!r}")
    if config.get("out_dir"):
        inner["out_dir"] = config["out_dir"]
    out = _out_dir(inner)
    t0 = time.monotonic()
    outputs = _COMMANDS[command](inner)
    _write_manifest(out, command, inner, outputs, t0)
    return outputs


# ------------------------------------------------------------------- parser

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", required=True, dest="out_dir",
                   help="output directory (created if missing)")
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed (default 0, recorded in the manifest)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drillstab",
        description="bit-rock model calibration and torsional stability maps")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="synthesize a torque dataset CSV")
    _add_common(p)
    p.add_argument("--model", required=True, help="m1, m2, m3 or m4")
    p.add_argument("--params", default=None,
                   help="comma-separated values; default: built-in reference "
                        "calibration estimates")
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--w-ref", type=float, default=W_REF_KN, dest="w_ref")
    p.add_argument("--noise", type=float, default=0.0,
                   help="additive Gaussian noise std, kN m")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--speed-min", type=float, default=0.5, dest="speed_min")
    p.add_argument("--speed-max", type=float, default=15.0, dest="speed_max")
    p.add_argument("--filename", default="dataset.csv")

    p = sub.add_parser("fit", help="least-squares calibration")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--speed-unit", choices=("rad_s", "rpm"), default="rad_s",
                   dest="speed_unit")
    p.add_argument("--models", default="m1,m2,m3,m4")
    p.add_argument("--initial", default=None,
                   help="initial parameters (single model only); default "
                        "reference estimates")
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--starts", type=int, default=1)
    p.add_argument("--jitter", type=float, default=0.2)

    p = sub.add_parser("abc", help="ABC rejection run with model selection")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--speed-unit", choices=("rad_s", "rpm"), default="rad_s",
                   dest="speed_unit")
    p.add_argument("--delta", type=float, default=0.4)
    p.add_argument("--n", type=int, default=25_000)
    p.add_argument("--eps-floor", type=float, default=0.014, dest="eps_floor")
    p.add_argument("--max-populations", type=int, default=20,
                   dest="max_populations")
    p.add_argument("--model-prior", default=None, dest="model_prior",
                   help="four comma-separated probabilities (default uniform)")
    p.add_argument("--prior-centers", choices=("fit", "reference"),
                   default="fit", dest="prior_centers")
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--starts", type=int, default=3,
                   help="multi-starts for the internal LS fits")
    p.add_argument("--threads", type=int, default=None,
                   help="default: available parallelism; 1 forces serial")
    p.add_argument("--envelope-coverage", type=float, default=0.98,
                   dest="envelope_coverage")
    p.add_argument("--no-svg", action="store_true", dest="no_svg")

    p = sub.add_parser("map", help="stability maps and boundary curves")
    _add_common(p)
    p.add_argument("--mode", choices=("deterministic", "stochastic", "mixture"),
                   default="deterministic")
    p.add_argument("--plant", choices=("1dof", "fem"), default="1dof")
    p.add_argument("--models", default=None,
                   help="comma list (default m1..m4 deterministic, m2,m3 otherwise)")
    p.add_argument("--params", default=None,
                   help="deterministic single-model parameter override")
    p.add_argument("--abc-state", default=None, dest="abc_state",
                   help="abc_state directory (stochastic/mixture modes)")
    p.add_argument("--population", type=int, default=None,
                   help="population index to draw particles from (default last)")
    p.add_argument("--percentile", type=float, default=0.02)
    p.add_argument("--weights", default=None,
                   help="mixture weights (default: posterior frequencies)")
    p.add_argument("--min-particles", type=int, default=100,
                   dest="min_particles")
    p.add_argument("--w-ref", type=float, default=W_REF_KN, dest="w_ref")
    p.add_argument("--i-eq", type=float, default=REFERENCE_INERTIA, dest="i_eq")
    p.add_argument("--omega-n", type=float, default=REFERENCE_OMEGA_N,
                   dest="omega_n")
    p.add_argument("--xi", type=float, default=REFERENCE_XI)
    p.add_argument("--n-dp", type=int, default=1, dest="n_dp")
    p.add_argument("--n-bha", type=int, default=1, dest="n_bha")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--beta", type=float, default=0.006)
    p.add_argument("--omega-min", type=float, default=1.0, dest="omega_min")
    p.add_argument("--omega-max", type=float, default=20.0, dest="omega_max")
    p.add_argument("--wob-min", type=float, default=None, dest="wob_min")
    p.add_argument("--wob-max", type=float, default=None, dest="wob_max")
    p.add_argument("--resolution", type=int, default=80)
    p.add_argument("--no-svg", action="store_true", dest="no_svg")

    p = sub.add_parser("fem-modes", help="modal table of the FE model")
    _add_common(p)
    p.add_argument("--n-dp", type=int, default=1, dest="n_dp")
    p.add_argument("--n-bha", type=int, default=1, dest="n_bha")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--beta", type=float, default=0.006)

    p = sub.add_parser("replay", help="re-run a command from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", default=None, dest="out_dir",
                   help="override the output directory")

    return parser


def _config_from_args(args: argparse.Namespace) -> dict:
    config = {k: v for k, v in vars(args).items()
              if k != "command" and v is not None}
    # argparse stores mixture models default as None; drop booleans at False
    return {k: v for k, v in config.items() if v is not False}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = _config_from_args(args)
    command = args.command
    try:
        if command == "replay":
            run_replay(config)
            return 0
        if command == "map" and "models" not in config:
            config["models"] = ("m1,m2,m3,m4"
                                if config.get("mode", "deterministic")
                                == "deterministic" else "m2,m3")
        out = _out_dir(config)
        t0 = time.monotonic()
        outputs = _COMMANDS[command](config)
        _write_manifest(out, command, config, outputs, t0)
    except (ConfigError, DomainError) as exc:
        # bad flag values reaching the library surface as DomainError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 4
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except DrillstabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
