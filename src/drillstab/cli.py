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
wall time) into its output directory; ``replay`` turns the config back into
command-line options and parses them with the same parser, then produces
byte-identical CSV and SVG outputs, serial or parallel. Exit codes:
0 success, 2 config error, 3 numeric failure, 4 data error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, abc as abc_mod, svgplot
from .bitrock import BitRockModel, MODEL_KINDS, PARAM_COUNTS, WobRatio
from .calibration import fit
from .dataio import (DEFAULT_SPEED_POINTS, DEFAULT_SPEED_RANGE, read_csv,
                     synthesize, write_csv, write_json, write_table,
                     write_text)
from .dynamics import LumpedDrillString
from .errors import (ConfigError, DataError, DrillstabError, DomainError,
                     NumericError)
from .fem import assemble, modal_properties
from .reference import (REFERENCE_GEOMETRY, REFERENCE_INERTIA,
                        REFERENCE_OMEGA_N, REFERENCE_PARAMS, REFERENCE_XI,
                        W_REF_KN)
from .stability import (DEFAULT_OMEGA_RANGE, DEFAULT_RESOLUTION, RAD_S_TO_RPM,
                        boundary_to_csv, critical_damping, grid_to_csv,
                        map_deterministic, map_mixture, map_stochastic)

_MODEL_NAMES = {f"m{k}": k for k in MODEL_KINDS}


def _model_kind(name: str) -> int:
    if name not in _MODEL_NAMES:
        raise ConfigError(
            f"unknown model {name!r}; valid options: {', '.join(_MODEL_NAMES)}")
    return _MODEL_NAMES[name]


def _model_list(text: str) -> list[int]:
    kinds = [_model_kind(tok.strip()) for tok in text.split(",") if tok.strip()]
    if not kinds:
        raise ConfigError(f"--models names no model, got {text!r}")
    return kinds


def _floats(text: str, flag: str) -> list[float]:
    """Parse the comma-separated numbers given to ``flag``."""
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} takes comma-separated numbers, got {text!r}") from None


def _params_for(kind: int, spec, flag: str = "--params") -> tuple[float, ...]:
    """Resolve a parameter spec: None/'reference' or comma-separated numbers."""
    if spec in (None, "reference"):
        return REFERENCE_PARAMS[kind]
    vals = tuple(_floats(spec, flag))
    if len(vals) != PARAM_COUNTS[kind]:
        raise ConfigError(
            f"model m{kind} takes {PARAM_COUNTS[kind]} parameters, got {len(vals)}")
    return vals


def _write_manifest(out_dir: Path, command: str, config: dict,
                    outputs: list[str], t0: float) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": config["seed"],
        "versions": {
            "drillstab": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "wall_time_s": round(time.monotonic() - t0, 3),
        "outputs": sorted(outputs),
    }
    write_json(out_dir / "manifest.json", manifest)


def _out_dir(config) -> Path:
    out = Path(config["out_dir"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create --out-dir {out}: {exc}") from None
    return out


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one,
    which a CPU-limited container narrows below os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ---------------------------------------------------------------- gen-data

# huge speeds overflow to inf or NaN, which synthesize rejects (an
# overflowing torque law may also still give finite torques)
@np.errstate(over="ignore", invalid="ignore")
def run_gen_data(config: dict) -> list[str]:
    kind = _model_kind(config["model"])
    model = BitRockModel(kind=kind, params=_params_for(kind, config["params"]))
    w_ref = config["w_ref"]
    speeds = np.linspace(config["speed_min"], config["speed_max"], config["n"])
    dataset = synthesize(model, WobRatio.from_ratio(config["r"], w_ref),
                         speeds=speeds, noise_std=config["noise"],
                         seed=config["seed"], w_ref=w_ref)
    write_csv(dataset, _out_dir(config) / config["filename"])
    return [config["filename"]]


# --------------------------------------------------------------------- fit

def _fit_models(dataset, kinds, r, initial=None, **kwargs
                ) -> dict[int, "FitResult"]:
    if initial is not None and len(kinds) != 1:
        raise ConfigError("--initial applies to a single --models entry")
    return {kind: fit(dataset, kind, r, _params_for(kind, initial, "--initial"),
                      **kwargs) for kind in kinds}


def run_fit(config: dict) -> list[str]:
    kinds = _model_list(config["models"])
    dataset = read_csv(config["data"], speed_unit=config["speed_unit"])
    out = _out_dir(config)
    results = _fit_models(dataset, kinds,
                          WobRatio.from_ratio(config["r"], dataset.w_ref),
                          config["initial"], n_starts=config["starts"],
                          jitter=config["jitter"], seed=config["seed"])
    report = {
        f"m{k}": {
            "params": [repr(v) for v in res.model.params],
            "metric": repr(res.metric_value),
            "evaluations": res.iterations,
            "converged": res.converged,
        } for k, res in sorted(results.items())
    }
    outputs = [write_json(out / "fit_report.json", report).name]
    lines = [f"{'model':<6} {'rho':<12} {'nfev':<7} conv  parameters"]
    for k, res in sorted(results.items()):
        pstr = ", ".join(f"{v:.6g}" for v in res.model.params)
        lines.append(f"m{k:<5} {res.metric_value:<12.6g} {res.iterations:<7d} "
                     f"{str(res.converged):<5} {pstr}")
    outputs.append(write_text(out / "fit_report.txt", "\n".join(lines) + "\n").name)
    return outputs


# --------------------------------------------------------------------- abc

def run_abc(config: dict) -> list[str]:
    coverage = config["envelope_coverage"]
    sampler = {}
    if config["model_prior"] is not None:
        sampler["model_prior"] = _floats(config["model_prior"], "--model-prior")
    dataset = read_csv(config["data"], speed_unit=config["speed_unit"])
    out = _out_dir(config)
    r = WobRatio.from_ratio(config["r"], dataset.w_ref)
    if config["prior_centers"] == "reference":
        centers = REFERENCE_PARAMS
    else:
        centers = _fit_models(dataset, MODEL_KINDS, r,
                              n_starts=config["starts"], seed=config["seed"])
    state = abc_mod.run(dataset, abc_mod.build_priors(centers, config["delta"]),
                        n=config["n"], eps_floor=config["eps_floor"],
                        max_populations=config["max_populations"],
                        seed=config["seed"], r=r,
                        threads=config["threads"] or _usable_cpus(),
                        **sampler)
    abc_mod.save_state(state, out / "abc_state")
    outputs = [f"abc_state/population_{g:02d}.csv"
               for g in range(1, state.n_populations + 1)]
    outputs.append("abc_state/abc_state.json")

    # probability / tolerance evolution
    gens = list(range(1, state.n_populations + 1))
    evo = np.array([[float(p) for p in abc_mod.model_posterior(state, g)]
                    for g in gens])
    outputs.append(write_table(
        out / "probability_evolution.csv",
        ["population", "tolerance", "attempts", *(f"p_m{k}" for k in MODEL_KINDS)],
        [np.array(gens), np.array(state.tolerances),
         np.array([pop.attempts for pop in state.populations]), *evo.T]).name)

    final = state.n_populations
    rich = [k for k in MODEL_KINDS
            if state.populations[-1].count(k) >= abc_mod.ENVELOPE_MIN_PARTICLES]
    speeds = np.linspace(float(dataset.speeds.min()),
                         float(dataset.speeds.max()), 200)
    envelopes = {}
    for k in rich:
        stats = abc_mod.posterior_stats(state, final, k)
        edges = stats.bin_edges
        outputs.append(write_table(
            out / f"marginals_m{k}.csv", ["param", "bin_lo", "bin_hi", "count"],
            [[name for name, c in zip(stats.param_names, stats.bin_counts)
              for _ in c],
             np.concatenate([e[:-1] for e in edges]),
             np.concatenate([e[1:] for e in edges]),
             np.concatenate(stats.bin_counts)]).name)
        outputs.append(write_table(
            out / f"correlation_m{k}.csv", ["", *stats.param_names],
            [stats.param_names, *stats.correlation.T]).name)
        low, high = envelopes[k] = abc_mod.predictive_envelope(
            state, final, k, speeds, coverage=coverage, r=r)
        outputs.append(write_table(
            out / f"envelope_m{k}.csv",
            ["speed_rad_s", "torque_low_knm", "torque_high_knm"],
            [speeds, low, high]).name)

    if not config["no_svg"]:
        series = [svgplot.Series(x=gens, y=list(evo[:, i]), label=f"m{k}")
                  for i, k in enumerate(MODEL_KINDS)]
        outputs.append(write_text(
            out / "model_probabilities.svg",
            svgplot.render(series, "population", "posterior probability",
                           "model probability evolution")).name)
        tol = [state.tolerances[g] for g in range(1, state.n_populations)]
        if tol:
            series = [svgplot.Series(x=gens[1:], y=tol, label="tolerance")]
            outputs.append(write_text(
                out / "tolerance_evolution.svg",
                svgplot.render(series, "population", "tolerance",
                               "tolerance schedule (population 1 accepts all)")).name)
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
            outputs.append(write_text(
                out / f"predictions_m{k}.svg",
                svgplot.render(pts, "bit speed [rad/s]", "torque on bit [kN m]",
                               f"posterior predictions, model m{k}",
                               bands=[band])).name)
    return outputs


# --------------------------------------------------------------------- map

def _fem_plant(config):
    return assemble(REFERENCE_GEOMETRY, n_dp=config["n_dp"],
                    n_bha=config["n_bha"], alpha=config["alpha"],
                    beta=config["beta"])


# map options that only some modes read; any other mode rejects them
_MAP_MODE_OPTIONS = {"params": ("deterministic",),
                     "abc_state": ("stochastic", "mixture"),
                     "population": ("stochastic", "mixture"),
                     "weights": ("mixture",)}


def run_map(config: dict) -> list[str]:
    w_ref, mode = config["w_ref"], config["mode"]
    ignored = [f"--{key.replace('_', '-')}" for key, modes in _MAP_MODE_OPTIONS.items()
               if config[key] is not None and mode not in modes]
    if ignored:
        raise ConfigError(f"--mode {mode} does not use {', '.join(ignored)}")
    kinds = _model_list(config["models"])
    plant = (_fem_plant(config) if config["plant"] == "fem" else
             LumpedDrillString.from_modal(config["i_eq"], config["omega_n"],
                                          config["xi"]))
    kwargs = dict(omega_range=(config["omega_min"], config["omega_max"]),
                  wob_range=(config["wob_min"], config["wob_max"]),
                  resolution=(config["resolution"], config["resolution"]),
                  c_star=critical_damping(plant))
    out = _out_dir(config)

    # one (file tag, legend label, (grid, curve)) per map
    if mode == "deterministic":
        maps = [(f"m{kind}", f"m{kind} (MAP)", map_deterministic(
            BitRockModel(kind=kind, params=_params_for(kind, config["params"])),
            plant, w_ref, **kwargs)) for kind in kinds]
    else:
        if config["abc_state"] is None:
            raise ConfigError(f"--abc-state is required for mode {mode}")
        pct, min_particles = config["percentile"], config["min_particles"]
        g, pop = abc_mod.load_population(config["abc_state"],
                                         config["population"])
        sets = []
        for kind in kinds:
            phis = pop.particles_of(kind)
            if len(phis) < min_particles:
                raise DataError(
                    f"model m{kind} has {len(phis)} particles in population "
                    f"{g}; need >= {min_particles}")
            sets.append((kind, phis))
        if mode == "stochastic":
            maps = [(f"m{kind}_p{pct:g}", f"m{kind} ({pct:.0%} unstable)",
                     map_stochastic(kind, phis, plant, w_ref, percentile=pct,
                                    **kwargs))
                    for kind, phis in sets]
        else:
            weights = config["weights"]
            if weights is None:
                counts = [pop.count(k) for k, _ in sets]
                weights = [c / sum(counts) for c in counts]
            else:
                weights = _floats(weights, "--weights")
            label = "+".join(f"{w:.0%} m{k}" for (k, _), w in zip(sets, weights))
            maps = [("mixture", f"mixture {label}",
                     map_mixture(sets, weights, plant, w_ref, percentile=pct,
                                 **kwargs))]

    outputs = []
    for tag, _, (grid, curve) in maps:
        outputs.append(grid_to_csv(grid, out / f"map_{tag}_grid.csv", w_ref).name)
        outputs.append(boundary_to_csv(
            curve, out / f"map_{tag}_boundary.csv", w_ref).name)

    if not config["no_svg"]:
        dashed = mode != "deterministic"
        series = []
        for idx, (_, label, (grid, curve)) in enumerate(maps):
            if len(curve) == 0:
                continue
            # one polyline per piece, so re-entering branches are not
            # bridged by a spurious segment
            color = svgplot.PALETTE[idx % len(svgplot.PALETTE)]
            for i, piece in enumerate(curve.pieces(grid.cell_sizes[0])):
                series.append(svgplot.Series(
                    x=[om * RAD_S_TO_RPM for om in piece[:, 0]],
                    y=list(piece[:, 1]), label=label if i == 0 else "",
                    color=color, dashed=dashed))
        if series:
            outputs.append(write_text(
                out / "map_boundaries.svg",
                svgplot.render(series, "rotary speed [RPM]",
                               f"weight on bit [kN]  (r = W / {w_ref:g} kN)",
                               "torsional stability boundaries "
                               "(below curve: stable)")).name)
    return outputs


# --------------------------------------------------------------- fem-modes

def run_fem_modes(config: dict) -> list[str]:
    modes = modal_properties(_fem_plant(config))
    out = _out_dir(config)
    w, xi = np.array(modes).T
    outputs = [write_table(out / "modes.csv",
                           ["mode", "omega_rad_s", "omega_rpm", "xi"],
                           [np.arange(1, len(modes) + 1), w, w * RAD_S_TO_RPM,
                            xi]).name]
    txt = [f"{'mode':<5} {'omega [rad/s]':<14} {'omega [RPM]':<12} xi"]
    txt += [f"{i:<5d} {w:<14.4f} {w * RAD_S_TO_RPM:<12.3f} {xi:.4f}"
            for i, (w, xi) in enumerate(modes, start=1)]
    outputs.append(write_text(out / "modes.txt", "\n".join(txt) + "\n").name)
    return outputs


# ------------------------------------------------------------------ replay

_COMMANDS = {
    "gen-data": run_gen_data,
    "fit": run_fit,
    "abc": run_abc,
    "map": run_map,
    "fem-modes": run_fem_modes,
}


def _recorded(config: dict) -> dict:
    """The config a manifest records: options left unset or off are dropped."""
    return {k: v for k, v in config.items() if v is not None and v is not False}


def _argv(command: str, config: dict) -> list[str]:
    """The command line that parses back to ``config``: ``str`` round-trips
    floats exactly, and the ``--key=value`` form lets a value start with -."""
    return [command] + [f"--{key.replace('_', '-')}"
                        + ("" if value is True else f"={value}")
                        for key, value in _recorded(config).items()]


def _replay_argv(config: dict) -> list[str]:
    """The command line that reproduces the manifest named in ``config``."""
    try:
        manifest = json.loads(Path(config["manifest"]).read_text())
        command, inner = manifest["command"], dict(manifest["config"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"cannot read manifest {config['manifest']}: {exc}") from None
    if not (isinstance(command, str) and command in _COMMANDS):
        raise ConfigError(f"manifest names unknown command {command!r}")
    inner.pop("refine", None)   # retired map option, still in old manifests
    if config["out_dir"] is not None:
        inner["out_dir"] = config["out_dir"]
    return _argv(command, inner)


# ------------------------------------------------------------------- parser

def _add_command(sub, name: str, summary: str) -> argparse.ArgumentParser:
    # no abbreviations: a replayed manifest key must name its option exactly
    p = sub.add_parser(name, help=summary, allow_abbrev=False)
    p.add_argument("--out-dir", required=True,
                   help="output directory (created if missing)")
    p.add_argument("--seed", type=_nonnegative_int, default=0,
                   help="RNG seed (default 0, recorded in the manifest)")
    return p


def _add_data(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True)
    p.add_argument("--speed-unit", choices=("rad_s", "rpm"), default="rad_s")


def _add_fem_plant(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-dp", type=_positive_int, default=1)
    p.add_argument("--n-bha", type=_positive_int, default=1)
    p.add_argument("--alpha", type=_nonnegative_float, default=0.5)
    p.add_argument("--beta", type=_nonnegative_float, default=0.006)


def _checked(parse, ok, rule: str):
    """An argparse ``type``: ``parse`` the text, then reject a value that
    fails ``ok`` (written so that NaN fails it)."""
    def check(text: str):
        value = parse(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value
    check.__name__ = parse.__name__     # argparse names it in "invalid ... value"
    return check


_nonnegative_int = _checked(int, lambda v: v >= 0, ">= 0")
_positive_int = _checked(int, lambda v: v >= 1, ">= 1")
_int_from_2 = _checked(int, lambda v: v >= 2, ">= 2")
_fraction = _checked(float, lambda v: 0 <= v <= 1, "in [0, 1]")
_open_fraction = _checked(float, lambda v: 0 < v < 1, "in (0, 1)")
_coverage = _checked(float, lambda v: 0 <= v < 1, "in [0, 1)")
_nonnegative_float = _checked(float, lambda v: 0 <= v < math.inf, "finite and >= 0")
_positive_float = _checked(float, lambda v: 0 < v < math.inf, "finite and > 0")


def _file_name(text: str) -> str:
    if text in ("", ".", "..") or os.path.basename(text) != text:
        raise argparse.ArgumentTypeError(f"must be a bare file name, got {text!r}")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drillstab",
        description="bit-rock model calibration and torsional stability maps")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "gen-data", "synthesize a torque dataset CSV")
    p.add_argument("--model", required=True, help="m1, m2, m3 or m4")
    p.add_argument("--params",
                   help="comma-separated values; default: built-in reference "
                        "calibration estimates")
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--w-ref", type=_positive_float, default=W_REF_KN)
    p.add_argument("--noise", type=float, default=0.0,
                   help="additive Gaussian noise std, kN m")
    p.add_argument("--n", type=_int_from_2, default=DEFAULT_SPEED_POINTS)
    p.add_argument("--speed-min", type=float, default=DEFAULT_SPEED_RANGE[0])
    p.add_argument("--speed-max", type=float, default=DEFAULT_SPEED_RANGE[1])
    p.add_argument("--filename", type=_file_name, default="dataset.csv",
                   help="bare file name inside --out-dir")

    p = _add_command(sub, "fit", "least-squares calibration")
    _add_data(p)
    p.add_argument("--models", default="m1,m2,m3,m4")
    p.add_argument("--initial",
                   help="initial parameters (single model only); default "
                        "reference estimates")
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--starts", type=_positive_int, default=1)
    p.add_argument("--jitter", type=float, default=0.2)

    p = _add_command(sub, "abc", "ABC rejection run with model selection")
    _add_data(p)
    p.add_argument("--delta", type=_open_fraction, default=0.4)
    p.add_argument("--n", type=_positive_int, default=25_000)
    p.add_argument("--eps-floor", type=_positive_float,
                   default=abc_mod.DEFAULT_EPS_FLOOR)
    p.add_argument("--max-populations", type=_positive_int, default=20)
    p.add_argument("--model-prior",
                   help="four comma-separated probabilities (default uniform)")
    p.add_argument("--prior-centers", choices=("fit", "reference"), default="fit")
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--starts", type=_positive_int, default=3,
                   help="multi-starts for the internal LS fits")
    p.add_argument("--threads", type=_nonnegative_int,
                   help="default or 0: available parallelism; 1 forces serial")
    p.add_argument("--envelope-coverage", type=_coverage, default=0.98)
    p.add_argument("--no-svg", action="store_true")

    p = _add_command(sub, "map", "stability maps and boundary curves")
    p.add_argument("--mode", choices=("deterministic", "stochastic", "mixture"),
                   default="deterministic")
    p.add_argument("--plant", choices=("1dof", "fem"), default="1dof")
    p.add_argument("--models",
                   help="comma list (default m1..m4 deterministic, m2,m3 otherwise)")
    p.add_argument("--params",
                   help="deterministic single-model parameter override")
    p.add_argument("--abc-state",
                   help="abc_state directory (stochastic/mixture modes)")
    p.add_argument("--population", type=int,
                   help="population index to draw particles from (default last)")
    p.add_argument("--percentile", type=_fraction, default=0.02)
    p.add_argument("--weights",
                   help="mixture weights (default: posterior frequencies)")
    p.add_argument("--min-particles", type=_positive_int, default=100)
    p.add_argument("--w-ref", type=_positive_float, default=W_REF_KN)
    p.add_argument("--i-eq", type=float, default=REFERENCE_INERTIA)
    p.add_argument("--omega-n", type=float, default=REFERENCE_OMEGA_N)
    p.add_argument("--xi", type=float, default=REFERENCE_XI)
    _add_fem_plant(p)
    p.add_argument("--omega-min", type=float, default=DEFAULT_OMEGA_RANGE[0])
    p.add_argument("--omega-max", type=float, default=DEFAULT_OMEGA_RANGE[1])
    p.add_argument("--wob-min", type=float)
    p.add_argument("--wob-max", type=float)
    p.add_argument("--resolution", type=_int_from_2,
                   default=DEFAULT_RESOLUTION[0])
    p.add_argument("--no-svg", action="store_true")

    p = _add_command(sub, "fem-modes", "modal table of the FE model")
    _add_fem_plant(p)

    p = sub.add_parser("replay", help="re-run a command from its manifest",
                       allow_abbrev=False)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", help="override the output directory")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        config = vars(parser.parse_args(argv))
        # argparse reads "--key=--" as an empty list and skips the type
        empty = [key for key, value in config.items() if value == []]
        if empty:
            parser.error(f"--{empty[0].replace('_', '-')}: expected a value, got '--'")
    except SystemExit as exc:     # bad options, --help, --version
        return exc.code
    command = config.pop("command")
    try:
        if command == "replay":
            return main(_replay_argv(config))
        if command == "map" and config["models"] is None:
            config["models"] = ("m1,m2,m3,m4" if config["mode"] == "deterministic"
                                else "m2,m3")
        t0 = time.monotonic()
        outputs = _COMMANDS[command](config)
        _write_manifest(Path(config["out_dir"]), command, _recorded(config),
                        outputs, t0)
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
