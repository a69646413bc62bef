"""Every output table and JSON file against a per-row reference writer.

The reference writers below build each file one row at a time, as the
package did before ``dataio.write_table`` and ``dataio.write_json`` took
over; the files must match them byte for byte on crafted values that a
pipeline run does not produce: NaN, inf, -0.0, subnormals, 1e16 and
1e-300. (Population CSVs, with their NaN padding as empty cells, are
checked the same way in ``test_abc.py``.)
"""

import json
import math

import numpy as np
import pytest

from drillstab import abc, cli
from drillstab.bitrock import MODEL_KINDS, PARAM_NAMES, BitRockModel
from drillstab.dataio import TorqueDataset, synthesize, write_csv, write_json
from drillstab.fem import assemble, modal_properties
from drillstab.reference import (REFERENCE_GEOMETRY, REFERENCE_PARAMS,
                                 W_REF_KN)
from drillstab.stability import (RAD_S_TO_RPM, BoundaryCurve, StabilityGrid,
                                 boundary_to_csv, grid_to_csv)

SPECIAL = [0.1, -0.0, 5e-324, -2.2250738585072014e-308, 1e16, 1e-300,
           1.7976931348623157e308, -123456.789, 3.0, math.pi, math.nan,
           -math.inf]


def text(lines) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")


# ------------------------------------------------------ reference writers

def ref_dataset(ds):
    lines = ["# drillstab-dataset", f"# w_ref_kn={ds.w_ref!r}",
             f"# source={ds.source}", "speed,torque_knm,split"]
    for s, t, sp in zip(ds.speeds, ds.torques, ds.split):
        lines.append(f"{float(s)!r},{float(t)!r},{sp}")
    return text(lines)


def ref_grid(grid, w_ref):
    has_p = grid.p_unstable is not None
    lines = ["omega_rad_s,omega_rpm,wob_kn,r,stable"
             + (",p_unstable" if has_p else "")]
    for i, om in enumerate(grid.omega_axis):
        for j, w in enumerate(grid.wob_axis):
            row = (f"{float(om)!r},{float(om * RAD_S_TO_RPM)!r},{float(w)!r},"
                   f"{float(w / w_ref)!r},{int(grid.stable[i, j])}")
            if has_p:
                row += f",{float(grid.p_unstable[i, j])!r}"
            lines.append(row)
    return text(lines)


def ref_boundary(curve, w_ref):
    lines = ["omega_rad_s,omega_rpm,wob_kn,r"]
    for om, w in curve.points:
        lines.append(f"{float(om)!r},{float(om * RAD_S_TO_RPM)!r},"
                     f"{float(w)!r},{float(w / w_ref)!r}")
    return text(lines)


def ref_evolution(state):
    lines = ["population,tolerance,attempts,"
             + ",".join(f"p_m{k}" for k in MODEL_KINDS)]
    for g in range(1, state.n_populations + 1):
        probs = [float(p) for p in abc.model_posterior(state, g)]
        lines.append(f"{g},{state.tolerances[g - 1]!r},"
                     f"{state.populations[g - 1].attempts},"
                     + ",".join(repr(p) for p in probs))
    return text(lines)


def ref_marginals(stats):
    lines = ["param,bin_lo,bin_hi,count"]
    for j, name in enumerate(stats.param_names):
        e, c = stats.bin_edges[j], stats.bin_counts[j]
        for b in range(len(c)):
            lines.append(f"{name},{float(e[b])!r},{float(e[b + 1])!r},{int(c[b])}")
    return text(lines)


def ref_correlation(stats):
    lines = ["," + ",".join(stats.param_names)]
    for j, name in enumerate(stats.param_names):
        lines.append(",".join([name] + [repr(float(v))
                                        for v in stats.correlation[j]]))
    return text(lines)


def ref_envelope(speeds, low, high):
    lines = ["speed_rad_s,torque_low_knm,torque_high_knm"]
    for s, lo_v, hi_v in zip(speeds, low, high):
        lines.append(f"{float(s)!r},{float(lo_v)!r},{float(hi_v)!r}")
    return text(lines)


def ref_modes(modes):
    lines = ["mode,omega_rad_s,omega_rpm,xi"]
    for i, (w, xi) in enumerate(modes, start=1):
        lines.append(f"{i},{w!r},{w * RAD_S_TO_RPM!r},{xi!r}")
    return text(lines)


def ref_json(obj):
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


# ---------------------------------------------------------------- tables

def test_dataset_preamble_and_split_column(tmp_path):
    speeds = np.array([0.0, -0.0, 5e-324, 1e-300, 0.1, 1e16, math.pi])
    torques = np.array([-0.0, 1e16, -5e-324, 1e-300, -123456.789, 3.0, 0.1])
    split = np.array(["calibration", "validation"] * 3 + ["calibration"],
                     dtype=object)
    ds = TorqueDataset(speeds=speeds, torques=torques, split=split,
                       source="synthetic:m3:seed=1:noise=0.8", w_ref=244.2)
    written = write_csv(ds, tmp_path / "ds.csv").read_bytes()
    assert written == ref_dataset(ds)
    assert written.startswith(b"# drillstab-dataset\n# w_ref_kn=244.2\n")


@pytest.mark.parametrize("with_p", [True, False])
def test_grid_with_and_without_probability(tmp_path, with_p):
    omega = np.array([5e-324, 1e-300, 0.1, 3.0, 1e16])
    wob = np.array([-0.0, 1e-300, 244.2, 1e16])
    rng = np.random.default_rng(3)
    p = rng.choice(SPECIAL, size=(len(omega), len(wob)))
    grid = StabilityGrid(omega_axis=omega, wob_axis=wob, stable=p < 0.5,
                         p_unstable=p if with_p else None)
    written = grid_to_csv(grid, tmp_path / "grid.csv", 244.2).read_bytes()
    assert written == ref_grid(grid, 244.2)
    assert written.split(b"\n")[0].endswith(b",p_unstable") == with_p


@pytest.mark.parametrize("points", [np.empty((0, 2)),
                                    np.array([[5e-324, -0.0], [1e-300, 1e16],
                                              [0.1, 1e-300], [3.0, 123456.789],
                                              [7.5, math.nan], [1e16, math.inf]])])
def test_boundary_empty_and_crafted(tmp_path, points):
    curve = BoundaryCurve(points=points)
    written = boundary_to_csv(curve, tmp_path / "b.csv", W_REF_KN).read_bytes()
    assert written == ref_boundary(curve, W_REF_KN)
    assert written.count(b"\n") == len(points) + 1


def test_json_sorted_two_space_indent(tmp_path):
    obj = {"z": [repr(math.inf), repr(-0.0), 5e-324, 1e16], "a": {"k": None},
           "m": "tolerance ε", "n": 25000}
    assert write_json(tmp_path / "x.json", obj).read_bytes() == ref_json(obj)


# ------------------------------------------------------------- commands

@pytest.fixture
def crafted_abc(tmp_path, monkeypatch):
    """Run ``abc`` on a crafted state, posterior summary and envelope."""
    n = 200
    kinds = np.tile(MODEL_KINDS, n // len(MODEL_KINDS))
    phis = np.full((n, abc.MAX_PARAMS), np.nan)
    for i, k in enumerate(kinds):
        p = len(PARAM_NAMES[k])
        phis[i, :p] = np.roll(SPECIAL[:10], i)[:p]
    pops = [abc.Population(kinds=kinds, phis=phis, distances=np.resize(d, n),
                           tolerance=eps, attempts=a)
            for d, eps, a in (([0.5, 5e-324, -0.0], math.inf, n),
                              ([1e-300, 0.0], 1e-299, 10 ** 12))]
    state = abc.AbcState(populations=pops, tolerances=[math.inf, 1e-299],
                         next_tolerance=5e-324, stopped_by="max_populations",
                         n=n, seed=0, eps_floor=0.014, model_prior=(0.25,) * 4,
                         priors=abc.build_priors(REFERENCE_PARAMS, 0.4))
    stats = {}
    for k in MODEL_KINDS:
        p = len(PARAM_NAMES[k])
        corr = np.full((p, p), -0.0)
        corr[0, :] = corr[:, 0] = math.nan     # a degenerate first parameter
        np.fill_diagonal(corr, 1.0)
        corr[-1, -2] = 5e-324                  # and an asymmetric entry
        stats[k] = abc.PosteriorStats(
            param_names=PARAM_NAMES[k],
            bin_edges=[np.array([-1e16, -0.0, 1e-300, 0.1, 1e16])] * p,
            bin_counts=[np.array([0, 50, 0, 10 ** 9])] * p,
            correlation=corr)
    envelope = (np.resize(SPECIAL, n), -np.resize(SPECIAL[::-1], n))
    monkeypatch.setattr(abc, "run", lambda *a, **kw: state)
    monkeypatch.setattr(abc, "posterior_stats", lambda st, g, k: stats[k])
    monkeypatch.setattr(abc, "predictive_envelope", lambda *a, **kw: envelope)
    ds = synthesize(BitRockModel(kind=3, params=REFERENCE_PARAMS[3]), 1.0,
                    seed=2)
    write_csv(ds, tmp_path / "ds.csv")
    out = tmp_path / "abc"
    assert cli.main(["abc", "--out-dir", str(out), "--data", str(tmp_path / "ds.csv"),
                     "--prior-centers", "reference", "--no-svg"]) == 0
    speeds = np.linspace(float(ds.speeds.min()), float(ds.speeds.max()), 200)
    return out, state, stats, speeds, envelope


def test_abc_tables_match_reference(crafted_abc):
    out, state, stats, speeds, (low, high) = crafted_abc
    assert (out / "probability_evolution.csv").read_bytes() == ref_evolution(state)
    assert b"\n1,inf,200," in (out / "probability_evolution.csv").read_bytes()
    for k in MODEL_KINDS:
        assert (out / f"marginals_m{k}.csv").read_bytes() == ref_marginals(stats[k])
        corr = (out / f"correlation_m{k}.csv").read_bytes()
        assert corr == ref_correlation(stats[k])
        assert b",nan" in corr
        assert (out / f"envelope_m{k}.csv").read_bytes() == \
            ref_envelope(speeds, low, high)


def test_abc_json_files_match_reference(crafted_abc):
    out = crafted_abc[0]
    for name in ("manifest.json", "abc_state/abc_state.json"):
        written = (out / name).read_bytes()
        assert written == ref_json(json.loads(written))


def test_fem_modes_match_reference(tmp_path):
    assert cli.main(["fem-modes", "--out-dir", str(tmp_path), "--n-dp", "8",
                     "--n-bha", "2", "--beta", "0.0021"]) == 0
    modes = modal_properties(assemble(REFERENCE_GEOMETRY, n_dp=8, n_bha=2,
                                      alpha=0.5, beta=0.0021))
    assert (tmp_path / "modes.csv").read_bytes() == ref_modes(modes)


def test_fit_report_matches_reference(tmp_path):
    ds = synthesize(BitRockModel(kind=2, params=REFERENCE_PARAMS[2]), 1.0,
                    noise_std=0.5, seed=4)
    write_csv(ds, tmp_path / "ds.csv")
    assert cli.main(["fit", "--out-dir", str(tmp_path), "--data",
                     str(tmp_path / "ds.csv"), "--models", "m2"]) == 0
    written = (tmp_path / "fit_report.json").read_bytes()
    assert written == ref_json(json.loads(written))
