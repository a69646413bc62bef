import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drillstab import abc as abc_mod
from drillstab import cli, stability
from drillstab.dataio import read_csv
from drillstab.errors import StallError
from drillstab.reference import REFERENCE_PARAMS, W_REF_KN


def run_cli(*args):
    return cli.main([str(a) for a in args])


def read_outputs(out_dir):
    """name -> bytes for every non-manifest CSV/SVG under out_dir."""
    out = {}
    for p in sorted(Path(out_dir).rglob("*")):
        if p.is_file() and p.suffix in (".csv", ".svg"):
            out[str(p.relative_to(out_dir))] = p.read_bytes()
    return out


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    code = run_cli("gen-data", "--out-dir", out, "--model", "m3",
                   "--noise", "0.8", "--seed", "1")
    assert code == 0
    return out


class TestGenData:
    def test_creates_200_row_csv_and_manifest(self, dataset_dir):
        ds = read_csv(dataset_dir / "dataset.csv")
        assert len(ds) == 200
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert manifest["seed"] == 1
        assert "dataset.csv" in manifest["outputs"]

    def test_default_seed_zero_recorded(self, tmp_path):
        assert run_cli("gen-data", "--out-dir", tmp_path, "--model", "m2") == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 0

    def test_invalid_model_name_exits_2(self, tmp_path, capsys):
        code = run_cli("gen-data", "--out-dir", tmp_path, "--model", "m9")
        assert code == 2
        assert "m1" in capsys.readouterr().err

    def test_non_numeric_params_exit_2(self, tmp_path, capsys):
        assert run_cli("gen-data", "--out-dir", tmp_path, "--model", "m2",
                       "--params", "a,b,c") == 2
        assert "--params" in capsys.readouterr().err

    def test_out_dir_naming_a_file_exits_2(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run_cli("gen-data", "--out-dir", taken, "--model", "m2") == 2
        assert "--out-dir" in capsys.readouterr().err

    def test_filename_with_a_directory_exits_2(self, tmp_path, capsys):
        assert run_cli("gen-data", "--out-dir", tmp_path / "o", "--model", "m2",
                       "--filename", "../../x/y.csv") == 2
        assert "--filename" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_explicit_params(self, tmp_path):
        code = run_cli("gen-data", "--out-dir", tmp_path, "--model", "m2",
                       "--params", "12,6,0.25", "--n", "10")
        assert code == 0
        ds = read_csv(tmp_path / "dataset.csv")
        assert ds.torques[0] == pytest.approx(
            (12 - 6) * math.exp(-0.25 * 0.5) + 6)

    @pytest.mark.parametrize("speed_max, code", [
        ("1e300", 0), ("inf", 2), ("-inf", 2)])
    def test_overflowing_speeds_print_no_warning(self, tmp_path, speed_max,
                                                 code):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("gen-data", "--out-dir", tmp_path, "--model", "m3",
                           f"--speed-max={speed_max}") == code


class TestFit:
    def test_noiseless_recovery_via_cli(self, tmp_path):
        gen = tmp_path / "g"
        assert run_cli("gen-data", "--out-dir", gen, "--model", "m2") == 0
        out = tmp_path / "f"
        assert run_cli("fit", "--out-dir", out, "--data", gen / "dataset.csv",
                       "--models", "m2") == 0
        report = json.loads((out / "fit_report.json").read_text())
        got = [float(v) for v in report["m2"]["params"]]
        for g, want in zip(got, REFERENCE_PARAMS[2]):
            assert abs(g - want) / abs(want) < 1e-3
        assert (out / "fit_report.txt").exists()

    def test_initial_with_multiple_models_exits_2(self, dataset_dir, tmp_path):
        code = run_cli("fit", "--out-dir", tmp_path, "--data",
                       dataset_dir / "dataset.csv", "--models", "m1,m2",
                       "--initial", "1,2,3")
        assert code == 2

    def test_non_numeric_initial_exits_2(self, dataset_dir, tmp_path, capsys):
        assert run_cli("fit", "--out-dir", tmp_path, "--data",
                       dataset_dir / "dataset.csv", "--models", "m2",
                       "--initial", "13,x,0.3") == 2
        assert "--initial" in capsys.readouterr().err

    def test_empty_model_list_exits_2(self, dataset_dir, tmp_path):
        assert run_cli("fit", "--out-dir", tmp_path, "--data",
                       dataset_dir / "dataset.csv", "--models", ",") == 2
        assert not (tmp_path / "fit_report.json").exists()

    def test_too_few_calibration_rows_exits_4(self, tmp_path):
        data = tmp_path / "thin.csv"
        data.write_text("speed,torque_knm,split\n"
                        "1.0,10.0,calibration\n2.0,9.0,calibration\n")
        assert run_cli("fit", "--out-dir", tmp_path / "o", "--data", data) == 4

    @pytest.mark.parametrize("jitter", ["nan", "inf", "-0.1", "1e308"])
    def test_bad_jitter_exits_2(self, dataset_dir, tmp_path, capsys, jitter):
        assert run_cli("fit", "--out-dir", tmp_path, "--data",
                       dataset_dir / "dataset.csv", "--models", "m2",
                       "--starts", "2", f"--jitter={jitter}") == 2
        assert "jitter" in capsys.readouterr().err
        assert not (tmp_path / "fit_report.json").exists()

    def test_zero_jitter_still_fits(self, dataset_dir, tmp_path):
        # every start is then the initial point, so the fit is the one-start fit
        params = {}
        for starts, jitter in (("1", "0.2"), ("2", "0")):
            out = tmp_path / starts
            assert run_cli("fit", "--out-dir", out, "--data",
                           dataset_dir / "dataset.csv", "--models", "m2",
                           "--starts", starts, "--jitter", jitter) == 0
            report = json.loads((out / "fit_report.json").read_text())
            params[starts] = report["m2"]["params"]
        assert params["1"] == params["2"]

    @pytest.mark.parametrize("options, code", [
        (["--starts", "3", "--jitter", "1e300"], 0),
        (["--r", "1e300"], 3),
    ])
    def test_overflowing_misfits_print_no_warning(self, dataset_dir, tmp_path,
                                                  options, code):
        # an overflowing start falls back to the initial point; an
        # overflowing initial point is a numeric failure
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("fit", "--out-dir", tmp_path, "--data",
                           dataset_dir / "dataset.csv", *options) == code


@pytest.mark.parametrize("command", [
    ["fit", "--models", "m2"],
    # reference centers skip the fits, so abc.run meets the torques itself
    ["abc", "--prior-centers", "reference", "--n", "40", "--no-svg"],
])
def test_all_zero_calibration_torques_exit_4(tmp_path, capsys, command):
    data = tmp_path / "flat.csv"
    data.write_text("speed,torque_knm,split\n"
                    + "".join(f"{s}.0,0.0,calibration\n" for s in range(1, 5)))
    assert run_cli(*command, "--out-dir", tmp_path / "o", "--data", data) == 4
    assert "all zero" in capsys.readouterr().err


@pytest.fixture(scope="module")
def abc_dir(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("abc")
    code = run_cli("abc", "--out-dir", out, "--data",
                   dataset_dir / "dataset.csv", "--n", "400",
                   "--max-populations", "3", "--seed", "2", "--threads", "1")
    assert code == 0
    return out


class TestAbc:
    def test_outputs_present(self, abc_dir):
        manifest = json.loads((abc_dir / "manifest.json").read_text())
        names = set(manifest["outputs"])
        assert "probability_evolution.csv" in names
        assert "abc_state/abc_state.json" in names
        assert any(n.startswith("envelope_m") for n in names)
        assert any(n.startswith("marginals_m") for n in names)
        assert any(n.startswith("correlation_m") for n in names)
        assert (abc_dir / "model_probabilities.svg").exists()

    def test_probability_rows_sum_to_one(self, abc_dir):
        lines = (abc_dir / "probability_evolution.csv").read_text().splitlines()
        assert lines[0].startswith("population,tolerance,attempts")
        for row in lines[1:]:
            cells = row.split(",")
            assert sum(float(c) for c in cells[3:]) == pytest.approx(1.0)

    def test_replay_reproduces_csv_outputs(self, abc_dir, tmp_path):
        replay_dir = tmp_path / "replayed"
        assert run_cli("replay", "--manifest", abc_dir / "manifest.json",
                       "--out-dir", replay_dir) == 0
        a = read_outputs(abc_dir)
        b = read_outputs(replay_dir)
        assert a.keys() == b.keys()
        for name in a:
            assert a[name] == b[name], f"{name} differs under replay"

    def test_parallel_run_is_byte_identical(self, dataset_dir, abc_dir,
                                            tmp_path):
        par = tmp_path / "par"
        code = run_cli("abc", "--out-dir", par, "--data",
                       dataset_dir / "dataset.csv", "--n", "400",
                       "--max-populations", "3", "--seed", "2",
                       "--threads", "4")
        assert code == 0
        a = read_outputs(abc_dir)
        b = read_outputs(par)
        assert a.keys() == b.keys()
        for name in a:
            assert a[name] == b[name], f"{name} differs when parallel"

    def test_reference_prior_centers(self, dataset_dir, tmp_path):
        out = tmp_path / "ref"
        code = run_cli("abc", "--out-dir", out, "--data",
                       dataset_dir / "dataset.csv", "--n", "200",
                       "--max-populations", "2", "--seed", "2",
                       "--prior-centers", "reference", "--no-svg")
        assert code == 0
        state = json.loads((out / "abc_state/abc_state.json").read_text())
        center = [float(v) for v in state["priors"]["2"]["center"]]
        assert center == pytest.approx(list(REFERENCE_PARAMS[2]))

    def test_non_numeric_model_prior_exits_2(self, dataset_dir, tmp_path,
                                             capsys):
        assert run_cli("abc", "--out-dir", tmp_path, "--data",
                       dataset_dir / "dataset.csv", "--prior-centers",
                       "reference", "--model-prior", "x,1,1,1") == 2
        assert "--model-prior" in capsys.readouterr().err

    @pytest.mark.parametrize("prior", ["inf,1,1,1", "1,nan,1,1"])
    def test_non_finite_model_prior_exits_2(self, dataset_dir, tmp_path,
                                            capsys, prior):
        assert run_cli("abc", "--out-dir", tmp_path, "--data",
                       dataset_dir / "dataset.csv", "--prior-centers",
                       "reference", f"--model-prior={prior}") == 2
        assert "model prior must be" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("threads", ["-4", "two"])
    def test_bad_threads_exit_2(self, dataset_dir, tmp_path, threads):
        assert run_cli("abc", "--out-dir", tmp_path, "--data",
                       dataset_dir / "dataset.csv", "--threads", threads) == 2

    def test_coverage_rejected_before_sampling(self, dataset_dir, tmp_path,
                                               monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("sampler ran")
        monkeypatch.setattr(cli.abc_mod, "run", never)
        out = tmp_path / "o"
        assert run_cli("abc", "--out-dir", out, "--data",
                       dataset_dir / "dataset.csv", "--prior-centers",
                       "reference", "--envelope-coverage", "1.5") == 2
        assert "coverage" in capsys.readouterr().err
        assert not out.exists()

    def test_stall_maps_to_exit_3(self, dataset_dir, tmp_path, monkeypatch):
        def fake_run(*args, **kwargs):
            raise StallError("stalled", epsilon=1e-9, attempts=10)
        monkeypatch.setattr(cli.abc_mod, "run", fake_run)
        code = run_cli("abc", "--out-dir", tmp_path, "--data",
                       dataset_dir / "dataset.csv", "--n", "50")
        assert code == 3

    def test_threads_0_uses_the_cpus_of_the_affinity_mask(self, dataset_dir,
                                                          tmp_path, monkeypatch):
        seen = {}

        def fake_run(*args, threads, **kwargs):
            seen["threads"] = threads
            raise StallError("stalled", epsilon=1e-9, attempts=10)
        monkeypatch.setattr(cli.abc_mod, "run", fake_run)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        assert run_cli("abc", "--out-dir", tmp_path, "--data",
                       dataset_dir / "dataset.csv", "--prior-centers",
                       "reference", "--threads", "0") == 3
        assert seen == {"threads": 3}


class TestMap:
    def test_deterministic_outputs(self, tmp_path):
        out = tmp_path / "m"
        code = run_cli("map", "--out-dir", out, "--models", "m2,m4",
                       "--resolution", "24")
        assert code == 0
        for k in (2, 4):
            grid = (out / f"map_m{k}_grid.csv").read_text().splitlines()
            assert len(grid) == 1 + 24 * 24
            boundary = (out / f"map_m{k}_boundary.csv").read_text().splitlines()
            assert len(boundary) > 5
        assert (out / "map_boundaries.svg").exists()

    def test_svg_emission_never_alters_csv(self, tmp_path):
        plain = tmp_path / "plain"
        nosvg = tmp_path / "nosvg"
        for out, extra in ((plain, []), (nosvg, ["--no-svg"])):
            assert run_cli("map", "--out-dir", out, "--models", "m2",
                           "--resolution", "16", *extra) == 0
        a = {k: v for k, v in read_outputs(plain).items() if k.endswith(".csv")}
        b = {k: v for k, v in read_outputs(nosvg).items() if k.endswith(".csv")}
        assert a == b
        assert not any(n.endswith(".svg") for n in read_outputs(nosvg))

    def test_stochastic_and_mixture_from_abc_state(self, abc_dir, tmp_path):
        out = tmp_path / "sto"
        code = run_cli("map", "--out-dir", out, "--mode", "stochastic",
                       "--abc-state", abc_dir / "abc_state",
                       "--models", "m3", "--min-particles", "30",
                       "--resolution", "20")
        assert code == 0
        assert (out / "map_m3_p0.02_grid.csv").exists()
        out2 = tmp_path / "mix"
        code = run_cli("map", "--out-dir", out2, "--mode", "mixture",
                       "--abc-state", abc_dir / "abc_state",
                       "--models", "m2,m3", "--min-particles", "30",
                       "--resolution", "20")
        assert code == 0
        assert (out2 / "map_mixture_boundary.csv").exists()

    def test_non_numeric_weights_exit_2(self, abc_dir, tmp_path, capsys):
        assert run_cli("map", "--out-dir", tmp_path, "--mode", "mixture",
                       "--abc-state", abc_dir / "abc_state",
                       "--models", "m2,m3", "--min-particles", "30",
                       "--weights", "0.5,y") == 2
        assert "--weights" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, value, fragment", [
        ("mixture", "--percentile=1.5", "percentile"),
        ("mixture", "--percentile=-0.2", "percentile"),
        ("stochastic", "--percentile=1.5", "percentile"),
        ("mixture", "--weights=nan,nan", "weights"),
        ("mixture", "--weights=1,nan", "weights"),
        ("stochastic", "--omega-max=inf", "omega range"),
        ("mixture", "--wob-max=inf", "wob range"),
    ])
    def test_out_of_range_map_value_exits_2(self, abc_dir, tmp_path, capsys,
                                            mode, value, fragment):
        assert run_cli("map", "--out-dir", tmp_path, "--mode", mode,
                       "--abc-state", abc_dir / "abc_state",
                       "--models", "m2,m3", "--min-particles", "30",
                       "--resolution", "8", value) == 2
        assert fragment in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_damaged_abc_state_exits_4(self, abc_dir, tmp_path):
        bundle = tmp_path / "abc_state"
        shutil.copytree(abc_dir / "abc_state", bundle)
        (bundle / "abc_state.json").unlink()
        assert run_cli("map", "--out-dir", tmp_path / "out", "--mode",
                       "stochastic", "--abc-state", bundle) == 4

    @pytest.mark.parametrize("priors", [[], None], ids=["list", "null"])
    def test_bundle_priors_not_an_object_exits_4(self, abc_dir, tmp_path,
                                                  priors):
        bundle = tmp_path / "abc_state"
        shutil.copytree(abc_dir / "abc_state", bundle)
        manifest = json.loads((bundle / "abc_state.json").read_text())
        manifest["priors"] = priors
        (bundle / "abc_state.json").write_text(json.dumps(manifest))
        assert run_cli("map", "--out-dir", tmp_path / "out", "--mode",
                       "stochastic", "--abc-state", bundle) == 4

    def test_bundle_without_populations_exits_4(self, abc_dir, tmp_path,
                                                capsys):
        bundle = tmp_path / "abc_state"
        shutil.copytree(abc_dir / "abc_state", bundle)
        manifest = json.loads((bundle / "abc_state.json").read_text())
        manifest.update(tolerances=[], attempts=[])
        (bundle / "abc_state.json").write_text(json.dumps(manifest))
        assert run_cli("map", "--out-dir", tmp_path / "out", "--mode",
                       "stochastic", "--abc-state", bundle) == 4
        assert "lists 0 tolerances and 0 attempts" in capsys.readouterr().err

    def test_one_population_read_matches_full_load(self, abc_dir, tmp_path,
                                                   monkeypatch):
        def full_load(directory, g=None):
            state = abc_mod.load_state(directory)
            g = state.n_populations if g is None else g
            return g, state.population(g)
        maps = [["--mode", "stochastic", "--models", "m2,m3"],
                ["--mode", "stochastic", "--models", "m3", "--population", "2"],
                ["--mode", "mixture", "--models", "m2,m3"]]
        outputs = {}
        for loader in ("one", "full"):
            if loader == "full":
                monkeypatch.setattr(abc_mod, "load_population", full_load)
            for i, extra in enumerate(maps):
                out = tmp_path / loader / str(i)
                assert run_cli("map", "--out-dir", out, "--abc-state",
                               abc_dir / "abc_state", "--min-particles", "30",
                               "--resolution", "20", *extra) == 0
                outputs[loader, i] = read_outputs(out)
        for i in range(len(maps)):
            assert outputs["one", i] == outputs["full", i]
            assert any(name.endswith("_grid.csv") for name in outputs["one", i])

    def test_damaged_mapped_population_exits_4(self, abc_dir, tmp_path):
        bundle = tmp_path / "abc_state"
        shutil.copytree(abc_dir / "abc_state", bundle)
        mapped = bundle / "population_03.csv"
        lines = mapped.read_text().splitlines()
        lines[1] = "9" + lines[1][1:]
        mapped.write_text("\n".join(lines) + "\n")
        args = ["map", "--mode", "stochastic", "--abc-state", bundle,
                "--models", "m3", "--min-particles", "30", "--resolution", "8"]
        assert run_cli(*args, "--out-dir", tmp_path / "last") == 4
        # population 2 is intact and is all that a map of it reads
        (bundle / "population_01.csv").unlink()
        assert run_cli(*args, "--out-dir", tmp_path / "p2",
                       "--population", "2") == 0

    def test_empty_model_list_exits_2(self, abc_dir, tmp_path):
        assert run_cli("map", "--out-dir", tmp_path / "det", "--models",
                       ",", "--resolution", "8") == 2
        assert run_cli("map", "--out-dir", tmp_path / "sto", "--mode",
                       "stochastic", "--abc-state", abc_dir / "abc_state",
                       "--models", " , ", "--resolution", "8") == 2
        assert not (tmp_path / "det" / "manifest.json").exists()
        assert not (tmp_path / "sto" / "manifest.json").exists()

    @pytest.mark.parametrize("mode, extra", [
        ("stochastic", ["--params", "13,6.5,0.4"]),
        ("mixture", ["--params", "13,6.5,0.4"]),
        ("deterministic", ["--weights", "0.5,0.5"]),
        ("stochastic", ["--weights", "0.5,0.5"]),
        ("deterministic", ["--abc-state", "bundle"]),
        ("deterministic", ["--population", "1"]),
    ])
    def test_option_the_mode_ignores_exits_2(self, abc_dir, tmp_path, capsys,
                                              mode, extra):
        bundle = [] if mode == "deterministic" else [
            "--abc-state", abc_dir / "abc_state", "--min-particles", "30"]
        assert run_cli("map", "--out-dir", tmp_path / "out", "--mode", mode,
                       "--models", "m2", "--resolution", "8",
                       *bundle, *extra) == 2
        assert extra[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("one_end", [["--wob-min", "60"],
                                         ["--wob-max", "600"]])
    def test_one_wob_end_defaults_the_other(self, tmp_path, one_end):
        low, high = (f * W_REF_KN for f in stability.DEFAULT_WOB_FRACTIONS)
        window = dict(zip(["--wob-min", "--wob-max"], [low, high]),
                      **{one_end[0]: float(one_end[1])})
        full = [f"{flag}={value!r}" for flag, value in window.items()]
        for name, extra in (("one", one_end), ("full", full)):
            assert run_cli("map", "--out-dir", tmp_path / name, "--models",
                           "m2,m3", "--resolution", "8", *extra) == 0
        one = read_outputs(tmp_path / "one")
        assert one and one == read_outputs(tmp_path / "full")
        rows = (tmp_path / "one/map_m2_grid.csv").read_text().splitlines()
        wob = [float(row.split(",")[2]) for row in rows[1:]]    # wob_kn
        assert (min(wob), max(wob)) == tuple(window.values())

    def test_reentering_boundary_draws_two_polylines(self, tmp_path,
                                                     monkeypatch):
        real = cli.map_deterministic

        def reentering(*args, **kwargs):
            grid, _ = real(*args, **kwargs)
            pts = np.column_stack([grid.omega_axis[[0, 1, 2, 5, 6]],
                                   np.full(5, 300.0)])
            return grid, stability.BoundaryCurve(points=pts)
        monkeypatch.setattr(cli, "map_deterministic", reentering)
        assert run_cli("map", "--out-dir", tmp_path, "--models", "m2",
                       "--resolution", "8") == 0
        svg = (tmp_path / "map_boundaries.svg").read_text()
        assert svg.count("<polyline") == 2

    def test_missing_abc_state_exits_2(self, tmp_path):
        assert run_cli("map", "--out-dir", tmp_path, "--mode",
                       "stochastic") == 2

    def test_fem_plant_map(self, tmp_path):
        out = tmp_path / "fem"
        code = run_cli("map", "--out-dir", out, "--plant", "fem",
                       "--models", "m2", "--resolution", "16")
        assert code == 0
        assert (out / "map_m2_boundary.csv").exists()

    def test_c_star_computed_once_per_stage(self, tmp_path, monkeypatch):
        calls = []

        def counted(plant):
            calls.append(plant)
            return real(plant)
        real = stability.critical_damping
        monkeypatch.setattr(cli, "critical_damping", counted)
        monkeypatch.setattr(stability, "critical_damping", counted)
        assert run_cli("map", "--out-dir", tmp_path, "--plant", "fem",
                       "--resolution", "8", "--no-svg") == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("option", ["--xi", "--omega-max"])
    def test_overflowing_plant_or_window_prints_no_warning(self, tmp_path,
                                                           option):
        # the guard scan or the span check rejects the non-finite values
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("map", "--out-dir", tmp_path, option, "1e300",
                           "--no-svg") == 3

    def test_split_stable_set_exits_3(self, tmp_path, monkeypatch):
        real = stability._rightmost

        def split(plant, c):
            # a stable band of bit damping inside the unstable half-line
            return np.where((c > -1000) & (c < -500), -1.0, real(plant, c))
        monkeypatch.setattr(stability, "_rightmost", split)
        assert run_cli("map", "--out-dir", tmp_path, "--plant", "fem",
                       "--models", "m2", "--resolution", "8") == 3


class TestFemModes:
    def test_two_dof_table(self, tmp_path):
        assert run_cli("fem-modes", "--out-dir", tmp_path) == 0
        rows = (tmp_path / "modes.csv").read_text().splitlines()
        assert rows[0] == "mode,omega_rad_s,omega_rpm,xi"
        assert len(rows) == 3
        w1 = float(rows[1].split(",")[1])
        w2 = float(rows[2].split(",")[1])
        assert w1 == pytest.approx(0.8456, abs=2e-3)
        assert w2 == pytest.approx(15.587, abs=0.02)

    def test_ten_dof_table(self, tmp_path):
        assert run_cli("fem-modes", "--out-dir", tmp_path, "--n-dp", "8",
                       "--n-bha", "2", "--beta", "0.0021") == 0
        rows = (tmp_path / "modes.csv").read_text().splitlines()
        assert len(rows) == 11


class TestReplayDeterminism:
    @pytest.mark.parametrize("argv", [
        ("gen-data", "--model", "m1", "--noise", "0.3", "--seed", "7"),
        ("fem-modes",),
        ("map", "--models", "m2", "--resolution", "12"),
    ])
    def test_commands_replay_byte_identical(self, tmp_path, argv):
        first = tmp_path / "first"
        assert run_cli(*argv, "--out-dir", first) == 0
        second = tmp_path / "second"
        assert run_cli("replay", "--manifest", first / "manifest.json",
                       "--out-dir", second) == 0
        a = read_outputs(first)
        b = read_outputs(second)
        assert a.keys() == b.keys()
        for name in a:
            assert a[name] == b[name]

    def test_parent_era_manifest_with_refine_replays(self, tmp_path):
        # a map manifest as written while the map still took --refine
        config = {"alpha": 0.5, "beta": 0.006, "i_eq": 383.33,
                  "min_particles": 100, "mode": "deterministic",
                  "models": "m2", "n_bha": 1, "n_dp": 1, "omega_max": 20.0,
                  "omega_min": 1.0, "omega_n": 0.85, "percentile": 0.02,
                  "plant": "1dof", "refine": 10, "resolution": 12, "seed": 0,
                  "w_ref": 244.2, "xi": 0.25}
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"command": "map", "config": config}))
        assert run_cli("replay", "--manifest", manifest,
                       "--out-dir", tmp_path / "replayed") == 0
        assert run_cli("map", "--models", "m2", "--resolution", "12",
                       "--out-dir", tmp_path / "direct") == 0
        a = read_outputs(tmp_path / "direct")
        assert a and a == read_outputs(tmp_path / "replayed")
        replayed = json.loads((tmp_path / "replayed/manifest.json").read_text())
        direct = json.loads((tmp_path / "direct/manifest.json").read_text())
        del replayed["config"]["out_dir"], direct["config"]["out_dir"]
        assert replayed["config"] == direct["config"]

    @pytest.mark.parametrize("command, config", [
        ("gen-data", {"model": "m2", "n": "abc"}),
        ("gen-data", {"model": "m2", "shear_modulus": 1e9}),
        ("fit", {"data": "d.csv", "starts": 1.5}),
        ("fit", {"data": "d.csv", "max_evals": 10}),
        ("fit", {"data": "d.csv", "model": "m2"}),
        ("abc", {"data": "d.csv", "speed_unit": "kph"}),
        ("abc", {"data": "d.csv", "threads": -4}),
        ("map", {"models": 3}),
        ("map", {"mode": "deterministic", "resolution": "fine"}),
        ("map", {"no_svg": "false"}),
        ("fem-modes", {"shear_modulus": 1e9}),
        ("fem-modes", {"n_dp": 2.5}),
        (["fit"], {}),
        ({"a": 1}, {}),
    ])
    def test_bad_manifest_value_or_key_exits_2(self, tmp_path, command, config):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"command": command, "config": config}))
        assert run_cli("replay", "--manifest", manifest,
                       "--out-dir", tmp_path / "out") == 2
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_manifest_without_out_dir_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"command": "fem-modes", "config": {}}))
        assert run_cli("replay", "--manifest", manifest) == 2
        assert "--out-dir" in capsys.readouterr().err

    def test_replayed_replay_manifest_exits_2(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            {"command": "replay", "config": {"manifest": str(manifest)}}))
        assert run_cli("replay", "--manifest", manifest,
                       "--out-dir", tmp_path / "out") == 2

    def test_missing_manifest_exits_4(self, tmp_path):
        assert run_cli("replay", "--manifest", tmp_path / "manifest.json",
                       "--out-dir", tmp_path / "out") == 4

    def test_malformed_manifest_exits_4(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text('{"command": "fem-modes", "config"')
        assert run_cli("replay", "--manifest", manifest,
                       "--out-dir", tmp_path / "out") == 4


def test_cli_import_leaves_out_scipy():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, drillstab.cli; "
             "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    res = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False"


@pytest.mark.parametrize("argv", [[], ["nope"], ["map", "--resolution", "x"],
                                  ["fem-modes", "--out-dir"],
                                  ["fem-modes", "--out-dir=o", "--seed=-1"]])
def test_bad_argv_returns_2(argv):
    assert cli.main(argv) == 2


# argparse turns "--key=--" into an empty list without calling the type
@pytest.mark.parametrize("argv", [
    ["gen-data", "--model", "m2", "--params=--"],   # comma-separated list
    ["fit", "--data", "d.csv", "--initial=--"],     # comma-separated list
    ["abc", "--data", "d.csv", "--n=--"],           # int
    ["abc", "--data", "d.csv", "--delta=--"],       # float
    ["abc", "--data=--"],                           # path
    ["map", "--resolution=--"],                     # int
])
def test_double_dash_value_exits_2(argv, tmp_path, capsys):
    assert cli.main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
    assert "got '--'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_SUBPARSERS = {name: p for name, p in
               cli.build_parser()._subparsers._group_actions[0].choices.items()
               if name != "replay"}
_NUMBERS = st.floats(-1e6, 1e6, allow_nan=False)
_TEXT = st.one_of(
    st.lists(_NUMBERS, min_size=1, max_size=4).map(
        lambda xs: ",".join(map(str, xs))),
    st.text("abcm0123456789-_.,/= ", max_size=12))


_TYPED_VALUES = {
    int: st.integers(-10**6, 10**6),
    cli._nonnegative_int: st.integers(0, 64),
    cli._positive_int: st.integers(1, 64),
    cli._int_from_2: st.integers(2, 64),
    float: _NUMBERS,
    cli._fraction: st.floats(0, 1),
    cli._open_fraction: st.floats(0, 1, exclude_min=True, exclude_max=True),
    cli._coverage: st.floats(0, 1, exclude_max=True),
    cli._nonnegative_float: st.floats(0, 1e6),
    cli._positive_float: st.floats(0, 1e6, exclude_min=True),
}


def _option_values(action):
    """A strategy for the values of one option, None meaning absent."""
    if action.choices is not None:
        values = st.sampled_from(list(action.choices))
    elif action.nargs == 0:
        values = st.booleans()
    elif action.type in _TYPED_VALUES:
        values = _TYPED_VALUES[action.type]
    elif action.type is cli._file_name:
        values = st.text("abcxyz_-.0123456789", min_size=1, max_size=12).filter(
            lambda name: name not in (".", ".."))
    else:
        assert action.type is None, action
        values = _TEXT
    return values if action.required else st.none() | values


@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("command", sorted(_SUBPARSERS))
@given(data=st.data())
def test_manifest_config_replays_to_the_same_config(command, data):
    actions = [a for a in _SUBPARSERS[command]._actions if a.dest != "help"]
    drawn = {a.dest: data.draw(_option_values(a), label=a.dest) for a in actions}
    argv = [command]      # typed as a user would: "--flag value" where it parses
    for dest, value in drawn.items():
        flag = "--" + dest.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not None and value is not False:
            text = str(value)
            argv += [flag, text] if text[:1] not in ("-", "") else [f"{flag}={text}"]
    if "--" in map(str, drawn.values()):
        assert cli.main(argv) == 2      # rejected before any command runs
        return
    config = cli._recorded(vars(cli.build_parser().parse_args(argv)))
    assert config.pop("command") == command
    assert config == cli._recorded({a.dest: a.default if drawn[a.dest] is None
                                    else drawn[a.dest] for a in actions})
    replayed = vars(cli.build_parser().parse_args(cli._argv(command, config)))
    assert replayed.pop("command") == command
    assert cli._recorded(replayed) == config


# ------------------------------------------------------------ option sweep

_SWEEP_FLOATS = ["nan", "inf", "-inf", "0", "-1", "1e-300", "1e300"]
# small on purpose: --threads, --n, --resolution, --n-dp and --n-bha size
# threads and arrays
_SWEEP_INTS = ["0", "-1", "1", "2"]
_SWEEP_TEXT = ["", ",", "x", "nan,nan,nan", "0,0,0,0"]
_EXIT_CODES = (0, 2, 3, 4)
_FLOAT_TYPES = (float, cli._fraction, cli._open_fraction, cli._coverage,
                cli._nonnegative_float, cli._positive_float)
_INT_TYPES = (int, cli._nonnegative_int, cli._positive_int, cli._int_from_2)


def _sweep_values(action) -> list:
    """The values the sweep gives one option; True means the bare flag."""
    if action.choices is not None:
        return list(action.choices)
    if action.nargs == 0:
        return [True]
    if action.type in _FLOAT_TYPES:
        return _SWEEP_FLOATS
    if action.type in _INT_TYPES:
        return _SWEEP_INTS
    return _SWEEP_TEXT


def _strict_json(text: str):
    """Parse JSON, rejecting the NaN and Infinity that strict JSON lacks."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def _sweep_call(command: str, options: dict, bad: list) -> None:
    """Run one command line; record it in ``bad`` unless it exits with a
    documented code, and on exit 0 leaves strict-JSON manifests."""
    argv = [command] + [f"--{key}" if value is True else f"--{key}={value}"
                        for key, value in options.items()]
    try:
        code = run_cli(*argv)
    except Exception as exc:    # a traceback: record it, keep sweeping
        code = repr(exc)
    if code == 0:
        out = Path(options["out-dir"])
        for name in ["manifest.json"] + (["abc_state/abc_state.json"]
                                         if command == "abc" else []):
            try:
                _strict_json((out / name).read_text())
            except (OSError, ValueError) as exc:
                code = f"exit 0, {name}: {exc}"
    if code not in _EXIT_CODES:
        bad.append((argv, code))


@pytest.fixture(scope="module")
def sweep_inputs(tmp_path_factory):
    """A 12-row dataset, a gen-data manifest, and a 40-particle bundle whose
    model prior leaves m1 without particles."""
    root = tmp_path_factory.mktemp("sweep")
    assert run_cli("gen-data", "--out-dir", root / "gen", "--model", "m3",
                   "--n", "12") == 0
    assert run_cli("abc", "--out-dir", root / "abc", "--data",
                   root / "gen/dataset.csv", "--n", "40",
                   "--max-populations", "2", "--prior-centers", "reference",
                   "--model-prior=0,1,1,1", "--threads", "1", "--no-svg") == 0
    return root


def test_option_sweep_exits_with_a_documented_code(sweep_inputs, tmp_path,
                                                   monkeypatch):
    """Every option of every command, one at a time, at degenerate values,
    ends in a documented exit code, not a traceback."""
    monkeypatch.chdir(tmp_path)     # relative --out-dir values land here
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)     # --threads 0
    data = str(sweep_inputs / "gen/dataset.csv")
    bundle = str(sweep_inputs / "abc/abc_state")
    bases = [
        ("gen-data", {"model": "m3", "n": 12}),
        ("fit", {"data": data, "models": "m2"}),
        ("abc", {"data": data, "n": 40, "max-populations": 2,
                 "prior-centers": "reference", "threads": 1}),
        ("map", {"resolution": 3}),
        ("map", {"mode": "mixture", "abc-state": bundle, "models": "m2,m3",
                 "min-particles": 1, "resolution": 3}),
        ("fem-modes", {}),
        ("replay", {"manifest": str(sweep_inputs / "gen/manifest.json")}),
    ]
    parsers = cli.build_parser()._subparsers._group_actions[0].choices
    bad, calls = [], 0
    for command, base in bases:
        base = {"out-dir": "out", **base}
        for action in parsers[command]._actions:
            if action.dest == "help":
                continue
            key = action.option_strings[0][2:]
            for value in _sweep_values(action):
                _sweep_call(command, {**base, key: value}, bad)
                calls += 1
    # the options that act together
    for starts in _SWEEP_INTS:
        for jitter in _SWEEP_FLOATS:
            _sweep_call("fit", {"out-dir": "out", "data": data, "models": "m2",
                                "starts": starts, "jitter": jitter}, bad)
            calls += 1
    assert calls > 250
    assert not bad, "\n".join(f"{code}: {' '.join(argv)}" for argv, code in bad)


@pytest.mark.parametrize("mode", ["stochastic", "mixture"])
@pytest.mark.parametrize("models", ["m1", "m3", "m1,m3"])
@pytest.mark.parametrize("min_particles", [-1, 0, 1, 41])
def test_min_particles_against_the_mapped_population(sweep_inputs, tmp_path,
                                                     capsys, mode, models,
                                                     min_particles):
    """Below 1 exits 2. A mapped model with fewer particles than asked exits
    4 and names the model and the population: in population 2 of the bundle
    m1 has none, and no model has 41 of the 40."""
    code = run_cli("map", "--out-dir", tmp_path, "--mode", mode, "--abc-state",
                   sweep_inputs / "abc/abc_state", "--models", models,
                   f"--min-particles={min_particles}", "--resolution", "3")
    err = capsys.readouterr().err
    if min_particles < 1:
        assert code == 2 and "--min-particles" in err
    elif min_particles == 41 or "m1" in models:
        assert code == 4
        assert f"model {models[:2]} has" in err and "population 2" in err
    else:
        assert code == 0
    assert (tmp_path / "manifest.json").exists() == (code == 0)


@pytest.mark.parametrize("command, options", [
    ("abc", {"starts": "-1", "prior-centers": "reference"}),
    ("abc", {"eps-floor": "inf"}),
    ("map", {"percentile": "nan"}),
    ("map", {"percentile": "inf"}),
    ("map", {"n-dp": "-1", "alpha": "nan"}),
    ("map", {"min-particles": "0"}),
    *[(command, {name: value, **extra})
      for command, extra in (("fem-modes", {}), ("map", {"plant": "fem"}))
      for name in ("alpha", "beta") for value in ("inf", "nan", "1e308")],
    ("map", {"resolution": "1", "plant": "fem"}),
    ("abc", {"n": "0"}),
    ("abc", {"max-populations": "0"}),
    ("abc", {"delta": "0"}),
    ("abc", {"delta": "1"}),
    ("gen-data", {"n": "1", "model": "m3"}),
    ("abc", {"envelope-coverage": "1"}),
    ("abc", {"envelope-coverage": "nan"}),
    *[(command, {"w-ref": value, **extra})
      for command, extra in (("map", {"wob-min": "50", "wob-max": "500"}),
                             ("gen-data", {"model": "m3"}))
      for value in ("-244.2", "inf", "0", "nan")],
])
def test_value_outside_its_domain_exits_2_in_every_mode(sweep_inputs, tmp_path,
                                                        capsys, monkeypatch,
                                                        command, options):
    """The first option's own check rejects its value, also where the
    command or mode does not read it: the deterministic map ignores
    --percentile, the 1-DOF plant --n-dp and --alpha, reference centers
    --starts. Only 1e308 parses; it makes alpha*M or beta*K overflow. No
    value reaches the work: abc's fits, a map's c* or gen-data's data."""
    def no_work(*args, **kwargs):
        raise AssertionError("a bad option value reached the work")
    for name in ("fit", "critical_damping", "synthesize"):
        monkeypatch.setattr(cli, name, no_work)
    base = {"abc": {"data": sweep_inputs / "gen/dataset.csv", "n": 40,
                    "max-populations": 2, "threads": 1, "no-svg": True},
            "map": {"resolution": 3}}.get(command, {})
    argv = [f"--{key}" if value is True else f"--{key}={value}"
            for key, value in {**base, **options}.items()]
    assert run_cli(command, "--out-dir", tmp_path / "out", *argv) == 2
    assert list(options)[0] in capsys.readouterr().err.splitlines()[-1]
    assert not (tmp_path / "out" / "manifest.json").exists()
