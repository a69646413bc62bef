import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from drillstab import cli, stability
from drillstab.dataio import read_csv
from drillstab.errors import StallError
from drillstab.reference import REFERENCE_PARAMS


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

    def test_explicit_params(self, tmp_path):
        code = run_cli("gen-data", "--out-dir", tmp_path, "--model", "m2",
                       "--params", "12,6,0.25", "--n", "10")
        assert code == 0
        ds = read_csv(tmp_path / "dataset.csv")
        assert ds.torques[0] == pytest.approx(
            (12 - 6) * math.exp(-0.25 * 0.5) + 6)


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

    def test_too_few_calibration_rows_exits_4(self, tmp_path):
        data = tmp_path / "thin.csv"
        data.write_text("speed,torque_knm,split\n"
                        "1.0,10.0,calibration\n2.0,9.0,calibration\n")
        assert run_cli("fit", "--out-dir", tmp_path / "o", "--data", data) == 4


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

    def test_stall_maps_to_exit_3(self, dataset_dir, tmp_path, monkeypatch):
        def fake_run(*args, **kwargs):
            raise StallError("stalled", epsilon=1e-9, attempts=10)
        monkeypatch.setattr(cli.abc_mod, "run", fake_run)
        code = run_cli("abc", "--out-dir", tmp_path, "--data",
                       dataset_dir / "dataset.csv", "--n", "50")
        assert code == 3


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

    def test_damaged_abc_state_exits_4(self, abc_dir, tmp_path):
        bundle = tmp_path / "abc_state"
        shutil.copytree(abc_dir / "abc_state", bundle)
        (bundle / "abc_state.json").unlink()
        assert run_cli("map", "--out-dir", tmp_path / "out", "--mode",
                       "stochastic", "--abc-state", bundle) == 4

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

    def test_missing_manifest_exits_4(self, tmp_path):
        assert run_cli("replay", "--manifest", tmp_path / "manifest.json",
                       "--out-dir", tmp_path / "out") == 4

    def test_malformed_manifest_exits_4(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text('{"command": "fem-modes", "config"')
        assert run_cli("replay", "--manifest", manifest,
                       "--out-dir", tmp_path / "out") == 4
