import math

import numpy as np
import pytest

from drillstab.bitrock import torque
from drillstab.calibration import metric
from drillstab.dataio import (TorqueDataset, default_speed_grid, read_csv,
                              synthesize, write_csv)
from drillstab.errors import DataError, DomainError, IngestionError


def test_rpm_conversion(tmp_path):
    path = tmp_path / "rpm.csv"
    path.write_text("speed,torque_knm,split\n60.0,10.0,calibration\n")
    ds = read_csv(path, speed_unit="rpm")
    assert ds.speeds[0] == pytest.approx(2 * math.pi, rel=1e-15)
    assert ds.torques[0] == 10.0


def test_split_routing(tmp_path):
    path = tmp_path / "split.csv"
    path.write_text("speed,torque_knm,split\n"
                    "1.0,10.0,calibration\n"
                    "2.0,9.0,validation\n"
                    "3.0,8.0,calibration\n")
    ds = read_csv(path)
    assert ds.n_calibration == 2
    assert list(ds.validation_speeds) == [2.0]
    assert list(ds.calibration_torques) == [10.0, 8.0]


def test_missing_split_defaults_to_calibration(tmp_path):
    path = tmp_path / "nosplit.csv"
    path.write_text("speed,torque_knm\n1.0,10.0\n2.0,9.0\n")
    ds = read_csv(path)
    assert ds.n_calibration == 2


def test_two_calibration_rows_read_ok_but_fit_rejected(tmp_path, m2, r1):
    path = tmp_path / "thin.csv"
    path.write_text("speed,torque_knm,split\n"
                    "1.0,10.0,calibration\n"
                    "2.0,9.0,calibration\n"
                    "3.0,8.0,validation\n")
    ds = read_csv(path)            # reading succeeds
    with pytest.raises(DataError):
        metric(ds, m2, r1)         # the invariant bites at the use site


def test_all_zero_calibration_torques_rejected():
    # nonzero validation torques do not rescue the calibration subset
    ds = TorqueDataset(speeds=np.arange(1.0, 7.0),
                       torques=np.array([0.0, 3.0, 0.0, 3.0, 0.0, 3.0]),
                       split=np.array(["calibration", "validation"] * 3))
    with pytest.raises(DataError, match="all zero"):
        ds.require_calibration()


@pytest.mark.parametrize("body,fragment", [
    ("speed,torque_knm\n1.0,abc\n", "line 2"),
    ("speed,torque_knm\n-1.0,5.0\n", "line 2"),
    ("speed,torque_knm\n1.0,5.0\n2.0\n", "line 3"),
    ("speed,torque_knm\n1.0,5.0,weird\n", "line 2"),
    ("wrong,columns\n1.0,5.0\n", "header"),
])
def test_ingestion_errors_name_the_line(tmp_path, body, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(IngestionError, match=fragment):
        read_csv(path)


def test_missing_file():
    with pytest.raises(IngestionError):
        read_csv("/nonexistent/data.csv")


def test_directory_or_binary_file_is_an_ingestion_error(tmp_path):
    with pytest.raises(IngestionError, match="cannot read"):
        read_csv(tmp_path)
    binary = tmp_path / "data.csv"
    binary.write_bytes(b"speed,torque_knm\n\xff\xfe\n")
    with pytest.raises(IngestionError, match="cannot read"):
        read_csv(binary)


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    speeds = np.concatenate([[0.0, math.pi], rng.uniform(0, 20, 40)])
    torques = np.concatenate([[1e-17, -3.25], rng.standard_normal(40) * 7])
    split = np.array(["calibration", "validation"] * 21, dtype=object)
    ds = TorqueDataset(speeds=speeds, torques=torques, split=split,
                       source="round-trip check", w_ref=244.2)
    path = write_csv(ds, tmp_path / "rt.csv")
    back = read_csv(path)
    assert back == ds


def test_synthesize_noiseless_lies_on_curve(m3, r1):
    ds = synthesize(m3, r1, noise_std=0.0, seed=9)
    assert np.array_equal(ds.torques, np.asarray(torque(m3, r1, ds.speeds)))
    assert metric(ds, m3, r1) < 1e-20


def test_synthesize_deterministic_under_seed(m3, r1):
    a = synthesize(m3, r1, noise_std=0.8, seed=4)
    b = synthesize(m3, r1, noise_std=0.8, seed=4)
    c = synthesize(m3, r1, noise_std=0.8, seed=5)
    assert a == b
    assert not np.array_equal(a.torques, c.torques)


def test_synthesize_split_alternates(m2, r1):
    ds = synthesize(m2, r1, speeds=np.linspace(1, 10, 10), seed=0)
    assert list(ds.split) == ["calibration", "validation"] * 5


def test_synthesize_noise_level(m3, r1):
    ds = synthesize(m3, r1, noise_std=0.8, seed=12)
    clean = np.asarray(torque(m3, r1, ds.speeds))
    sd = float(np.std(ds.torques - clean))
    assert 0.65 <= sd <= 0.95


def test_synthesize_rejects_negative_noise(m3, r1):
    with pytest.raises(DomainError):
        synthesize(m3, r1, noise_std=-0.1)


def test_default_speed_grid_span():
    grid = default_speed_grid()
    assert len(grid) == 200
    assert grid[0] == 0.5 and grid[-1] == 15.0


def test_dataset_validation():
    with pytest.raises(DataError):
        TorqueDataset(speeds=np.array([-1.0]), torques=np.array([1.0]))
    with pytest.raises(DataError):
        TorqueDataset(speeds=np.array([1.0]), torques=np.array([math.nan]))
    with pytest.raises(DataError):
        TorqueDataset(speeds=np.array([1.0]), torques=np.array([1.0]),
                      split=np.array(["bogus"], dtype=object))
