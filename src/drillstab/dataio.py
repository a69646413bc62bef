"""Torque-vs-speed dataset ingestion and generation, and the writers of
every output file.

``write_table`` writes each CSV the package produces (floats written
with ``repr`` so a write/read cycle is bit-exact) and ``write_json`` each
JSON file; they and every text output go through ``write_text`` (UTF-8,
LF line ends on every platform). A dataset is such a table with optional
``# key=value`` metadata lines before its header::

    # w_ref_kn=244.2
    # source=synthetic:m3:seed=1
    speed,torque_knm,split

``speed`` is stored in rad/s when written by this package; ``read_csv``
accepts files recorded in RPM via ``speed_unit="rpm"``. ``split`` is
``calibration`` or ``validation`` (default calibration).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bitrock import BitRockModel, WobRatio, torque
from .errors import DataError, DomainError, IngestionError
from .reference import W_REF_KN

RPM_TO_RAD_S = math.pi / 30.0

CALIBRATION = "calibration"
VALIDATION = "validation"
_SPLITS = (CALIBRATION, VALIDATION)

MIN_CALIBRATION_SAMPLES = 3
# the synthetic speed grid (rad/s) of synthesize and gen-data
DEFAULT_SPEED_POINTS = 200
DEFAULT_SPEED_RANGE = (0.5, 15.0)


@dataclass
class TorqueDataset:
    """Paired (speed rad/s, torque kN m) samples with split flags."""

    speeds: np.ndarray
    torques: np.ndarray
    split: np.ndarray = field(default=None)
    source: str = ""
    w_ref: float = W_REF_KN

    def __post_init__(self):
        self.speeds = np.asarray(self.speeds, dtype=float)
        self.torques = np.asarray(self.torques, dtype=float)
        if self.split is None:
            self.split = np.full(self.speeds.shape, CALIBRATION, dtype=object)
        else:
            self.split = np.asarray(self.split, dtype=object)
        if not (self.speeds.shape == self.torques.shape == self.split.shape):
            raise DataError("speeds, torques and split must have equal length")
        if self.speeds.size and ((self.speeds < 0).any()
                                 or not np.isfinite(self.speeds).all()):
            raise DataError("all speeds must be finite and >= 0")
        if self.speeds.size and not np.isfinite(self.torques).all():
            raise DataError("all torques must be finite")
        bad = [s for s in self.split if s not in _SPLITS]
        if bad:
            raise DataError(f"unknown split labels: {sorted(set(map(str, bad)))}")
        if not (math.isfinite(self.w_ref) and self.w_ref > 0):
            raise DataError(f"w_ref must be positive and finite, got {self.w_ref}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, TorqueDataset):
            return NotImplemented
        return (np.array_equal(self.speeds, other.speeds)
                and np.array_equal(self.torques, other.torques)
                and np.array_equal(self.split, other.split)
                and self.source == other.source
                and self.w_ref == other.w_ref)

    def __len__(self) -> int:
        return len(self.speeds)

    @property
    def calibration_mask(self) -> np.ndarray:
        return self.split == CALIBRATION

    @property
    def calibration_speeds(self) -> np.ndarray:
        return self.speeds[self.calibration_mask]

    @property
    def calibration_torques(self) -> np.ndarray:
        return self.torques[self.calibration_mask]

    @property
    def validation_speeds(self) -> np.ndarray:
        return self.speeds[~self.calibration_mask]

    @property
    def validation_torques(self) -> np.ndarray:
        return self.torques[~self.calibration_mask]

    @property
    def n_calibration(self) -> int:
        return int(self.calibration_mask.sum())

    def require_calibration(self) -> None:
        """Raise unless the dataset can back a fitting call: enough
        calibration samples, with a positive squared torque norm."""
        if self.n_calibration < MIN_CALIBRATION_SAMPLES:
            raise DataError(
                f"need at least {MIN_CALIBRATION_SAMPLES} calibration samples, "
                f"got {self.n_calibration}")
        y = self.calibration_torques
        if not np.dot(y, y) > 0:
            raise DataError("calibration torques are all zero; metric undefined")


def default_speed_grid() -> np.ndarray:
    """Uniform synthetic speed grid (rad/s) covering the usual data span."""
    return np.linspace(*DEFAULT_SPEED_RANGE, DEFAULT_SPEED_POINTS)


def synthesize(model: BitRockModel, r, speeds=None, noise_std: float = 0.0,
               seed: int = 0, w_ref: float | None = None) -> TorqueDataset:
    """Generate a dataset from a torque law plus i.i.d. Gaussian noise.

    Deterministic under ``seed``. Samples alternate calibration (even
    index) / validation (odd index).
    """
    if noise_std < 0 or not math.isfinite(noise_std):
        raise DomainError(f"noise_std must be finite and >= 0, got {noise_std}")
    if speeds is None:
        speeds = default_speed_grid()
    speeds = np.asarray(speeds, dtype=float)
    clean = np.asarray(torque(model, r, speeds), dtype=float)
    rng = np.random.default_rng(seed)
    noisy = clean + rng.normal(0.0, noise_std, size=speeds.shape) \
        if noise_std > 0 else clean.copy()
    split = np.where(np.arange(len(speeds)) % 2 == 0, CALIBRATION, VALIDATION)
    if w_ref is None:
        w_ref = r.w_ref if isinstance(r, WobRatio) else W_REF_KN
    source = f"synthetic:m{model.kind}:seed={seed}:noise={noise_std!r}"
    return TorqueDataset(speeds=speeds, torques=noisy,
                         split=split.astype(object), source=source, w_ref=w_ref)


def _cells(col):
    """The string cells of one column. A numeric array is written one
    ``repr`` per distinct value, then indexed: a float's key is its float64
    bit pattern (so -0.0 and 0.0 stay apart), an integer's its value, and
    equal keys give equal reprs. Any other column holds ready-made cells."""
    if not (isinstance(col, np.ndarray) and col.dtype.kind in "iuf"):
        return col
    is_float = col.dtype.kind == "f"
    keys = col.astype(np.float64).view(np.int64) if is_float else col
    uniq, inverse = np.unique(keys, return_inverse=True)
    values = uniq.view(np.float64) if is_float else uniq
    return np.array([repr(v) for v in values.tolist()],
                    dtype=object)[inverse].tolist()


def write_text(path, text: str) -> Path:
    """Write an output file (UTF-8, LF line ends); returns the path."""
    path = Path(path)
    path.write_text(text, encoding="utf-8", newline="\n")
    return path


def write_table(path, header, columns, preamble=()) -> Path:
    """Write a comma-separated table (UTF-8, LF); returns the path.

    ``columns`` are whole columns of equal length. A numeric NumPy array
    (integer or float) is written one ``repr`` per value, each distinct
    value formatted once; any other column holds ready-made string cells.
    ``preamble`` lines precede the header.
    """
    rows = map(",".join, zip(*map(_cells, columns)))
    return write_text(path, "\n".join([*preamble, ",".join(header), *rows]) + "\n")


def write_json(path, obj) -> Path:
    """Write ``obj`` as JSON with sorted keys and a 2-space indent."""
    return write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_csv(dataset: TorqueDataset, path) -> Path:
    """Write the fixed CSV schema (speeds in rad/s); returns the path."""
    return write_table(path, ["speed", "torque_knm", "split"],
                       [dataset.speeds, dataset.torques, dataset.split],
                       preamble=["# drillstab-dataset",
                                 f"# w_ref_kn={dataset.w_ref!r}",
                                 f"# source={dataset.source}"])


def read_csv(path, speed_unit: str = "rad_s") -> TorqueDataset:
    """Read a dataset; ``speed_unit`` is the unit of the file's speed column
    ("rpm" or "rad_s"). Parse failures name the offending file line."""
    if speed_unit not in ("rpm", "rad_s"):
        raise DomainError(f"speed_unit must be 'rpm' or 'rad_s', got {speed_unit!r}")
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from None
    w_ref = W_REF_KN
    source = str(path)
    header = None
    speeds, torques, split = [], [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            meta = line.lstrip("#").strip()
            if meta.startswith("w_ref_kn="):
                try:
                    w_ref = float(meta.split("=", 1)[1])
                except ValueError:
                    raise IngestionError(f"line {lineno}: bad w_ref_kn value") from None
            elif meta.startswith("source="):
                source = meta.split("=", 1)[1]
            continue
        if header is None:
            header = [c.strip() for c in line.split(",")]
            if header[:2] != ["speed", "torque_knm"]:
                raise IngestionError(
                    f"line {lineno}: header must start with 'speed,torque_knm', "
                    f"got {line!r}")
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) < 2:
            raise IngestionError(f"line {lineno}: expected at least 2 columns")
        try:
            s = float(cells[0])
            t = float(cells[1])
        except ValueError:
            raise IngestionError(f"line {lineno}: unparseable numeric value") from None
        if not math.isfinite(s) or s < 0:
            raise IngestionError(f"line {lineno}: speed must be finite and >= 0")
        if not math.isfinite(t):
            raise IngestionError(f"line {lineno}: torque must be finite")
        sp = CALIBRATION
        if len(cells) > 2 and cells[2]:
            sp = cells[2]
            if sp not in _SPLITS:
                raise IngestionError(f"line {lineno}: unknown split {sp!r}")
        speeds.append(s * RPM_TO_RAD_S if speed_unit == "rpm" else s)
        torques.append(t)
        split.append(sp)
    if header is None:
        raise IngestionError(f"{path}: missing header row")
    return TorqueDataset(speeds=np.array(speeds, dtype=float),
                         torques=np.array(torques, dtype=float),
                         split=np.array(split, dtype=object),
                         source=source, w_ref=w_ref)
