"""ABC rejection sampler with joint model selection.

Candidate (model, parameter) pairs are drawn from a discrete model prior
and per-model independent uniform boxes, simulated, and accepted when the
relative quadratic misfit rho falls below the current tolerance. The
first population accepts every finite misfit (epsilon_1 = inf); each
subsequent tolerance is the median of the previous population's accepted
distances, and the schedule stops once a population has been generated at
a tolerance at or below ``eps_floor`` (or ``max_populations`` is hit).

Posterior model probabilities are the per-population acceptance
frequencies of each model tag. Marginals, Pearson correlations, and
pointwise predictive envelopes summarize the per-model particle sets.

All populations come from one proposal stream, generated in fixed-size
chunks whose RNG streams are keyed by (seed, chunk index). Population g is
the first n proposals of that stream whose distance lies below eps_g; since
tolerances only fall, the proposals kept for population g are filtered for
population g+1 before the stream continues, and a rejected proposal is never
drawn again. A population is a function of the stream alone, so serial and
thread-parallel runs produce bit-identical populations. A population's
``attempts`` is the stream position of its n-th acceptance plus one: the
proposals drawn up to it, counted from the start of the stream.

Two shortcuts skip work that no output sees, and change no bit of it:

* A chunk's misfit is bounded in stages: first the residuals at
  ``speeds[::4]``, then, for the rows left, at ``speeds[2::4]``. A row is
  dropped once its partial sum of squares is not below
  eps * |y|^2 * (1 + 1e-9). A partial sum is a lower bound on the full
  one, and the 1e-9 margin dwarfs the ~1e-14 relative rounding of the
  sums, so no row the full distance accepts is dropped. An inf or NaN
  partial sum is dropped as its inf or NaN distance is rejected; at the
  first population's eps = inf the bound is inf and drops only those rows.
  The rows left are evaluated at ``speeds[1::2]`` only, and the three
  residual blocks, each element with the bits of a full evaluation, fill
  one full row whose distance is the same expression as a full one's.
* Population g+1 opens with population g's particles below eps_{g+1}, in
  order, so ``save_state`` reuses their CSV rows instead of formatting them
  again. It does so only when those leading rows equal the carried ones bit
  for bit (-0.0 and 0.0 are equal values with different reprs); any other
  population, such as one built outside the sampler, is formatted in full.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .bitrock import MODEL_KINDS, PARAM_COUNTS, PARAM_NAMES, torque_batch
from .calibration import FitResult
from .dataio import TorqueDataset, write_json, write_table
from .errors import (DataError, DomainError, DrillstabError,
                     InsufficientSamplesError, StallError)

MAX_PARAMS = max(PARAM_COUNTS.values())

DEFAULT_EPS_FLOOR = 0.014
ENVELOPE_MIN_PARTICLES = 50
_CHUNK = 8192
_BOUND_MARGIN = 1e-9
_ENVELOPE_BLOCK = 16


@dataclass(frozen=True)
class PriorSpec:
    """Independent uniform box around a central estimate.

    Bounds are center*(1 -/+ delta) per component, swapped where the
    center is negative so lo < hi always holds.
    """

    kind: int
    delta: float
    center: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def from_center(cls, kind: int, center, delta: float) -> "PriorSpec":
        if not 0 < delta < 1:
            raise DomainError(f"delta must lie in (0, 1), got {delta}")
        center = np.asarray(center, dtype=float)
        if center.shape != (PARAM_COUNTS[kind],):
            raise DomainError(
                f"model {kind} center must have {PARAM_COUNTS[kind]} entries")
        if (center == 0).any():
            j = int(np.flatnonzero(center == 0)[0])
            raise DomainError(
                f"model {kind} parameter {j} has a zero central estimate; the "
                "relative-width prior degenerates, widen it manually")
        a = center * (1.0 - delta)
        b = center * (1.0 + delta)
        return cls(kind=kind, delta=delta, center=center,
                   lo=np.minimum(a, b), hi=np.maximum(a, b))

    def sample_from_unit(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms in [0,1)^(..., p) onto the box."""
        return self.lo + u * (self.hi - self.lo)


def build_priors(fits: dict[int, "FitResult | tuple | np.ndarray"],
                 delta: float) -> dict[int, PriorSpec]:
    """Uniform prior boxes centered on per-model calibration estimates."""
    priors = {}
    for kind, f in fits.items():
        center = f.model.params if isinstance(f, FitResult) else f
        priors[kind] = PriorSpec.from_center(kind, center, delta)
    return priors


@dataclass(frozen=True)
class Population:
    """One generation of N accepted particles, in acceptance order.

    ``phis`` is padded to MAX_PARAMS columns with NaN beyond each model's
    parameter count.
    """

    kinds: np.ndarray
    phis: np.ndarray
    distances: np.ndarray
    tolerance: float
    attempts: int

    def __len__(self) -> int:
        return len(self.kinds)

    def particles_of(self, kind: int) -> np.ndarray:
        """(m, p) parameter matrix of the particles carrying one tag."""
        mask = self.kinds == kind
        return self.phis[mask, :PARAM_COUNTS[kind]].copy()

    def count(self, kind: int) -> int:
        return int((self.kinds == kind).sum())


@dataclass
class AbcState:
    """Full sampler output: populations, tolerance schedule, provenance."""

    populations: list[Population]
    tolerances: list[float]
    next_tolerance: float
    stopped_by: str                     # "eps_floor" | "max_populations"
    n: int
    seed: int
    eps_floor: float
    model_prior: tuple[float, ...]
    priors: dict[int, PriorSpec] = field(repr=False)

    @property
    def n_populations(self) -> int:
        return len(self.populations)

    def population(self, g: int) -> Population:
        """1-based population accessor (population 1 is the accept-all one)."""
        if not 1 <= g <= self.n_populations:
            raise DomainError(
                f"population index must be in 1..{self.n_populations}, got {g}")
        return self.populations[g - 1]


def _normalize_model_prior(model_prior) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(model_prior, dtype=float)
    if p.shape != (len(MODEL_KINDS),):
        raise DomainError(f"model prior needs {len(MODEL_KINDS)} entries")
    # written so that NaN and inf fail the test
    if not ((p >= 0).all() and 0 < p.sum() < math.inf):
        raise DomainError("model prior must be finite, nonnegative, with positive mass")
    p = p / p.sum()
    return p, np.cumsum(p)


# an overflowing misfit is inf or NaN, which fails the acceptance test; set
# per call because worker threads do not inherit numpy's error state
@np.errstate(over="ignore", invalid="ignore")
def _propose_chunk(seed: int, chunk_index: int, chunk: int, eps: float,
                   cum_prior: np.ndarray, priors: dict[int, PriorSpec],
                   speeds: np.ndarray, y: np.ndarray, ynorm: float, r
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The proposals of one deterministic chunk of the stream that fall
    below ``eps``: (stream positions, kinds, phis padded with NaN,
    distances), in stream order."""
    rng = np.random.default_rng((seed, chunk_index))
    u = rng.random((chunk, 1 + MAX_PARAMS))
    kinds = np.searchsorted(cum_prior, u[:, 0], side="right") + 1
    kinds = np.minimum(kinds, len(MODEL_KINDS))     # guard u == 1.0 edge
    dists = np.full(chunk, np.inf)
    bound = eps * ynorm * (1 + _BOUND_MARGIN)
    for kind, prior in priors.items():
        rows = np.flatnonzero(kinds == kind)
        if not len(rows):
            continue
        phi = prior.sample_from_unit(u[rows, 1:1 + PARAM_COUNTS[kind]])

        def resid(phi, cols):
            return y[None, cols] - torque_batch(kind, phi, r, speeds[cols])
        # the misfit at every fourth speed, then at every other one, bounds
        # the full one from below; written so that an inf or NaN partial
        # sum drops its row too
        quarter = resid(phi, slice(0, None, 4))
        part = np.einsum("ij,ij->i", quarter, quarter)
        live = part < bound
        rows, phi, quarter, part = (rows[live], phi[live], quarter[live],
                                    part[live])
        other = resid(phi, slice(2, None, 4))
        live = part + np.einsum("ij,ij->i", other, other) < bound
        rows, phi = rows[live], phi[live]
        full = np.empty((len(rows), len(speeds)))
        full[:, ::4], full[:, 2::4] = quarter[live], other[live]
        full[:, 1::2] = resid(phi, slice(1, None, 2))
        dists[rows] = np.einsum("ij,ij->i", full, full) / ynorm
    keep = np.flatnonzero(dists < eps)
    kept_kinds = kinds[keep]
    phis = np.full((len(keep), MAX_PARAMS), np.nan)
    for kind, prior in priors.items():
        mask = kept_kinds == kind
        if mask.any():
            p = PARAM_COUNTS[kind]
            phis[mask, :p] = prior.sample_from_unit(u[keep[mask], 1:1 + p])
    return chunk_index * chunk + keep, kept_kinds, phis, dists[keep]


def run(dataset: TorqueDataset, priors: dict[int, PriorSpec],
        model_prior=(0.25, 0.25, 0.25, 0.25), n: int = 25_000,
        eps_floor: float = DEFAULT_EPS_FLOOR, max_populations: int = 20,
        seed: int = 0, r=1.0, threads: int = 1,
        stall_window: int = 500_000) -> AbcState:
    """Run the rejection sampler until the tolerance floor is reached.

    Acceptance is strict (rho < eps). Population g is the first n
    proposals of one stream whose distance lies below eps_g. A population
    whose trailing ``stall_window`` new proposals accept fewer than 1e-5 of
    them raises StallError carrying the stuck tolerance.
    """
    if n < 1:
        raise DomainError("population size must be >= 1")
    if not eps_floor > 0:
        raise DomainError("eps_floor must be > 0")
    if max_populations < 1:
        raise DomainError("max_populations must be >= 1")
    if set(priors) != set(MODEL_KINDS):
        missing = sorted(set(MODEL_KINDS) - set(priors))
        raise DomainError(f"priors missing for model kinds {missing}")
    dataset.require_calibration()
    y = dataset.calibration_torques
    speeds = dataset.calibration_speeds
    ynorm = float(np.dot(y, y))
    prior_vec, cum_prior = _normalize_model_prior(model_prior)
    threads = max(1, int(threads))

    # the pool holds, in stream order, every proposal drawn so far that lies
    # below the current tolerance; a wave starts below n rows and adds at
    # most threads chunks
    cap = n + threads * _CHUNK
    pool = positions, kinds, phis, dists = (
        np.empty(cap, dtype=np.int64), np.empty(cap, dtype=int),
        np.empty((cap, MAX_PARAMS)), np.empty(cap))
    have = 0
    next_chunk = 0

    def generate(executor, eps: float) -> Population:
        nonlocal have, next_chunk
        keep = np.flatnonzero(dists[:have] < eps)
        have = len(keep)
        for buf in pool:
            buf[:have] = buf[keep]
        window_attempts = 0
        window_accepts = 0
        while have < n:
            wave = [executor.submit(_propose_chunk, seed, c, _CHUNK, eps,
                                    cum_prior, priors, speeds, y, ynorm, r)
                    for c in range(next_chunk, next_chunk + threads)]
            next_chunk += threads
            for fut in wave:            # merge in chunk order: deterministic
                rows = fut.result()
                m = len(rows[0])
                for buf, col in zip(pool, rows):
                    buf[have:have + m] = col
                have += m
                window_accepts += m
            window_attempts += threads * _CHUNK
            if window_attempts >= stall_window:
                if window_accepts < 1e-5 * window_attempts:
                    raise StallError(
                        f"acceptance rate below 1e-5 at eps={eps:.6g} "
                        f"({window_accepts}/{window_attempts} in window)",
                        epsilon=eps, attempts=next_chunk * _CHUNK)
                window_attempts = 0
                window_accepts = 0
        return Population(kinds=kinds[:n].copy(), phis=phis[:n].copy(),
                          distances=dists[:n].copy(), tolerance=eps,
                          attempts=int(positions[n - 1]) + 1)

    populations: list[Population] = []
    tolerances: list[float] = []
    eps = math.inf
    with ThreadPoolExecutor(max_workers=threads) as executor:
        while True:
            tolerances.append(eps)
            pop = generate(executor, eps)
            populations.append(pop)
            nxt = float(np.median(pop.distances))
            if eps <= eps_floor:
                stopped = "eps_floor"
                break
            if len(populations) >= max_populations:
                stopped = "max_populations"
                break
            eps = nxt
    return AbcState(populations=populations, tolerances=tolerances,
                    next_tolerance=nxt, stopped_by=stopped, n=n, seed=seed,
                    eps_floor=eps_floor,
                    model_prior=tuple(float(p) for p in prior_vec),
                    priors=dict(priors))


def model_posterior(state: AbcState, g: int) -> list[Fraction]:
    """Acceptance frequency of each model tag in population g (1-based).

    Returned as exact fractions; they sum to 1 exactly.
    """
    pop = state.population(g)
    n = len(pop)
    return [Fraction(pop.count(k), n) for k in MODEL_KINDS]


@dataclass(frozen=True)
class PosteriorStats:
    """Histograms and Pearson correlations of one model's particles.

    Each parameter's bin counts sum to the particle count. Off the
    diagonal, the correlation is NaN in the row and column of a parameter
    with zero spread, and everywhere when fewer than two parameters spread.
    """

    param_names: tuple[str, ...]
    bin_edges: list[np.ndarray]          # per parameter, over the prior box
    bin_counts: list[np.ndarray]
    correlation: np.ndarray


def posterior_stats(state: AbcState, g: int, kind: int,
                    bins: int = 64) -> PosteriorStats:
    """Histograms (fixed prior-box binning) and the Pearson correlation
    matrix of model ``kind``'s particles in population g."""
    pop = state.population(g)
    phi = pop.particles_of(kind)
    m = len(phi)
    if m < 2:
        raise InsufficientSamplesError(
            f"model {kind} has {m} particle(s) in population {g}; need >= 2")
    prior = state.priors[kind]
    p = phi.shape[1]
    # a constant column has exactly zero peak-to-peak spread (std can pick
    # up summation noise of order 1e-17)
    ok = np.flatnonzero(phi.max(axis=0) - phi.min(axis=0) != 0)

    edges, counts = [], []
    for j in range(p):
        c, e = np.histogram(phi[:, j], bins=bins,
                            range=(float(prior.lo[j]), float(prior.hi[j])))
        edges.append(e)
        counts.append(c)

    corr = np.full((p, p), np.nan)
    np.fill_diagonal(corr, 1.0)
    if len(ok) >= 2:
        corr[np.ix_(ok, ok)] = np.corrcoef(phi[:, ok], rowvar=False)
    return PosteriorStats(param_names=PARAM_NAMES[kind], bin_edges=edges,
                          bin_counts=counts, correlation=corr)


def predictive_envelope(state: AbcState, g: int, kind: int, speeds,
                        coverage: float = 0.98, r=1.0
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise (low, high) torque quantile band over one model's particles.

    The band spans the central ``coverage`` mass; coverage 0 collapses both
    bounds onto the pointwise median.
    """
    if not 0 <= coverage < 1:
        raise DomainError(f"coverage must lie in [0, 1), got {coverage}")
    pop = state.population(g)
    phi = pop.particles_of(kind)
    if len(phi) < ENVELOPE_MIN_PARTICLES:
        raise InsufficientSamplesError(
            f"model {kind} has {len(phi)} particles in population {g}; "
            f"need >= {ENVELOPE_MIN_PARTICLES} for an envelope")
    speeds = np.asarray(speeds, dtype=float)
    q_lo = (1.0 - coverage) / 2.0
    # a block of speeds at a time: each column's quantiles depend on that
    # column alone, and the (particles, speeds) torque table stays small
    blocks = [np.quantile(torque_batch(kind, phi, r, speeds[i:i + _ENVELOPE_BLOCK]),
                          [q_lo, 1.0 - q_lo], axis=0)
              for i in range(0, max(len(speeds), 1), _ENVELOPE_BLOCK)]
    return tuple(np.concatenate(blocks, axis=1))


def _bits(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _carried_rows(prev: Population | None, pop: Population) -> list[int]:
    """The rows of ``prev`` below pop's tolerance, in order, when ``pop``
    opens with exactly them, as one proposal stream carries them over;
    otherwise none. Compared as bits, since -0.0 == 0.0 but their reprs
    differ."""
    if prev is None:
        return []
    idx = np.flatnonzero(prev.distances < pop.tolerance)
    m = len(idx)
    same = (m <= len(pop) and prev.kinds.dtype == pop.kinds.dtype
            and np.array_equal(prev.kinds[idx], pop.kinds[:m])
            and np.array_equal(_bits(prev.distances[idx]), _bits(pop.distances[:m]))
            and np.array_equal(_bits(prev.phis[idx]), _bits(pop.phis[:m])))
    return idx.tolist() if same else []


def _format_rows(pop: Population, start: int) -> list[str]:
    """The CSV rows of ``pop`` from row ``start`` on. The NaN padding past a
    model's parameter count is an empty cell."""
    # a generator per column: each cell lives only until its row is joined
    phis = [("" if c == "nan" else c for c in map(repr, col.tolist()))
            for col in pop.phis[start:].T]
    return list(map(",".join, zip(map(repr, pop.kinds[start:].tolist()), *phis,
                                  map(repr, pop.distances[start:].tolist()))))


def save_state(state: AbcState, directory) -> Path:
    """Serialize to a CSV bundle plus a JSON manifest; returns the dir."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    header = ",".join(["model_tag", *(f"phi{j}" for j in range(MAX_PARAMS)),
                       "distance"])
    prev, prev_rows = None, []
    for g, pop in enumerate(state.populations, start=1):
        rows = [prev_rows[i] for i in _carried_rows(prev, pop)]
        rows += _format_rows(pop, len(rows))
        write_table(directory / f"population_{g:02d}.csv", [header], [rows])
        prev, prev_rows = pop, rows
    manifest = {
        "n": state.n,
        "seed": state.seed,
        "eps_floor": state.eps_floor,
        "stopped_by": state.stopped_by,
        "tolerances": [repr(float(t)) for t in state.tolerances],
        "next_tolerance": repr(float(state.next_tolerance)),
        "model_prior": [repr(float(p)) for p in state.model_prior],
        "attempts": [pop.attempts for pop in state.populations],
        "priors": {
            str(k): {"delta": float(pr.delta),
                     "center": [repr(float(v)) for v in pr.center],
                     "lo": [repr(float(v)) for v in pr.lo],
                     "hi": [repr(float(v)) for v in pr.hi]}
            for k, pr in sorted(state.priors.items())
        },
    }
    write_json(directory / "abc_state.json", manifest)
    return directory


def load_state(directory) -> AbcState:
    """Rebuild an AbcState from a ``save_state`` bundle. DataError for a
    missing or unreadable bundle, or a population whose row count, cells
    per row, model tags, NaN padding or distances do not fit n, the header,
    1-4, the tags' parameter counts or the tolerance."""
    directory = Path(directory)
    with _bundle_errors(directory):
        state, attempts = _parse_manifest(directory)
        state.populations = [_read_population(directory, state, attempts, g)
                             for g in range(1, len(state.tolerances) + 1)]
    return state


def load_population(directory, g: int | None = None) -> tuple[int, Population]:
    """Population g (default: the last) of a ``save_state`` bundle and its
    index, with the manifest parse and the checks of ``load_state`` but
    without reading the other populations."""
    directory = Path(directory)
    with _bundle_errors(directory):
        state, attempts = _parse_manifest(directory)
        g = len(state.tolerances) if g is None else g
        if not 1 <= g <= len(state.tolerances):
            raise DomainError(f"population index must be in "
                              f"1..{len(state.tolerances)}, got {g}")
        return g, _read_population(directory, state, attempts, g)


@contextmanager
def _bundle_errors(directory: Path):
    try:
        yield
    except DrillstabError:
        raise
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        raise DataError(f"cannot read ABC state bundle {directory}: "
                        f"{type(exc).__name__}: {exc}") from exc


def _parse_manifest(directory: Path) -> tuple[AbcState, list[int]]:
    """The state without its populations, and each population's attempts."""
    manifest = json.loads((directory / "abc_state.json").read_text())
    priors = {int(k): PriorSpec(kind=int(k), delta=float(pr["delta"]),
                                **{key: np.array([float(v) for v in pr[key]])
                                   for key in ("center", "lo", "hi")})
              for k, pr in manifest["priors"].items()}
    state = AbcState(populations=[],
                     tolerances=[float(t) for t in manifest["tolerances"]],
                     next_tolerance=float(manifest["next_tolerance"]),
                     stopped_by=manifest["stopped_by"], n=int(manifest["n"]),
                     seed=int(manifest["seed"]),
                     eps_floor=float(manifest["eps_floor"]),
                     model_prior=tuple(float(p) for p in manifest["model_prior"]),
                     priors=priors)
    return state, [int(a) for a in manifest["attempts"]]


def _read_population(directory: Path, state: AbcState, attempts: list[int],
                     g: int) -> Population:
    """Parse population g and check it against the manifest."""
    text = (directory / f"population_{g:02d}.csv").read_text()
    rows = text.strip().split("\n")[1:]
    width = MAX_PARAMS + 2
    if any(row.count(",") != width - 1 for row in rows):
        raise DataError(f"population {g} has rows without {width} cells")
    cells = ",".join(rows).split(",")
    kinds = np.array([int(c) for c in cells[::width]], dtype=int)
    phis = np.array([[float(c) if c else math.nan for c in cells[1 + j::width]]
                     for j in range(MAX_PARAMS)]).T.copy()
    dists = np.array([float(c) for c in cells[width - 1::width]])
    eps = state.tolerances[g - 1]
    if len(rows) != state.n:
        raise DataError(f"population {g} has {len(rows)} rows, "
                        f"expected n = {state.n}")
    if not np.isin(kinds, MODEL_KINDS).all():
        raise DataError(f"population {g} has model tags outside {MODEL_KINDS}")
    counts = np.array([PARAM_COUNTS.get(k, 0) for k in range(max(MODEL_KINDS) + 1)])
    if not np.array_equal(np.isfinite(phis),
                          np.arange(MAX_PARAMS) < counts[kinds, None]):
        raise DataError(f"population {g} has parameter cells that do not "
                        "match the NaN padding of their model tags")
    if not (dists < eps).all():
        raise DataError(f"population {g} has distances at or above its "
                        f"tolerance {eps!r}")
    return Population(kinds=kinds, phis=phis, distances=dists, tolerance=eps,
                      attempts=attempts[g - 1])
