import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import ks_2samp

from drillstab import abc
from drillstab.bitrock import MODEL_KINDS, PARAM_COUNTS, torque_batch
from drillstab.calibration import fit_all
from drillstab.dataio import TorqueDataset, synthesize
from drillstab.errors import (DataError, DomainError,
                              InsufficientSamplesError, StallError)
from drillstab.reference import REFERENCE_PARAMS, reference_model


@pytest.fixture(scope="module")
def m3_dataset():
    return synthesize(reference_model(3), 1.0, noise_std=0.8, seed=0)


@pytest.fixture(scope="module")
def reference_priors():
    return {k: abc.PriorSpec.from_center(k, REFERENCE_PARAMS[k], 0.4)
            for k in MODEL_KINDS}


@pytest.fixture(scope="module")
def small_state(m3_dataset, reference_priors):
    return abc.run(m3_dataset, reference_priors, n=500, seed=1)


@pytest.fixture(scope="module")
def accept_all(m3_dataset, reference_priors):
    return abc.run(m3_dataset, reference_priors, n=25_000,
                   max_populations=1, seed=5)


UNIFORM = (0.25, 0.25, 0.25, 0.25)


def propose(dataset, priors, seed, chunk_index, eps, model_prior=UNIFORM):
    """One chunk of the proposal stream."""
    _, cum_prior = abc._normalize_model_prior(model_prior)
    y = dataset.calibration_torques
    return abc._propose_chunk(seed, chunk_index, abc._CHUNK, eps, cum_prior,
                              priors, dataset.calibration_speeds, y,
                              float(np.dot(y, y)), 1.0)


@np.errstate(over="ignore", invalid="ignore")
def full_chunk(dataset, priors, seed, chunk_index, model_prior=UNIFORM):
    """Oracle for one chunk of the proposal stream: every misfit evaluated
    at all speeds at once, without the sampler's staged bound. The rows
    whose distance lies below eps = inf, as (positions, kinds, phis,
    distances)."""
    _, cum_prior = abc._normalize_model_prior(model_prior)
    y = dataset.calibration_torques
    u = np.random.default_rng((seed, chunk_index)).random(
        (abc._CHUNK, 1 + abc.MAX_PARAMS))
    kinds = np.minimum(np.searchsorted(cum_prior, u[:, 0], side="right") + 1,
                       len(MODEL_KINDS))
    phis = np.full((abc._CHUNK, abc.MAX_PARAMS), np.nan)
    dists = np.empty(abc._CHUNK)
    for kind, prior in priors.items():
        rows, p = kinds == kind, PARAM_COUNTS[kind]
        phis[rows, :p] = prior.sample_from_unit(u[rows, 1:1 + p])
        resid = y - torque_batch(kind, phis[rows, :p], 1.0,
                                 dataset.calibration_speeds)
        dists[rows] = np.einsum("ij,ij->i", resid, resid) / np.dot(y, y)
    keep = np.flatnonzero(dists < math.inf)
    return (chunk_index * abc._CHUNK + keep, kinds[keep], phis[keep],
            dists[keep])


def proposal_stream(dataset, priors, seed, chunks):
    """The first chunks of the proposal stream, each evaluated in full by
    ``full_chunk``, and concatenated: (positions, kinds, phis,
    distances)."""
    parts = [full_chunk(dataset, priors, seed, c) for c in range(chunks)]
    return tuple(np.concatenate(cols) for cols in zip(*parts))


def assert_rows_bit_equal(got, want):
    """Equal (positions, kinds, phis, distances), floats compared as bits."""
    assert len(got) == len(want) == 4
    for a, b in zip(got, want):
        if a.dtype.kind == "f":
            a, b = a.view(np.int64), b.view(np.int64)
        assert np.array_equal(a, b)


def stream_population(stream, eps, n):
    """The first n stream proposals below eps, and the stream position of
    the n-th plus one."""
    positions, kinds, phis, dists = stream
    idx = np.flatnonzero(dists < eps)
    assert len(idx) >= n, "stream too short for this tolerance"
    idx = idx[:n]
    return kinds[idx], phis[idx], dists[idx], int(positions[idx[-1]]) + 1


def overflowing(priors):
    """The priors with m2's and m4's boxes replaced: m2's t_sb - t_cb
    overflows to inf and exp(-g_b s) underflows to 0, so some torques are
    NaN; m4's c3 s^3 makes the squares overflow."""
    priors = dict(priors)
    priors[2] = abc.PriorSpec.from_center(2, (1e308, -1e308, 100.0), 0.4)
    priors[4] = abc.PriorSpec.from_center(4, (11.8, -0.93, 0.057, 1e200), 0.4)
    return priors


def per_cell_population_csv(pop):
    """The population CSV written one cell at a time."""
    lines = ["model_tag," + ",".join(f"phi{j}" for j in range(abc.MAX_PARAMS))
             + ",distance"]
    for i in range(len(pop)):
        cells = [str(int(pop.kinds[i]))]
        cells += [repr(float(v)) if not math.isnan(v) else ""
                  for v in pop.phis[i]]
        cells.append(repr(float(pop.distances[i])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


class TestPriors:
    def test_positive_center(self):
        spec = abc.PriorSpec.from_center(4, (10.0, 10.0, 10.0, 10.0), 0.4)
        assert spec.lo[0] == 6.0 and spec.hi[0] == 14.0

    def test_negative_center_is_reordered(self):
        spec = abc.PriorSpec.from_center(4, REFERENCE_PARAMS[4], 0.4)
        j = 1    # c1 = -0.93
        assert spec.lo[j] == pytest.approx(-1.302, rel=1e-12)
        assert spec.hi[j] == pytest.approx(-0.558, rel=1e-12)
        assert (spec.lo < spec.hi).all()

    def test_zero_center_rejected(self):
        with pytest.raises(DomainError, match="zero"):
            abc.PriorSpec.from_center(4, (1.0, 0.0, 1.0, 1.0), 0.4)

    def test_delta_range_enforced(self):
        for delta in (0.0, 1.0, -0.2):
            with pytest.raises(DomainError):
                abc.PriorSpec.from_center(2, REFERENCE_PARAMS[2], delta)

    def test_box_sampling_statistics(self):
        spec = abc.PriorSpec.from_center(2, REFERENCE_PARAMS[2], 0.6)
        rng = np.random.default_rng(0)
        draws = spec.sample_from_unit(rng.random((100_000, 3)))
        width = spec.hi - spec.lo
        assert (draws.min(axis=0) <= spec.lo + 1e-3 * width).all()
        assert (draws.max(axis=0) >= spec.hi - 1e-3 * width).all()
        mid = 0.5 * (spec.lo + spec.hi)
        sigma_mean = width / math.sqrt(12.0 * 100_000)
        assert (np.abs(draws.mean(axis=0) - mid) < 3 * sigma_mean).all()

    def test_build_priors_accepts_fit_results(self, m3_dataset):
        fits = fit_all(m3_dataset, 1.0,
                       {k: REFERENCE_PARAMS[k] for k in MODEL_KINDS})
        priors = abc.build_priors(fits, 0.4)
        for k in MODEL_KINDS:
            center = np.array(fits[k].model.params)
            assert np.array_equal(priors[k].center, center)
            assert (priors[k].lo <= center).all() and (center <= priors[k].hi).all()


class TestRun:
    def test_accept_all_first_population(self, m3_dataset, reference_priors):
        state = abc.run(m3_dataset, reference_priors, n=100,
                        max_populations=1, seed=0)
        assert state.n_populations == 1
        assert state.stopped_by == "max_populations"
        pop = state.population(1)
        assert len(pop) == 100
        assert math.isinf(pop.tolerance)
        assert np.isfinite(pop.distances).all()

    def test_tolerances_strictly_decreasing(self, small_state):
        tol = small_state.tolerances
        assert math.isinf(tol[0])
        assert all(a > b for a, b in zip(tol, tol[1:]))
        assert small_state.stopped_by in ("eps_floor", "max_populations")
        if small_state.stopped_by == "eps_floor":
            assert tol[-1] <= small_state.eps_floor

    def test_particles_obey_tolerance_and_prior_box(self, small_state):
        for pop in small_state.populations:
            assert len(pop) == small_state.n
            assert (pop.distances < pop.tolerance).all()
            for kind in MODEL_KINDS:
                phis = pop.particles_of(kind)
                box = small_state.priors[kind]
                if len(phis):
                    assert (phis >= box.lo).all() and (phis <= box.hi).all()

    def test_distances_revalidate(self, small_state, m3_dataset,
                                  unvalidated_rho):
        pop = small_state.populations[-1]
        speeds = m3_dataset.calibration_speeds
        y = m3_dataset.calibration_torques
        for i in range(0, len(pop), 25):
            kind = int(pop.kinds[i])
            phi = pop.phis[i, :PARAM_COUNTS[kind]]
            rho = unvalidated_rho(kind, phi, speeds, y)
            assert rho == pytest.approx(pop.distances[i], rel=1e-12)

    def test_deterministic_under_seed_and_threads(self, m3_dataset,
                                                  reference_priors):
        a = abc.run(m3_dataset, reference_priors, n=400, seed=3, threads=1)
        b = abc.run(m3_dataset, reference_priors, n=400, seed=3, threads=3)
        assert a.tolerances == b.tolerances
        for pa, pb in zip(a.populations, b.populations):
            assert np.array_equal(pa.kinds, pb.kinds)
            assert np.array_equal(pa.phis, pb.phis, equal_nan=True)
            assert np.array_equal(pa.distances, pb.distances)
        c = abc.run(m3_dataset, reference_priors, n=400, seed=4)
        assert not np.array_equal(a.populations[0].phis,
                                  c.populations[0].phis, equal_nan=True)

    def test_single_model_prior(self, m3_dataset, reference_priors):
        state = abc.run(m3_dataset, reference_priors,
                        model_prior=(0.0, 1.0, 0.0, 0.0), n=200,
                        max_populations=2, seed=0)
        for g in range(1, state.n_populations + 1):
            assert abc.model_posterior(state, g) == [0, 1, 0, 0]

    def test_stall_detection(self, reference_priors):
        # data far above anything the boxed laws can produce: acceptance
        # collapses before the absurd floor is reached
        base = synthesize(reference_model(3), 1.0, noise_std=0.0, seed=0)
        hopeless = TorqueDataset(speeds=base.speeds,
                                 torques=base.torques + 100.0,
                                 split=base.split)
        with pytest.raises(StallError) as err:
            abc.run(hopeless, reference_priors, n=200, eps_floor=1e-9,
                    max_populations=60, seed=0, stall_window=60_000)
        assert err.value.epsilon > 0
        assert err.value.attempts > 0

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_populations_match_stream_oracle(self, m3_dataset,
                                             reference_priors, threads):
        n = 3000
        state = abc.run(m3_dataset, reference_priors, n=n, max_populations=5,
                        seed=6, threads=threads)
        assert state.n_populations == 5
        stream = proposal_stream(m3_dataset, reference_priors, 6, chunks=8)
        assert np.array_equal(stream[0], np.arange(8 * abc._CHUNK))
        mid_chunk = carried = False
        for g, pop in enumerate(state.populations, start=1):
            kinds, phis, dists, attempts = stream_population(
                stream, pop.tolerance, n)
            assert np.array_equal(pop.kinds, kinds)
            assert np.array_equal(pop.phis, phis, equal_nan=True)
            assert np.array_equal(pop.distances, dists)
            assert pop.attempts == attempts
            mid_chunk |= attempts % abc._CHUNK != 0
            if g > 1:
                # rows drawn in the chunk of population g-1's n-th
                # acceptance but after it, carried over by the pool
                prev = state.populations[g - 2].attempts
                end = -(-prev // abc._CHUNK) * abc._CHUNK
                below = np.flatnonzero(stream[3] < pop.tolerance)[:n]
                carried |= bool(((below >= prev) & (below < end)).any())
        assert mid_chunk and carried
        assert state.populations[-1].attempts > 2 * abc._CHUNK

    def test_single_stream_matches_fresh_draws(self, m3_dataset,
                                               reference_priors):
        """The fourth population reuses draws filtered at three tolerances
        that are medians of the same stream; at that tolerance, fresh iid
        draws must give the same model frequencies and parameter marginals
        within binomial and KS error."""
        n = 2000
        for seed in range(4):
            state = abc.run(m3_dataset, reference_priors, n=n,
                            max_populations=4, seed=seed)
            pop = state.populations[-1]
            kinds, phis, _, _ = stream_population(
                proposal_stream(m3_dataset, reference_priors, 100 + seed, 4),
                pop.tolerance, n)
            for kind in MODEL_KINDS:
                p = (pop.count(kind) + (kinds == kind).sum()) / (2 * n)
                sigma = math.sqrt(2 * p * (1 - p) / n)
                assert abs(pop.count(kind) - (kinds == kind).sum()) / n \
                    < 4 * sigma
                fresh = phis[kinds == kind, :PARAM_COUNTS[kind]]
                reused = pop.particles_of(kind)
                if min(len(fresh), len(reused)) < 20:
                    continue
                for j in range(PARAM_COUNTS[kind]):
                    assert ks_2samp(reused[:, j], fresh[:, j]).pvalue > 1e-3

    def test_bounded_chunk_equals_the_filtered_full_chunk(self, m3_dataset,
                                                          reference_priors):
        """The chunk's misfit is bounded in stages; it must keep exactly
        the rows of the full evaluation below eps, bit for bit, also at eps
        equal to a distance and one ulp either side of it. A law without
        prior mass draws no row and passes through as an empty block."""
        for model_prior in (UNIFORM, (0, 0, 1, 0), (0.5, 0, 0.5, 0)):
            full = full_chunk(m3_dataset, reference_priors, 7, 3, model_prior)
            d = np.sort(full[3])
            assert len(d) == abc._CHUNK
            assert set(np.unique(full[1])) == {
                k for k, w in zip(MODEL_KINDS, model_prior) if w}
            for pivot in (d[0], d[1], d[40], d[len(d) // 2], d[-1]):
                for eps in (np.nextafter(pivot, 0.0), pivot,
                            np.nextafter(pivot, math.inf)):
                    keep = full[3] < eps
                    got = propose(m3_dataset, reference_priors, 7, 3,
                                  float(eps), model_prior)
                    assert_rows_bit_equal(got,
                                          tuple(col[keep] for col in full))

    def test_bounded_chunk_rejects_overflowing_torques(self, m3_dataset,
                                                       reference_priors):
        priors = overflowing(reference_priors)
        y = m3_dataset.calibration_torques
        rng = np.random.default_rng(0)
        nan_seen = False
        for kind in (2, 4):
            phi = priors[kind].sample_from_unit(
                rng.random((200, PARAM_COUNTS[kind])))
            with np.errstate(all="ignore"):
                resid = y - torque_batch(kind, phi, 1.0,
                                         m3_dataset.calibration_speeds)
                d = np.einsum("ij,ij->i", resid, resid)
            assert not np.isfinite(d).any()
            nan_seen |= bool(np.isnan(d).any())
        assert nan_seen
        full = full_chunk(m3_dataset, priors, 8, 0)
        assert set(full[1].tolist()) == {1, 3}
        assert len(full[0]) < 0.6 * abc._CHUNK
        for eps in (float(np.median(full[3])), 1e300, 1.7e308, math.inf):
            keep = full[3] < eps
            got = propose(m3_dataset, priors, 8, 0, eps)
            assert_rows_bit_equal(got, tuple(col[keep] for col in full))

    @pytest.mark.parametrize("boxes", ["reference", "overflowing"])
    @pytest.mark.parametrize("n_speeds", [1, 2, 3, 5, 7])
    def test_staged_bound_with_few_speeds(self, reference_priors, n_speeds,
                                          boxes):
        """The staged bound reads every fourth speed, then the rest of every
        other one, then the odd ones; some blocks are empty with few
        speeds. It must keep exactly the rows below eps of the full
        evaluation, bit for bit, also one ulp either side of a distance,
        and at eps = inf, which must still reject the overflowing boxes'
        inf and NaN distances."""
        priors = (reference_priors if boxes == "reference"
                  else overflowing(reference_priors))
        data = synthesize(reference_model(3), 1.0,
                          speeds=np.linspace(1.0, 20.0, 2 * n_speeds - 1),
                          noise_std=0.8, seed=n_speeds)
        assert len(data.calibration_speeds) == n_speeds
        full = full_chunk(data, priors, 3, 1)
        assert (len(full[0]) < abc._CHUNK) == (boxes == "overflowing")
        assert_rows_bit_equal(propose(data, priors, 3, 1, math.inf), full)
        d = np.sort(full[3])
        for pivot in (d[0], d[5], d[len(d) // 8], d[len(d) // 2], d[-1]):
            for eps in (np.nextafter(pivot, 0.0), pivot,
                        np.nextafter(pivot, math.inf)):
                keep = full[3] < eps
                got = propose(data, priors, 3, 1, float(eps))
                assert_rows_bit_equal(got, tuple(col[keep] for col in full))

    def test_staged_bound_evaluates_fewer_torque_cells(
            self, monkeypatch, m3_dataset, reference_priors):
        """At a low eps the staged bound evaluates fewer torque cells than
        bounding at every other speed and then evaluating the survivors at
        every speed."""
        calls = []

        def counted(kind, phi, r, speeds):
            calls.append((kind, phi, speeds))
            return torque_batch(kind, phi, r, speeds)
        monkeypatch.setattr(abc, "torque_batch", counted)
        speeds = m3_dataset.calibration_speeds
        propose(m3_dataset, reference_priors, 9, 0, math.inf)
        # at eps = inf each law's first-stage call holds all its rows
        first = [(kind, phi) for kind, phi, s in calls
                 if np.array_equal(s, speeds[::4])]
        assert [kind for kind, _ in first] == list(MODEL_KINDS)
        assert sum(len(phi) for _, phi in first) == abc._CHUNK
        calls.clear()
        eps = 0.013
        propose(m3_dataset, reference_priors, 9, 0, eps)
        staged = sum(len(phi) * len(s) for _, phi, s in calls)
        y = m3_dataset.calibration_torques
        bound = eps * float(np.dot(y, y)) * (1 + abc._BOUND_MARGIN)
        half_speed = 0
        for kind, phi in first:
            half = y[::2] - torque_batch(kind, phi, 1.0, speeds[::2])
            survivors = (np.einsum("ij,ij->i", half, half) < bound).sum()
            half_speed += len(phi) * len(speeds[::2]) + survivors * len(speeds)
        assert len(calls) == 12
        # 364850 against 566200 cells
        assert staged < 0.7 * half_speed

    def test_worker_threads_print_no_warning(self, m3_dataset,
                                             reference_priors):
        # numpy's error state does not pass into the sampler's threads
        priors = dict(reference_priors)
        priors[2] = abc.PriorSpec.from_center(2, (1e308, -1e308, 100.0), 0.4)
        states = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for threads in (1, 2):
                states.append(abc.run(m3_dataset, priors, n=300,
                                      max_populations=2, seed=2,
                                      threads=threads))
        a, b = states
        for pa, pb in zip(a.populations, b.populations):
            assert np.array_equal(pa.phis, pb.phis, equal_nan=True)
            assert np.array_equal(pa.distances, pb.distances)

    def test_missing_priors_rejected(self, m3_dataset, reference_priors):
        partial = {k: v for k, v in reference_priors.items() if k != 3}
        with pytest.raises(DomainError, match="missing"):
            abc.run(m3_dataset, partial, n=10)


class TestModelPosterior:
    def test_fractions_sum_to_one_exactly(self, small_state):
        for g in range(1, small_state.n_populations + 1):
            probs = abc.model_posterior(small_state, g)
            assert all(isinstance(p, Fraction) for p in probs)
            assert sum(probs) == 1

    def test_accept_all_preserves_uniform_prior(self, m3_dataset,
                                                 reference_priors):
        state = abc.run(m3_dataset, reference_priors, n=25_000,
                        max_populations=1, seed=2)
        probs = [float(p) for p in abc.model_posterior(state, 1)]
        sigma = math.sqrt(0.25 * 0.75 / 25_000)
        assert all(abs(p - 0.25) < 3 * sigma for p in probs)

    def test_bad_population_index(self, small_state):
        with pytest.raises(DomainError):
            abc.model_posterior(small_state, 0)
        with pytest.raises(DomainError):
            abc.model_posterior(small_state, small_state.n_populations + 1)


class TestPosteriorStats:
    def test_prior_independence_means_tiny_correlations(self, accept_all):
        for kind in MODEL_KINDS:
            stats = abc.posterior_stats(accept_all, 1, kind)
            off = stats.correlation[~np.eye(PARAM_COUNTS[kind], dtype=bool)]
            assert (np.abs(off) < 0.05).all()

    def test_correlation_matrix_shape(self, accept_all):
        stats = abc.posterior_stats(accept_all, 1, 3)
        c = stats.correlation
        assert c.shape == (6, 6)
        assert np.allclose(c, c.T, equal_nan=True)
        assert np.allclose(np.diag(c), 1.0)
        assert (np.abs(c[~np.isnan(c)]) <= 1 + 1e-12).all()

    def test_histograms_span_prior_box(self, accept_all):
        stats = abc.posterior_stats(accept_all, 1, 2, bins=32)
        prior = accept_all.priors[2]
        m = accept_all.population(1).count(2)
        for j in range(3):
            assert stats.bin_edges[j][0] == prior.lo[j]
            assert stats.bin_edges[j][-1] == prior.hi[j]
            assert stats.bin_counts[j].sum() == m
            assert len(stats.bin_counts[j]) == 32

    def test_degenerate_parameter_flagged(self, reference_priors):
        phis = np.full((40, 6), np.nan)
        rng = np.random.default_rng(0)
        block = reference_priors[3].sample_from_unit(rng.random((40, 6)))
        block[:, 2] = reference_priors[3].center[2]     # constant column
        phis[:, :6] = block
        pop = abc.Population(kinds=np.full(40, 3), phis=phis,
                             distances=np.zeros(40), tolerance=math.inf,
                             attempts=40)
        state = abc.AbcState(populations=[pop], tolerances=[math.inf],
                             next_tolerance=0.0, stopped_by="max_populations",
                             n=40, seed=0, eps_floor=0.014,
                             model_prior=(0, 0, 1, 0), priors=reference_priors)
        stats = abc.posterior_stats(state, 1, 3)
        # only the constant parameter's row is NaN off the diagonal
        assert [j for j in range(6) if np.isnan(
            np.delete(stats.correlation[j], j)).all()] == [2]
        assert math.isnan(stats.correlation[0, 2])
        assert stats.correlation[2, 2] == 1.0
        assert not math.isnan(stats.correlation[0, 1])

    def test_insufficient_particles(self, m3_dataset, reference_priors):
        state = abc.run(m3_dataset, reference_priors,
                        model_prior=(0, 1, 0, 0), n=30, max_populations=1,
                        seed=0)
        with pytest.raises(InsufficientSamplesError):
            abc.posterior_stats(state, 1, 3)


class TestPredictiveEnvelope:
    def _degenerate_state(self, reference_priors, n=60):
        phi = np.array(REFERENCE_PARAMS[2])
        phis = np.full((n, 6), np.nan)
        phis[:, :3] = phi
        pop = abc.Population(kinds=np.full(n, 2), phis=phis,
                             distances=np.zeros(n), tolerance=math.inf,
                             attempts=n)
        return abc.AbcState(populations=[pop], tolerances=[math.inf],
                            next_tolerance=0.0, stopped_by="max_populations",
                            n=n, seed=0, eps_floor=0.014,
                            model_prior=(0, 1, 0, 0), priors=reference_priors)

    def test_identical_particles_collapse_to_curve(self, reference_priors):
        state = self._degenerate_state(reference_priors)
        speeds = np.linspace(0.5, 15, 40)
        low, high = abc.predictive_envelope(state, 1, 2, speeds)
        curve = torque_batch(2, np.array([REFERENCE_PARAMS[2]]), 1.0, speeds)[0]
        assert np.array_equal(low, high)
        assert low == pytest.approx(curve, rel=1e-12)

    def test_zero_coverage_is_the_median(self, small_state):
        speeds = np.linspace(1, 10, 5)
        low, high = abc.predictive_envelope(small_state, 1, 2, speeds,
                                            coverage=0.0)
        assert np.array_equal(low, high)

    @pytest.mark.parametrize("coverage", [0.98, 0.0])
    def test_matches_two_quantile_calls(self, small_state, coverage):
        speeds = np.linspace(0.5, 15, 40)
        low, high = abc.predictive_envelope(small_state, 2, 3, speeds,
                                            coverage=coverage)
        curves = torque_batch(3, small_state.population(2).particles_of(3),
                              1.0, speeds)
        q_lo = (1.0 - coverage) / 2.0
        assert np.array_equal(low, np.quantile(curves, q_lo, axis=0))
        assert np.array_equal(high, np.quantile(curves, 1.0 - q_lo, axis=0))

    def test_requires_enough_particles(self, reference_priors):
        state = self._degenerate_state(reference_priors, n=20)
        with pytest.raises(InsufficientSamplesError):
            abc.predictive_envelope(state, 1, 2, np.linspace(1, 5, 3))

    def test_validation_coverage_at_recommended_tolerance(self, m3_dataset,
                                                          reference_priors):
        """At the coarsest population at or above the recommended tolerance
        0.040, the 98% envelope encloses >= 90% of validation points."""
        fits = fit_all(m3_dataset, 1.0,
                       {k: REFERENCE_PARAMS[k] for k in MODEL_KINDS},
                       n_starts=3, seed=0)
        priors = abc.build_priors(fits, 0.4)
        state = abc.run(m3_dataset, priors, n=2000, seed=0)
        candidates = [g for g in range(1, state.n_populations + 1)
                      if state.tolerances[g - 1] >= 0.040]
        g = max(candidates)
        low, high = abc.predictive_envelope(state, g, 3,
                                            m3_dataset.validation_speeds)
        covered = ((m3_dataset.validation_torques >= low)
                   & (m3_dataset.validation_torques <= high)).mean()
        assert covered >= 0.90


@pytest.fixture
def formatted_rows(monkeypatch):
    """The number of rows ``save_state`` formats, per population written."""
    counts = []
    real = abc._format_rows

    def counted(pop, start):
        counts.append(len(pop) - start)
        return real(pop, start)
    monkeypatch.setattr(abc, "_format_rows", counted)
    return counts


class TestSerialization:
    def test_round_trip(self, small_state, tmp_path):
        abc.save_state(small_state, tmp_path / "bundle")
        back = abc.load_state(tmp_path / "bundle")
        assert back.tolerances == small_state.tolerances
        assert back.next_tolerance == small_state.next_tolerance
        assert back.stopped_by == small_state.stopped_by
        assert back.model_prior == small_state.model_prior
        for pa, pb in zip(small_state.populations, back.populations):
            assert np.array_equal(pa.kinds, pb.kinds)
            assert np.array_equal(pa.phis, pb.phis, equal_nan=True)
            assert np.array_equal(pa.distances, pb.distances)
            assert pa.attempts == pb.attempts
        for k in MODEL_KINDS:
            assert np.array_equal(back.priors[k].lo, small_state.priors[k].lo)
            assert np.array_equal(back.priors[k].hi, small_state.priors[k].hi)

    def test_writer_matches_per_cell_reference(self, small_state,
                                               reference_priors, tmp_path):
        # all four laws with their NaN padding; negative, tiny, huge and
        # round values; population 1 at tolerance inf
        values = [-1.302, 5e-324, -2.2250738585072014e-308,
                  1.7976931348623157e308, -0.0, 1e16, 1e-05, 0.1,
                  -123456.789, 3.0]
        kinds = np.array([1, 2, 3, 4, 3, 2, 1, 4])
        phis = np.full((len(kinds), abc.MAX_PARAMS), np.nan)
        for i, k in enumerate(kinds):
            phis[i, :PARAM_COUNTS[k]] = np.roll(values, i)[:PARAM_COUNTS[k]]
        first = abc.Population(kinds=kinds, phis=phis,
                               distances=np.array(values[:8]),
                               tolerance=math.inf, attempts=8)
        second = abc.Population(kinds=kinds[::-1], phis=phis[::-1],
                                distances=np.array([1e-300, 0.5, 2.0, 0.0,
                                                    7e-3, 1e300, 3.3, 1.0]),
                                tolerance=2e300, attempts=19)
        state = abc.AbcState(populations=[first, second],
                             tolerances=[math.inf, 2e300], next_tolerance=1.5,
                             stopped_by="max_populations", n=8, seed=0,
                             eps_floor=0.014, model_prior=(0.25,) * 4,
                             priors=reference_priors)
        for st, name in ((state, "crafted"), (small_state, "sampled")):
            bundle = abc.save_state(st, tmp_path / name)
            for g, pop in enumerate(st.populations, start=1):
                written = (bundle / f"population_{g:02d}.csv").read_bytes()
                assert written == per_cell_population_csv(pop).encode("utf-8")

    @staticmethod
    def carried_state(state, case):
        """Population 1 of ``state``, then a population 2 at the median
        tolerance: population 1's rows below it, in order, then the rest of
        ``state``'s population 2. ``case`` flips one carried phi or one
        carried distance between 0.0 and -0.0, or shuffles the carried rows."""
        first = state.populations[0]
        phis, dists = first.phis.copy(), first.distances.copy()
        tol = float(np.median(dists))
        idx = np.flatnonzero(dists < tol)
        phis[idx[3], 0] = 0.0
        dists[idx[5]] = -0.0
        first = abc.Population(kinds=first.kinds, phis=phis, distances=dists,
                               tolerance=math.inf, attempts=first.attempts)
        if case == "shuffled":
            idx = np.random.default_rng(0).permutation(idx)
        tail = state.populations[1]
        second = abc.Population(
            kinds=np.concatenate([first.kinds[idx], tail.kinds[len(idx):]]),
            phis=np.concatenate([phis[idx], tail.phis[len(idx):]]),
            distances=np.concatenate([dists[idx], tail.distances[len(idx):]]),
            tolerance=tol, attempts=first.attempts + 1)
        if case == "phi":
            second.phis[3, 0] = -0.0
        elif case == "distance":
            second.distances[5] = 0.0
        return abc.AbcState(populations=[first, second],
                            tolerances=[math.inf, tol], next_tolerance=tol / 2,
                            stopped_by="max_populations", n=state.n, seed=0,
                            eps_floor=0.014, model_prior=(0.25,) * 4,
                            priors=state.priors), len(idx)

    @pytest.mark.parametrize("case", ["carried", "phi", "distance", "shuffled"])
    def test_writer_reuses_only_a_bit_equal_carried_prefix(
            self, small_state, tmp_path, formatted_rows, case):
        """Reused rows must be the rows a per-cell write gives; a sign flip
        of a zero, or a reordering, makes the writer format every row."""
        state, m = self.carried_state(small_state, case)
        bundle = abc.save_state(state, tmp_path / case)
        for g, pop in enumerate(state.populations, start=1):
            written = (bundle / f"population_{g:02d}.csv").read_bytes()
            assert written == per_cell_population_csv(pop).encode("utf-8")
        n = state.n
        assert 0 < m < n
        assert formatted_rows == [n, n - m if case == "carried" else n]

    def test_sampled_bundle_reuses_carried_rows(self, small_state, tmp_path,
                                                formatted_rows):
        abc.save_state(small_state, tmp_path / "bundle")
        pops = small_state.populations
        assert formatted_rows == [len(pops[0])] + [
            len(pop) - int((prev.distances < pop.tolerance).sum())
            for prev, pop in zip(pops, pops[1:])]


class TestBundleValidation:
    """Damaged bundles raise DataError (CLI exit 4), not a traceback."""

    @pytest.fixture
    def bundle(self, small_state, tmp_path):
        return abc.save_state(small_state, tmp_path / "bundle")

    @staticmethod
    def edit_row(bundle, edit, tag="2", g=2):
        """Apply ``edit`` to the cells of the first row carrying ``tag``."""
        path = bundle / f"population_{g:02d}.csv"
        lines = path.read_text().splitlines()
        i = next(i for i, line in enumerate(lines[1:], start=1)
                 if line.split(",")[0] == tag)
        cells = lines[i].split(",")
        edit(cells)
        lines[i] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")

    def test_intact_bundle_loads(self, bundle, small_state):
        assert abc.load_state(bundle).n_populations == small_state.n_populations

    def test_missing_directory(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            abc.load_state(tmp_path / "nowhere")

    def test_missing_manifest(self, bundle):
        (bundle / "abc_state.json").unlink()
        with pytest.raises(DataError, match="cannot read"):
            abc.load_state(bundle)

    @pytest.mark.parametrize("tag", ["abc", "0", "5"])
    def test_model_tag_outside_range(self, bundle, tag):
        self.edit_row(bundle, lambda cells: cells.__setitem__(0, tag))
        with pytest.raises(DataError):
            abc.load_state(bundle)

    @pytest.mark.parametrize("column, value", [(1, ""), (6, "1.0")])
    def test_padding_mismatch(self, bundle, column, value):
        # m2 takes three parameters: blank a used cell, or fill padding
        self.edit_row(bundle, lambda cells: cells.__setitem__(column, value))
        with pytest.raises(DataError, match="padding"):
            abc.load_state(bundle)

    @pytest.mark.parametrize("cells", [7, 9])
    def test_row_with_wrong_cell_count(self, bundle, cells):
        self.edit_row(bundle, lambda row: row.__setitem__(
            slice(None), (row + [""])[:cells]))
        with pytest.raises(DataError, match="cells"):
            abc.load_state(bundle)

    def test_row_count_differs_from_n(self, bundle):
        path = bundle / "population_02.csv"
        path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
        with pytest.raises(DataError, match="rows"):
            abc.load_state(bundle)

    def test_distance_at_tolerance(self, bundle, small_state):
        eps = repr(small_state.tolerances[1])
        self.edit_row(bundle, lambda cells: cells.__setitem__(-1, eps))
        with pytest.raises(DataError, match="tolerance"):
            abc.load_state(bundle)

    @staticmethod
    def edit_manifest(bundle, edit):
        """Apply ``edit`` to the parsed manifest and write it back."""
        path = bundle / "abc_state.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))

    @pytest.mark.parametrize("priors", [[], None], ids=["list", "null"])
    def test_priors_not_an_object(self, bundle, priors):
        self.edit_manifest(bundle, lambda m: m.update(priors=priors))
        for load in (abc.load_state, abc.load_population):
            with pytest.raises(DataError, match="cannot read"):
                load(bundle)

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.update(tolerances=[], attempts=[]), "0 tolerances and 0"),
        (lambda m: m["attempts"].pop(), "6 tolerances and 5"),
        (lambda m: m["attempts"].append(10**6), "6 tolerances and 7"),
    ], ids=["none", "attempts_short", "attempts_long"])
    def test_manifest_population_count(self, bundle, edit, message):
        self.edit_manifest(bundle, edit)
        for load in (abc.load_state, abc.load_population):
            with pytest.raises(DataError, match=message):
                load(bundle)

    def test_population_header_differs(self, bundle):
        path = bundle / "population_02.csv"
        path.write_text(path.read_text().replace("distance", "rho", 1))
        assert len(abc.load_population(bundle, 1)[1]) == 500
        for load in (abc.load_state, lambda b: abc.load_population(b, 2)):
            with pytest.raises(DataError, match="header"):
                load(bundle)

    def test_one_population_equals_full_load(self, bundle):
        state = abc.load_state(bundle)
        for g in (1, state.n_populations, None):
            got_g, pop = abc.load_population(bundle, g)
            ref = state.population(got_g)
            assert got_g == (state.n_populations if g is None else g)
            assert np.array_equal(pop.kinds, ref.kinds)
            assert np.array_equal(pop.phis, ref.phis, equal_nan=True)
            assert np.array_equal(pop.distances, ref.distances)
            assert (pop.tolerance, pop.attempts) == (ref.tolerance, ref.attempts)

    def test_one_population_reads_no_other(self, bundle):
        (bundle / "population_01.csv").unlink()
        assert len(abc.load_population(bundle, 2)[1]) == 500
        with pytest.raises(DataError, match="cannot read"):
            abc.load_population(bundle, 1)

    @pytest.mark.parametrize("g", [0, 99])
    def test_one_population_index_out_of_range(self, bundle, g):
        with pytest.raises(DomainError, match="population index"):
            abc.load_population(bundle, g)

    def test_one_population_checks(self, bundle, small_state):
        abc.load_population(bundle, 2)
        (bundle / "abc_state.json").rename(bundle / "moved.json")
        with pytest.raises(DataError, match="cannot read"):
            abc.load_population(bundle, 2)
        (bundle / "moved.json").rename(bundle / "abc_state.json")
        self.edit_row(bundle, lambda cells: cells.__setitem__(0, "5"))
        with pytest.raises(DataError, match="model tags"):
            abc.load_population(bundle, 2)
        eps = repr(small_state.tolerances[2])
        self.edit_row(bundle, lambda cells: cells.__setitem__(-1, eps), g=3)
        with pytest.raises(DataError, match="tolerance"):
            abc.load_population(bundle, 3)
        self.edit_row(bundle, lambda cells: cells.__setitem__(6, "1.0"), g=1)
        with pytest.raises(DataError, match="padding"):
            abc.load_population(bundle, 1)
