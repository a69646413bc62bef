import math

import numpy as np
import pytest
import scipy.optimize

from drillstab import calibration
from drillstab.bitrock import BitRockModel
from drillstab.calibration import _nelder_mead, default_bounds, fit, fit_all, metric
from drillstab.dataio import TorqueDataset, synthesize
from drillstab.errors import DataError, DomainError, NumericError
from drillstab.reference import REFERENCE_PARAMS


@pytest.fixture
def m2_noiseless(m2, r1):
    return synthesize(m2, r1, noise_std=0.0, seed=0)


class TestMetric:
    def test_exact_reproduction_scores_zero(self, m2, r1, m2_noiseless):
        assert metric(m2_noiseless, m2, r1) == 0.0

    def test_zero_prediction_scores_one(self, r1, m2_noiseless):
        silent = BitRockModel(kind=4, params=(0.0, 0.0, 0.0, 0.0))
        assert metric(m2_noiseless, silent, r1) == 1.0

    def test_perturbed_parameters_match_elementwise_oracle(self, r1, m2_noiseless):
        bumped = BitRockModel(kind=2, params=(13.0 * 1.01, 6.5, 0.3))
        import math
        num = 0.0
        den = 0.0
        for s, y in zip(m2_noiseless.calibration_speeds,
                        m2_noiseless.calibration_torques):
            pred = (13.0 * 1.01 - 6.5) * math.exp(-0.3 * s) + 6.5
            num += (y - pred) ** 2
            den += y ** 2
        assert metric(m2_noiseless, bumped, r1) == pytest.approx(num / den,
                                                                 rel=1e-12)

    def test_all_zero_torques_degenerate(self, m2, r1):
        flat = TorqueDataset(speeds=np.array([1.0, 2.0, 3.0]),
                             torques=np.zeros(3))
        with pytest.raises(DataError):
            metric(flat, m2, r1)


class TestFit:
    def test_m2_recovery_from_inflated_start(self, r1, m2_noiseless):
        start = tuple(1.2 * v for v in REFERENCE_PARAMS[2])
        res = fit(m2_noiseless, 2, r1, start)
        for got, want in zip(res.model.params, REFERENCE_PARAMS[2]):
            assert abs(got - want) / abs(want) < 1e-3
        assert res.converged

    def test_m4_recovery_from_deflated_start(self, m4, r1):
        ds = synthesize(m4, r1, noise_std=0.0, seed=0)
        start = tuple(0.8 * v for v in REFERENCE_PARAMS[4])
        res = fit(ds, 4, r1, start)
        for got, want in zip(res.model.params, REFERENCE_PARAMS[4]):
            assert abs(got - want) / abs(want) < 1e-3

    def test_fixed_point_keeps_zero_metric(self, r1, m2_noiseless):
        res = fit(m2_noiseless, 2, r1, REFERENCE_PARAMS[2])
        assert res.metric_value == 0.0
        for got, want in zip(res.model.params, REFERENCE_PARAMS[2]):
            assert abs(got - want) / abs(want) < 1e-6

    def test_never_worse_than_initial(self, m3, r1):
        ds = synthesize(m3, r1, noise_std=0.8, seed=3)
        for factor in (0.7, 1.0, 1.3):
            start = tuple(factor * v for v in REFERENCE_PARAMS[3])
            start_metric = metric(ds, BitRockModel(kind=3, params=start), r1)
            res = fit(ds, 3, r1, start, max_evals=2000)
            assert res.metric_value <= start_metric + 1e-15

    def test_row_permutation_invariance(self, m2, r1):
        ds = synthesize(m2, r1, noise_std=0.5, seed=1)
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(ds))
        shuffled = TorqueDataset(speeds=ds.speeds[perm], torques=ds.torques[perm],
                                 split=ds.split[perm], source=ds.source,
                                 w_ref=ds.w_ref)
        assert metric(ds, m2, r1) == pytest.approx(metric(shuffled, m2, r1),
                                                   rel=1e-12)
        a = fit(ds, 2, r1, REFERENCE_PARAMS[2])
        b = fit(shuffled, 2, r1, REFERENCE_PARAMS[2])
        for x, y in zip(a.model.params, b.model.params):
            assert x == pytest.approx(y, rel=1e-6)

    def test_multistart_deterministic_and_best_of(self, m3, r1):
        ds = synthesize(m3, r1, noise_std=0.8, seed=2)
        start = REFERENCE_PARAMS[3]
        single = fit(ds, 3, r1, start)
        multi_a = fit(ds, 3, r1, start, n_starts=5, seed=7)
        multi_b = fit(ds, 3, r1, start, n_starts=5, seed=7)
        assert multi_a.model.params == multi_b.model.params
        assert multi_a.metric_value == multi_b.metric_value
        assert multi_a.metric_value <= single.metric_value + 1e-15

    @pytest.mark.parametrize("kind", [1, 2, 3, 4])
    def test_metric_value_is_the_metric_of_the_fit(self, kind, m3, r1):
        # fit minimizes the misfit that metric reports: the same bits
        ds = synthesize(m3, r1, noise_std=0.8, seed=0)
        res = fit(ds, kind, r1, REFERENCE_PARAMS[kind], n_starts=3)
        assert repr(res.metric_value) == repr(metric(ds, res.model, r1))

    def test_eval_cap_returns_best_found_not_exception(self, m3, r1):
        ds = synthesize(m3, r1, noise_std=0.8, seed=6)
        res = fit(ds, 3, r1, tuple(1.5 * v for v in REFERENCE_PARAMS[3]),
                  max_evals=25)
        assert not res.converged
        assert res.metric_value >= 0.0

    def test_non_finite_misfit_at_initial_point_raises(self, m2_noiseless):
        # at r = 1e300 the law's squared residuals overflow
        with pytest.raises(NumericError, match="initial point"):
            fit(m2_noiseless, 2, 1e300, REFERENCE_PARAMS[2])

    def test_overflowing_jittered_start_falls_back_to_initial(self, r1,
                                                              m2_noiseless):
        # jitter 1e300 scales each drawn start beyond where the misfit is
        # finite, so every start is the initial point
        one = fit(m2_noiseless, 2, r1, REFERENCE_PARAMS[2])
        three = fit(m2_noiseless, 2, r1, REFERENCE_PARAMS[2], n_starts=3,
                    jitter=1e300)
        assert three.model == one.model
        assert three.iterations == 3 * one.iterations

    def test_invalid_initial_rejected(self, r1, m2_noiseless):
        with pytest.raises(DomainError):
            fit(m2_noiseless, 2, r1, (6.5, 13.0, 0.3))   # t_sb < t_cb

    def test_bounds_respect_sign_constraints(self, r1, m2_noiseless):
        res = fit(m2_noiseless, 2, r1, (14.0, 7.0, 0.25))
        t_sb, t_cb, g_b = res.model.params
        assert t_sb >= t_cb >= 0 and g_b > 0

    def test_default_bounds_shape(self):
        for kind, count in ((1, 4), (2, 3), (3, 6), (4, 4)):
            assert len(default_bounds(kind)) == count

    def test_default_bounds_table(self):
        eps, inf = 1e-12, np.inf
        assert default_bounds(1) == [(-inf, inf), (eps, inf), (-inf, inf), (eps, inf)]
        assert default_bounds(2) == [(0.0, inf), (0.0, inf), (eps, inf)]
        assert default_bounds(3) == [(-inf, inf), (eps, inf), (-inf, inf),
                                     (-inf, inf), (-inf, inf), (eps, inf)]
        assert default_bounds(4) == [(-inf, inf)] * 4


def test_fit_all_runs_every_model(m3, r1):
    ds = synthesize(m3, r1, noise_std=0.4, seed=5)
    results = fit_all(ds, r1, {k: REFERENCE_PARAMS[k] for k in (1, 2, 3, 4)})
    assert sorted(results) == [1, 2, 3, 4]
    for kind, res in results.items():
        assert res.model.kind == kind
        assert res.metric_value >= 0


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _check_against_scipy(fun, x0, lo, hi, max_evals, xatol=1e-10, fatol=1e-14):
    """Run the port and scipy's bounded adaptive Nelder-Mead on one problem;
    require equal bits in x and fun and equal nfev and success. Returns
    the port's result and scipy's final simplex."""
    got = _nelder_mead(fun, x0, lo, hi, max_evals, xatol, fatol)
    res = scipy.optimize.minimize(
        lambda v: fun(v.tolist()), x0, method="Nelder-Mead",
        bounds=scipy.optimize.Bounds(lo, hi),
        options=dict(maxfev=max_evals, xatol=xatol, fatol=fatol, adaptive=True))
    x, fx, nfev, success = got
    assert (_bits(x), _bits([fx]), nfev, success) \
        == (_bits(res.x), _bits([res.fun]), res.nfev, res.success)
    return got, res.final_simplex


_FREE2, _FREE3 = ([-math.inf] * 2, [math.inf] * 2), ([-math.inf] * 3, [math.inf] * 3)


@pytest.mark.parametrize("noise", [0.0, 0.8, 3.0])
def test_nelder_mead_matches_scipy(noise, r1, monkeypatch):
    """Every law fitted to m3 data with three starts (the first plain, two
    jittered): each Nelder-Mead run returns scipy's bits."""
    runs = []

    def checked(*args, **kwargs):
        runs.append(_check_against_scipy(*args, **kwargs)[0])
        return runs[-1]

    monkeypatch.setattr(calibration, "_nelder_mead", checked)
    ds = synthesize(BitRockModel(kind=3, params=REFERENCE_PARAMS[3]), r1,
                    noise_std=noise, seed=1)
    for kind in (1, 2, 3, 4):
        fit(ds, kind, r1, REFERENCE_PARAMS[kind], n_starts=3, seed=kind)
    assert len(runs) == 12


def test_nelder_mead_matches_scipy_with_inf_vertices():
    # three of the four initial vertices sum past 3 and score +inf
    def fun(x):
        return math.inf if sum(x) > 3.0 else sum((v - 0.5) ** 2 for v in x)
    (_, fx, _, success), _ = _check_against_scipy(fun, [1.0] * 3, *_FREE3, 2000)
    assert success and fx < math.inf


def test_nelder_mead_matches_scipy_with_nan_vertices():
    def fun(x):
        return math.nan if x[0] > 1.02 else (x[0] - 3.0) ** 2 + x[1] ** 2
    capped, free = (_check_against_scipy(fun, [1.0, 1.0], *_FREE2, cap)[0][1]
                    for cap in (10, 2000))
    assert math.isnan(capped) and free < 4.0


def test_nelder_mead_matches_scipy_with_the_cap_inside_a_shrink():
    # only the initial vertices score finitely, so every step ends in a
    # shrink; some caps stop after a shrink replaced a vertex with a finite
    # score but before it was scored again
    scores = {(1.0, 1.0): 2.0, (1.05, 1.0): 1.0, (1.0, 1.05): 3.0}

    def fun(x):
        return scores.get(tuple(x), math.inf)
    stale = 0
    for cap in range(30):
        _, (sim, fsim) = _check_against_scipy(fun, [1.0, 1.0], *_FREE2, cap)
        stale += any(fv < math.inf and fun(v.tolist()) != fv
                     for v, fv in zip(sim, fsim))
    assert stale > 0


def test_nelder_mead_matches_scipy_from_negative_zero():
    def fun(x):
        return x[0] ** 2 + (x[1] - 1.0) ** 2
    (x, fx, _, _), _ = _check_against_scipy(fun, [-0.0, 1.0], [0.0, -math.inf],
                                            [math.inf] * 2, 2000)
    assert fx == 0.0 and math.copysign(1.0, x[0]) == 1.0
