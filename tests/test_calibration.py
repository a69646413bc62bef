import numpy as np
import pytest

from drillstab.bitrock import BitRockModel
from drillstab.calibration import default_bounds, fit, fit_all, metric
from drillstab.dataio import TorqueDataset, synthesize
from drillstab.errors import DataError, DomainError
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

    def test_eval_cap_returns_best_found_not_exception(self, m3, r1):
        ds = synthesize(m3, r1, noise_std=0.8, seed=6)
        res = fit(ds, 3, r1, tuple(1.5 * v for v in REFERENCE_PARAMS[3]),
                  max_evals=25)
        assert not res.converged
        assert res.metric_value >= 0.0

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
