import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drillstab import stability
from drillstab.bitrock import BitRockModel, WobRatio, torque_derivative
from drillstab.dynamics import (LumpedDrillString, OperatingPoint,
                                 jacobian_1dof)
from drillstab.errors import DomainError, InsufficientSamplesError, NumericError
from drillstab.fem import (assemble, eigenvalues_general, jacobian_fem,
                           state_matrix)
from drillstab.reference import (REFERENCE_GEOMETRY, REFERENCE_PARAMS,
                                 W_REF_KN, reference_plant)
from drillstab.stability import (BoundaryCurve, boundary_separation,
                                 boundary_to_csv, classify, classify_trace,
                                 critical_damping, grid_to_csv,
                                 map_deterministic, map_mixture,
                                 map_stochastic)


def m2_analytic_wstar(omega, c_eq, w_ref=W_REF_KN,
                      params=REFERENCE_PARAMS[2]):
    """Closed-form boundary for the exponential law: instability onset where
    r (t_sb - t_cb) g_b exp(-g_b omega) * 1000 = c_eq."""
    t_sb, t_cb, g_b = params
    return w_ref * c_eq * math.exp(g_b * omega) / (1000.0 * (t_sb - t_cb) * g_b)


def m4_analytic_wstar(omega, c_eq, w_ref=W_REF_KN,
                      params=REFERENCE_PARAMS[4]):
    """Quadratic trace-condition oracle for the cubic law."""
    _, c1, c2, c3 = params
    slope = c1 + 2 * c2 * omega + 3 * c3 * omega ** 2
    if slope >= 0:
        return math.inf
    return w_ref * c_eq / (1000.0 * -slope)


class TestClassify:
    def test_m2_flips_at_analytic_crossing(self, m2, plant):
        omega_star = math.log(1000 * 6.5 * 0.3 / plant.c_eq) / 0.3
        assert omega_star == pytest.approx(8.2745, abs=1e-3)
        assert omega_star * 30 / math.pi == pytest.approx(79.0, abs=0.1)
        below = OperatingPoint(omega=omega_star * (1 - 1e-3), wob=W_REF_KN)
        above = OperatingPoint(omega=omega_star * (1 + 1e-3), wob=W_REF_KN)
        assert not classify(m2, plant, below, W_REF_KN)
        assert classify(m2, plant, above, W_REF_KN)

    def test_zero_derivative_always_stable(self, plant):
        flat = BitRockModel(kind=4, params=(11.8, 0.0, 0.0, 0.0))
        for omega in (1.0, 5.0, 15.0):
            for wob in (50.0, 244.2, 700.0):
                op = OperatingPoint(omega=omega, wob=wob)
                assert classify(flat, plant, op, W_REF_KN)

    def test_m2_weight_destabilizes_monotonically(self, m2, plant):
        flags = [classify(m2, plant, OperatingPoint(omega=10.0, wob=w),
                          W_REF_KN)
                 for w in np.linspace(50, 700, 50)]
        # one stable->unstable transition, no flip back
        assert flags[0] and not flags[-1]
        assert sum(1 for a, b in zip(flags, flags[1:]) if a != b) == 1

    def test_eig_and_trace_routes_agree_on_grid(self, m1, m2, m3, m4, plant):
        for model in (m1, m2, m3, m4):
            for omega in np.linspace(1, 20, 12):
                for wob in np.linspace(50, 700, 12):
                    op = OperatingPoint(omega=float(omega), wob=float(wob))
                    assert classify(model, plant, op, W_REF_KN) == \
                        classify_trace(model, plant, op, W_REF_KN)

    def test_fem_plant_accepted(self, m2, geometry):
        fem = assemble(geometry, 1, 1, alpha=0.5, beta=0.006)
        op = OperatingPoint(omega=10.0, wob=W_REF_KN)
        assert classify(m2, fem, op, W_REF_KN)

    def test_unknown_plant_rejected(self, m2):
        with pytest.raises(DomainError):
            classify(m2, object(), OperatingPoint(omega=1.0, wob=1.0), W_REF_KN)


def unconstrained_m2():
    """The particles of test_fem_plant_handles_unconstrained_particles: m2
    draws from independent boxes, some violating t_sb >= t_cb."""
    rng = np.random.default_rng(4)
    return np.array(REFERENCE_PARAMS[2])[None, :] \
        * rng.uniform(0.6, 1.4, size=(100, 3))


class TestCriticalDamping:
    @pytest.mark.parametrize("mesh", [None, (1, 1, 0.006), (8, 2, 0.0021)])
    def test_matches_eigen_route(self, plant, geometry, mesh):
        # 1-DOF plant, then the 2-DOF and 10-DOF FE plants
        if mesh is not None:
            plant = assemble(geometry, mesh[0], mesh[1], alpha=0.5,
                             beta=mesh[2])
        c_star = critical_damping(plant)
        rng = np.random.default_rng(0)
        points = [(2, phi) for phi in unconstrained_m2()]
        for kind in (1, 2, 3, 4):
            base = np.array(REFERENCE_PARAMS[kind])
            points += [(kind, base * rng.uniform(0.6, 1.4, size=len(base)))
                       for _ in range(40)]
        verdicts = set()
        for kind, phi in points:
            law = SimpleNamespace(kind=kind, params=tuple(phi))
            op = OperatingPoint(omega=rng.uniform(1.0, 20.0),
                                wob=rng.uniform(0.2, 3.0) * W_REF_KN)
            r = WobRatio(op.wob, W_REF_KN)
            a = (jacobian_1dof(law, r, plant, op) if mesh is None
                 else jacobian_fem(plant, law, r, op))
            if abs(eigenvalues_general(a).real.max()) < 1e-6:
                continue
            c = 1000.0 * torque_derivative(law, r, op.omega)
            verdicts.add(c > c_star)
            assert (c > c_star) == classify(law, plant, op, W_REF_KN)
        assert verdicts == {True, False}

    def test_one_dof_closed_form(self, plant):
        assert critical_damping(plant) == pytest.approx(
            -plant.c_eq, rel=1e-9)

    def test_split_stable_set_raises(self, monkeypatch, m2, plant, geometry):
        real = stability._rightmost

        def split(p, c):
            # a stable band of bit damping inside the unstable half-line
            return np.where((c > -1000) & (c < -500), -1.0, real(p, c))
        monkeypatch.setattr(stability, "_rightmost", split)
        for p in (plant, assemble(geometry, 1, 1, alpha=0.5, beta=0.006)):
            with pytest.raises(NumericError):
                map_deterministic(m2, p, W_REF_KN, resolution=(10, 10))

    @pytest.mark.parametrize("mesh", [(1, 1, 0.5, 0.006),
                                      (8, 2, 0.5, 0.0021), (1, 1, 0.0, 0.0)])
    def test_stacked_guard_equals_per_damping_loop(self, monkeypatch,
                                                   geometry, mesh):
        fem = assemble(geometry, *mesh)
        stacked = critical_damping(fem)

        def per_damping(plant, c):
            return np.array([eigenvalues_general(
                state_matrix(plant, ci)).real.max() for ci in c])
        monkeypatch.setattr(stability, "_rightmost", per_damping)
        assert critical_damping(fem) == stacked

    def test_undamped_plant_maps_match_eigen_route(self, geometry):
        # c* > 0: a particle is unstable at and below its threshold, or
        # everywhere when its slope is <= 0
        fem = assemble(geometry, 1, 1, alpha=0.0, beta=0.0)
        assert critical_damping(fem) > 0
        for kind in (1, 2, 3, 4):
            model = BitRockModel(kind=kind, params=REFERENCE_PARAMS[kind])
            grid, _ = map_deterministic(model, fem, W_REF_KN,
                                        resolution=(6, 6))
            for i, om in enumerate(grid.omega_axis):
                for j, w in enumerate(grid.wob_axis):
                    op = OperatingPoint(omega=float(om), wob=float(w))
                    assert grid.stable[i, j] == classify(model, fem, op,
                                                         W_REF_KN)
        # a particle set whose m4 slopes change sign along Omega
        rng = np.random.default_rng(5)
        phis = np.array(REFERENCE_PARAMS[4])[None, :] \
            * rng.uniform(0.2, 1.8, size=(100, 4))
        grid, curve = map_stochastic(4, phis, fem, W_REF_KN,
                                     resolution=(6, 6), percentile=0.5)
        for i, om in enumerate(grid.omega_axis):
            for j, w in enumerate(grid.wob_axis):
                op = OperatingPoint(omega=float(om), wob=float(w))
                share = np.mean([not classify(SimpleNamespace(
                    kind=4, params=tuple(phi)), fem, op, W_REF_KN)
                    for phi in phis])
                assert grid.p_unstable[i, j] == pytest.approx(share, abs=1e-12)
        assert (np.diff(grid.p_unstable, axis=1) <= 0).all()

    def test_positive_c_star_boundary_below_stable_cells(self):
        # c_eq below 2e-10 I_eq leaves c* > 0, so a rising law is stable
        # only above its threshold r* = c* / (1000 * 2 c2 Omega)
        lumped = LumpedDrillString(i_eq=383.33, c_eq=1e-12, k_eq=277.0)
        c_star = critical_damping(lumped)
        assert c_star > 0
        law = BitRockModel(kind=4, params=(11.8, 0.0, 1e-11, 0.0))
        grid, curve = map_deterministic(law, lumped, W_REF_KN,
                                        resolution=(20, 20))
        assert (np.diff(grid.stable.astype(int), axis=1) >= 0).all()
        for i, om in enumerate(grid.omega_axis):
            for j, w in enumerate(grid.wob_axis):
                op = OperatingPoint(omega=float(om), wob=float(w))
                assert grid.stable[i, j] == classify_trace(law, lumped, op,
                                                           W_REF_KN)
        assert len(curve) > 10
        for om, w in curve.points:
            assert w == pytest.approx(
                W_REF_KN * c_star / (1000.0 * 2e-11 * om), rel=1e-12)
        rng = np.random.default_rng(6)
        phis = np.column_stack([np.full(100, 11.8), np.zeros(100),
                                rng.uniform(0.5, 1.5, 100) * 1e-11,
                                np.zeros(100)])

        def share(om, w):
            op = OperatingPoint(omega=float(om), wob=float(w))
            return np.mean([not classify_trace(SimpleNamespace(
                kind=4, params=tuple(phi)), lumped, op, W_REF_KN)
                for phi in phis])
        grid, curve = map_stochastic(4, phis, lumped, W_REF_KN,
                                     resolution=(12, 12), percentile=0.5)
        for i, om in enumerate(grid.omega_axis):
            for j, w in enumerate(grid.wob_axis):
                assert grid.p_unstable[i, j] == pytest.approx(share(om, w),
                                                              abs=1e-12)
        # each boundary point is the last W at which half the set is unstable
        assert len(curve) > 5
        for om, w in curve.points:
            assert share(om, w) >= 0.5 > share(om, w * (1 + 1e-9))

    def test_damped_maps_cross_once_per_column(self, m1, m2, m3, m4, plant):
        # c* < 0: stable cells lie below one threshold in every column
        for model in (m1, m2, m3, m4):
            grid, curve = map_deterministic(model, plant, W_REF_KN)
            assert (np.diff(grid.stable.astype(int), axis=1) <= 0).all()
            assert len(np.unique(curve.points[:, 0])) == len(curve)

    def test_maps_solve_eigenproblems_only_for_c_star(self, monkeypatch, plant,
                                                      geometry, m2_cloud):
        calls = []

        def counted(a):
            calls.append(1)
            return eigenvalues_general(a)
        monkeypatch.setattr(stability, "eigenvalues_general", counted)
        map_stochastic(2, m2_cloud, plant, W_REF_KN, resolution=(20, 20))
        assert not calls
        fem = assemble(geometry, 1, 1, alpha=0.5, beta=0.006)
        map_stochastic(2, m2_cloud, fem, W_REF_KN, resolution=(20, 20))
        # a fixed bracket, bisection and guard scan, not one per
        # particle and cell (148 x 400)
        assert 0 < len(calls) < 400
        c_star, n_calls = critical_damping(fem), len(calls)
        map_stochastic(2, m2_cloud, fem, W_REF_KN, resolution=(20, 20),
                       c_star=c_star)
        assert len(calls) == n_calls

    def test_dampings_beyond_guarded_span_raise(self, plant):
        steep = BitRockModel(kind=4, params=(11.8, -1e6, 0.0, 0.0))
        with pytest.raises(NumericError, match="beyond"):
            map_deterministic(steep, plant, W_REF_KN, resolution=(4, 4))

    def test_non_finite_slopes_raise(self, m1, plant):
        # m1's slope is inf / inf = NaN at Omega = 1e300; a NaN cell must
        # not pass for stable
        with pytest.raises(NumericError, match="beyond"):
            map_deterministic(m1, plant, W_REF_KN,
                              omega_range=(1.0, 1e300), resolution=(4, 4))

    def test_fem_map_cells_match_eigen_route(self, geometry):
        fem = assemble(geometry, 8, 2, alpha=0.5, beta=0.0021)
        for kind in (1, 3):
            model = BitRockModel(kind=kind, params=REFERENCE_PARAMS[kind])
            grid, _ = map_deterministic(model, fem, W_REF_KN,
                                        resolution=(8, 8))
            for i, om in enumerate(grid.omega_axis):
                for j, w in enumerate(grid.wob_axis):
                    op = OperatingPoint(omega=float(om), wob=float(w))
                    assert grid.stable[i, j] == classify(model, fem, op,
                                                         W_REF_KN)


class TestDeterministicMap:
    def test_m2_boundary_matches_closed_form(self, m2, plant):
        grid, curve = map_deterministic(m2, plant, W_REF_KN)
        assert len(curve) > 20
        assert (np.diff(curve.points[:, 1]) > 0).all()
        for om, w in curve.points:
            assert w == pytest.approx(m2_analytic_wstar(om, plant.c_eq),
                                      rel=1e-3)

    def test_m4_boundary_matches_quadratic_oracle(self, m4, plant):
        grid, curve = map_deterministic(m4, plant, W_REF_KN)
        assert len(curve) > 20
        for om, w in curve.points:
            assert w == pytest.approx(m4_analytic_wstar(om, plant.c_eq),
                                      rel=1e-3)
        # the cubic law's boundary exits the window top and re-enters
        assert not (np.diff(curve.points[:, 1]) > 0).all()

    def test_m1_stable_region_contains_m2_at_moderate_speeds(self, m1, m2,
                                                             plant):
        # the containment claim holds on windows capped near 8.5 rad/s;
        # beyond ~8.9 rad/s the exponential law's boundary crosses above
        kwargs = dict(omega_range=(1.0, 8.5), resolution=(40, 40))
        grid1, _ = map_deterministic(m1, plant, W_REF_KN, **kwargs)
        grid2, _ = map_deterministic(m2, plant, W_REF_KN, **kwargs)
        assert (grid1.stable | ~grid2.stable).all()     # m2 stable => m1 stable
        assert (grid1.stable & ~grid2.stable).any()     # strictly larger

    def test_grid_refinement_moves_boundary_less_than_coarse_cell(self, m2,
                                                                  plant):
        _, coarse = map_deterministic(m2, plant, W_REF_KN,
                                      resolution=(40, 40))
        fine_grid, fine = map_deterministic(m2, plant, W_REF_KN,
                                            resolution=(80, 80))
        coarse_cells = (19.0 / 39, (3.0 - 0.2) * W_REF_KN / 39)
        assert boundary_separation(coarse, fine, coarse_cells) < 1.0

    def test_grid_shape_and_source(self, m2, plant):
        grid, _ = map_deterministic(m2, plant, W_REF_KN, resolution=(12, 9))
        assert grid.stable.shape == (12, 9)
        assert grid.p_unstable is None

    def test_resolution_validation(self, m2, plant):
        with pytest.raises(DomainError):
            map_deterministic(m2, plant, W_REF_KN, resolution=(1, 10))


@pytest.fixture
def m2_cloud():
    """Symmetric scatter of the exponential law around the reference fit.

    148 particles so no acceptance fraction k/148 coincides exactly with
    the 2% percentile (strict-comparison ties are razor edges).
    """
    rng = np.random.default_rng(8)
    base = np.array(REFERENCE_PARAMS[2])
    offsets = rng.uniform(-1, 1, size=(148, 3))
    offsets[:74] = -offsets[74:]                       # exactly symmetric
    return base[None, :] * (1.0 + 0.15 * offsets)


class TestStochasticMap:
    def test_identical_particles_reduce_to_deterministic(self, m2, plant):
        phis = np.tile(REFERENCE_PARAMS[2], (120, 1))
        grid, curve = map_stochastic(2, phis, plant, W_REF_KN,
                                     resolution=(40, 40))
        assert set(np.unique(grid.p_unstable)) <= {0.0, 1.0}
        _, det = map_deterministic(m2, plant, W_REF_KN, resolution=(40, 40))
        cells = (19.0 / 39, 2.8 * W_REF_KN / 39)
        assert boundary_separation(curve, det, cells) < 0.05

    def test_median_percentile_matches_median_particle(self, plant, m2_cloud):
        grid, curve = map_stochastic(2, m2_cloud, plant, W_REF_KN,
                                     percentile=0.5, resolution=(40, 40))
        median_model = BitRockModel(kind=2, params=REFERENCE_PARAMS[2])
        _, det = map_deterministic(median_model, plant, W_REF_KN,
                                   resolution=(40, 40))
        cells = (19.0 / 39, 2.8 * W_REF_KN / 39)
        assert boundary_separation(curve, det, cells) <= 1.0

    def test_two_percent_band_is_conservative(self, plant, m2_cloud):
        _, p02 = map_stochastic(2, m2_cloud, plant, W_REF_KN,
                                percentile=0.02, resolution=(40, 40))
        _, p50 = map_stochastic(2, m2_cloud, plant, W_REF_KN,
                                percentile=0.5, resolution=(40, 40))
        shared = (set(np.round(p02.points[:, 0], 9))
                  & set(np.round(p50.points[:, 0], 9)))
        assert len(shared) > 10
        for om in shared:
            w02 = p02.points[np.isclose(p02.points[:, 0], om), 1][0]
            w50 = p50.points[np.isclose(p50.points[:, 0], om), 1][0]
            assert w02 <= w50 + 1e-9

    def test_requires_enough_particles(self, plant):
        with pytest.raises(InsufficientSamplesError):
            map_stochastic(2, np.empty((0, 3)), plant, W_REF_KN)

    def test_probability_field_recorded(self, plant, m2_cloud):
        grid, _ = map_stochastic(2, m2_cloud, plant, W_REF_KN,
                                 resolution=(20, 20))
        assert grid.p_unstable.shape == (20, 20)
        assert ((grid.p_unstable >= 0) & (grid.p_unstable <= 1)).all()
        assert np.array_equal(grid.stable, grid.p_unstable < 0.02)

    def test_fem_plant_handles_unconstrained_particles(self, geometry):
        # independent prior boxes can produce draws violating a law's joint
        # sign constraints (here t_sb < t_cb); classification still applies
        rng = np.random.default_rng(4)
        phis = np.array(REFERENCE_PARAMS[2])[None, :] \
            * rng.uniform(0.6, 1.4, size=(100, 3))
        assert (phis[:, 0] < phis[:, 1]).any()
        fem = assemble(geometry, 1, 1, alpha=0.5, beta=0.006)
        grid, curve = map_stochastic(2, phis, fem, W_REF_KN,
                                     resolution=(10, 10))
        assert ((grid.p_unstable >= 0) & (grid.p_unstable <= 1)).all()
        assert len(curve) > 0

    def test_fem_and_lumped_stochastic_paths_agree(self, plant, geometry,
                                                   m2_cloud):
        # the FE fast path at a near-lumped discretization must match the
        # vectorized lumped route on the same particle set
        fem = assemble(geometry, 1, 1, alpha=0.5, beta=0.006)
        kwargs = dict(resolution=(16, 16))
        _, fem_curve = map_stochastic(2, m2_cloud, fem, W_REF_KN, **kwargs)
        _, lump_curve = map_stochastic(2, m2_cloud, plant, W_REF_KN, **kwargs)
        cells = (19.0 / 15, 2.8 * W_REF_KN / 15)
        assert boundary_separation(fem_curve, lump_curve, cells) < 1.0


class TestMixtureMap:
    def _m3_cloud(self):
        rng = np.random.default_rng(9)
        base = np.array(REFERENCE_PARAMS[3])
        return base[None, :] * rng.uniform(0.9, 1.1, size=(148, 6))

    def test_degenerate_weights_reduce_to_component(self, plant, m2_cloud):
        sets = [(2, m2_cloud), (3, self._m3_cloud())]
        _, mix = map_mixture(sets, (1.0, 0.0), plant, W_REF_KN,
                             resolution=(30, 30))
        _, solo = map_stochastic(2, m2_cloud, plant, W_REF_KN,
                                 resolution=(30, 30))
        lo = mix.points[0, 0]
        hi = mix.points[-1, 0]
        solo_pts = solo.points[(solo.points[:, 0] >= lo)
                               & (solo.points[:, 0] <= hi)]
        assert np.allclose(mix.points, solo_pts, rtol=0, atol=1e-9)

    def test_identical_sets_recover_component(self, plant, m2_cloud):
        sets = [(2, m2_cloud), (2, m2_cloud)]
        _, mix = map_mixture(sets, (0.3, 0.7), plant, W_REF_KN,
                             resolution=(30, 30))
        _, solo = map_stochastic(2, m2_cloud, plant, W_REF_KN,
                                 resolution=(30, 30))
        assert np.allclose(mix.points, solo.points, rtol=0, atol=1e-9)

    def test_mixture_lies_between_components(self, plant, m2_cloud):
        m3_cloud = self._m3_cloud()
        sets = [(2, m2_cloud), (3, m3_cloud)]
        grid, mix = map_mixture(sets, (0.4, 0.6), plant, W_REF_KN,
                                resolution=(40, 40))
        _, c2 = map_stochastic(2, m2_cloud, plant, W_REF_KN, resolution=(40, 40))
        _, c3 = map_stochastic(3, m3_cloud, plant, W_REF_KN, resolution=(40, 40))
        cell_w = 2.8 * W_REF_KN / 39
        for om, w in mix.points:
            w2 = c2.points[np.isclose(c2.points[:, 0], om), 1]
            w3 = c3.points[np.isclose(c3.points[:, 0], om), 1]
            if len(w2) and len(w3):
                lo = min(w2[0], w3[0]) - cell_w
                hi = max(w2[0], w3[0]) + cell_w
                assert lo <= w <= hi

    def test_mixture_truncated_to_shared_range(self, plant, m2_cloud):
        m3_cloud = self._m3_cloud()
        _, mix = map_mixture([(2, m2_cloud), (3, m3_cloud)], (0.4, 0.6),
                             plant, W_REF_KN, resolution=(40, 40))
        _, c2 = map_stochastic(2, m2_cloud, plant, W_REF_KN, resolution=(40, 40))
        _, c3 = map_stochastic(3, m3_cloud, plant, W_REF_KN, resolution=(40, 40))
        lo = max(c2.points[:, 0].min(), c3.points[:, 0].min())
        hi = min(c2.points[:, 0].max(), c3.points[:, 0].max())
        assert mix.points[:, 0].min() >= lo - 1e-9
        assert mix.points[:, 0].max() <= hi + 1e-9

    def test_weight_validation(self, plant, m2_cloud):
        with pytest.raises(DomainError):
            map_mixture([(2, m2_cloud)], (0.5,), plant, W_REF_KN)
        with pytest.raises(DomainError):
            map_mixture([(2, m2_cloud), (2, m2_cloud)], (0.5, 0.2), plant,
                        W_REF_KN)


@settings(max_examples=40, deadline=None)
@pytest.mark.parametrize("plant_name", ["1dof", "fem_undamped"])
@given(seed=st.integers(0, 2**32 - 1), percentile=st.floats(0, 1))
def test_probability_rows_are_monotone_in_wob(plant_name, seed, percentile):
    """The map code relies on this: each row of p_unstable is monotone in W
    (rising when c* < 0, falling when c* >= 0), so each Omega column
    crosses the percentile at most once. Random m2, m3 and m4 particle
    sets (m4 slopes change sign along Omega) with one zero weight."""
    plant = (reference_plant() if plant_name == "1dof"
             else assemble(REFERENCE_GEOMETRY, 1, 1, alpha=0.0, beta=0.0))
    c_star = critical_damping(plant)
    assert (c_star < 0) == (plant_name == "1dof")
    rng = np.random.default_rng(seed)
    sets = [(kind, np.array(REFERENCE_PARAMS[kind])
             * rng.uniform(0.2, 1.8, size=(rng.integers(1, 40),
                                           len(REFERENCE_PARAMS[kind]))))
            for kind in (2, 3, 4)]
    weights = rng.dirichlet(np.ones(3))
    weights[rng.integers(3)] = 0.0
    grid, curve = map_mixture(sets, weights / weights.sum(), plant, W_REF_KN,
                              resolution=(16, 24), percentile=percentile,
                              c_star=c_star)
    step = np.diff(grid.p_unstable, axis=1)
    assert ((step >= 0) if c_star < 0 else (step <= 0)).all()
    assert (np.diff(grid.stable, axis=1).sum(axis=1) <= 1).all()
    assert len(np.unique(curve.points[:, 0])) == len(curve)


class TestBoundarySeparation:
    def test_identical_curves(self):
        pts = np.column_stack([np.linspace(1, 10, 20), np.linspace(5, 50, 20)])
        curve = BoundaryCurve(points=pts)
        assert boundary_separation(curve, curve, (0.25, 1.0)) == 0.0

    def test_vertical_offset_measured_in_cells(self):
        x = np.linspace(0, 10, 21)
        a = BoundaryCurve(points=np.column_stack([x, np.full_like(x, 5.0)]))
        b = BoundaryCurve(points=np.column_stack([x, np.full_like(x, 7.0)]))
        assert boundary_separation(a, b, (0.5, 1.0)) == pytest.approx(2.0)

    def test_empty_curve_gives_inf(self):
        a = BoundaryCurve(points=np.empty((0, 2)))
        b = BoundaryCurve(points=np.array([[1.0, 1.0]]))
        assert boundary_separation(a, b, (1, 1)) == math.inf


class TestBoundaryPieces:
    def test_reentering_curve_gives_two_sorted_pieces(self):
        # columns 0-2 and 5-6 of a unit-step grid, listed out of order
        pts = np.array([[5.0, 1.0], [0.0, 2.0], [6.0, 3.0], [1.0, 4.0],
                        [2.0, 5.0]])
        pieces = BoundaryCurve(points=pts).pieces(1.0)
        assert len(pieces) == 2
        assert np.array_equal(pieces[0], pts[[1, 3, 4]])
        assert np.array_equal(pieces[1], pts[[0, 2]])

    def test_split_only_beyond_one_and_a_half_steps(self):
        pts = np.array([[0.0, 1.0], [1.0, 2.0], [1.0, 3.0], [2.5, 4.0]])
        pieces = BoundaryCurve(points=pts).pieces(1.0)
        # a jump of exactly 1.5 steps stays inside; equal Omegas keep order
        assert len(pieces) == 1 and np.array_equal(pieces[0], pts)
        assert len(BoundaryCurve(points=pts).pieces(0.99)) == 2


class TestExports:
    def test_grid_csv_round_numbers(self, m2, plant, tmp_path):
        grid, curve = map_deterministic(m2, plant, W_REF_KN, resolution=(6, 5))
        p = grid_to_csv(grid, tmp_path / "grid.csv", W_REF_KN)
        lines = p.read_text().splitlines()
        assert lines[0] == "omega_rad_s,omega_rpm,wob_kn,r,stable"
        assert len(lines) == 1 + 6 * 5
        first = lines[1].split(",")
        assert float(first[0]) == grid.omega_axis[0]
        assert float(first[1]) == pytest.approx(grid.omega_axis[0] * 30 / math.pi)
        assert float(first[3]) == pytest.approx(grid.wob_axis[0] / W_REF_KN)

    def test_boundary_csv_deterministic(self, m2, plant, tmp_path):
        _, curve = map_deterministic(m2, plant, W_REF_KN, resolution=(20, 20))
        p1 = boundary_to_csv(curve, tmp_path / "a.csv", W_REF_KN)
        p2 = boundary_to_csv(curve, tmp_path / "b.csv", W_REF_KN)
        assert p1.read_bytes() == p2.read_bytes()
        assert len(p1.read_text().splitlines()) == len(curve) + 1
