import math

import numpy as np
import pytest

from conftest import traced_peak
from kfplab.fields import (
    CheckerboardRecipe,
    ConstantRecipe,
    EllipticityBounds,
    SmoothRandomRecipe,
    sample_field,
)
from kfplab.geometry import (
    BOUNDARY_COLLAR,
    Cylinder,
    CylinderShape,
    GalileanTransform,
    KineticPoint,
    group_product,
)
from kfplab.probes import (
    HarnackParams,
    _abs_max,
    _contained_in,
    _largest_radius,
    _native,
    _source_values,
    caccioppoli_probe,
    doubling_probe,
    energy_estimate_check,
    fractional_seminorm,
    gain_probe,
    gehring_probe,
    harnack_probe,
    holder_fit,
    level_set_measures,
    norm_on_cylinder,
    oscillation,
    propagation_probe,
    sample_region,
    smooth_bump,
    weighted_mean,
)
from kfplab.trajectory import PhaseBox, PhaseGrid, Trajectory, region_mask


def sampled_trajectory(grid, times, fn, field=None):
    """A trajectory holding fn(X, V, t) on the grid; X, V have shape (*grid.shape, d)."""
    times = np.asarray(times, dtype=float)
    x, v = grid.meshes()
    vals = np.stack([np.asarray(fn(x, v, float(t)), dtype=float) for t in times])
    return Trajectory(grid=grid, times=times, values=vals, field=field)


def grid_measure(traj, region):
    """Counting-measure x cell-volume x time-weight measure of the region."""
    traj, region = _native(traj, region)
    cell = traj.grid.cell_volume
    return float(sum(piece.mask.sum() * cell * piece.tw for piece in sample_region(traj, region)))


def synthetic(fn, nx=48, nv=48, nt=65, x_extent=4.0, v_max=2.0, t0=-1.1, t1=0.0):
    grid = PhaseGrid(d=1, x_extent=x_extent, nx=nx, v_max=v_max, nv=nv)
    times = np.linspace(t0, t1, nt)
    return sampled_trajectory(
        grid, times, lambda x, v, t: fn(x[..., 0], v[..., 0], t)
    )


def shifted_origin(x_extent=4.0):
    # cylinders around the origin are realised at the box centre
    return KineticPoint.of(x_extent / 2.0, 0.0, 0.0)


class TestNorms:
    def test_indicator_volume(self):
        traj = synthetic(lambda x, v, t: np.ones_like(x))
        q = Cylinder(shifted_origin(), 1.0)
        val = norm_on_cylinder(traj, q, 2.0)
        # |Q_1| = 2 * 2 * 1 = 4 in d = 1, so the L2 norm of 1 is 2; the open
        # windows clip one boundary cell per side, an O(h) quadrature error
        assert val == pytest.approx(2.0, rel=0.06)
        assert grid_measure(traj, q) == pytest.approx(4.0, rel=0.12)
        assert q.measure() == 4.0

    def test_zero_function(self):
        traj = synthetic(lambda x, v, t: np.zeros_like(x))
        assert norm_on_cylinder(traj, Cylinder(shifted_origin(), 1.0), 2.0) == 0.0

    def test_sup_of_time_coordinate(self):
        # f = t on Q_1: the half-open window includes t = 0, so sup f = 0
        traj = synthetic(lambda x, v, t: np.full_like(x, t))
        val = norm_on_cylinder(traj, Cylinder(shifted_origin(), 1.0), math.inf)
        assert val == 0.0

    def test_monotone_in_p_normalized(self):
        rng = np.random.default_rng(0)
        traj = synthetic(lambda x, v, t: 0.5 + 0.4 * np.sin(3 * x) * np.cos(2 * v + t))
        q = Cylinder(shifted_origin(), 1.0)
        vals = [norm_on_cylinder(traj, q, p, normalized=True) for p in (1.0, 2.0, 4.0, math.inf)]
        assert vals == sorted(vals)

    def test_monotone_in_region(self):
        traj = synthetic(lambda x, v, t: np.abs(np.sin(x + v + t)))
        small = norm_on_cylinder(traj, Cylinder(shifted_origin(), 0.5), 2.0)
        large = norm_on_cylinder(traj, Cylinder(shifted_origin(), 1.0), 2.0)
        assert small <= large

    def test_empty_region_rejected(self):
        traj = synthetic(lambda x, v, t: np.ones_like(x))
        far = Cylinder(KineticPoint.of(2.0, 0.0, 5.0), 0.5)
        with pytest.raises(ValueError):
            norm_on_cylinder(traj, far, 2.0)

    @pytest.mark.parametrize("p", [0, -1.0])
    def test_nonpositive_p_rejected(self, p):
        traj = synthetic(lambda x, v, t: np.ones_like(x))
        with pytest.raises(ValueError, match="p must be positive"):
            norm_on_cylinder(traj, Cylinder(shifted_origin(), 1.0), p)


class TestLevelSets:
    def test_constant_one(self):
        traj = synthetic(lambda x, v, t: np.ones_like(x))
        region = Cylinder(shifted_origin(), 0.8)
        ls = level_set_measures(traj, 0.25, region)
        assert ls.high == ls.region > 0.0
        assert ls.low == 0.0 and ls.mid == 0.0

    def test_constant_mid_value(self):
        # a constant strictly between 0 and the cut 1 - theta is all "mid"
        theta = 0.4
        traj = synthetic(lambda x, v, t: np.full_like(x, (1.0 - theta) / 2.0))
        region = Cylinder(shifted_origin(), 0.8)
        ls = level_set_measures(traj, theta, region)
        assert ls.mid == ls.region

    def test_velocity_halfspace(self):
        traj = synthetic(lambda x, v, t: v, t0=-2.1)
        region = PhaseBox(shifted_origin(), 1.0, 1.0, -2.0, 0.0)
        ls = level_set_measures(traj, 0.5, region)
        assert ls.low == pytest.approx(0.5 * ls.region, rel=0.06)

    def test_partition_exact(self):
        rng = np.random.default_rng(1)
        traj = synthetic(lambda x, v, t: np.sin(5 * x) * np.cos(3 * v))
        region = Cylinder(shifted_origin(), 0.9)
        ls = level_set_measures(traj, 0.3, region)
        assert ls.high + ls.low + ls.mid == pytest.approx(ls.region, rel=1e-12)

    def test_theta_domain(self):
        traj = synthetic(lambda x, v, t: np.ones_like(x))
        with pytest.raises(ValueError):
            level_set_measures(traj, 1.5, Cylinder(shifted_origin(), 0.5))


class TestOscillationAndHolder:
    def test_constant_oscillation_zero(self):
        traj = synthetic(lambda x, v, t: np.ones_like(x))
        assert oscillation(traj, Cylinder(shifted_origin(), 0.7)) == 0.0

    def test_constant_holder_degenerate(self):
        traj = synthetic(lambda x, v, t: np.ones_like(x))
        z1 = shifted_origin()
        rep = holder_fit(traj, z1, omega=0.9, k_levels=3, r_base=0.4)
        assert rep.verdict == "degenerate"

    def test_power_law_recovered(self):
        # f = |v|: oscillation over Q_r is 2r up to grid rounding, so the
        # fitted exponent sits near 1
        traj = synthetic(
            lambda x, v, t: np.abs(v),
            nx=64, nv=256, nt=257, t0=-1.05,
        )
        rep = holder_fit(traj, shifted_origin(), omega=0.9, k_levels=3, r_base=0.45)
        assert rep.verdict == "ok"
        assert rep.constants["alpha_fit"] == pytest.approx(1.0, abs=0.3)
        assert rep.constants["alpha_predicted"] == pytest.approx(
            rep.constants["alpha_fit"], abs=0.35
        )

    def test_oscillation_decays_on_diffusing_run(self, identity_run):
        z1 = KineticPoint.of(2.5, 0.0, 1.0)
        rep = holder_fit(identity_run, z1, omega=0.9, k_levels=3, r_base=0.45)
        assert rep.verdict == "ok"
        assert rep.constants["alpha_fit"] > 0.0


class TestHarnack:
    def _params(self, center):
        return HarnackParams(r=0.25, delta=0.3, rho1=0.4, rho2=0.6, q=2.0, center=center)

    def test_constant_quotient_one(self):
        traj = synthetic(lambda x, v, t: np.full_like(x, 0.7), t0=-1.0)
        rep = harnack_probe(traj, self._params(shifted_origin()))
        assert rep.verdict == "ok"
        assert rep.constants["c_emp"] == pytest.approx(1.0, rel=1e-12)

    def test_zero_degenerate(self):
        traj = synthetic(lambda x, v, t: np.zeros_like(x), t0=-1.0)
        rep = harnack_probe(traj, self._params(shifted_origin()))
        assert rep.verdict == "degenerate"

    def test_scale_invariance(self, checkerboard_run):
        center = KineticPoint.of(2.5, 0.0, 0.9)
        params = self._params(center)
        rep1 = harnack_probe(checkerboard_run, params)
        rep2 = harnack_probe(checkerboard_run.scaled_values(3.7), params)
        assert rep2.constants["c_emp"] == pytest.approx(
            rep1.constants["c_emp"], rel=1e-12
        )

    def test_scale_invariance_with_source(self):
        # multiplying f and s by the same factor leaves the quotient unchanged
        from kfplab.fields import ConstantRecipe, EllipticityBounds, sample_field
        from kfplab.trajectory import PhaseGrid

        grid = PhaseGrid(d=1, x_extent=4.0, nx=32, v_max=2.0, nv=32)
        times = np.linspace(-1.0, 0.0, 33)
        bounds = EllipticityBounds(1.0, 1.0)
        c = 3.7

        def make(scale):
            field = sample_field(ConstantRecipe(s_value=scale * 0.2), bounds, seed=0, d=1)
            return sampled_trajectory(
                grid, times,
                lambda x, v, t: np.full(x.shape[:-1], scale * 0.5),
                field=field,
            )

        params = self._params(shifted_origin())
        rep1 = harnack_probe(make(1.0), params)
        rep2 = harnack_probe(make(c), params)
        assert rep1.constants["source_sup"] > 0.0
        assert rep2.constants["c_emp"] == pytest.approx(
            rep1.constants["c_emp"], rel=1e-12
        )

    def test_negative_run_rejected(self):
        traj = synthetic(lambda x, v, t: np.full_like(x, -1.0), t0=-1.0)
        with pytest.raises(ValueError):
            harnack_probe(traj, self._params(shifted_origin()))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            HarnackParams(r=0.5, delta=0.2, rho1=0.6, rho2=0.8)  # Delta <= R^2
        with pytest.raises(ValueError):
            HarnackParams(r=0.5, delta=0.3, rho1=0.4, rho2=0.8)  # rho1 < R


class TestProbePeakMemory:
    """The probes that scale by max |f| read it from the stored values in
    place: none allocates a trajectory-sized temporary."""

    @pytest.fixture(scope="class")
    def traj(self):
        # 257 snapshots over [-4, 0], so each probe's regions meet a small
        # share of them; |v| resolves three Hoelder levels at the centre
        return synthetic(lambda x, v, t: 1.0 + np.abs(v), nx=16, nv=256, nt=257, t0=-4.0)

    @pytest.mark.parametrize("probe", ["gain", "holder", "harnack"])
    def test_peak_is_a_fraction_of_the_trajectory(self, traj, probe):
        z = shifted_origin()
        calls = {
            "gain": (gain_probe, traj, Cylinder(z, 0.3), Cylinder(z, 0.5)),
            "holder": (holder_fit, traj, z, 0.9, 3, 0.45),
            "harnack": (harnack_probe, traj, HarnackParams(r=0.25, delta=0.3, rho1=0.4,
                                                           rho2=0.6, q=2.0, center=z)),
        }
        rep, peak = traced_peak(*calls[probe])
        assert rep.verdict == "ok"
        assert peak <= 0.25 * traj.values.nbytes

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_abs_max_of_non_finite_values(self, bad):
        # max |f| = max(max f, -min f) holds for NaN and +-inf too
        for values in (np.array([[1.0, -3.0], [bad, 0.5]]), np.array([-0.0, bad, -2.0])):
            want = repr(float(np.abs(values).max()))
            assert repr(_abs_max(values)) == repr(_abs_max(values, float(values.min()))) == want


class TestDoubling:
    def test_constant_levels_are_one(self):
        traj = synthetic(lambda x, v, t: np.full_like(x, 2.0), t0=0.0, t1=1.0)
        rep = doubling_probe(traj, omega=0.25, n_levels=2)
        assert rep.verdict == "ok"
        assert rep.constants["h_1"] == pytest.approx(1.0, rel=1e-12)
        assert rep.constants["h_2"] == pytest.approx(1.0, rel=1e-12)

    def test_zero_degenerate(self):
        traj = synthetic(lambda x, v, t: np.zeros_like(x), t0=0.0, t1=1.0)
        rep = doubling_probe(traj, omega=0.25, n_levels=2)
        assert rep.verdict == "degenerate"

    def test_positive_run_levels_in_unit_interval(self, checkerboard_run):
        rep = doubling_probe(checkerboard_run, omega=0.25, n_levels=2)
        assert rep.verdict == "ok"
        for k in (1, 2):
            assert 0.0 < rep.constants[f"h_{k}"] <= 1.0 + 1e-12


class TestWeightedMean:
    def test_bump_shape(self):
        u = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
        phi = smooth_bump(u)
        assert phi[0] == phi[1] == phi[2] == 1.0
        assert 0.0 < phi[3] < 1.0
        assert phi[4] == 0.0 and phi[5] == 0.0
        # square root remains smooth: interior values strictly inside (0, 1)
        assert 0.0 < math.sqrt(phi[3]) < 1.0

    def test_constant_reproduced_exactly(self):
        traj = synthetic(lambda x, v, t: np.full_like(x, 1.3), t0=-1.0)
        val = weighted_mean(traj, shifted_origin(), 0.4, 0.0)
        assert val == pytest.approx(1.3, rel=1e-14)

    def test_locally_constant_reproduced(self):
        # constant on the cutoff support, different far away
        def fn(x, v, t):
            return np.where((np.abs(x - 2.0) < 1.0) & (np.abs(v) < 1.0), 0.8, 5.0)

        traj = synthetic(fn, t0=-1.0)
        val = weighted_mean(traj, KineticPoint.of(2.0, 0.0, 0.0), 0.35, 0.0)
        assert val == pytest.approx(0.8, rel=1e-12)

    def test_missing_snapshot_rejected(self):
        traj = synthetic(lambda x, v, t: np.ones_like(x), t0=-1.0)
        with pytest.raises(ValueError):
            weighted_mean(traj, shifted_origin(), 0.4, 17.0)


class TestCaccioppoli:
    def test_velocity_constant_has_zero_energy(self):
        traj = synthetic(lambda x, v, t: 1.0 + 0.2 * np.sin(x), t0=-1.0)
        rep = caccioppoli_probe(traj, KineticPoint.of(2.0, 0.0, 0.0), 0.3)
        assert rep.constants["grad_sq_qr"] == 0.0
        assert rep.constants["energy_constant"] == 0.0

    def test_finite_on_diffusing_run(self, identity_run):
        rep = caccioppoli_probe(identity_run, KineticPoint.of(2.5, 0.0, 1.0), 0.3)
        assert rep.verdict == "ok"
        assert math.isfinite(rep.constants["energy_constant"])
        assert math.isfinite(rep.constants["poincare_constant"])

    def test_domain_guard(self, identity_run):
        with pytest.raises(ValueError):
            caccioppoli_probe(identity_run, KineticPoint.of(2.5, 0.0, 1.0), 2.0)


class TestFractionalSeminorm:
    def test_constant_is_zero(self):
        traj = synthetic(lambda x, v, t: np.ones_like(x), nx=24, nv=24, nt=17)
        val = fractional_seminorm(traj, 1.0 / 3.0, Cylinder(shifted_origin(), 0.8))
        assert val == 0.0

    def test_increasing_in_order(self):
        # smooth bump: the near-diagonal part dominates, so the seminorm
        # grows with the differentiation order (evaluated at 0.1, 0.2, 0.33)
        traj = synthetic(
            lambda x, v, t: np.exp(-((x - 2.0) ** 2) - v**2 + 0.1 * t),
            nx=32, nv=32, nt=33,
        )
        q = Cylinder(shifted_origin(), 0.9)
        vals = [fractional_seminorm(traj, s, q, n_pairs=40_000, seed=1) for s in (0.1, 0.2, 1.0 / 3.0)]
        assert math.isfinite(vals[-1])
        assert vals[0] < vals[1] < vals[2]

    def test_monte_carlo_mean_is_the_exact_sum(self):
        # 14 points in Q_0.4; n^2 - 1 draws force the Monte Carlo branch
        traj = synthetic(lambda x, v, t: np.exp(-((x - 2.0) ** 2) - v**2 + 0.1 * t),
                         nx=32, nv=32, nt=9)
        q = Cylinder(shifted_origin(), 0.4)
        n_pts = sum(piece.values.size for piece in sample_region(traj, q))
        assert n_pts == 14
        exact = fractional_seminorm(traj, 1.0 / 3.0, q)
        estimates = [fractional_seminorm(traj, 1.0 / 3.0, q, n_pairs=n_pts**2 - 1, seed=s)
                     for s in range(400)]
        assert np.mean(estimates) == pytest.approx(exact, rel=0.01)

    def test_seeded_reproducibility(self, identity_run):
        q = Cylinder(KineticPoint.of(2.5, 0.0, 1.0), 0.4)
        a = fractional_seminorm(identity_run, 1.0 / 3.0, q, n_pairs=5000, seed=3)
        b = fractional_seminorm(identity_run, 1.0 / 3.0, q, n_pairs=5000, seed=3)
        assert a == b

    def test_order_domain(self, identity_run):
        with pytest.raises(ValueError):
            fractional_seminorm(identity_run, 1.5, Cylinder(KineticPoint.of(2.5, 0.0, 1.0), 0.4))


class TestGehring:
    def test_constant_gradient_needs_b_one(self):
        # f linear in v: g = |grad_v f|^2 constant, so with theta = 0 both
        # averages coincide and the minimal b is 1
        traj = synthetic(lambda x, v, t: v, nx=32, nv=64, nt=33, t0=-1.0)
        q0 = Cylinder(KineticPoint.of(2.0, 0.0, 0.0), 0.8, CylinderShape.CUBE)
        rep = gehring_probe(traj, 2.0, q0, theta=0.0)
        assert rep.constants["b_emp"] == pytest.approx(1.0, rel=1e-10)

    def test_spiked_cell_inflates_b(self):
        def fn(x, v, t):
            spike = 40.0 * np.exp(-((x - 2.0) ** 2) / 1e-3 - v**2 / 1e-3)
            return v + spike * (t > -0.05)

        traj = synthetic(fn, nx=48, nv=64, nt=33, t0=-1.0)
        q0 = Cylinder(KineticPoint.of(2.0, 0.0, 0.0), 0.8, CylinderShape.CUBE)
        rep = gehring_probe(traj, 2.0, q0, theta=0.0)
        assert rep.constants["b_emp"] > 2.0

    def test_higher_integrability_on_run(self, identity_run):
        q0 = Cylinder(KineticPoint.of(2.5, 0.0, 1.0), 0.7, CylinderShape.CUBE)
        rep = gehring_probe(identity_run, 2.0, q0, theta=0.5)
        assert rep.verdict == "ok"
        assert rep.constants["epsilon_emp"] > 0.0
        assert math.isfinite(rep.constants["l2eps_ratio"])

    def test_lower_order_terms_rejected(self, checkerboard_run):
        q0 = Cylinder(KineticPoint.of(2.5, 0.0, 0.9), 0.6, CylinderShape.CUBE)
        with pytest.raises(ValueError):
            gehring_probe(checkerboard_run, 2.0, q0)


class TestPropagation:
    def test_cpm_value(self):
        params = HarnackParams(r=0.5, delta=0.3, rho1=0.6, rho2=0.8, q=2.0)
        assert params.c_pm == pytest.approx(3.0 / 16.0, rel=1e-14)

    def test_constant_exponent_near_zero(self):
        # Delta = 20/64 lands the shifted centre exactly on a snapshot time
        traj = synthetic(lambda x, v, t: np.full_like(x, 1.0), t0=-1.0)
        params = HarnackParams(
            r=0.2, delta=0.3125, rho1=0.4, rho2=0.6, q=2.0, center=shifted_origin()
        )
        rep = propagation_probe(traj, params, r_ladder=[0.1, 0.15, 0.2])
        assert rep.verdict == "ok"
        assert abs(rep.constants["q_hat"]) < 1e-10

    def test_decaying_run_exponent_finite(self, identity_run):
        # small Delta keeps the elongated ladder inside the dense tail window
        params = HarnackParams(
            r=0.1, delta=0.015, rho1=0.2, rho2=0.3, q=2.0,
            center=KineticPoint.of(2.5, 0.0, 1.0),
        )
        rep = propagation_probe(identity_run, params, r_ladder=[0.08, 0.1, 0.12])
        assert rep.verdict == "ok"
        assert math.isfinite(rep.constants["q_hat"])

    def test_containment_guard(self, identity_run):
        # the elongated time depth r^2 exceeds the rho2 cylinder depth
        params = HarnackParams(
            r=0.1, delta=0.015, rho1=0.2, rho2=0.3, q=2.0,
            center=KineticPoint.of(2.5, 0.0, 1.0),
        )
        with pytest.raises(ValueError):
            propagation_probe(identity_run, params, r_ladder=[0.35])


class TestContainment:
    def test_round_offset_is_euclidean(self):
        # each coordinate of the v offset fits (0.45 + 0.025 <= 0.5), its length does not
        inner = Cylinder(KineticPoint([1, 1], [0.45, 0.45], 1), 0.4, CylinderShape.ELONGATED)
        outer = Cylinder(KineticPoint([1, 1], [0, 0], 1), 0.5)
        assert inner.contains(inner.center) and not outer.contains(inner.center)
        assert not _contained_in(inner, outer)

    def test_cube_corner_reaches_sqrt_d(self):
        outer = Cylinder(KineticPoint.origin(2), 1.0)
        cube = Cylinder(KineticPoint.origin(2), 0.8, CylinderShape.CUBE)
        corner = KineticPoint([0, 0], [0.79, 0.79], 0)
        assert cube.contains(corner) and not outer.contains(corner)
        assert not _contained_in(cube, outer)
        assert _contained_in(Cylinder(KineticPoint.origin(2), 0.8), outer)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_contained_regions_lie_inside(self, d):
        rng = np.random.default_rng(d)
        shapes = (CylinderShape.SLANTED, CylinderShape.CUBE, CylinderShape.ELONGATED)
        checked = 0
        for _ in range(200):
            oc = KineticPoint(rng.normal(size=d), 0.3 * rng.normal(size=d), rng.normal())
            outer = Cylinder(oc, rng.uniform(0.2, 1.0), shapes[rng.integers(3)])
            ic = KineticPoint(oc.x + 1e-3 * rng.normal(size=d), oc.v + 0.1 * rng.normal(size=d),
                              oc.t - rng.uniform(0.0, 0.5 * outer.radius**2))
            inner = Cylinder(ic, outer.radius * rng.uniform(0.05, 0.6), shapes[rng.integers(3)])
            if not _contained_in(inner, outer):
                continue
            wx, wv, t_lo, t_hi = inner.windows()
            y = (rng.uniform(-wx, wx, (500, d)), rng.uniform(-wv, wv, (500, d)),
                 rng.uniform(t_lo, t_hi, 500))
            xs, vs, ts = group_product(ic, y)
            hit = inner.contains_arrays(xs, vs, ts)
            assert np.all(outer.contains_arrays(xs[hit], vs[hit], ts[hit]))
            checked += 1
        assert checked >= 50


class TestGainProbe:
    def test_embedding_exponents(self, identity_run):
        center = KineticPoint.of(2.5, 0.0, 1.0)
        rep = gain_probe(identity_run, Cylinder(center, 0.25), Cylinder(center, 0.5))
        assert rep.constants["p"] == 18.0 / 7.0
        assert rep.verdict == "ok"
        assert math.isfinite(rep.constants["cbar"])

    def test_degenerate_zero_run(self):
        traj = synthetic(lambda x, v, t: np.zeros_like(x), t0=-1.0)
        center = shifted_origin()
        rep = gain_probe(traj, Cylinder(center, 0.25), Cylinder(center, 0.5))
        assert rep.verdict == "degenerate"

    def test_requires_nested(self, identity_run):
        center = KineticPoint.of(2.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            gain_probe(identity_run, Cylinder(center, 0.5), Cylinder(center, 0.25))


class TestTransformInvariance:
    def test_mask_based_probes_commute_with_group_action(self, identity_run):
        z0 = KineticPoint.of(0.31, 0.57, 0.23)
        moved = identity_run.transformed(z0)
        center = KineticPoint.of(2.5, 0.0, 1.0)
        moved_center = KineticPoint.of(
            0.31 + 2.5 + 1.0 * 0.57, 0.57 + 0.0, 0.23 + 1.0
        )
        q = Cylinder(center, 0.4)
        q_moved = q.transformed(z0)
        a = norm_on_cylinder(identity_run, q, 2.0)
        b = norm_on_cylinder(moved, q_moved, 2.0)
        assert b == pytest.approx(a, rel=1e-10)
        osc_a = oscillation(identity_run, q)
        osc_b = oscillation(moved, q_moved)
        assert osc_b == pytest.approx(osc_a, rel=1e-10)
        params = HarnackParams(r=0.25, delta=0.3, rho1=0.4, rho2=0.6, q=2.0,
                               center=KineticPoint.of(2.5, 0.0, 0.9))
        params_moved = HarnackParams(r=0.25, delta=0.3, rho1=0.4, rho2=0.6, q=2.0,
                                     center=KineticPoint.of(0.31 + 2.5 + 0.9 * 0.57, 0.57, 0.23 + 0.9))
        ha = harnack_probe(identity_run, params)
        hb = harnack_probe(moved, params_moved)
        assert hb.constants["c_emp"] == pytest.approx(ha.constants["c_emp"], rel=1e-10)


def _box_contains(box, xs, vs, ts):
    """Brute-force PhaseBox membership with the collared windows."""
    c = box.center
    dt = ts - c.t
    yx = xs - c.x - dt[..., None] * c.v
    yv = vs - c.v
    wx = box.x_radius - min(BOUNDARY_COLLAR, 0.5 * box.x_radius)
    wv = box.v_radius - min(BOUNDARY_COLLAR, 0.5 * box.v_radius)
    ct = min(BOUNDARY_COLLAR, 0.25 * (box.t_hi - box.t_lo))
    in_t = (dt > box.t_lo + ct) & (dt <= box.t_hi + ct)
    return in_t & (np.sum(yx**2, axis=-1) < wx**2) & (np.sum(yv**2, axis=-1) < wv**2)


class TestRegionSample:
    """sample_region against membership evaluated on every node of the full
    meshes, in the frame the trajectory is viewed in."""

    BASE = KineticPoint.of([0.31, -0.2], [0.57, 0.13], 0.23)

    @pytest.fixture(scope="class")
    def moved(self):
        grid = PhaseGrid(d=2, x_extent=2.0, nx=10, v_max=1.5, nv=10)
        traj = sampled_trajectory(
            grid, np.linspace(0.0, 0.8, 9),
            lambda x, v, t: np.sin(x[..., 0] + 2.0 * v[..., 1]) + t * v[..., 0],
        )
        return traj.transformed(self.BASE)

    def _regions(self):
        # a native centre (x, v, t) moved into the viewing frame
        def at(x, v, t):
            return GalileanTransform(self.BASE).apply(KineticPoint.of(x, v, t))

        z = at([1.03, 0.97], [0.21, -0.33], 0.6)  # top slice on a snapshot
        return [
            Cylinder(z, 0.83),
            Cylinder(z, 0.83, CylinderShape.CUBE),
            Cylinder(z, 6.1, CylinderShape.ELONGATED, omega=0.45),
            Cylinder(at([0.9, 1.1], [0.1, 0.2], 0.05), 3.2, CylinderShape.ITERATED,
                     omega=0.45, k=1),
            PhaseBox(z, 0.6, 0.9, -0.45, 0.0),
            # window (0.55, 0.56] holds no stored snapshot
            Cylinder(at([1.0, 1.0], [0.0, 0.0], 0.56), 0.1),
        ]

    def _brute_force(self, traj, region):
        x, v = traj.grid.meshes()
        tw = traj.time_weights()
        out = []
        for n, t in enumerate(traj.times):
            xs, vs, ts = group_product(traj.base, (x, v, np.full(x.shape[:-1], t)))
            if isinstance(region, PhaseBox):
                mask = _box_contains(region, xs, vs, ts)
            else:
                mask = region.contains_arrays(xs, vs, ts)
            if mask.any():
                out.append((n, mask, traj.grid.cell_volume * tw[n]))
        return out

    def test_matches_full_mesh_membership(self, moved):
        hits = []
        for region in self._regions():
            native, pulled = _native(moved, region)
            sample = sample_region(native, pulled)
            expected = self._brute_force(moved, region)
            assert [p.n for p in sample] == [n for n, _, _ in expected], region
            for piece, (n, mask, weight) in zip(sample, expected):
                assert np.array_equal(piece.mask, mask), (region, n)
                assert np.array_equal(piece.values, moved.values[n][mask])
                assert piece.weight == weight
            hits.append(len(sample))
        assert all(hits[:-1]) and hits[-1] == 0

    def test_window_without_snapshots_is_empty(self, moved):
        region = self._regions()[-1]
        native, pulled = _native(moved, region)
        assert sample_region(native, pulled) == []
        assert not any(m.any() for _, m, _ in self._brute_force(moved, region))

    def test_region_mask_requires_base_free_trajectory(self, moved):
        with pytest.raises(ValueError):
            region_mask(moved, self._regions()[0], 0)

    def _seam_regions(self):
        def at(x, v, t):
            return GalileanTransform(self.BASE).apply(KineticPoint.of(x, v, t))

        # native centres near x = 0 and x = x_extent, so every region wraps
        return [
            Cylinder(at([0.05, 1.97], [0.21, -0.33], 0.6), 0.83),
            Cylinder(at([1.95, 0.1], [0.3, 0.1], 0.6), 0.83, CylinderShape.CUBE),
            PhaseBox(at([0.0, 1.0], [0.0, 0.2], 0.6), 0.6, 0.9, -0.45, 0.0),
        ]

    def test_seam_regions_match_periodic_membership(self, moved):
        grid = moved.grid
        x, v = grid.meshes()
        images = [np.array([i, j]) * grid.x_extent for i in (-1, 0, 1) for j in (-1, 0, 1)]
        for region in self._seam_regions():
            native, pulled = _native(moved, region)
            sample = sample_region(native, pulled)
            expected = []
            for n, t in enumerate(moved.times):
                mask = np.zeros(grid.shape, dtype=bool)
                for image in images:
                    xs, vs, ts = group_product(moved.base,
                                               (x + image, v, np.full(x.shape[:-1], t)))
                    if isinstance(region, PhaseBox):
                        mask |= _box_contains(region, xs, vs, ts)
                    else:
                        mask |= region.contains_arrays(xs, vs, ts)
                if mask.any():
                    expected.append((n, mask))
            assert [p.n for p in sample] == [n for n, _ in expected], region
            for piece, (n, mask) in zip(sample, expected):
                assert np.array_equal(piece.mask, mask), (region, n)
            # the region reaches across the seam at every sampled snapshot
            assert all(piece.mask[0].any() and piece.mask[-1].any() for piece in sample)


class TestSourceValues:
    """s on the sampled nodes equals s evaluated on the whole mesh, then masked."""

    @pytest.mark.parametrize("recipe", [
        CheckerboardRecipe(cell=0.7, b_max=0.5, s_max=0.8),
        SmoothRandomRecipe(s_max=0.6),
        ConstantRecipe(s_value=0.25),
        CheckerboardRecipe(cell=0.7, b_max=0.5, s_max=0.0),
    ])
    def test_sampled_nodes_match_full_mesh(self, recipe):
        field = sample_field(recipe, EllipticityBounds(0.5, 2.0), seed=3, d=1)
        grid = PhaseGrid(d=1, x_extent=4.0, nx=24, v_max=2.0, nv=24)
        traj = sampled_trajectory(grid, np.linspace(0.0, 1.0, 11),
                                  lambda x, v, t: x[..., 0] + v[..., 0], field=field)
        sample = sample_region(traj, Cylinder(KineticPoint.of(2.0, 0.1, 0.9), 0.9))
        assert sample
        x, v = grid.meshes()
        for piece in sample:
            full = field.s(x, v, float(traj.times[piece.n]))
            assert np.array_equal(_source_values(traj, piece), full[piece.mask])


def _ones(traj):
    return Trajectory(traj.grid, traj.times, np.ones_like(traj.values), field=traj.field)


class TestPeriodicRegions:
    """Regions meet the grid periodically in x: a cylinder on the seam is the
    same set of nodes as anywhere else."""

    @pytest.mark.parametrize("x0", [0.0, 4.99])
    def test_seam_cylinder_measures_like_interior(self, identity_run, x0):
        ones = _ones(identity_run)
        inside = Cylinder(KineticPoint.of(2.5, 0.0, 1.0), 0.9)
        seam = Cylinder(KineticPoint.of(x0, 0.0, 1.0), 0.9)
        assert grid_measure(ones, inside) == pytest.approx(2.2613525390625, abs=1e-12)
        assert abs(grid_measure(ones, seam) - grid_measure(ones, inside)) <= 1e-13
        assert abs(norm_on_cylinder(ones, seam, 2.0) - norm_on_cylinder(ones, inside, 2.0)) <= 1e-13

    @staticmethod
    def _constants(traj, dx):
        """Every probe constant on cylinders moved by dx in x (exact fractional sum)."""
        def at(x, v, t):
            return KineticPoint.of(x + dx, v, t)

        center, mid = at(2.5, 0.0, 1.0), at(2.5, 0.0, 0.9)
        q_small, q_big = Cylinder(center, 0.25), Cylinder(center, 0.5)
        ls = level_set_measures(traj, 0.5, q_big)
        out = {"norm2": norm_on_cylinder(traj, q_big, 2.0), "osc": oscillation(traj, q_big),
               "ls_high": ls.high, "ls_low": ls.low, "ls_mid": ls.mid,
               "wmean": weighted_mean(traj, center, 0.3, center.t),
               "fractional": fractional_seminorm(traj, 1.0 / 3.0, Cylinder(center, 0.4),
                                                 n_pairs=10**8)}
        reports = {
            "gain": gain_probe(traj, q_small, q_big),
            "energy": energy_estimate_check(traj, q_small, q_big),
            "harnack": harnack_probe(traj, HarnackParams(r=0.25, delta=0.3, rho1=0.4, rho2=0.6,
                                                         center=mid)),
            "holder": holder_fit(traj, center, omega=0.9, k_levels=3, r_base=0.45),
            "doubling": doubling_probe(traj, z0=at(2.5, 0.0, 0.25), r=0.19),
            "caccio": caccioppoli_probe(traj, center, 0.3),
            "gehring": gehring_probe(traj, 2.0, Cylinder(center, 0.7, CylinderShape.CUBE)),
            "prop": propagation_probe(traj, HarnackParams(r=0.1, delta=0.015, rho1=0.2, rho2=0.3,
                                                          center=center), [0.08, 0.1, 0.12]),
        }
        for name, report in reports.items():
            out.update({f"{name}_{k}": v for k, v in report.constants.items()})
        return out

    @pytest.mark.parametrize("k", [29, 32])
    def test_rolled_trajectory_moves_constants(self, identity_run, k):
        # the moved cylinders sit across the seam (x = 4.77 and 5.0)
        rolled = Trajectory(identity_run.grid, identity_run.times,
                            np.roll(identity_run.values, k, axis=1), field=identity_run.field)
        reference = self._constants(identity_run, 0.0)
        moved = self._constants(rolled, k * identity_run.grid.hx)
        assert sorted(moved) == sorted(reference)
        for key, ref in reference.items():
            assert abs(moved[key] - ref) <= 1e-13 * abs(ref), (key, moved[key], ref)


def _every_probe(z):
    """One call per probe kind, each with cylinders around z."""
    def harnack_params(r, delta, rho1, rho2):
        return HarnackParams(r=r, delta=delta, rho1=rho1, rho2=rho2, center=z)

    q = Cylinder(z, 0.5)
    return {
        "norm": lambda tr: norm_on_cylinder(tr, q, 2.0),
        "measure": lambda tr: grid_measure(tr, q),
        "levelsets": lambda tr: level_set_measures(tr, 0.5, q),
        "oscillation": lambda tr: oscillation(tr, q),
        "fractional": lambda tr: fractional_seminorm(tr, 1.0 / 3.0, q),
        "gain": lambda tr: gain_probe(tr, Cylinder(z, 0.25), q),
        "energy": lambda tr: energy_estimate_check(tr, Cylinder(z, 0.25), q),
        "harnack": lambda tr: harnack_probe(tr, harnack_params(0.25, 0.3, 0.4, 0.6)),
        "holder": lambda tr: holder_fit(tr, z, omega=0.9, k_levels=3, r_base=0.45),
        "doubling": lambda tr: doubling_probe(tr, z0=z, r=0.19),
        "caccioppoli": lambda tr: caccioppoli_probe(tr, z, 0.3),
        "gehring": lambda tr: gehring_probe(tr, 2.0, Cylinder(z, 0.7, CylinderShape.CUBE)),
        "propagation": lambda tr: propagation_probe(tr, harnack_params(0.1, 0.015, 0.2, 0.3),
                                                    [0.08, 0.1]),
    }


PROBE_KINDS = sorted(_every_probe(KineticPoint.origin()))


class TestRegionRejections:
    """Every probe rejects a region that reaches past a velocity wall or whose
    x window is wider than the period, through the one rule of Footprint."""

    @pytest.mark.parametrize("probe", PROBE_KINDS)
    def test_velocity_wall(self, probe):
        traj = synthetic(lambda x, v, t: np.ones_like(x), nx=16, nv=32, nt=33, t0=0.0, t1=1.0)
        z = KineticPoint.of(2.0, 1.999, 0.25)
        with pytest.raises(ValueError, match="velocity wall"):
            _every_probe(z)[probe](traj)

    @pytest.mark.parametrize("probe", PROBE_KINDS)
    def test_x_window_wider_than_period(self, probe):
        traj = synthetic(lambda x, v, t: np.ones_like(x), nx=4, nv=32, nt=33, x_extent=1e-4,
                         t0=0.0, t1=1.0)
        z = KineticPoint.of(5e-5, 0.0, 0.25)
        with pytest.raises(ValueError, match="wider than the period"):
            _every_probe(z)[probe](traj)

    def test_identity_grid_cylinder_past_wall(self, identity_run):
        with pytest.raises(ValueError, match="velocity wall"):
            grid_measure(_ones(identity_run), Cylinder(KineticPoint.of(2.5, 3.8, 1.0), 0.9))

    def test_time_is_truncated_not_rejected(self, identity_run):
        # Q_1 at t = 0.5 reaches back to t = -0.5, before the first snapshot
        ones = _ones(identity_run)
        early = Cylinder(KineticPoint.of(2.5, 0.0, 0.5), 1.0)
        late = Cylinder(KineticPoint.of(2.5, 0.0, 1.0), 1.0)
        assert 0.0 < grid_measure(ones, early) < grid_measure(ones, late)


class TestHolderDefaultRadius:
    # centres on grid nodes and snapshot times, so every ladder level is sampled
    @pytest.mark.parametrize("x_extent, z1", [
        (48.0, KineticPoint.of(2.0, 1.75, 2.0)),   # velocity wall binds
        (4.8, KineticPoint.of(3.9, 0.0, 3.0)),     # period binds
        (48.0, KineticPoint.of(2.0, 0.0, 4.5)),    # capped at 1
    ])
    def test_closed_form(self, x_extent, z1):
        traj = synthetic(lambda x, v, t: np.ones_like(x), x_extent=x_extent, v_max=3.0,
                         nt=81, t0=0.0, t1=5.0)
        g = traj.grid
        expected = min(1.0, math.sqrt(z1.t) / 2.0, (g.v_max - abs(z1.v[0])) / 2.0,
                       (g.x_extent / 2.0) ** (1.0 / 3.0) / 2.0)
        assert _largest_radius(traj, z1) == expected
        assert holder_fit(traj, z1, omega=0.9, k_levels=3).params["r_base"] == expected

    def test_base_point_before_the_run_rejected(self):
        traj = synthetic(lambda x, v, t: np.ones_like(x), t0=0.0, t1=1.0)
        with pytest.raises(ValueError, match="no admissible radius"):
            holder_fit(traj, KineticPoint.of(2.0, 0.0, -0.5))
