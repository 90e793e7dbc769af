import math
from dataclasses import replace

import numpy as np
import pytest

from kfplab.fields import (
    CheckerboardRecipe,
    ConstantRecipe,
    EllipticityBounds,
    RotatingAnisotropyRecipe,
    SmoothRandomRecipe,
    sample_field,
    scaled_diffusion,
)
from kfplab.geometry import Cylinder, KineticPoint
from kfplab.probes import c01_constant, energy_estimate_check
from kfplab import solver as solver_mod
from kfplab.solver import (
    SolverConfig,
    _Collision2D,
    _make_collision,
    _make_transport,
    solve,
    step,
)
from kfplab.trajectory import PhaseGrid, PhaseGridFunction, gradient_v_sq

import solver_oracle as oracle
from conftest import gaussian_bump
from solver_oracle import (
    comparison_check,
    gaussian_exact_solution,
    kolmogorov_moments,
    kolmogorov_oracle,
)


def identity_field(d=1):
    return sample_field(ConstantRecipe(), EllipticityBounds(1.0, 1.0), seed=0, d=d)


def grid_moments(grid, values):
    x, v = grid.meshes()
    x = x[..., 0]
    v = v[..., 0]
    w = grid.cell_volume
    m = values.sum() * w
    mx = (values * x).sum() * w / m
    mv = (values * v).sum() * w / m
    var_x = (values * (x - mx) ** 2).sum() * w / m
    var_v = (values * (v - mv) ** 2).sum() * w / m
    cov = (values * (x - mx) * (v - mv)).sum() * w / m
    return var_x, cov, var_v


class TestStepBasics:
    def test_constants_are_solutions(self):
        grid = PhaseGrid(d=1, x_extent=4.0, nx=32, v_max=3.0, nv=32)
        cfg = SolverConfig(grid=grid, dt=0.05, t_end=0.5, field=identity_field())
        traj = solve(cfg, PhaseGridFunction(grid, np.ones(grid.shape), 0.0))
        assert np.max(np.abs(traj.values - 1.0)) < 1e-12

    def test_uniform_source_grows_mean_linearly(self):
        grid = PhaseGrid(d=1, x_extent=4.0, nx=32, v_max=3.0, nv=32)
        field = sample_field(
            ConstantRecipe(s_value=1.0), EllipticityBounds(0.7, 0.7), seed=0, d=1
        )
        cfg = SolverConfig(grid=grid, dt=0.05, t_end=0.5, field=field)
        traj = solve(cfg, PhaseGridFunction(grid, np.zeros(grid.shape), 0.0))
        mean = traj.values[-1].mean()
        assert mean == pytest.approx(0.5, abs=1e-10)

    def test_zero_data_stays_zero(self):
        grid = PhaseGrid(d=1, x_extent=4.0, nx=16, v_max=3.0, nv=16)
        cfg = SolverConfig(grid=grid, dt=0.05, t_end=0.25, field=identity_field())
        traj = solve(cfg, PhaseGridFunction(grid, np.zeros(grid.shape), 0.0))
        assert np.all(traj.values == 0.0)

    def test_grid_mismatch_rejected(self):
        grid = PhaseGrid(d=1, x_extent=4.0, nx=16, v_max=3.0, nv=16)
        other = PhaseGrid(d=1, x_extent=4.0, nx=32, v_max=3.0, nv=32)
        cfg = SolverConfig(grid=grid, dt=0.05, t_end=0.25, field=identity_field())
        with pytest.raises(ValueError):
            step(PhaseGridFunction(other, np.zeros(other.shape), 0.0), cfg)


class TestStructuralInvariants:
    def test_mass_conserved_without_drift(self):
        grid = PhaseGrid(d=1, x_extent=5.0, nx=48, v_max=4.0, nv=48)
        field = sample_field(
            CheckerboardRecipe(cell=1.0, b_max=0.0, s_max=0.0),
            EllipticityBounds(0.5, 2.0), seed=3, d=1,
        )
        cfg = SolverConfig(grid=grid, dt=1 / 128, t_end=0.5, field=field)
        traj = solve(cfg, gaussian_bump(grid, 2.5, 0.0, 0.3, 0.4))
        mass = traj.ledger.column("mass")
        assert np.max(np.abs(mass - mass[0])) <= 1e-12 * max(1.0, mass[0])

    def test_l2_non_increasing(self):
        grid = PhaseGrid(d=1, x_extent=5.0, nx=48, v_max=4.0, nv=48)
        field = sample_field(
            CheckerboardRecipe(cell=1.0, b_max=0.0, s_max=0.0),
            EllipticityBounds(0.5, 2.0), seed=3, d=1,
        )
        cfg = SolverConfig(grid=grid, dt=1 / 128, t_end=0.5, field=field)
        traj = solve(cfg, gaussian_bump(grid, 2.5, 0.0, 0.3, 0.4))
        l2 = traj.ledger.column("l2")
        assert np.max(np.diff(l2)) <= 1e-12 * l2[0]

    def test_positivity(self):
        grid = PhaseGrid(d=1, x_extent=5.0, nx=48, v_max=4.0, nv=48)
        field = sample_field(
            CheckerboardRecipe(cell=1.0, b_max=2.0, s_max=0.0),
            EllipticityBounds(0.5, 2.0), seed=5, d=1,
        )
        cfg = SolverConfig(grid=grid, dt=1 / 128, t_end=0.5, field=field)
        traj = solve(cfg, gaussian_bump(grid, 2.5, 0.0, 0.3, 0.4))
        assert traj.values.min() >= -1e-12

    def test_floor_preserved_by_monotonicity(self):
        grid = PhaseGrid(d=1, x_extent=5.0, nx=48, v_max=4.0, nv=48)
        field = sample_field(
            CheckerboardRecipe(cell=1.0, b_max=2.0, s_max=0.0),
            EllipticityBounds(0.5, 2.0), seed=5, d=1,
        )
        cfg = SolverConfig(grid=grid, dt=1 / 128, t_end=0.5, field=field)
        traj = solve(cfg, gaussian_bump(grid, 2.5, 0.0, 0.3, 0.4, floor=0.02))
        assert traj.values.min() >= 0.02 - 1e-12


class TestComparison:
    def _cfg(self):
        grid = PhaseGrid(d=1, x_extent=4.0, nx=32, v_max=3.0, nv=32)
        field = sample_field(
            CheckerboardRecipe(cell=1.0, b_max=1.0, s_max=0.0),
            EllipticityBounds(0.5, 2.0), seed=8, d=1,
        )
        return SolverConfig(grid=grid, dt=1 / 64, t_end=0.25, field=field)

    def test_equality_preserved(self):
        cfg = self._cfg()
        f0 = gaussian_bump(cfg.grid, 2.0, 0.0, 0.3, 0.4)
        ok, violation = comparison_check(f0, f0, cfg)
        assert ok and violation <= 0.0

    def test_zero_below_nonnegative(self):
        cfg = self._cfg()
        g0 = gaussian_bump(cfg.grid, 2.0, 0.0, 0.3, 0.4)
        f0 = PhaseGridFunction(cfg.grid, np.zeros(cfg.grid.shape), 0.0)
        ok, _ = comparison_check(f0, g0, cfg)
        assert ok

    def test_random_ordered_pairs(self):
        cfg = self._cfg()
        rng = np.random.default_rng(12)
        for _ in range(3):
            base = rng.uniform(0.0, 1.0, size=cfg.grid.shape)
            extra = rng.uniform(0.0, 1.0, size=cfg.grid.shape)
            f0 = PhaseGridFunction(cfg.grid, base, 0.0)
            g0 = PhaseGridFunction(cfg.grid, base + extra, 0.0)
            ok, violation = comparison_check(f0, g0, cfg)
            assert ok, f"ordering violated by {violation}"

    def test_unordered_rejected(self):
        cfg = self._cfg()
        f0 = PhaseGridFunction(cfg.grid, np.ones(cfg.grid.shape), 0.0)
        g0 = PhaseGridFunction(cfg.grid, np.zeros(cfg.grid.shape), 0.0)
        with pytest.raises(ValueError):
            comparison_check(f0, g0, cfg)


class TestKolmogorovOracle:
    def test_moment_formulas(self):
        assert kolmogorov_moments(1.0) == (2.0 / 3.0, 1.0, 2.0)

    def test_normalisation(self):
        for t in (0.3, 1.0):
            x = np.linspace(-12, 12, 401)
            v = np.linspace(-12, 12, 401)
            xx, vv = np.meshgrid(x, v, indexing="ij")
            rho = kolmogorov_oracle(xx, vv, t)
            dx = x[1] - x[0]
            assert rho.sum() * dx * dx == pytest.approx(1.0, abs=1e-6)

    def test_parity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=16)
        v = rng.normal(size=16)
        assert np.allclose(
            kolmogorov_oracle(x, v, 0.7), kolmogorov_oracle(-x, -v, 0.7), rtol=1e-13
        )

    def test_quadrature_moments(self):
        x = np.linspace(-10, 10, 501)
        v = np.linspace(-10, 10, 501)
        xx, vv = np.meshgrid(x, v, indexing="ij")
        rho = kolmogorov_oracle(xx, vv, 1.0)
        dx = x[1] - x[0]
        var_x = (rho * xx**2).sum() * dx * dx
        cov = (rho * xx * vv).sum() * dx * dx
        var_v = (rho * vv**2).sum() * dx * dx
        assert var_x == pytest.approx(2.0 / 3.0, rel=1e-4)
        assert cov == pytest.approx(1.0, rel=1e-4)
        assert var_v == pytest.approx(2.0, rel=1e-4)

    def test_sde_monte_carlo_agreement(self):
        # independent stochastic oracle: dv = sqrt(2) dW, dx = v dt
        rng = np.random.default_rng(123)
        n, steps = 100_000, 400
        dt = 1.0 / steps
        v = np.zeros(n)
        x = np.zeros(n)
        for _ in range(steps):
            x += v * dt
            v += math.sqrt(2.0 * dt) * rng.standard_normal(n)
        # 5-sigma statistical tolerance at this path count
        assert v.var() == pytest.approx(2.0, rel=0.025)
        assert np.mean(x * v) == pytest.approx(1.0, rel=0.025)
        assert x.var() == pytest.approx(2.0 / 3.0, rel=0.025)

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError):
            kolmogorov_oracle(0.0, 0.0, 0.0)


class TestMomentAccuracy:
    def test_second_moments_match_oracle(self):
        # frozen reference: Var v = 2t, Cov = t^2, Var x = 2t^3/3, validated
        # once against a 10^6-path Euler-Maruyama run (2.00237, 1.00015,
        # 0.66574 at t = 1) -- see scripts/sde_reference.py
        grid = PhaseGrid(d=1, x_extent=8.0, nx=128, v_max=6.0, nv=128)
        cfg = SolverConfig(grid=grid, dt=1 / 8, t_end=1.0, field=identity_field(),
                           snapshot_stride=8)
        sx, sv = 0.2, 0.35
        traj = solve(cfg, gaussian_bump(grid, 4.0, 0.0, sx, sv))
        var_x, cov, var_v = grid_moments(grid, traj.values[-1])
        exp_x = 2.0 / 3.0 + sx**2 + sv**2
        exp_c = 1.0 + sv**2
        exp_v = 2.0 + sv**2
        assert var_x == pytest.approx(exp_x, rel=0.02)
        assert cov == pytest.approx(exp_c, rel=0.02)
        assert var_v == pytest.approx(exp_v, rel=0.02)

    def test_l1_error_first_order(self):
        sx, sv = 0.2, 0.35

        def l1_error(nx, dt):
            grid = PhaseGrid(d=1, x_extent=8.0, nx=nx, v_max=6.0, nv=nx)
            cfg = SolverConfig(grid=grid, dt=dt, t_end=1.0, field=identity_field(),
                               snapshot_stride=10**6)
            traj = solve(cfg, gaussian_bump(grid, 4.0, 0.0, sx, sv))
            x, v = grid.meshes()
            exact = gaussian_exact_solution(x[..., 0] - 4.0, v[..., 0], 1.0, sx**2, sv**2)
            return np.abs(traj.values[-1] - exact).sum() * grid.cell_volume

        coarse = l1_error(128, 1 / 8)
        fine = l1_error(256, 1 / 16)
        assert 0.35 <= fine / coarse <= 0.65


class TestEnergyEstimate:
    def test_c01_value(self):
        # 1/(3/4) + 1/(7/8) + 4 + 1 = 4/3 + 8/7 + 5
        assert c01_constant(1.0, 0.5) == pytest.approx(157.0 / 21.0, rel=1e-14)

    def test_trivial_run_flagged(self):
        grid = PhaseGrid(d=1, x_extent=4.0, nx=32, v_max=3.0, nv=32)
        cfg = SolverConfig(grid=grid, dt=0.05, t_end=0.5, field=identity_field(),
                           snapshot_stride=1)
        traj = solve(cfg, PhaseGridFunction(grid, np.zeros(grid.shape), 0.0))
        center = KineticPoint.of(2.0, 0.0, 0.5)
        rep = energy_estimate_check(traj, Cylinder(center, 0.3), Cylinder(center, 0.6))
        assert rep.verdict == "trivial"

    def test_finite_constant_on_diffusing_bump(self, identity_run):
        center = KineticPoint.of(2.5, 0.0, 1.0)
        rep = energy_estimate_check(
            identity_run, Cylinder(center, 0.3), Cylinder(center, 0.6)
        )
        assert rep.verdict == "ok"
        assert math.isfinite(rep.constants["cbar"])
        assert rep.constants["cbar"] >= 0.0

    def test_nesting_enforced(self, identity_run):
        center = KineticPoint.of(2.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            energy_estimate_check(
                identity_run, Cylinder(center, 0.6), Cylinder(center, 0.3)
            )

    def test_ratio_bounded_over_field_ensemble(self):
        # the empirical local-energy constant stays bounded across random
        # rough fields at fixed resolution
        grid = PhaseGrid(d=1, x_extent=5.0, nx=48, v_max=4.0, nv=48)
        center = KineticPoint.of(2.5, 0.0, 0.5)
        ratios = []
        for seed in range(5):
            field = sample_field(
                CheckerboardRecipe(cell=1.0, b_max=2.0, s_max=0.0),
                EllipticityBounds(0.5, 2.0), seed=seed, d=1,
            )
            cfg = SolverConfig(grid=grid, dt=1 / 512, t_end=0.5, field=field,
                               snapshot_stride=4)
            traj = solve(cfg, gaussian_bump(grid, 2.5, 0.0, 0.3, 0.4, floor=0.01))
            rep = energy_estimate_check(
                traj, Cylinder(center, 0.4), Cylinder(center, 0.7)
            )
            assert rep.verdict == "ok"
            ratios.append(rep.constants["cbar"])
        assert np.all(np.isfinite(ratios))
        assert max(ratios) < 1e3


class TestTwoDimensional:
    def test_constants_preserved_d2(self):
        grid = PhaseGrid(d=2, x_extent=2.0, nx=6, v_max=2.0, nv=10)
        field = sample_field(ConstantRecipe(), EllipticityBounds(1.0, 1.0), seed=0, d=2)
        cfg = SolverConfig(grid=grid, dt=0.05, t_end=0.2, field=field)
        traj = solve(cfg, PhaseGridFunction(grid, np.ones(grid.shape), 0.0))
        assert np.max(np.abs(traj.values - 1.0)) < 1e-11

    def test_mass_conserved_d2_anisotropic(self):
        grid = PhaseGrid(d=2, x_extent=2.0, nx=4, v_max=2.0, nv=10)
        field = sample_field(
            CheckerboardRecipe(cell=1.0, b_max=0.0, s_max=0.0),
            EllipticityBounds(0.5, 1.5), seed=2, d=2,
        )
        cfg = SolverConfig(grid=grid, dt=0.05, t_end=0.2, field=field)
        x, v = grid.meshes()
        vals = np.exp(-np.sum(v**2, axis=-1)) * (1.0 + 0.2 * np.cos(np.pi * x[..., 0]))
        traj = solve(cfg, PhaseGridFunction(grid, vals, 0.0))
        mass = traj.ledger.column("mass")
        assert np.max(np.abs(mass - mass[0])) <= 1e-11 * mass[0]

    def test_cross_diffusion_conserves_mass_d2(self):
        # rotating eigenframe: genuinely off-diagonal A12, face fluxes telescope
        from kfplab.fields import RotatingAnisotropyRecipe

        grid = PhaseGrid(d=2, x_extent=2.0, nx=3, v_max=2.0, nv=12)
        field = sample_field(
            RotatingAnisotropyRecipe(period=1.0), EllipticityBounds(0.5, 1.5),
            seed=9, d=2,
        )
        cfg = SolverConfig(grid=grid, dt=0.05, t_end=0.25, field=field)
        x, v = grid.meshes()
        vals = np.exp(-2.0 * np.sum(v**2, axis=-1)) * np.ones(x.shape[:-1])
        traj = solve(cfg, PhaseGridFunction(grid, vals, 0.0))
        mass = traj.ledger.column("mass")
        assert np.max(np.abs(mass - mass[0])) <= 1e-11 * mass[0]
        assert np.all(np.isfinite(traj.values))

    def test_d3_unsupported(self):
        grid = PhaseGrid(d=3, x_extent=2.0, nx=4, v_max=2.0, nv=4)
        with pytest.raises(NotImplementedError):
            SolverConfig(grid=grid, dt=0.05, t_end=0.2,
                         field=sample_field(ConstantRecipe(), EllipticityBounds(1.0, 1.0), seed=0, d=3))


def constant_spd_field(a):
    """The constant SPD matrix a as A, with B = 0 and s = 0, in d = 2."""
    lam, big = np.linalg.eigvalsh(a)
    field = sample_field(ConstantRecipe(), EllipticityBounds(lam, big), seed=0, d=2)
    return replace(field, a_fn=lambda x, v, t: np.broadcast_to(a, x.shape + (2,)).copy(),
                   nodes_fn=None)


def rotated(ratio, angle):
    """R(angle) diag(lam, ratio lam) R(angle)^T with lam^2 ratio = 1."""
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return rot @ np.diag([ratio**-0.5, ratio**0.5]) @ rot.T


class TestExactGaussianD2:
    """d = 2 runs of a Gaussian under constant SPD A, cross-diffusion
    included, against ``solver_oracle.gaussian_solution_spd`` at t = 0.25."""

    X_EXTENT, V_MAX = 4.0, 4.0
    COV0 = 0.25 * np.eye(2)         # sigma_x = sigma_v = 0.5 in each component
    MEAN_X, MEAN_V = np.array([2.0, 2.0]), np.zeros(2)

    def exact(self, grid, a, t):
        x, v = grid.meshes()
        return oracle.gaussian_solution_spd(x, v, t, a, self.COV0, self.COV0, self.MEAN_X,
                                            self.MEAN_V, self.X_EXTENT)

    def test_identity_is_the_product_form(self):
        grid = PhaseGrid(d=2, x_extent=self.X_EXTENT, nx=8, v_max=self.V_MAX, nv=8)
        x, v = grid.meshes()
        want = sum(
            gaussian_exact_solution(x[..., 0] + self.X_EXTENT * kx - 2.0, v[..., 0], 0.25, 0.25, 0.25)
            * gaussian_exact_solution(x[..., 1] + self.X_EXTENT * ky - 2.0, v[..., 1], 0.25, 0.25, 0.25)
            for kx in (-1, 0, 1) for ky in (-1, 0, 1))
        got = self.exact(grid, np.eye(2), 0.25)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)

    # the L1 errors measured at n = 8, 16, 24 (dt = 1/(4n)) with numpy 2.4.6;
    # their observed orders between n = 8 and n = 24 are 1.34 for A = I, 1.30 at
    # Lambda/lambda = 4 and 1.19 at 10, and each bound sits below its order.
    # The anisotropic runs go negative (min f -3.8e-4 and -1.3e-3 at n = 8), and
    # no positivity is asserted here.
    @pytest.mark.parametrize("a, errors, order", [
        (np.eye(2), (0.2963, 0.1040, 0.0677), 1.3),
        (rotated(4.0, math.pi / 6), (0.2914, 0.1063, 0.0697), 1.25),
        (rotated(10.0, math.pi / 6), (0.3158, 0.1376, 0.0858), 1.15),
    ], ids=["identity", "ratio_4", "ratio_10"])
    def test_l1_error_and_order(self, a, errors, order):
        got = []
        for n in (8, 16, 24):
            grid = PhaseGrid(d=2, x_extent=self.X_EXTENT, nx=n, v_max=self.V_MAX, nv=n)
            cfg = SolverConfig(grid=grid, dt=1 / (4 * n), t_end=0.25, field=constant_spd_field(a),
                               snapshot_stride=10**6)
            traj = solve(cfg, PhaseGridFunction(grid, self.exact(grid, a, 0.0), 0.0))
            got.append(float(np.abs(traj.values[-1] - self.exact(grid, a, 0.25)).sum()
                             * grid.cell_volume))
        assert got == pytest.approx(errors, rel=2e-3)
        assert math.log(got[0] / got[2]) / math.log(3.0) >= order


class TestSnapshotSchedule:
    def test_stride_and_tail(self):
        grid = PhaseGrid(d=1, x_extent=4.0, nx=16, v_max=3.0, nv=16)
        cfg = SolverConfig(grid=grid, dt=0.01, t_end=1.0, field=identity_field(),
                           snapshot_stride=20, snapshot_tail=0.05)
        traj = solve(cfg, PhaseGridFunction(grid, np.ones(grid.shape), 0.0))
        gaps = np.diff(traj.times)
        # bulk is strided, trailing window keeps every step
        assert gaps[0] == pytest.approx(0.2, abs=1e-9)
        assert gaps[-1] == pytest.approx(0.01, abs=1e-9)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0, abs=1e-9)


def _random_state(grid, seed):
    return np.random.default_rng(seed).random(grid.shape) + 0.01


def _same_array(a, b):
    return a.tobytes() == b.tobytes() and a.strides == b.strides


D2_FIELDS = {
    "rotating": (RotatingAnisotropyRecipe(period=1.0), 9),
    "checkerboard": (CheckerboardRecipe(cell=0.4, b_max=1.5, s_max=0.7), 3),
    "smooth": (SmoothRandomRecipe(corr_v=0.5, s_max=0.3), 5),
}


def _same_csc(a, b):
    return all(
        getattr(a, k).dtype == getattr(b, k).dtype
        and getattr(a, k).tobytes() == getattr(b, k).tobytes()
        for k in ("indptr", "indices", "data")
    )


class TestFastPathsMatchOracles:
    """The transport plan, the gradient helper, the vectorised collision
    assembly and the snapshot array against the slow paths they replaced
    (``solver_oracle``), bit for bit."""

    def test_half_step_d1(self):
        grid = PhaseGrid(d=1, x_extent=4.0, nx=16, v_max=3.0, nv=17)
        field = sample_field(
            CheckerboardRecipe(cell=1.0, b_max=1.0, s_max=0.5),
            EllipticityBounds(0.5, 2.0), seed=4, d=1,
        )
        cfg = SolverConfig(grid=grid, dt=0.08, t_end=0.16, field=field)
        vals = _random_state(grid, 0)
        half = oracle.transport(vals, grid, 0.5 * cfg.dt)
        assert _same_array(_make_transport(cfg).apply(vals), half)
        state = PhaseGridFunction(grid, vals, 0.0)
        want = oracle.step(state, cfg, oracle.make_collision(cfg))
        assert _same_array(step(state, cfg).values, want.values)

    def test_half_step_d2(self):
        grid = PhaseGrid(d=2, x_extent=2.0, nx=5, v_max=2.0, nv=6)
        cfg = SolverConfig(grid=grid, dt=0.1, t_end=0.2, field=identity_field(d=2))
        vals = _random_state(grid, 1)
        plan = _make_transport(cfg)
        want = oracle.transport(vals, grid, 0.5 * cfg.dt)
        got = plan.apply(vals)
        assert _same_array(got, want)
        # a second half-step reads the first one's transposed output
        assert _same_array(plan.apply(got), oracle.transport(want, grid, 0.5 * cfg.dt))

    @pytest.mark.parametrize("d", [1, 2])
    def test_gradient_v_sq(self, d):
        grid = PhaseGrid(d=d, x_extent=2.0, nx=5, v_max=2.0, nv=7)
        vals = np.random.default_rng(d).standard_normal(grid.shape)
        layouts = [
            vals,
            np.asfortranarray(vals),
            np.moveaxis(np.moveaxis(vals, 0, -1).copy(), -1, 0),
            np.repeat(vals, 2, axis=-1)[..., ::2],
            vals[..., ::-1],
        ]
        for arr in layouts:
            assert _same_array(gradient_v_sq(arr, grid), oracle.gradient_v_sq(arr, grid))
        # a stack of states: each entry as if it stood alone
        stack = np.stack([vals, 2.0 * vals, -vals])
        got = gradient_v_sq(stack, grid)
        assert all(_same_array(got[k], oracle.gradient_v_sq(stack[k], grid)) for k in range(3))

    @pytest.mark.parametrize("d", [1, 2])
    def test_solve_across_ledger_blocks(self, d, monkeypatch):
        # the ledger reduces blocks of K states: runs of 1, K - 1, K, K + 1
        # and 2K + 3 steps end inside, on and past a block's end.  d = 1 runs
        # at the module's block size (K = 128 here); d = 2, whose oracle
        # assembles node by node, at K = 4
        if d == 1:
            grid = PhaseGrid(d=1, x_extent=4.0, nx=16, v_max=3.0, nv=16)
            dt = 0.01
        else:
            grid = PhaseGrid(d=2, x_extent=2.0, nx=3, v_max=2.0, nv=4)
            dt = 0.05
            monkeypatch.setattr(solver_mod, "_BLOCK_BYTES", 4 * 8 * math.prod(grid.shape))
        k = solver_mod._BLOCK_BYTES // (8 * math.prod(grid.shape))
        assert k == (128 if d == 1 else 4)
        field = sample_field(CheckerboardRecipe(cell=0.5, b_max=1.0, s_max=0.5),
                             EllipticityBounds(0.5, 2.0), seed=3, d=d)
        for n_steps in (1, k - 1, k, k + 1, 2 * k + 3):
            cfg = SolverConfig(grid=grid, dt=dt, t_end=n_steps * dt, field=field, snapshot_stride=5)
            f0 = PhaseGridFunction(grid, _random_state(grid, n_steps), 0.0)
            got, want = solve(cfg, f0), oracle.solve(cfg, f0)
            assert len(got.ledger.rows) == n_steps + 1
            assert got.times.tobytes() == want.times.tobytes()
            assert got.values.tobytes() == want.values.tobytes()
            assert list(got.ledger.csv_lines()) == list(want.ledger.csv_lines())

    @pytest.mark.parametrize("d, n", [(1, 256), (2, 16)])
    def test_ledger_block_rows_match_single_state_rows(self, d, n):
        # 256^2 and 16^4 states are longer than numpy's 8192-element
        # reduction buffer; the d = 2 block keeps the transport's layout
        grid = PhaseGrid(d=d, x_extent=2.0, nx=n, v_max=2.0, nv=n)
        plan = _make_transport(SolverConfig(grid=grid, dt=0.01, t_end=0.01,
                                            field=identity_field(d)))
        block = solver_mod._stack_like(plan.apply(np.zeros(grid.shape)), 3)
        rng = np.random.default_rng(d)
        for k in range(3):
            block[k] = rng.standard_normal(grid.shape) * 10.0 ** (3 * k - 3)
        times = [0.5, 0.75, 1.0]
        rows = solver_mod._ledger_rows(7, times, block, grid, lambda t: 2.0 * t)
        for k, row in enumerate(rows):
            state = PhaseGridFunction(grid, block[k], times[k])
            assert row == oracle.ledger_row(7 + k, state, grid, 2.0 * times[k])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_state_is_a_solver_failure_at_its_step(self, bad):
        grid = PhaseGrid(d=1, x_extent=4.0, nx=8, v_max=3.0, nv=8)
        cfg = SolverConfig(grid=grid, dt=0.05, t_end=0.2, field=identity_field())
        vals = _random_state(grid, 1)
        vals[3, 4] = bad
        with pytest.raises(solver_mod.SolverFailure, match=r"step 0 \(t = 0\.0\)"):
            solve(cfg, PhaseGridFunction(grid, vals, 0.0))

    def test_solve_checkerboard_with_drift_and_source(self):
        grid = PhaseGrid(d=1, x_extent=5.0, nx=32, v_max=4.0, nv=32)
        field = sample_field(
            CheckerboardRecipe(cell=1.0, b_max=2.0, s_max=0.5),
            EllipticityBounds(0.5, 2.0), seed=3, d=1,
        )
        # dt = 0.0025 accumulates off n * dt from step 6 on, and step 92 lands
        # within the 1e-12 collar of the tail start
        cfg = SolverConfig(grid=grid, dt=0.0025, t_end=0.25, field=field,
                           snapshot_stride=7, snapshot_tail=0.02)
        f0 = gaussian_bump(grid, 2.5, 0.0, 0.2, 0.35, floor=0.01)
        got, want = solve(cfg, f0), oracle.solve(cfg, f0)
        assert got.times.tobytes() == want.times.tobytes()
        assert got.values.tobytes() == want.values.tobytes()
        assert list(got.ledger.csv_lines()) == list(want.ledger.csv_lines())

    def test_solve_d2_rotating(self):
        grid = PhaseGrid(d=2, x_extent=2.0, nx=4, v_max=2.0, nv=6)
        field = sample_field(
            RotatingAnisotropyRecipe(period=1.0), EllipticityBounds(0.5, 1.5), seed=9, d=2,
        )
        cfg = SolverConfig(grid=grid, dt=0.05, t_end=0.2, field=field)
        f0 = PhaseGridFunction(grid, _random_state(grid, 2), 0.0)
        got, want = solve(cfg, f0), oracle.solve(cfg, f0)
        assert got.times.tobytes() == want.times.tobytes()
        assert got.values.tobytes() == want.values.tobytes()
        assert list(got.ledger.csv_lines()) == list(want.ledger.csv_lines())

    @pytest.mark.parametrize("chunk_nodes", [solver_mod._CHUNK_NODES, 100])
    @pytest.mark.parametrize("name", sorted(D2_FIELDS))
    def test_collision_d2_matrices(self, name, chunk_nodes, monkeypatch):
        # odd nv: the cross stencil clamps at the walls and the drift is one-sided;
        # 100 nodes assemble the 9 cells in chunks of 2, 2, 2, 2 and 1
        monkeypatch.setattr(solver_mod, "_CHUNK_NODES", chunk_nodes)
        recipe, seed = D2_FIELDS[name]
        grid = PhaseGrid(d=2, x_extent=2.0, nx=3, v_max=2.0, nv=7)
        field = sample_field(recipe, EllipticityBounds(0.5, 2.0), seed=seed, d=2)
        if name == "smooth":
            # a smooth field's node evaluators agree with its a/b/s only to
            # rounding (test_fields bounds by how much), so here the assembly
            # is handed the oracle's own coefficients
            field = replace(field, nodes_fn=None)
        fast = _Collision2D(grid, field, 0.03)
        slow = oracle.Collision2D(grid, field, 0.03)
        slow._assemble(0.37)
        blocks = fast._cell_matrices(0.37)
        assert len(blocks) == len(slow.matrices) == 9
        assert all(_same_csc(a, b) for a, b in zip(blocks, slow.matrices))
        vals = _random_state(grid, 4)
        assert _same_array(fast.apply(vals, 0.37), slow.apply(vals, 0.37))
        if field.s_bound == 0:
            assert fast._dt_source == 0.0 and not np.any(slow._sources)
        else:
            assert fast._dt_source.tobytes() == (0.03 * slow._sources).tobytes()

    def test_solve_d2_checkerboard_reuses_factorisations(self):
        grid = PhaseGrid(d=2, x_extent=2.0, nx=3, v_max=2.0, nv=5)
        field = sample_field(
            CheckerboardRecipe(cell=0.5, b_max=1.5, s_max=0.7),
            EllipticityBounds(0.5, 2.0), seed=6, d=2,
        )
        # time_key changes every 0.25, so 12 steps reassemble 3 times
        cfg = SolverConfig(grid=grid, dt=0.05, t_end=0.6, field=field, snapshot_stride=5)
        f0 = PhaseGridFunction(grid, _random_state(grid, 5), 0.0)
        got, want = solve(cfg, f0), oracle.solve(cfg, f0)
        assert got.times.tobytes() == want.times.tobytes()
        assert got.values.tobytes() == want.values.tobytes()
        assert list(got.ledger.csv_lines()) == list(want.ledger.csv_lines())

    @pytest.mark.parametrize("d", [1, 2])
    def test_negative_zero_data_without_source(self, d):
        # the oracle adds dt * s = +0.0, which turns -0.0 into +0.0
        grid = PhaseGrid(d=d, x_extent=2.0, nx=4, v_max=2.0, nv=5)
        field = sample_field(RotatingAnisotropyRecipe(), EllipticityBounds(0.5, 1.0), seed=1, d=d)
        cfg = SolverConfig(grid=grid, dt=0.05, t_end=0.1, field=field)
        f0 = PhaseGridFunction(grid, np.full(grid.shape, -0.0), 0.0)
        got = _make_collision(cfg).apply(f0.values, 0.025)
        assert _same_array(got, oracle.make_collision(cfg).apply(f0.values, 0.025))
        got, want = solve(cfg, f0), oracle.solve(cfg, f0)
        assert got.values.tobytes() == want.values.tobytes()
        assert list(got.ledger.csv_lines()) == list(want.ledger.csv_lines())

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("recipe, t_end, assemblies", [
        (RotatingAnisotropyRecipe(), 0.2, 4),
        # time_key changes every 0.25, so 12 steps of 0.05 reassemble 3 times
        (CheckerboardRecipe(cell=0.5), 0.6, 3),
    ], ids=["rotating", "checkerboard"])
    def test_field_evaluated_once_per_assembly_and_zero_source_never(self, d, recipe, t_end,
                                                                     assemblies):
        calls = {"a": 0, "s": 0}
        base = sample_field(recipe, EllipticityBounds(0.5, 1.0), seed=1, d=d)

        def counted(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        field = replace(base, a_fn=counted("a", base.a_fn), s_fn=counted("s", base.s_fn))
        grid = PhaseGrid(d=d, x_extent=2.0, nx=4, v_max=2.0, nv=5)
        cfg = SolverConfig(grid=grid, dt=0.05, t_end=t_end, field=field)
        solve(cfg, PhaseGridFunction(grid, _random_state(grid, 6), 0.0))
        assert calls == {"a": assemblies, "s": 0}

    @pytest.mark.parametrize("d", [1, 2])
    def test_smooth_nodes_bound_once_per_solve(self, d):
        # the mode tables are built once per run, and the ledger's source
        # column reuses the collision step's evaluator
        calls = {"nodes": 0, "a": 0, "s": 0, "plain": 0}
        base = sample_field(SmoothRandomRecipe(s_max=0.3), EllipticityBounds(0.5, 2.0), seed=2, d=d)

        def counted(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        def nodes_fn(x, v):
            calls["nodes"] += 1
            coeffs = base.nodes_fn(x, v)
            return coeffs._replace(a=counted("a", coeffs.a), s=counted("s", coeffs.s))

        field = replace(base, nodes_fn=nodes_fn, **{name: counted("plain", getattr(base, name))
                                                    for name in ("a_fn", "b_fn", "s_fn")})
        grid = PhaseGrid(d=d, x_extent=2.0, nx=4, v_max=2.0, nv=5)
        cfg = SolverConfig(grid=grid, dt=0.05, t_end=0.2, field=field)
        traj = solve(cfg, PhaseGridFunction(grid, _random_state(grid, 6), 0.0))
        assert calls["nodes"] == 1 and calls["plain"] == 0
        assert calls["a"] == cfg.n_steps
        assert calls["s"] == cfg.n_steps + len(traj.ledger.rows)

    @pytest.mark.parametrize("d", [1, 2])
    def test_smooth_field_solve_near_oracle(self, d):
        # the node evaluators sum the Fourier modes in another order than
        # field.a/b/s, which moves a smooth-field run in its last bits only
        grid = PhaseGrid(d=d, x_extent=2.0, nx=6 if d == 1 else 3, v_max=2.0,
                         nv=8 if d == 1 else 5)
        field = sample_field(SmoothRandomRecipe(corr_v=0.5, b_max=1.0, s_max=0.3),
                             EllipticityBounds(0.5, 2.0), seed=4, d=d)
        cfg = SolverConfig(grid=grid, dt=0.05, t_end=0.3, field=field, snapshot_stride=2)
        f0 = PhaseGridFunction(grid, _random_state(grid, 8), 0.0)
        got, want = solve(cfg, f0), oracle.solve(cfg, f0)
        assert got.times.tobytes() == want.times.tobytes()
        assert np.max(np.abs(got.values - want.values)) <= 1e-12
        for row, ref in zip(got.ledger.rows, want.ledger.rows):
            assert row.source_l2 == pytest.approx(ref.source_l2, rel=1e-12, abs=0.0)
            assert row.mass == pytest.approx(ref.mass, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("recipe", [CheckerboardRecipe(cell=0.7, b_max=1.0, s_max=0.2),
                                        SmoothRandomRecipe(corr_v=0.5, b_max=1.0, s_max=0.2)],
                             ids=["checkerboard", "smooth"])
    def test_solve_scaled_field(self, recipe, d):
        # the solver must see the scaled A, also for a field with its own
        # node evaluator, and gives the oracle's bits
        base = sample_field(recipe, EllipticityBounds(0.5, 2.0), seed=11, d=d)
        field = scaled_diffusion(base, 3.0)
        grid = PhaseGrid(d=d, x_extent=2.0, nx=4, v_max=2.0, nv=5)
        cfg = SolverConfig(grid=grid, dt=0.05, t_end=0.2, field=field)
        f0 = PhaseGridFunction(grid, _random_state(grid, 7), 0.0)
        got, want = solve(cfg, f0), oracle.solve(cfg, f0)
        unscaled = solve(replace(cfg, field=base), f0)
        assert got.values.tobytes() == want.values.tobytes()
        assert list(got.ledger.csv_lines()) == list(want.ledger.csv_lines())
        assert got.values.tobytes() != unscaled.values.tobytes()

    def test_plan_built_once_per_solve(self, monkeypatch):
        built = []

        class CountingPlan(solver_mod._TransportPlan):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(solver_mod, "_TransportPlan", CountingPlan)
        grid = PhaseGrid(d=1, x_extent=4.0, nx=16, v_max=3.0, nv=16)
        cfg = SolverConfig(grid=grid, dt=0.05, t_end=0.4, field=identity_field())
        f0 = PhaseGridFunction(grid, _random_state(grid, 3), 0.0)
        solve(cfg, f0)
        assert len(built) == 1 < cfg.n_steps
        step(f0, cfg)
        assert len(built) == 2
