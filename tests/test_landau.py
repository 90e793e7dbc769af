import math

import itertools

import numpy as np
import pytest
from scipy.signal import fftconvolve

import landau_oracle as oracle
from kfplab import landau
from kfplab.landau import (
    BoundsReport,
    LandauParams,
    MomentBounds,
    VelocityGrid,
    VelocityGridFunction,
    check_coefficient_bounds,
    convolve_direct,
    convolve_fft,
    kernel_a,
    kernel_b,
    kernel_c,
    landau_a_field,
    landau_b_field,
    landau_c_field,
    maxwellian,
    moments,
)


def reference_sums(p):
    """Each field function with the kernel and constant of its O(N^2) reference sum."""
    return ((landau_a_field, kernel_a, p.a_const), (landau_b_field, kernel_b, p.b_const),
            (landau_c_field, kernel_c, p.c_const))


def zero_function(grid):
    return VelocityGridFunction(grid, np.zeros((grid.n,) * grid.d))


class TestMoments:
    def test_zero(self):
        g = VelocityGrid(v_max=4.0, n=32, d=1)
        assert moments(zero_function(g)) == (0.0, 0.0, 0.0)

    def test_standard_gaussian(self):
        # analytic moments of the unit Gaussian: M = 1, E = 1/2
        g = VelocityGrid(v_max=8.0, n=320, d=1)  # h = 0.05
        m, e, h = moments(maxwellian(g))
        assert m == pytest.approx(1.0, abs=1e-3)
        assert e == pytest.approx(0.5, abs=1e-3)
        assert h == pytest.approx(-0.5 * math.log(2 * math.pi * math.e), abs=1e-3)

    def test_indicator(self):
        g = VelocityGrid(v_max=4.0, n=256, d=1)
        vals = (np.abs(g.axis()) <= 1.0).astype(float)
        m, e, h = moments(VelocityGridFunction(g, vals))
        # exact integrals of the indicator of [-1, 1]: mass 2, energy 1/3
        assert m == pytest.approx(2.0, abs=2 * g.h)
        assert e == pytest.approx(1.0 / 3.0, abs=2 * g.h)
        assert h == 0.0

    def test_negative_rejected(self):
        g = VelocityGrid(v_max=1.0, n=8, d=1)
        with pytest.raises(ValueError):
            VelocityGridFunction(g, -np.ones((8,)))


class TestPointMassKernel:
    def test_single_cell_projection(self):
        # point mass at a lattice node: A(v) equals the kernel at the offset
        g = VelocityGrid(v_max=2.0, n=16, d=2)
        p = LandauParams(d=2, gamma=0.0)
        vals = np.zeros((16, 16))
        i0 = (4, 8)
        vals[i0] = 1.0 / g.cell_volume
        f = VelocityGridFunction(g, vals)
        w0 = np.array([g.axis()[i0[0]], g.axis()[i0[1]]])
        axis = g.axis()
        v_eval = np.array([axis[10], axis[8]])  # offset along e1 only
        a = landau_a_field(f, p)[10, 8]
        w = v_eval - w0
        expected = (np.eye(2) - np.outer(w, w) / np.dot(w, w)) * np.dot(w, w)
        assert np.allclose(a, expected, atol=1e-12)
        # projection kills the radial direction
        assert a[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert a[1, 1] == pytest.approx(np.dot(w, w), rel=1e-12)

    def test_radial_symmetry_at_origin(self):
        # direct-summation oracle at v = 0: off-diagonals cancel by parity
        g = VelocityGrid(v_max=4.0, n=24, d=2)
        p = LandauParams(d=2, gamma=0.0)
        f = maxwellian(g)
        pts = g.points()
        w = -pts
        sq = np.einsum("ij,ij->i", w, w)
        safe = np.where(sq > 0, sq, 1.0)
        proj = np.eye(2) - w[:, :, None] * w[:, None, :] / safe[:, None, None]
        radial = np.where(sq > 0, safe ** ((p.gamma + 2) / 2), 0.0)
        a0 = np.einsum("i,ijk->jk", f.values.ravel() * radial, proj) * g.cell_volume
        assert abs(a0[0, 1]) < 1e-10
        assert a0[0, 0] == pytest.approx(a0[1, 1], rel=1e-10)

    def test_drift_parity_at_origin(self):
        g = VelocityGrid(v_max=4.0, n=24, d=1)
        p = LandauParams(d=1, gamma=-0.5)
        f = maxwellian(g)
        pts = g.points()
        w = -pts
        norm = np.abs(w[:, 0])
        radial = np.where(norm > 0, norm**p.gamma, 0.0)
        b0 = np.sum(f.values.ravel() * radial * w[:, 0]) * g.cell_volume
        assert abs(b0) < 1e-10


class TestCoefficientFields:
    def test_zero_density_gives_zero(self):
        g = VelocityGrid(v_max=2.0, n=8, d=2)
        p = LandauParams(d=2, gamma=0.0)
        f = zero_function(g)
        assert np.all(landau_a_field(f, p) == 0.0)
        assert np.all(landau_b_field(f, p) == 0.0)
        assert np.all(landau_c_field(f, p) == 0.0)

    def test_fft_matches_direct(self):
        g = VelocityGrid(v_max=4.0, n=20, d=2)
        p = LandauParams(d=2, gamma=-1.0)
        f = maxwellian(g)
        for fn, kernel, const in reference_sums(p):
            fast = fn(f, p)
            slow = const * convolve_direct(f, kernel(g, p))
            scale = np.max(np.abs(slow))
            assert np.max(np.abs(fast - slow)) <= 1e-10 * scale

    @pytest.mark.parametrize("kernel, gamma", [
        (kernel, gamma) for kernel in (kernel_a, kernel_b, kernel_c) for gamma in (-3.0, -1.3, 0.5)
        if not (kernel is kernel_c and gamma == -3.0)  # c is pointwise at gamma = -d
    ])
    @pytest.mark.filterwarnings("ignore:hard potentials:UserWarning")
    def test_fft_equals_per_component_fftconvolve(self, kernel, gamma):
        # oracle: one scipy.signal.fftconvolve(..., "valid") per kernel component
        g = VelocityGrid(v_max=4.0, n=16, d=3)
        rng = np.random.default_rng(5)
        f = VelocityGridFunction(g, rng.uniform(size=(16,) * 3))
        ker = kernel(g, LandauParams(d=3, gamma=gamma))
        comp_shape = ker.shape[3:]
        slow = np.empty(f.values.shape + comp_shape)
        for comp in itertools.product(*[range(s) for s in comp_shape]):
            slow[(...,) + comp] = fftconvolve(f.values, ker[(...,) + comp], mode="valid")
        assert np.array_equal(convolve_fft(f, ker), slow * g.cell_volume)

    def test_fft_matches_direct_wide_1d(self):
        g = VelocityGrid(v_max=6.0, n=64, d=1)
        p = LandauParams(d=1, gamma=-0.5)
        rng = np.random.default_rng(3)
        f = VelocityGridFunction(g, rng.uniform(size=64))
        for fn, kernel, const in reference_sums(p):
            fast = fn(f, p)
            slow = const * convolve_direct(f, kernel(g, p))
            assert np.max(np.abs(fast - slow)) <= 1e-10 * np.max(np.abs(slow))

    def test_positive_semidefinite(self):
        g = VelocityGrid(v_max=4.0, n=16, d=2)
        p = LandauParams(d=2, gamma=-1.5)
        rng = np.random.default_rng(0)
        f = VelocityGridFunction(g, rng.uniform(size=(16, 16)))
        eigs = np.linalg.eigvalsh(landau_a_field(f, p).reshape(-1, 2, 2))
        assert eigs.min() >= -1e-10

    def test_linearity(self):
        g = VelocityGrid(v_max=3.0, n=12, d=2)
        p = LandauParams(d=2, gamma=-0.5)
        rng = np.random.default_rng(1)
        fa = VelocityGridFunction(g, rng.uniform(size=(12, 12)))
        fb = VelocityGridFunction(g, rng.uniform(size=(12, 12)))
        fab = VelocityGridFunction(g, fa.values + fb.values)
        for fn in (landau_a_field, landau_b_field, landau_c_field):
            combined = fn(fab, p)
            split = fn(fa, p) + fn(fb, p)
            assert np.max(np.abs(combined - split)) <= 1e-12 * max(1.0, np.max(np.abs(split)))

    def test_translation_covariance_periodic(self):
        # A vanishes in d = 1 and c is the total mass at gamma = 0; B carries the check
        g = VelocityGrid(v_max=3.0, n=16, d=1)
        p = LandauParams(d=1, gamma=0.0)
        rng = np.random.default_rng(2)
        vals = rng.uniform(size=16)
        for kernel in (kernel_a, kernel_b, kernel_c):

            def periodic_conv(values):
                f = VelocityGridFunction(g, values)
                wide, ker = oracle.periodic_extension(f, kernel(g, p))
                return oracle.middle_tile(convolve_fft(wide, ker), g.n, g.d)

            out = periodic_conv(vals)
            out_shift = periodic_conv(np.roll(vals, 1))
            assert np.allclose(np.roll(out, 1, axis=0), out_shift, atol=1e-12)

    def test_coulomb_case_is_pointwise(self):
        g = VelocityGrid(v_max=3.0, n=16, d=2)
        p = LandauParams(d=2, gamma=-2.0, c_const=1.7)
        f = maxwellian(g)
        c = landau_c_field(f, p)
        assert np.array_equal(c, 1.7 * f.values)
        assert c[3, 5] == 1.7 * f.values[3, 5]

    def test_constant_kernel_sums_mass(self):
        # gamma = 0 in d = 1: kernel is 1 everywhere so c(v) = total mass
        g = VelocityGrid(v_max=3.0, n=64, d=1)
        p = LandauParams(d=1, gamma=0.0)
        vals = ((g.axis() >= 0.0) & (g.axis() <= 1.0)).astype(float)
        f = VelocityGridFunction(g, vals)
        mass = vals.sum() * g.h
        c = landau_c_field(f, p)
        assert np.allclose(c, mass, atol=g.h)

    def test_singular_cell_average_d1(self):
        # d = 1 cell average of |w|^gamma over [-h/2, h/2] is analytic
        g = VelocityGrid(v_max=2.0, n=16, d=1)
        p = LandauParams(d=1, gamma=-0.5)
        k = kernel_c(g, p)
        center = k[g.n - 1]
        h = g.h
        exact = 2.0 * (h / 2.0) ** (p.gamma + 1.0) / (p.gamma + 1.0) / h
        assert center == pytest.approx(exact, rel=1e-12)

    def test_hard_potential_warns(self):
        with pytest.warns(UserWarning) as record:
            LandauParams(d=3, gamma=0.5)
        assert record[0].filename == __file__


ORACLE_SIZES = {1: (17, 32), 2: (9, 16), 3: (5, 8)}
ORACLE_CASES = [
    (d, n, kernel, gamma)
    for d, sizes in ORACLE_SIZES.items()
    for n in sizes
    for kernel in (kernel_a, kernel_b, kernel_c)
    for gamma in sorted({-float(d), -2.0, -1.3, 0.0, 0.5})
    if gamma >= -d and not (kernel is kernel_c and gamma == -d)  # c is pointwise at gamma = -d
]


def random_density(d, n, seed=7):
    g = VelocityGrid(v_max=4.0, n=n, d=d)
    return VelocityGridFunction(g, np.random.default_rng(seed).uniform(size=(n,) * d))


@pytest.mark.filterwarnings("ignore:hard potentials:UserWarning")
class TestAgainstOracle:
    """The fast convolution and A field reproduce ``landau_oracle`` bit for bit."""

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("d, n, kernel, gamma", ORACLE_CASES)
    def test_convolve_fft(self, d, n, kernel, gamma, periodic):
        # periodic: the one zero-padded path, run on the periodic extension,
        # gives the image sum over the torus, up to rounding on the sum of |terms|
        f = random_density(d, n)
        ker = kernel(f.grid, LandauParams(d=d, gamma=gamma))
        if periodic:
            torus = oracle.convolve_periodic(f, ker)
            scale = np.max(oracle.convolve_periodic(f, np.abs(ker)))
            f, ker = oracle.periodic_extension(f, ker)
        out = convolve_fft(f, ker)
        assert np.array_equal(out, oracle.convolve_fft(f, ker))
        if periodic:
            tile = oracle.middle_tile(out, n, d)
            assert np.max(np.abs(tile - torus)) <= 1e-12 * scale

    @pytest.mark.parametrize("d, gamma", [(1, -1.0), (2, -1.3), (3, -3.0), (3, 0.5)])
    def test_kernel_a(self, d, gamma):
        g = VelocityGrid(v_max=4.0, n=6, d=d)
        p = LandauParams(d=d, gamma=gamma)
        assert np.array_equal(kernel_a(g, p), oracle.kernel_a(g, p))

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("method", ["fft", "direct"])
    @pytest.mark.parametrize("d, n, gamma", [(1, 17, -0.5), (2, 8, -2.0), (3, 5, -1.3)])
    def test_a_field_is_exactly_symmetric(self, d, n, gamma, method, periodic):
        # landau_a_field is the fft path on f; the others are its reference sum
        # and both paths on the periodic extension of f
        f = random_density(d, n)
        p = LandauParams(d=d, gamma=gamma, a_const=1.7)
        if method == "fft" and not periodic:
            a = landau_a_field(f, p)
        else:
            conv = convolve_fft if method == "fft" else convolve_direct
            g, ker = f, kernel_a(f.grid, p)
            if periodic:
                g, ker = oracle.periodic_extension(f, ker)
            a = p.a_const * conv(g, ker)
        assert np.array_equal(a, np.swapaxes(a, -1, -2))
        assert np.array_equal(a, oracle.landau_a_field(f, p, method=method, periodic=periodic))

    @pytest.mark.parametrize("d, n, gamma", [(1, 32, -1.0), (2, 16, -1.3), (3, 8, -3.0),
                                             (3, 8, -2.0), (3, 9, 0.0)])
    def test_bounds_report(self, monkeypatch, d, n, gamma):
        f = maxwellian(VelocityGrid(v_max=5.0, n=n, d=d))
        p = LandauParams(d=d, gamma=gamma)
        bounds = MomentBounds(m1=0.5, m0=2.0, e0=2.0, h0=0.0)
        fast = check_coefficient_bounds(f, p, bounds)
        monkeypatch.setattr(landau, "convolve_fft", oracle.convolve_fft)
        monkeypatch.setattr(landau, "landau_a_field", oracle.landau_a_field)
        assert fast == check_coefficient_bounds(f, p, bounds)


class TestBoundsChecks:
    def test_maxwellian_det_lower_bound(self):
        g = VelocityGrid(v_max=5.0, n=24, d=2)
        p = LandauParams(d=2, gamma=0.0)
        f = maxwellian(g)
        bounds = MomentBounds(m1=0.5, m0=2.0, e0=2.0, h0=0.0)
        rep = check_coefficient_bounds(f, p, bounds)
        assert isinstance(rep, BoundsReport)
        assert rep.kappa == 2.0  # (d-1)(gamma+2) + gamma at gamma = 0, d = 2
        assert rep.det_ratio_min > 0.0
        assert rep.verdict == "ok"

    def test_moment_window_enforced(self):
        g = VelocityGrid(v_max=5.0, n=16, d=2)
        p = LandauParams(d=2, gamma=0.0)
        f = maxwellian(g)
        tight = MomentBounds(m1=2.0, m0=3.0, e0=2.0, h0=0.0)
        with pytest.raises(ValueError):
            check_coefficient_bounds(f, p, tight)

    def test_moment_bounds_validation(self):
        with pytest.raises(ValueError):
            MomentBounds(m1=0.0, m0=1.0, e0=1.0, h0=0.0)
        with pytest.raises(ValueError):
            MomentBounds(m1=2.0, m0=1.0, e0=1.0, h0=0.0)
