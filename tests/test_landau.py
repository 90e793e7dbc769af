import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy import fft as sp_fft
from scipy.signal import fftconvolve

import landau_oracle as oracle
from conftest import traced_peak
from kfplab import landau
from kfplab.landau import (
    BoundsReport,
    LandauParams,
    MomentBounds,
    VelocityGrid,
    VelocityGridFunction,
    check_coefficient_bounds,
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


def abs_scale(f, kernel):
    """Per-component maximum of the convolution of |f| with |kernel|.

    FFT rounding is relative to it, so the tests state their tolerances in it.
    """
    g = VelocityGridFunction(f.grid, np.abs(f.values))
    return np.max(oracle.convolve_fft(g, np.abs(kernel)), axis=tuple(range(f.grid.d)))


def circular_length(n):
    """The per-axis transform length of ``convolve_fft`` and the fields: the
    least even 5-smooth length >= 2n - 1."""
    def smooth(size):
        for prime in (2, 3, 5):
            while size % prime == 0:
                size //= prime
        return size == 1

    return next(size for size in itertools.count(2 * n - 1) if size % 2 == 0 and smooth(size))


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


class TestDensitySpectrum:
    def test_values_are_read_only(self):
        f = maxwellian(VelocityGrid(v_max=4.0, n=8, d=2))
        assert not f.values.flags.writeable
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0

    def test_source_array_is_copied(self):
        g = VelocityGrid(v_max=4.0, n=8, d=2)
        source = np.random.default_rng(4).uniform(size=(8, 8))
        kept = source.copy()
        f = VelocityGridFunction(g, source)
        source *= 2.0
        spectrum = sp_fft.rfftn(kept, [circular_length(g.n)] * g.d)
        assert np.array_equal(f.values, kept)
        assert np.array_equal(f.spectrum, spectrum)
        source += 1.0
        assert np.array_equal(f.values, kept)
        assert np.array_equal(f.spectrum, spectrum)

    def test_one_transform_per_density(self, monkeypatch):
        # the spectrum belongs to the density, so two checks at different
        # gamma share it; kernel components go through rfft, not rfftn
        calls = []

        def rfftn(*args, **kwargs):
            calls.append(args[0].shape)
            return full_rfftn(*args, **kwargs)

        full_rfftn = sp_fft.rfftn
        monkeypatch.setattr(sp_fft, "rfftn", rfftn)
        f = maxwellian(VelocityGrid(v_max=5.0, n=8, d=3))
        bounds = MomentBounds(m1=0.5, m0=2.0, e0=2.0, h0=0.0)
        for gamma in (-3.0, -1.3):
            check_coefficient_bounds(f, LandauParams(d=3, gamma=gamma), bounds)
        assert calls == [(8, 8, 8)]


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
            slow = const * oracle.convolve_direct(f, kernel(g, p))
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
        err = np.abs(convolve_fft(f, ker) - slow * g.cell_volume)
        assert np.all(err <= 1e-14 * abs_scale(f, ker))

    def test_fft_matches_direct_wide_1d(self):
        g = VelocityGrid(v_max=6.0, n=64, d=1)
        p = LandauParams(d=1, gamma=-0.5)
        rng = np.random.default_rng(3)
        f = VelocityGridFunction(g, rng.uniform(size=64))
        for fn, kernel, const in reference_sums(p):
            fast = fn(f, p)
            slow = const * oracle.convolve_direct(f, kernel(g, p))
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

    @pytest.mark.parametrize("d", [2, 3])
    def test_underflowing_cell_volume_is_a_value_error(self, d):
        # h = 5e-301 is a valid spacing, but h^d is 0.0 for d >= 2
        g = VelocityGrid(v_max=1e-300, n=4, d=d)
        with pytest.raises(ValueError, match=r"VelocityGrid\(v_max=1e-300, n=4, d=%d\)" % d):
            kernel_c(g, LandauParams(d=d, gamma=-1.3))

    @pytest.mark.filterwarnings("ignore:hard potentials:UserWarning")
    def test_overflowing_singular_cell_is_a_value_error(self):
        # h = 1e150 gives a finite h^2, but r_eq^(gamma + d) overflows
        g = VelocityGrid(v_max=1e150, n=2, d=2)
        with pytest.raises(ValueError, match=r"VelocityGrid\(v_max=1e\+150, n=2, d=2\).*overflows"):
            kernel_c(g, LandauParams(d=2, gamma=0.5))

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


KERNEL_CASES = [
    (d, n, gamma)
    for d in (1, 2, 3)
    for n in (2, 3, 8, 9)
    for gamma in sorted({-float(d), -2.0, -1.3, 0.0, 0.5})
    if gamma >= -d
]


def random_density(d, n, seed=7):
    g = VelocityGrid(v_max=4.0, n=n, d=d)
    return VelocityGridFunction(g, np.random.default_rng(seed).uniform(size=(n,) * d))


@pytest.mark.filterwarnings("ignore:hard potentials:UserWarning")
class TestAgainstOracle:
    """The fast convolution and A field against ``landau_oracle``: bit for bit
    at the program's own transform length, to rounding at the 3n - 2 length
    that ``fftconvolve`` uses.  The mirrored kernels byte for byte against
    the full-lattice ones."""

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
        assert np.array_equal(out, oracle.convolve_fft(f, ker, circular_length(f.grid.n)))
        assert np.all(np.abs(out - oracle.convolve_fft(f, ker)) <= 1e-14 * abs_scale(f, ker))
        if periodic:
            tile = oracle.middle_tile(out, n, d)
            assert np.max(np.abs(tile - torus)) <= 1e-12 * scale

    @pytest.mark.parametrize("kernel", ["kernel_c", "random"])
    @pytest.mark.parametrize("d, n", [(1, 5), (1, 8), (1, 15), (1, 16), (3, 5)])
    def test_circular_length_on_the_aliasing_bound(self, d, n, kernel):
        # at L = 2n, the tightest even length, the last linear output, 3n - 3,
        # folds onto n - 3, just below the valid rows; one even length
        # shorter and it lands on row n - 1.  Kernel and density are nonzero
        # everywhere, so that would show.  kernel_c at gamma = 0 is 1 at
        # every offset, and c's field convolves it the symmetric way; the
        # random kernel also breaks the w -> -w symmetry, under which
        # dropping the last offset and wrapping the last valid row onto row 0
        # would go unseen
        assert circular_length(n) == 2 * n
        g = VelocityGrid(v_max=4.0, n=n, d=d)
        rng = np.random.default_rng(11)
        f = VelocityGridFunction(g, rng.uniform(0.5, 1.5, size=(n,) * d))
        if kernel == "kernel_c":
            ker = kernel_c(g, LandauParams(d=d, gamma=0.0))
        else:
            ker = rng.uniform(0.5, 1.5, size=(2 * n - 1,) * d)
        assert np.all(ker != 0.0)
        slow = oracle.convolve_direct(f, ker)
        assert np.max(np.abs(convolve_fft(f, ker) - slow)) <= 1e-12 * np.max(slow)
        if kernel == "kernel_c":
            field = landau_c_field(f, LandauParams(d=d, gamma=0.0))
            assert np.max(np.abs(field - slow)) <= 1e-12 * np.max(slow)

    @pytest.mark.parametrize("d, gamma", [(1, -1.0), (2, -1.3), (3, -3.0), (3, 0.5)])
    def test_kernel_a(self, d, gamma):
        g = VelocityGrid(v_max=4.0, n=6, d=d)
        p = LandauParams(d=d, gamma=gamma)
        assert np.array_equal(kernel_a(g, p), oracle.kernel_a(g, p))

    @pytest.mark.parametrize("v_max", [4.0, 1e-300])
    @pytest.mark.parametrize("fast, slow", [
        (lambda g, p: landau._a_kernel(g, p, landau._lattice(g)), oracle.kernel_a_upper),
        (kernel_b, oracle.kernel_b), (kernel_c, oracle.kernel_c)], ids=["a_upper", "b", "c"])
    @pytest.mark.parametrize("d, n, gamma", KERNEL_CASES)
    def test_kernel_bytes(self, d, n, gamma, fast, slow, v_max):
        # the kernels on the whole lattice give every bit of the oracle's
        # formula, signed zeros included, which np.array_equal would not see.
        # At h ~ 1e-300 |w|^2 underflows to 0 and the products with it are
        # signed zeros; there c's cell average rejects h^d = 0 for d > 1
        g = VelocityGrid(v_max=v_max, n=n, d=d)
        p = LandauParams(d=d, gamma=gamma)
        try:
            want = slow(g, p)
        except ValueError as exc:
            with pytest.raises(type(exc)):
                fast(g, p)
            return
        got = fast(g, p)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("v_max", [4.0, 1e-300])
    @pytest.mark.parametrize("fast, slow", [
        (landau._a_kernel, oracle.kernel_a_upper), (landau._b_kernel, oracle.kernel_b),
        (landau._c_kernel, oracle.kernel_c)], ids=["a_upper", "b", "c"])
    @pytest.mark.parametrize("d, n, gamma", KERNEL_CASES)
    def test_orthant_bytes(self, d, n, gamma, fast, slow, v_max):
        # the fields' kernels at k = 0 ... n-1 are the full-lattice formula's
        # block k >= 0 bit for bit, signed zeros included
        g = VelocityGrid(v_max=v_max, n=n, d=d)
        p = LandauParams(d=d, gamma=gamma)
        try:
            want = slow(g, p)[(slice(n - 1, None),) * d]
        except ValueError as exc:
            with pytest.raises(type(exc)):
                fast(g, p, np.arange(n))
            return
        got = fast(g, p, np.arange(n))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("method", ["fft", "direct"])
    @pytest.mark.parametrize("d, n, gamma", [(1, 17, -0.5), (2, 8, -2.0), (3, 5, -1.3)])
    def test_a_field_is_exactly_symmetric(self, d, n, gamma, method, periodic):
        # landau_a_field is the fft path on f; the others are its reference sum
        # and both paths on the periodic extension of f
        f = random_density(d, n)
        p = LandauParams(d=d, gamma=gamma, a_const=1.7)
        g, ker = f, kernel_a(f.grid, p)
        if periodic:
            g, ker = oracle.periodic_extension(f, ker)
        if method == "fft" and not periodic:
            a = landau_a_field(f, p)
        else:
            conv = convolve_fft if method == "fft" else oracle.convolve_direct
            a = p.a_const * conv(g, ker)
        assert np.array_equal(a, np.swapaxes(a, -1, -2))
        want = oracle.landau_a_field(f, p, method=method, periodic=periodic)
        assert np.all(np.abs(a - want) <= 1e-14 * p.a_const * abs_scale(g, ker))

    @pytest.mark.parametrize("d, n, gamma", [(1, 32, -1.0), (2, 16, -1.3), (3, 8, -3.0),
                                             (3, 8, -2.0), (3, 9, 0.0)])
    def test_bounds_report(self, monkeypatch, d, n, gamma):
        # the Maxwellian's det ratio ties exactly at mirror-image points, so
        # the argmin may move among them: it is checked by the oracle's ratio
        # there, not by its coordinates
        f = maxwellian(VelocityGrid(v_max=5.0, n=n, d=d))
        p = LandauParams(d=d, gamma=gamma)
        bounds = MomentBounds(m1=0.5, m0=2.0, e0=2.0, h0=0.0)
        fast = check_coefficient_bounds(f, p, bounds)
        monkeypatch.setattr(landau, "_symmetric_convolution", oracle.symmetric_convolution)
        monkeypatch.setattr(landau, "landau_a_field", oracle.landau_a_field)
        monkeypatch.setattr(landau, "_eigen_extremes", oracle.eigen_extremes)
        slow = check_coefficient_bounds(f, p, bounds)
        assert (fast.kappa, fast.moments, fast.verdict) == (slow.kappa, slow.moments, slow.verdict)
        for name in ("det_ratio_min", "a_norm_ratio_max", "b_norm_ratio_max", "c_ratio_max"):
            assert getattr(fast, name) == pytest.approx(getattr(slow, name), rel=1e-12, abs=0.0)
        pts = f.grid.points()
        det = np.prod(np.linalg.eigvalsh(oracle.landau_a_field(f, p).reshape(-1, d, d)), axis=-1)
        ratio = det / (1.0 + np.linalg.norm(pts, axis=-1)) ** slow.kappa
        at_fast = ratio[np.all(pts == fast.det_ratio_argmin, axis=-1)]
        assert at_fast == pytest.approx([slow.det_ratio_min], rel=1e-12, abs=0.0)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("a_const", [1.0, 1e-88, 1e88, 1e-100, 1e100])
    @pytest.mark.parametrize("density", ["maxwellian", "random"])
    @pytest.mark.parametrize("d, n, gamma", [(1, 16, -0.5), (2, 8, -1.3), (3, 8, -3.0),
                                             (3, 9, -2.0), (3, 8, -1.3), (3, 9, 0.0),
                                             (4, 3, -2.5)])
    def test_bounds_report_bytes(self, monkeypatch, d, n, gamma, density, a_const):
        # eigvalsh on the candidates only gives every bit of the full-grid
        # check.  ||A||_F^3 overflows at a_const = 1e100 and underflows at
        # 1e-100, so every point is a candidate; at 1e+-88 the margins hold.
        # Where det A itself leaves the float range, at d = 4 off a_const = 1
        # and for the d = 3 random density at gamma = 0 and 1e100, both
        # checks reject the density with the same message
        if density == "maxwellian":
            f = maxwellian(VelocityGrid(v_max=5.0, n=n, d=d))
        else:
            f = random_density(d, n)
        p = LandauParams(d=d, gamma=gamma, a_const=a_const)
        bounds = MomentBounds(m1=1e-3, m0=1e6, e0=1e9, h0=1e9)

        def outcome():
            try:
                return json.dumps(check_coefficient_bounds(f, p, bounds).to_dict())
            except ValueError as exc:
                return str(exc)

        fast = outcome()
        monkeypatch.setattr(landau, "_eigen_extremes", oracle.eigen_extremes)
        assert outcome() == fast
        out_of_range = (d == 4 and a_const != 1.0) or (density, gamma, a_const) == ("random", 0.0, 1e100)
        assert (f"at a_const = {a_const!r}" in fast) == out_of_range


def spd_stack(rng, size, eigs=(0.5, 2.0)):
    """Random symmetric 3x3 matrices Q diag(e) Q^T with e drawn from ``eigs``."""
    q, _ = np.linalg.qr(rng.normal(size=(size, 3, 3)))
    e = rng.uniform(*eigs, size=(size, 3))
    return np.einsum("nij,nj,nkj->nik", q, e, q)


def adversarial_stack(case, rng):
    """A stack of symmetric 3x3 matrices on which the candidate rule of
    ``landau._eigen_extremes`` could go wrong."""
    base = spd_stack(rng, 64)
    if case == "mirror_ties":
        # exact copies and their images under axis flips, which LAPACK may
        # round differently, at the lowest determinant and the largest |eig|
        low, high = spd_stack(rng, 1, (0.1, 0.2))[0], spd_stack(rng, 1, (3.0, 4.0))[0]
        flips = [np.diag(s) for s in itertools.product((1.0, -1.0), repeat=3)]
        for k, flip in enumerate(flips):
            base[3 + 5 * k] = flip @ low @ flip
            base[5 + 5 * k] = flip @ high @ flip
        base[50], base[60] = low, high
        return base
    if case == "isotropic":
        base[::4] = np.eye(3) * rng.uniform(0.5, 2.0, size=(16, 1, 1))
        base[7], base[9] = 3.0 * np.eye(3), 0.1 * np.eye(3)
        return base
    if case == "near_double":
        # c I + 1e-8 S, so p / ||A|| ~ 1e-8 and arccos loses sqrt(eps)
        sym = rng.normal(size=(64, 3, 3))
        sym = (sym + np.swapaxes(sym, 1, 2)) / 2.0
        c = 1.0 + 1e-9 * rng.integers(0, 4, size=(64, 1, 1))
        return c * np.eye(3) + 1e-8 * sym / np.linalg.norm(sym, axis=(1, 2))[:, None, None]
    if case == "zeros":
        base[::3] = 0.0
        return base
    if case == "all_zero":
        return np.zeros((8, 3, 3))
    if case == "indefinite":
        # |lambda_min| > lambda_max, and negative determinants
        return spd_stack(rng, 64, (-5.0, 2.0))
    # ||A||_F^3 overflows or underflows; at 1e300 ||A||_F itself and det overflow
    scale = {"huge": 1e100, "tiny": 1e-100, "overflow": 1e300}[case]
    return scale * base


ADVERSARIAL = ["mirror_ties", "isotropic", "near_double", "zeros", "all_zero", "indefinite",
               "huge", "tiny", "overflow"]


class TestEigenCandidates:
    """``landau._eigen_extremes`` runs eigvalsh only on candidate points; its
    result must be the full-stack one bit for bit, ties and signs included."""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("scales", ["ones", "random"])
    @pytest.mark.parametrize("case", ADVERSARIAL)
    def test_adversarial_stack(self, case, scales):
        rng = np.random.default_rng(ADVERSARIAL.index(case))
        a = adversarial_stack(case, rng)
        if scales == "ones":
            det_scale = top_scale = np.ones(len(a))
        else:
            det_scale, top_scale = rng.uniform(0.5, 2.0, size=(2, len(a)))
        fast = landau._eigen_extremes(a, det_scale, top_scale)
        assert repr(fast) == repr(oracle.eigen_extremes(a, det_scale, top_scale))

    @pytest.mark.parametrize("case", ["isotropic", "zeros", "huge", "tiny"])
    def test_unusable_estimates_are_candidates(self, case):
        # p = 0 makes the closed form NaN, and ||A||_F outside the trusted
        # range makes the margins infinite: such points always go to eigvalsh
        a = adversarial_stack(case, np.random.default_rng(1))
        ones = np.ones(len(a))
        idx = set(landau._eigen_candidates(a, ones, ones).tolist())
        fro = np.linalg.norm(a, axis=(1, 2))
        p = np.linalg.norm(a - np.trace(a, axis1=1, axis2=2)[:, None, None] / 3 * np.eye(3),
                           axis=(1, 2))
        lo, hi = landau._TRUSTED_NORM
        unusable = np.flatnonzero((p == 0.0) | (fro < lo) | (fro > hi))
        assert len(unusable) > 0
        assert set(unusable.tolist()) <= idx

    def test_non_finite_intervals_are_kept(self):
        lo = np.array([np.nan, 1.0, -np.inf, 3.0])
        hi = np.array([np.nan, 2.0, np.inf, 4.0])
        ones = np.ones(4)
        assert landau._reaches_extremum(lo, hi, ones, lowest=True).tolist() == [
            True, True, True, False]
        assert landau._reaches_extremum(lo, hi, ones, lowest=False).tolist() == [
            True, False, True, True]

    def test_other_dimensions_keep_every_point(self):
        a = np.tile(np.eye(2), (10, 1, 1))
        assert np.array_equal(landau._eigen_candidates(a, np.ones(10), np.ones(10)),
                              np.arange(10))

    @pytest.mark.parametrize("gamma", [-3.0, -2.3, -2.1, -2.0, -1.3, -0.5, 0.0])
    def test_few_candidates_on_the_maxwellian(self, monkeypatch, gamma):
        # the landau-coulomb bench input: d = 3, n = 32, v_max = 6.  For
        # gamma in (-2.5, -2) max |eig| peaks on a shell of near-equal points;
        # 56 and 440 are kept at -2.3 and -2.1, and the bounds allow twice that
        limit = {-2.3: 112, -2.1: 880}.get(gamma, 200)
        sizes = []

        def eigvalsh(a):
            sizes.append(len(a))
            return full_eigvalsh(a)

        full_eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        f = maxwellian(VelocityGrid(v_max=6.0, n=32, d=3))
        bounds = MomentBounds(m1=0.5, m0=2.0, e0=2.0, h0=0.0)
        check_coefficient_bounds(f, LandauParams(d=3, gamma=gamma), bounds)
        assert len(sizes) == 1 and 0 < sizes[0] <= limit


# BoundsReport.to_dict() of Maxwellians, rewritten when the fields moved from
# full-lattice FFTs to the kernels' type-I DCTs and DSTs
LANDAU_GOLDEN = json.loads((Path(__file__).parent / "data" / "landau_golden.json").read_text())


@pytest.mark.parametrize("case", LANDAU_GOLDEN["bounds_reports"],
                         ids=lambda c: "d{d}-n{n}-gamma{gamma}".format(**c["args"]))
def test_bounds_report_matches_golden(case):
    args = case["args"]
    f = maxwellian(VelocityGrid(v_max=args["v_max"], n=args["n"], d=args["d"]))
    report = check_coefficient_bounds(f, LandauParams(d=args["d"], gamma=args["gamma"]),
                                      MomentBounds(**args["bounds"]))
    assert json.dumps(report.to_dict()) == json.dumps(case["report"])


@pytest.mark.parametrize("gamma", [-3.0, -1.3])
def test_bounds_check_peak_memory(gamma):
    # the fields transform only their kernels' orthants, so no full-lattice
    # kernel is ever held; the peak measured at d = 3, n = 32 was 13.2 MB,
    # and the limit is that plus 25 %
    g = VelocityGrid(v_max=6.0, n=32, d=3)
    p = LandauParams(d=3, gamma=gamma)
    f = maxwellian(g)
    bounds = MomentBounds(m1=0.5, m0=2.0, e0=2.0, h0=0.0)
    _, peak = traced_peak(check_coefficient_bounds, f, p, bounds)
    assert peak <= 1.25 * 13.2e6


def lattice_fields(f, p):
    """A, B and c through ``convolve_fft`` and the full-lattice kernels."""
    upper = landau._a_kernel(f.grid, p, landau._lattice(f.grid))
    a = landau._from_upper(p.a_const * convolve_fft(f, upper), p.d)
    b = p.b_const * convolve_fft(f, kernel_b(f.grid, p))
    c = p.c_const * (f.values if p.gamma == -p.d else convolve_fft(f, kernel_c(f.grid, p)))
    return a, b, c


FIELD_CASES = [
    (d, n, float(gamma), density)
    for d, sizes in {1: (7, 8, 13, 32), 2: (5, 8, 9, 16), 3: (5, 8, 9)}.items()
    for n in sizes
    for gamma in np.linspace(-d, 0.0, 5)
    for density in ("maxwellian", "random")
]


class TestSymmetricConvolution:
    """The fields transform only their kernels' orthants, by type-I DCTs and
    DSTs; ``convolve_fft`` on the full-lattice kernels is their oracle."""

    def check_fields(self, f, p):
        fast = (landau_a_field(f, p), landau_b_field(f, p), landau_c_field(f, p))
        for got, want in zip(fast, lattice_fields(f, p)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 4e-15 * np.max(np.abs(want))
        assert np.array_equal(fast[0], np.swapaxes(fast[0], -1, -2))

    @pytest.mark.parametrize("case", LANDAU_GOLDEN["bounds_reports"],
                             ids=lambda c: "d{d}-n{n}-gamma{gamma}".format(**c["args"]))
    def test_golden_inputs(self, case):
        args = case["args"]
        f = maxwellian(VelocityGrid(v_max=args["v_max"], n=args["n"], d=args["d"]))
        self.check_fields(f, LandauParams(d=args["d"], gamma=args["gamma"]))

    @pytest.mark.parametrize("d, n, gamma, density", FIELD_CASES)
    def test_against_convolve_fft(self, d, n, gamma, density):
        if density == "maxwellian":
            f = maxwellian(VelocityGrid(v_max=5.0, n=n, d=d))
        else:
            f = random_density(d, n)
        self.check_fields(f, LandauParams(d=d, gamma=gamma, a_const=1.7, b_const=0.6, c_const=2.3))

    def test_no_full_lattice_kernel(self, monkeypatch):
        # the fields and the bound check never mirror a kernel or convolve one
        def forbidden(*args, **kwargs):
            raise AssertionError("full-lattice kernel on the field path")

        monkeypatch.setattr(landau, "_lattice", forbidden)
        monkeypatch.setattr(landau, "convolve_fft", forbidden)
        f = random_density(3, 6)
        for gamma in (-3.0, -1.3, 0.0):
            p = LandauParams(d=3, gamma=gamma)
            for field in (landau_a_field, landau_b_field, landau_c_field):
                field(f, p)
            check_coefficient_bounds(f, p, MomentBounds(m1=1e-3, m0=1e6, e0=1e9, h0=1e9))
        with pytest.raises(AssertionError, match="full-lattice"):
            kernel_c(f.grid, LandauParams(d=3, gamma=-1.3))


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

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("a_const, message", [(1e105, "overflows to inf"),
                                                  (1e-110, "underflows to 0.0")])
    def test_det_ratio_outside_float_range_is_rejected(self, a_const, message):
        # the parent reported inf with verdict ok, and 0.0 with verdict degenerate
        f = maxwellian(VelocityGrid(v_max=5.0, n=8, d=3))
        bounds = MomentBounds(m1=1e-3, m0=1e6, e0=1e9, h0=1e9)
        for scale in (1e-100, 1.0, 1e100):
            p = LandauParams(d=3, gamma=-1.3, a_const=scale)
            assert check_coefficient_bounds(f, p, bounds).verdict == "ok"
        p = LandauParams(d=3, gamma=-1.3, a_const=a_const)
        with pytest.raises(ValueError, match=re.escape(f"{message} at a_const = {a_const!r}")):
            check_coefficient_bounds(f, p, bounds)

    def test_b_norm_beyond_the_square_range_is_finite(self):
        # |B|^2 overflows past |B| ~ 1e154; the parent reported b_norm_ratio_max inf
        f = maxwellian(VelocityGrid(v_max=6.0, n=8, d=2))
        bounds = MomentBounds(m1=0.5, m0=2.0, e0=2.0, h0=0.0)
        unit, huge = (check_coefficient_bounds(f, LandauParams(d=2, gamma=-1.3, b_const=b), bounds)
                      for b in (1.0, 1e300))
        assert math.isfinite(huge.b_norm_ratio_max) and huge.verdict == "ok"
        assert huge.b_norm_ratio_max == pytest.approx(1e300 * unit.b_norm_ratio_max, rel=1e-12)

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
