import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

from kfplab import geometry
from kfplab.geometry import (
    Cylinder,
    CylinderShape,
    GalileanTransform,
    KineticPoint,
    Paraboloid,
    covering_threshold,
    group_product,
    group_quotient,
    halton,
    iterated_radius,
    iterated_times,
    scale_point,
    unit_ball_volume,
    vector_norm,
    verify_covering,
)

coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)

# Covering reports and `kfplab geometry` reports written by kfplab at commit
# 5bc6bae, where verify_covering and the CLI still spelled out the group law
# inline and the CLI checked it point by point.
GOLDEN = json.loads((Path(__file__).parent / "data" / "geometry_golden.json").read_text())


def covering_dict(report) -> dict:
    """Every field and verdict of a CoveringReport, in the layout of the golden reports."""
    return {
        "params": report.params,
        "claim_a": {
            "checked": report.claim_a_checked,
            "skipped": report.claim_a_skipped,
            "counterexamples": [list(map(float, c)) for c in report.claim_a_counterexamples],
            "verdict": report.verdict_a,
        },
        "claim_b": {
            "hypothesis_met": report.claim_b_hypothesis_met,
            "threshold": report.claim_b_threshold,
            "checked": report.claim_b_checked,
            "counterexamples": [list(map(float, c)) for c in report.claim_b_counterexamples],
            "verdict": report.verdict_b,
        },
    }


def pt(x, v, t):
    return KineticPoint.of(x, v, t)


def points_close(z, w, tol):
    """Every coordinate of the kinetic points z and w within ``tol``."""
    return (bool(np.all(np.abs(z.x - w.x) <= tol)) and bool(np.all(np.abs(z.v - w.v) <= tol))
            and abs(z.t - w.t) <= tol)


class TestTransforms:
    def test_identity_at_origin(self):
        t = GalileanTransform(KineticPoint.origin(1))
        z = pt(1.0, 2.0, 3.0)
        out = t.apply(z)
        assert points_close(out, z, tol=0.0)

    def test_direct_substitution(self):
        t = GalileanTransform(pt(0.0, 1.0, 0.0))
        out = t.apply(pt(0.0, 0.0, 1.0))
        assert points_close(out, pt(1.0, 1.0, 1.0), tol=0.0)

    def test_inverse_substitution(self):
        t = GalileanTransform(pt(0.0, 1.0, 0.0))
        out = t.apply_inverse(pt(1.0, 1.0, 1.0))
        assert points_close(out, pt(0.0, 0.0, 1.0), tol=0.0)

    def test_round_trip_batch(self):
        rng = np.random.default_rng(0)
        base = KineticPoint(rng.normal(size=2), rng.normal(size=2), 0.37)
        xs = rng.normal(size=(1000, 2))
        vs = rng.normal(size=(1000, 2))
        ts = rng.normal(size=1000)
        fx, fv, ft = group_product(base, (xs, vs, ts))
        bx, bv, bt = group_quotient(base, (fx, fv, ft))
        assert np.max(np.abs(bx - xs)) < 1e-12
        assert np.max(np.abs(bv - vs)) < 1e-12
        assert np.max(np.abs(bt - ts)) < 1e-12

    @given(coord, coord, coord, coord, coord, coord, coord, coord, coord)
    @settings(max_examples=60, deadline=None)
    def test_group_law(self, x0, v0, t0, x1, v1, t1, x, v, t):
        z0, z1, z = pt(x0, v0, t0), pt(x1, v1, t1), pt(x, v, t)
        left = GalileanTransform(z0).apply(GalileanTransform(z1).apply(z))
        right = GalileanTransform(GalileanTransform(z0).apply(z1)).apply(z)
        assert points_close(left, right, tol=1e-10)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_per_sample_bases_match_per_point_transforms(self, d):
        rng = np.random.default_rng(d)
        n = 300
        base = (rng.normal(size=(n, d)), rng.normal(size=(n, d)), rng.normal(size=n))
        z = (rng.normal(size=(n, d)), rng.normal(size=(n, d)), rng.normal(size=n))
        fwd = group_product(base, z)
        inv = group_quotient(base, z)
        for i in range(n):
            b = KineticPoint(base[0][i], base[1][i], base[2][i])
            p = KineticPoint(z[0][i], z[1][i], z[2][i])
            t = GalileanTransform(b)
            # the per-point transforms, and the law written out as the transforms had it
            expected = [
                (fwd, t.apply(p)),
                (fwd, (b.x + p.x + p.t * b.v, b.v + p.v, b.t + p.t)),
                (inv, t.apply_inverse(p)),
                (inv, (p.x - b.x - (p.t - b.t) * b.v, p.v - b.v, p.t - b.t)),
            ]
            for got, want in expected:
                x, v, s = want
                assert got[0][i].tobytes() == x.tobytes()
                assert got[1][i].tobytes() == v.tobytes()
                assert got[2][i] == s

    def test_dimension_mismatch(self):
        t = GalileanTransform(KineticPoint.origin(2))
        with pytest.raises(ValueError):
            t.apply(pt(1.0, 1.0, 0.0))


class TestScaling:
    def test_identity(self):
        z = pt(0.3, -0.7, 0.2)
        assert points_close(scale_point(1.0, z), z, tol=0.0)

    def test_direct_substitution(self):
        out = scale_point(2.0, pt(1.0, 1.0, 1.0))
        assert points_close(out, pt(8.0, 2.0, 4.0), tol=0.0)

    @given(coord, coord, coord, st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=40, deadline=None)
    def test_inverse(self, x, v, t, r):
        z = pt(x, v, t)
        assert points_close(scale_point(r, scale_point(1.0 / r, z)), z, tol=1e-9)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            scale_point(0.0, pt(1.0, 1.0, 1.0))


class TestCylinders:
    def test_top_time_included(self):
        q = Cylinder(KineticPoint.origin(1), 1.0)
        assert q.contains(pt(0.0, 0.0, 0.0))

    def test_bottom_time_excluded(self):
        q = Cylinder(KineticPoint.origin(1), 1.0)
        assert not q.contains(pt(0.0, 0.0, -1.0))

    def test_slanting_term(self):
        v0, r = 0.8, 1.0
        q = Cylinder(pt(0.0, v0, 0.0), r)
        eps = 0.5 * r**3
        assert q.contains(pt(v0 * (-0.5) + eps, v0, -0.5))
        # without accounting for the slant this point is far from the centre
        assert not q.contains(pt(v0 * (-0.5) + eps + 2 * r**3, v0, -0.5))

    @given(coord, coord, st.floats(min_value=-3.9, max_value=0.0),
           st.floats(min_value=0.3, max_value=2.0))
    @settings(max_examples=80, deadline=None)
    def test_scaling_covariance(self, x, v, t, r):
        # membership is a.e. scale-covariant; skip samples grazing a boundary
        # where 1/r roundoff can legitimately flip the strict inequalities
        margin = min(abs(abs(x) - r**3), abs(abs(v) - r), abs(t + r**2), abs(t))
        assume(margin > 1e-7)
        q_r = Cylinder(KineticPoint.origin(1), r)
        q_1 = Cylinder(KineticPoint.origin(1), 1.0)
        z = pt(x, v, t)
        assert q_r.contains(z) == q_1.contains(scale_point(1.0 / r, z))

    def test_nesting(self):
        rng = np.random.default_rng(1)
        inner = Cylinder(KineticPoint.origin(1), 0.6)
        outer = Cylinder(KineticPoint.origin(1), 0.9)
        xs = rng.uniform(-1, 1, size=(500, 1))
        vs = rng.uniform(-1, 1, size=(500, 1))
        ts = rng.uniform(-1, 0, size=500)
        m_in = inner.contains_arrays(xs, vs, ts)
        m_out = outer.contains_arrays(xs, vs, ts)
        assert not np.any(m_in & ~m_out)

    def test_membership_matches_group_pullback(self):
        rng = np.random.default_rng(2)
        center = pt(0.4, -0.6, 0.8)
        q = Cylinder(center, 0.7)
        t = GalileanTransform(center)
        for _ in range(100):
            z = pt(rng.normal(), rng.normal(), rng.normal())
            pulled = t.apply_inverse(z)
            ref = Cylinder(KineticPoint.origin(1), 0.7).contains(pulled)
            assert q.contains(z) == ref

    def test_unit_measure_d1(self):
        assert Cylinder(KineticPoint.origin(1), 1.0).measure() == 4.0

    def test_cube_measure(self):
        q = Cylinder(KineticPoint.origin(2), 0.5, CylinderShape.CUBE)
        assert q.measure() == pytest.approx((2 * 0.125) ** 2 * 1.0**2 * 0.25)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            Cylinder(KineticPoint.origin(1), 0.0)


class TestIteratedCylinders:
    def test_level_one(self):
        omega = 0.25
        assert iterated_radius(1, omega) == omega / 2.0
        assert iterated_times(1) == (0.0, 4.0)

    def test_level_two(self):
        assert iterated_radius(2, 0.25) == 0.25
        assert iterated_times(2)[1] == 20.0

    def test_level_three(self):
        # (4/3)(4^3 - 1) evaluated directly
        assert iterated_times(3)[1] == pytest.approx(4.0 / 3.0 * 63.0)

    def test_index_zero_rejected(self):
        with pytest.raises(ValueError, match="iterated cylinder index must be >= 1, got 0"):
            Cylinder(KineticPoint.origin(1), 1.0, CylinderShape.ITERATED, omega=0.25, k=0)


def _sample_inner_paraboloid(rng, omega, n, s_max, d=1):
    """Points of the inner paraboloid with positive time component."""
    rho_max = (omega / 4.0) * math.sqrt(3.0 * s_max / 4.0 + 1.0)
    rho = rho_max * rng.uniform(0.05, 1.0, size=n)
    w = rng.normal(size=(n, d))
    w *= (rho * rng.uniform(size=n) ** (1.0 / d) / np.linalg.norm(w, axis=1))[:, None]
    y = rng.normal(size=(n, d))
    y *= (rho**3 * rng.uniform(size=n) ** (1.0 / d) / np.linalg.norm(y, axis=1))[:, None]
    rho_eff = np.maximum(np.linalg.norm(w, axis=1), np.cbrt(np.linalg.norm(y, axis=1)))
    lo = np.maximum((4.0 / 3.0) * ((16.0 / omega**2) * rho_eff**2 - 1.0), 1e-9)
    s = lo + (s_max - lo) * rng.uniform(size=n)
    keep = s > lo
    return y[keep], w[keep], s[keep]


class TestParaboloidSandwich:
    def test_inner_contained_in_union(self):
        omega = 0.25
        rng = np.random.default_rng(3)
        s_max = 80.0
        ys, ws, ss = _sample_inner_paraboloid(rng, omega, 4000, s_max)
        k_max = 1 + int(math.ceil(math.log(3.0 * s_max / 4.0 + 1.0, 4.0)))
        covered = np.zeros(ss.shape, dtype=bool)
        for k in range(1, k_max + 1):
            q = Cylinder(KineticPoint.origin(1), 1.0, CylinderShape.ITERATED, omega=omega, k=k)
            covered |= q.contains_arrays(ys, ws, ss)
        assert covered.all()

    def test_union_contained_in_outer(self):
        omega = 0.25
        rng = np.random.default_rng(4)
        outer = Paraboloid(+1, omega)
        for k in range(1, 7):
            rk = iterated_radius(k, omega)
            t_lo, t_hi = iterated_times(k)
            n = 600
            w = rng.uniform(-rk, rk, size=(n, 1))
            y = rng.uniform(-(rk**3), rk**3, size=(n, 1))
            s = rng.uniform(t_lo, t_hi, size=n)
            q = Cylinder(KineticPoint.origin(1), 1.0, CylinderShape.ITERATED, omega=omega, k=k)
            inside = q.contains_arrays(y, w, s)
            assert outer.contains_arrays(y[inside], w[inside], s[inside]).all()


class TestCovering:
    def test_sufficient_condition_has_no_counterexamples(self):
        rep = verify_covering(0.2, 1e-11, 0.1, omega=0.25, n_samples=3000, seed=7)
        assert rep.claim_b_hypothesis_met
        assert rep.verdict_a == "pass"
        assert rep.verdict_b == "pass"

    def test_hypothesis_unmet_reported(self):
        rep = verify_covering(0.5, 0.1, 0.1, omega=0.25, n_samples=50, seed=7)
        assert not rep.claim_b_hypothesis_met
        assert rep.verdict_b == "hypothesis unmet"
        assert rep.claim_b_checked == 0

    def test_threshold_formula(self):
        r = 0.01
        expected = r**2 + 64.0 / (3.0 * 0.25**2) * (4.0 * r) ** (1.0 / 3.0)
        assert covering_threshold(r, 0.25) == pytest.approx(expected, rel=1e-14)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            verify_covering(2.0, 0.1, 0.1, n_samples=10)
        with pytest.raises(ValueError):
            verify_covering(0.25, 0.6, 0.1, n_samples=10)  # R > sqrt(delta)
        with pytest.raises(ValueError):
            verify_covering(0.25, 0.1, 0.6, n_samples=10)  # r0 > sqrt(delta)

    def test_reproducible_under_seed(self):
        a = covering_dict(verify_covering(0.2, 1e-11, 0.1, n_samples=500, seed=9))
        b = covering_dict(verify_covering(0.2, 1e-11, 0.1, n_samples=500, seed=9))
        assert a == b


@pytest.mark.parametrize("case", GOLDEN["covering"],
                         ids=lambda c: "d{d}-seed{seed}-delta{delta}-R{r_plus}".format(**c["args"]))
def test_covering_report_matches_golden(case):
    assert json.dumps(covering_dict(verify_covering(**case["args"]))) == json.dumps(case["report"])


def scipy_halton(dims, n, seed):
    """The scrambled Halton sequence ``halton`` reproduces."""
    return qmc.Halton(d=dims, seed=seed).random(n)


class TestHalton:
    @pytest.mark.parametrize("dims, n, seed", [
        (3, 512, 0), (5, 512, 7), (7, 4096, 3), (23, 100, 0), (29, 4096, 11),
    ])
    def test_bitwise_equal_to_scipy(self, dims, n, seed):
        assert np.array_equal(halton(dims, n, seed), scipy_halton(dims, n, seed))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("delta, r_plus, r0, omega", [
        (0.2, 1e-11, 0.1, 0.25),   # the CLI defaults: both claims pass
        (0.5, 0.7, 0.7, 0.45),     # claim (a) fails with counterexamples
    ])
    def test_covering_report_unchanged(self, monkeypatch, seed, d, delta, r_plus, r0, omega):
        args = dict(delta=delta, r_plus=r_plus, r0=r0, omega=omega, n_samples=2000, d=d, seed=seed)
        fast = covering_dict(verify_covering(**args))
        monkeypatch.setattr(geometry, "halton", scipy_halton)
        assert fast == covering_dict(verify_covering(**args))


def test_ball_volumes():
    assert unit_ball_volume(1) == 2.0
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(4) == pytest.approx(math.pi**2 / 2.0)


def test_vector_norm_beyond_the_square_range():
    # sqrt(b . b) bit for bit while b . b is finite; past ~1e154 the scaled form
    rng = np.random.default_rng(3)
    b = rng.standard_normal((500, 3)) * 10.0 ** rng.integers(-150, 150, (500, 1))
    assert vector_norm(b).tobytes() == np.sqrt(np.einsum("ij,ij->i", b, b)).tobytes()
    rows = np.array([[1e300, 1e300, 0.0], [-3e200, 4e200, 0.0], [1e300, math.inf, 0.0],
                     [1e300, math.nan, 0.0], [0.0, 0.0, 0.0]])
    got = vector_norm(rows)
    assert got[:2] == pytest.approx([math.sqrt(2.0) * 1e300, 5e200], rel=1e-15)
    assert got[2] == math.inf and math.isnan(got[3]) and got[4] == 0.0
