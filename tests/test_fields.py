import numpy as np
import pytest
from scipy.stats import qmc

from kfplab import fields
from kfplab.fields import (
    CheckerboardRecipe,
    ConstantRecipe,
    EllipticityBounds,
    RotatingAnisotropyRecipe,
    SmoothRandomRecipe,
    certify_field,
    field_from_descriptor,
    sample_field,
    scaled_diffusion,
)

BOX = ((0.0, 5.0), (-4.0, 4.0), (0.0, 1.0))


def eval_points(rng, d, n=64):
    x = rng.uniform(0.0, 5.0, size=(n, d))
    v = rng.uniform(-4.0, 4.0, size=(n, d))
    t = rng.uniform(0.0, 1.0, size=n)
    return x, v, t


class TestConstant:
    def test_identity_bounds(self):
        field = sample_field(ConstantRecipe(), EllipticityBounds(1.0, 1.0), seed=0, d=2)
        rng = np.random.default_rng(0)
        x, v, t = eval_points(rng, 2)
        a = field.a(x, v, t)
        assert np.allclose(a, np.eye(2), atol=0.0)

    def test_out_of_window_value_rejected(self):
        with pytest.raises(ValueError):
            sample_field(ConstantRecipe(a_value=3.0), EllipticityBounds(1.0, 2.0), seed=0, d=1)


class TestCheckerboard:
    def test_eigenvalues_within_window(self):
        bounds = EllipticityBounds(0.5, 2.0)
        field = sample_field(CheckerboardRecipe(cell=0.7), bounds, seed=5, d=2)
        rng = np.random.default_rng(1)
        x, v, t = eval_points(rng, 2, n=256)
        eigs = np.linalg.eigvalsh(field.a(x, v, t))
        assert eigs.min() >= 0.5 - 1e-12
        assert eigs.max() <= 2.0 + 1e-12

    def test_same_seed_bit_identical(self):
        bounds = EllipticityBounds(0.5, 2.0)
        f1 = sample_field(CheckerboardRecipe(), bounds, seed=9, d=1)
        f2 = sample_field(CheckerboardRecipe(), bounds, seed=9, d=1)
        rng = np.random.default_rng(2)
        x, v, t = eval_points(rng, 1)
        assert np.array_equal(f1.a(x, v, t), f2.a(x, v, t))
        assert np.array_equal(f1.b(x, v, t), f2.b(x, v, t))

    def test_evaluation_order_independent(self):
        bounds = EllipticityBounds(0.5, 2.0)
        f1 = sample_field(CheckerboardRecipe(), bounds, seed=9, d=1)
        f2 = sample_field(CheckerboardRecipe(), bounds, seed=9, d=1)
        rng = np.random.default_rng(3)
        x, v, t = eval_points(rng, 1, n=32)
        fwd = f1.a(x, v, t)
        rev = f2.a(x[::-1], v[::-1], t[::-1])[::-1]
        assert np.array_equal(fwd, rev)

    def test_roughness_across_cells(self):
        bounds = EllipticityBounds(0.5, 2.0)
        field = sample_field(CheckerboardRecipe(cell=1.0), bounds, seed=4, d=1)
        # two points in different kinetic cells must see different draws
        x = np.array([[0.1], [0.1]])
        v = np.array([[0.2], [1.7]])
        t = np.array([0.1, 0.1])
        a = field.a(x, v, t)
        assert not np.allclose(a[0], a[1])

    def test_drift_within_ball(self):
        bounds = EllipticityBounds(0.5, 2.0)
        field = sample_field(CheckerboardRecipe(b_max=2.0), bounds, seed=6, d=2)
        rng = np.random.default_rng(4)
        x, v, t = eval_points(rng, 2, n=256)
        b = field.b(x, v, t)
        assert np.max(np.linalg.norm(b, axis=-1)) <= 2.0 + 1e-12


class TestSmoothAndRotating:
    def test_smooth_clipped(self):
        bounds = EllipticityBounds(0.5, 2.0)
        field = sample_field(SmoothRandomRecipe(s_max=0.3), bounds, seed=2, d=1)
        rep = certify_field(field, box=BOX, seed=0)
        assert rep.verdict == "ok"
        assert rep.max_source <= 0.3 + 1e-12

    def test_rotating_eigenvalues_pinned(self):
        bounds = EllipticityBounds(0.5, 2.0)
        field = sample_field(RotatingAnisotropyRecipe(), bounds, seed=2, d=2)
        rng = np.random.default_rng(5)
        x, v, t = eval_points(rng, 2, n=128)
        eigs = np.sort(np.linalg.eigvalsh(field.a(x, v, t)), axis=-1)
        assert np.allclose(eigs[:, 0], 0.5, atol=1e-10)
        assert np.allclose(eigs[:, 1], 2.0, atol=1e-10)


class TestCertification:
    def test_constant_identity(self):
        field = sample_field(ConstantRecipe(), EllipticityBounds(1.0, 1.0), seed=0, d=1)
        rep = certify_field(field, box=BOX, seed=0)
        assert rep.verdict == "ok"
        assert rep.min_eig == pytest.approx(1.0)
        assert rep.max_eig == pytest.approx(1.0)

    def test_corrupted_field_detected(self):
        bounds = EllipticityBounds(0.5, 2.0)
        field = sample_field(CheckerboardRecipe(), bounds, seed=7, d=1)
        bad = scaled_diffusion(field, 3.0 * bounds.big_lam)
        rep = certify_field(bad, box=BOX, seed=0)
        assert rep.verdict == "violated"
        assert rep.witness is not None

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d", [1, 2])
    def test_report_unchanged_from_scipy_sampling(self, monkeypatch, seed, d):
        # oracle: the same sample points drawn by scipy.stats.qmc.Halton
        bounds = EllipticityBounds(0.5, 2.0)
        good = sample_field(SmoothRandomRecipe(s_max=0.3), bounds, seed=2, d=d)
        bad = scaled_diffusion(sample_field(CheckerboardRecipe(), bounds, seed=7, d=d), 1.5)
        fast = [certify_field(f, box=BOX, seed=seed) for f in (good, bad)]
        monkeypatch.setattr(fields, "halton",
                            lambda dims, n, s: qmc.Halton(d=dims, seed=s).random(n))
        slow = [certify_field(f, box=BOX, seed=seed) for f in (good, bad)]
        assert [r.verdict for r in fast] == ["ok", "violated"]
        assert fast == slow


NODE_RECIPES = {
    "constant": ConstantRecipe(b_value=0.7, s_value=-0.2),
    "checkerboard": CheckerboardRecipe(cell=0.7, b_max=1.5, s_max=0.4),
    "rotating": RotatingAnisotropyRecipe(period=0.8),
    "smooth": SmoothRandomRecipe(corr_x=0.8, corr_v=0.5, corr_t=0.3, s_max=0.4),
}


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", sorted(NODE_RECIPES))
def test_node_evaluators_match_pointwise(name, d):
    # smooth fields add the same Fourier modes in another order; the others
    # must give the same bits.  A scaled field (the negative control) must
    # scale A at the nodes too.
    bounds = EllipticityBounds(0.5, 2.0)
    rng = np.random.default_rng(d)
    for seed in range(3):
        field = sample_field(NODE_RECIPES[name], bounds, seed=seed, d=d)
        if seed == 2:
            field = scaled_diffusion(field, 3.0)
        x, v, _ = eval_points(rng, d, n=256)
        coeffs = field.at_nodes(x, v)
        for t in rng.uniform(-1.0, 2.0, size=6):
            for got, want in ((coeffs.a(t), field.a(x, v, t)), (coeffs.b(t), field.b(x, v, t)),
                              (coeffs.s(t), field.s(x, v, t))):
                assert got.shape == want.shape
                if name == "smooth":
                    assert np.max(np.abs(got - want)) <= 1e-13
                else:
                    assert got.tobytes() == want.tobytes()


def test_descriptor_round_trip():
    bounds = EllipticityBounds(0.5, 2.0)
    for recipe in (
        ConstantRecipe(s_value=0.2),
        CheckerboardRecipe(cell=0.8, b_max=1.0, s_max=0.1),
        SmoothRandomRecipe(corr_x=2.0),
        RotatingAnisotropyRecipe(period=0.5),
    ):
        field = sample_field(recipe, bounds, seed=13, d=1)
        rebuilt = field_from_descriptor(field.descriptor)
        rng = np.random.default_rng(6)
        x, v, t = eval_points(rng, 1, n=32)
        assert np.array_equal(field.a(x, v, t), rebuilt.a(x, v, t))
        assert np.array_equal(field.s(x, v, t), rebuilt.s(x, v, t))
        assert rebuilt.descriptor == field.descriptor
    # a key that belongs to another recipe is an error, not silently dropped
    constant = sample_field(ConstantRecipe(), bounds, seed=13, d=1).descriptor
    for foreign in ({"cell": 1.0}, {"period": 0.5}, {"n_modes": 4}):
        with pytest.raises(ValueError, match="recipe"):
            field_from_descriptor({**constant, **foreign})
    with pytest.raises(ValueError, match="recipe"):
        field_from_descriptor({**field.descriptor, "s_max": 0.5})


def test_bounds_validation():
    with pytest.raises(ValueError):
        EllipticityBounds(0.0, 1.0)
    with pytest.raises(ValueError):
        EllipticityBounds(2.0, 1.0)
