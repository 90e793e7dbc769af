"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, not calibrated elsewhere.  The reference second
moments of the constant-diffusion flow (Var v = 2t, Cov = t^2, Var x = 2t^3/3)
were validated once against a 10^6-path Euler-Maruyama run of
dv = sqrt(2) dW, dx = v dt (values 2.00237 / 1.00015 / 0.66574 at t = 1; see
scripts/sde_reference.py) and are frozen below.
"""

import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from kfplab.fields import (
    CheckerboardRecipe,
    ConstantRecipe,
    EllipticityBounds,
    sample_field,
)
from kfplab.geometry import (
    Cylinder,
    CylinderShape,
    GalileanTransform,
    KineticPoint,
    verify_covering,
)
from kfplab.iteration import (
    degiorgi_threshold,
    exponent_sum,
    holder_alpha,
    kappa_exponent,
    moser_product,
    sobolev_p,
)
from kfplab.landau import (
    LandauParams,
    MomentBounds,
    VelocityGrid,
    check_coefficient_bounds,
    kernel_a,
    kernel_b,
    kernel_c,
    landau_a_field,
    landau_b_field,
    landau_c_field,
    maxwellian,
)
from kfplab.probes import (
    HarnackParams,
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
    weighted_mean,
)
from kfplab.solver import SolverConfig, solve
from kfplab.trajectory import PhaseGrid, PhaseGridFunction

from conftest import exponent_sum_direct, gaussian_bump
from landau_oracle import convolve_direct
from solver_oracle import comparison_check, gaussian_exact_solution

# criterion 08 runs the ensemble experiment's own run function
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from run_ensemble import one_run  # noqa: E402


def verdict(num: int, description: str, passed: bool) -> None:
    print(f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"criterion {num} failed: {description}"


def test_criterion_01_geometry_exactness():
    start = time.monotonic()
    rng = np.random.default_rng(2026)
    n, d = 10_000, 2
    worst = 0.0

    # group law on random triples
    z0 = [rng.normal(size=(n, d)), rng.normal(size=(n, d)), rng.normal(size=n)]
    z1 = [rng.normal(size=(n, d)), rng.normal(size=(n, d)), rng.normal(size=n)]
    z = [rng.normal(size=(n, d)), rng.normal(size=(n, d)), rng.normal(size=n)]
    for i in range(n):
        t0 = GalileanTransform(KineticPoint(z0[0][i], z0[1][i], z0[2][i]))
        p1 = KineticPoint(z1[0][i], z1[1][i], z1[2][i])
        p = KineticPoint(z[0][i], z[1][i], z[2][i])
        left = t0.apply(GalileanTransform(p1).apply(p))
        right = GalileanTransform(t0.apply(p1)).apply(p)
        back = t0.apply_inverse(t0.apply(p))
        worst = max(
            worst,
            float(np.max(np.abs(left.x - right.x))),
            float(np.max(np.abs(left.v - right.v))),
            abs(left.t - right.t),
            float(np.max(np.abs(back.x - p.x))),
            float(np.max(np.abs(back.v - p.v))),
            abs(back.t - p.t),
        )

    # scaling covariance of cylinder membership on non-grazing samples
    q1 = Cylinder(KineticPoint.origin(1), 1.0)
    rs = rng.uniform(0.5, 2.0, size=n)
    xs = rng.uniform(-2.0, 2.0, size=(n, 1))
    vs = rng.uniform(-2.0, 2.0, size=(n, 1))
    ts = rng.uniform(-4.0, 0.0, size=n)
    mismatches = 0
    for i in range(n):
        r = rs[i]
        margin = min(
            abs(abs(xs[i, 0]) - r**3), abs(abs(vs[i, 0]) - r),
            abs(ts[i] + r**2), abs(ts[i]),
        )
        if margin < 1e-9:
            continue
        member_r = Cylinder(KineticPoint.origin(1), r).contains_arrays(
            xs[i : i + 1], vs[i : i + 1], ts[i : i + 1]
        )[0]
        member_1 = q1.contains_arrays(
            xs[i : i + 1] / r**3, vs[i : i + 1] / r, ts[i : i + 1] / r**2
        )[0]
        mismatches += int(member_r != member_1)

    elapsed = time.monotonic() - start
    verdict(
        1,
        f"group law / round trip worst deviation {worst:.2e} <= 1e-10, "
        f"{mismatches} covariance mismatches, {elapsed:.1f}s < 5s",
        worst <= 1e-10 and mismatches == 0 and elapsed < 5.0,
    )


def test_criterion_02_covering_checks():
    met = verify_covering(0.2, 1e-11, 0.1, omega=0.25, n_samples=10_000, seed=2026)
    unmet = verify_covering(0.5, 0.1, 0.1, omega=0.25, n_samples=128, seed=2026)
    verdict(
        2,
        f"sufficient condition: a={met.verdict_a}, b={met.verdict_b} over "
        f"{met.claim_a_checked + met.claim_b_checked} samples; violating set: "
        f"'{unmet.verdict_b}'",
        met.claim_b_hypothesis_met
        and met.verdict_a == "pass"
        and met.verdict_b == "pass"
        and unmet.verdict_b == "hypothesis unmet",
    )


def test_criterion_03_landau_oracle_equivalence():
    start = time.monotonic()
    grid = VelocityGrid(v_max=4.0, n=32, d=2)
    params = LandauParams(d=2, gamma=-1.0)
    f = maxwellian(grid)
    rel = 0.0
    for field_fn, kernel, const in ((landau_a_field, kernel_a, params.a_const),
                                    (landau_b_field, kernel_b, params.b_const),
                                    (landau_c_field, kernel_c, params.c_const)):
        fast = field_fn(f, params)
        slow = const * convolve_direct(f, kernel(grid, params))
        rel = max(rel, float(np.max(np.abs(fast - slow)) / np.max(np.abs(slow))))
    eig_min = float(
        np.linalg.eigvalsh(landau_a_field(f, params).reshape(-1, 2, 2)).min()
    )
    coulomb = LandauParams(d=2, gamma=-2.0, c_const=1.3)
    pointwise_exact = np.array_equal(
        landau_c_field(f, coulomb), 1.3 * f.values
    )
    elapsed = time.monotonic() - start
    verdict(
        3,
        f"fft vs direct rel {rel:.2e} <= 1e-10, min eig {eig_min:.2e} >= -1e-10, "
        f"coulomb-case pointwise exact: {pointwise_exact}, {elapsed:.1f}s < 60s",
        rel <= 1e-10 and eig_min >= -1e-10 and pointwise_exact and elapsed < 60.0,
    )


def test_criterion_04_coefficient_bound_exponents():
    exact = kappa_exponent(-2.0, 3) == -2.0 and kappa_exponent(-3.0, 3) == -7.0
    grid = VelocityGrid(v_max=5.0, n=14, d=3)
    f = maxwellian(grid)
    bounds = MomentBounds(m1=0.5, m0=2.0, e0=2.0, h0=0.0)
    rep = check_coefficient_bounds(f, LandauParams(d=3, gamma=-2.0), bounds)
    verdict(
        4,
        f"kappa(-2,3)=-2 and kappa(-3,3)=-7 exact: {exact}; "
        f"min det ratio {rep.det_ratio_min:.3e} > 0 at kappa={rep.kappa}",
        exact and rep.kappa == -2.0 and rep.det_ratio_min > 0.0,
    )


def _kolmogorov_cfg(nx: int, dt: float) -> SolverConfig:
    grid = PhaseGrid(d=1, x_extent=8.0, nx=nx, v_max=6.0, nv=nx)
    field = sample_field(ConstantRecipe(), EllipticityBounds(1.0, 1.0), seed=0, d=1)
    return SolverConfig(grid=grid, dt=dt, t_end=1.0, field=field, snapshot_stride=10**6)


def test_criterion_05_solver_vs_kolmogorov_oracle():
    start = time.monotonic()
    sx, sv = 0.2, 0.35

    def run(nx, dt):
        cfg = _kolmogorov_cfg(nx, dt)
        traj = solve(cfg, gaussian_bump(cfg.grid, 4.0, 0.0, sx, sv))
        grid = cfg.grid
        x, v = grid.meshes()
        x, v = x[..., 0], v[..., 0]
        w = grid.cell_volume
        vals = traj.values[-1]
        m = vals.sum() * w
        mx = (vals * x).sum() * w / m
        mv = (vals * v).sum() * w / m
        var_x = (vals * (x - mx) ** 2).sum() * w / m
        cov = (vals * (x - mx) * (v - mv)).sum() * w / m
        var_v = (vals * (v - mv) ** 2).sum() * w / m
        exact = gaussian_exact_solution(x - 4.0, v, 1.0, sx**2, sv**2)
        l1 = float(np.abs(vals - exact).sum() * w)
        return (var_x, cov, var_v), l1

    moments, l1_base = run(128, 1.0 / 8.0)
    _, l1_fine = run(256, 1.0 / 16.0)

    # frozen SDE reference at t = 1 plus the initial-data corrections
    expected = (2.0 / 3.0 + sx**2 + sv**2, 1.0 + sv**2, 2.0 + sv**2)
    rels = [abs(m - e) / e for m, e in zip(moments, expected)]
    ratio = l1_fine / l1_base
    elapsed = time.monotonic() - start
    verdict(
        5,
        f"moment errors {[f'{r:.3%}' for r in rels]} <= 2%, "
        f"L1 refinement ratio {ratio:.3f} in [0.35, 0.65], {elapsed:.0f}s < 300s",
        all(r <= 0.02 for r in rels) and 0.35 <= ratio <= 0.65 and elapsed < 300.0,
    )


def test_criterion_06_structural_invariants():
    grid = PhaseGrid(d=1, x_extent=4.0, nx=32, v_max=3.0, nv=32)
    bounds = EllipticityBounds(0.5, 2.0)
    drift_free = sample_field(CheckerboardRecipe(cell=1.0, b_max=0.0, s_max=0.0),
                              bounds, seed=21, d=1)
    with_drift = sample_field(CheckerboardRecipe(cell=1.0, b_max=2.0, s_max=0.0),
                              bounds, seed=22, d=1)

    cfg = SolverConfig(grid=grid, dt=1 / 128, t_end=0.5, field=drift_free)
    traj = solve(cfg, gaussian_bump(grid, 2.0, 0.0, 0.3, 0.4))
    mass = traj.ledger.column("mass")
    mass_drift = float(np.max(np.abs(mass - mass[0]))) / max(1.0, mass[0])
    l2 = traj.ledger.column("l2")
    l2_growth = float(np.max(np.diff(l2))) / l2[0]

    cfg_pos = SolverConfig(grid=grid, dt=1 / 128, t_end=0.5, field=with_drift)
    traj_pos = solve(cfg_pos, gaussian_bump(grid, 2.0, 0.0, 0.3, 0.4))
    worst_min = float(traj_pos.values.min())

    cfg_cmp = SolverConfig(grid=grid, dt=1 / 128, t_end=0.25, field=with_drift)
    rng = np.random.default_rng(2026)
    held = 0
    worst_violation = -math.inf
    for _ in range(10):
        base = rng.uniform(0.0, 1.0, size=grid.shape)
        extra = rng.uniform(0.0, 1.0, size=grid.shape)
        ok, violation = comparison_check(
            PhaseGridFunction(grid, base, 0.0),
            PhaseGridFunction(grid, base + extra, 0.0),
            cfg_cmp,
        )
        held += ok
        worst_violation = max(worst_violation, violation)

    verdict(
        6,
        f"mass drift {mass_drift:.2e} <= 1e-12, l2 growth {l2_growth:.2e} <= 1e-12, "
        f"min f {worst_min:.2e} >= -1e-12, {held} of 10 comparisons hold "
        f"(worst violation {worst_violation:.2e})",
        mass_drift <= 1e-12 and l2_growth <= 1e-12 and worst_min >= -1e-12
        and held == 10,
    )


def test_criterion_07_iteration_calculus():
    rng = np.random.default_rng(2026)
    worst_rel = 0.0
    for _ in range(200):
        alpha = rng.uniform(1.1, 4.0) if rng.uniform() < 0.7 else rng.uniform(0.2, 0.9)
        n = int(rng.integers(1, 26))
        closed = exponent_sum(alpha, n)
        direct = exponent_sum_direct(alpha, n)
        worst_rel = max(worst_rel, abs(closed - direct) / max(1.0, abs(direct)))

    dominated = True
    for _ in range(50):
        rep = degiorgi_threshold(
            float(rng.uniform(1.0, 6.0)), float(rng.uniform(1.2, 3.0)),
            float(rng.uniform(1e-10, 0.8)),
        )
        direct_log, bound_log = rep.direct_log[:26], rep.bound_log[:26]
        finite = np.isfinite(direct_log)
        dominated = dominated and bool(np.all(bound_log[finite] >= direct_log[finite] - 1e-9))

    partials, _ = moser_product(4.0, 2.0, 1.0, 60)
    cauchy = abs(partials[59] - partials[29])
    exact = sobolev_p(3) == 42.0 / 19.0 and holder_alpha(0.5, 0.25) == 1.0 / 3.0
    verdict(
        7,
        f"exponent-sum worst rel {worst_rel:.2e} <= 1e-12, bound dominates: {dominated}, "
        f"|Pi_60 - Pi_30| = {cauchy:.2e} < 1e-6, exact exponents: {exact}",
        worst_rel <= 1e-12 and dominated and cauchy < 1e-6 and exact,
    )


ENSEMBLE_SIZE = 20


CRITERION08_CONSTANTS = Path(__file__).parent / "data" / "criterion08_constants.json"


@pytest.mark.slow
def test_criterion_08_probe_stability_over_ensemble():
    start = time.monotonic()
    base = [one_run(100 + i, 64, 64, 1 / 8192) for i in range(ENSEMBLE_SIZE)]
    fine = [one_run(100 + i, 128, 128, 1 / 16384) for i in range(ENSEMBLE_SIZE)]
    elapsed = time.monotonic() - start

    # (c_emp, cbar, alpha_fit) per resolution and seed, as written by the code
    # before the transport plan; a solver speed-up must reproduce them bitwise
    measured = {
        str(nx): {str(100 + i): dict(zip(("c_emp", "cbar", "alpha_fit"), r))
                  for i, r in enumerate(runs)}
        for nx, runs in ((64, base), (128, fine))
    }
    frozen = json.loads(CRITERION08_CONSTANTS.read_text())
    unchanged = json.dumps(measured, sort_keys=True) == json.dumps(frozen, sort_keys=True)

    c_base = np.array([r[0] for r in base])
    c_fine = np.array([r[0] for r in fine])
    g_base = np.array([r[1] for r in base])
    g_fine = np.array([r[1] for r in fine])
    alphas = np.array([r[2] for r in base] + [r[2] for r in fine])

    finite = bool(np.all(np.isfinite(np.concatenate([c_base, c_fine, g_base, g_fine]))))
    c_change = abs(c_fine.max() - c_base.max()) / c_base.max()
    g_change = abs(g_fine.max() - g_base.max()) / g_base.max()
    alphas_positive = bool(np.all(alphas > 0.0))
    verdict(
        8,
        f"all constants finite: {finite}; max C_emp change {c_change:.1%} < 25%, "
        f"max gain change {g_change:.1%} < 25%, all alpha > 0: {alphas_positive}, "
        f"{elapsed:.0f}s < 1800s, constants equal the frozen table: {unchanged}",
        finite and c_change < 0.25 and g_change < 0.25 and alphas_positive
        and elapsed < 1800.0 and unchanged,
    )


def _all_probe_constants(traj, base_shift=None, skip=()):
    """Every probe constant on the reference geometry (optionally transformed),
    leaving out the probes named in ``skip``."""

    def mv(point):
        if base_shift is None:
            return point
        return GalileanTransform(base_shift).apply(point)

    center = mv(KineticPoint.of(2.5, 0.0, 1.0))
    mid = mv(KineticPoint.of(2.5, 0.0, 0.9))
    out: dict[str, float] = {}
    q_small = Cylinder(center, 0.25)
    q_big = Cylinder(center, 0.5)
    out["norm2"] = norm_on_cylinder(traj, q_big, 2.0)
    out["norm_inf"] = norm_on_cylinder(traj, q_big, math.inf)
    out["osc"] = oscillation(traj, q_big)
    ls = level_set_measures(traj, 0.5, q_big)
    out["ls_high"], out["ls_low"], out["ls_mid"] = ls.high, ls.low, ls.mid
    for key, val in gain_probe(traj, q_small, q_big).constants.items():
        out[f"gain_{key}"] = val
    for key, val in energy_estimate_check(traj, q_small, q_big).constants.items():
        out[f"energy_{key}"] = val
    hp = HarnackParams(r=0.25, delta=0.3, rho1=0.4, rho2=0.6, q=2.0, center=mid)
    for key, val in harnack_probe(traj, hp).constants.items():
        out[f"harnack_{key}"] = val
    if "holder" not in skip:
        holder = holder_fit(traj, center, omega=0.9, k_levels=3, r_base=0.45)
        for key, val in holder.constants.items():
            out[f"holder_{key}"] = val
    for key, val in doubling_probe(traj, omega=0.25, n_levels=2,
                                   z0=mv(KineticPoint.of(2.5, 0.0, 0.25)), r=0.19).constants.items():
        out[f"doubling_{key}"] = val
    out["wmean"] = weighted_mean(traj, center, 0.3, center.t)
    for key, val in caccioppoli_probe(traj, center, 0.3).constants.items():
        out[f"caccio_{key}"] = val
    out["fractional"] = fractional_seminorm(
        traj, 1.0 / 3.0, Cylinder(center, 0.4), n_pairs=4000, seed=5
    )
    if "gehring" not in skip:
        q0 = Cylinder(center, 0.7, CylinderShape.CUBE)
        for key, val in gehring_probe(traj, 2.0, q0, theta=0.5).constants.items():
            out[f"gehring_{key}"] = val
    pp = HarnackParams(r=0.1, delta=0.015, rho1=0.2, rho2=0.3, q=2.0, center=center)
    for key, val in propagation_probe(traj, pp, r_ladder=[0.08, 0.1, 0.12]).constants.items():
        out[f"prop_{key}"] = val
    return out


def test_criterion_09_transform_invariance(identity_run):
    shift = KineticPoint.of(0.31, 0.57, 0.23)
    reference = _all_probe_constants(identity_run)
    transformed = _all_probe_constants(identity_run.transformed(shift), base_shift=shift)
    worst = 0.0
    worst_key = ""
    for key, ref in reference.items():
        other = transformed[key]
        if math.isnan(ref) and math.isnan(other):
            continue
        dev = abs(other - ref) / max(1.0, abs(ref))
        if dev > worst:
            worst, worst_key = dev, key

    params = HarnackParams(r=0.25, delta=0.3, rho1=0.4, rho2=0.6, q=2.0,
                           center=KineticPoint.of(2.5, 0.0, 0.9))
    c_ref = harnack_probe(identity_run, params).constants["c_emp"]
    c_scaled = harnack_probe(identity_run.scaled_values(3.7), params).constants["c_emp"]
    scale_dev = abs(c_scaled - c_ref) / c_ref
    verdict(
        9,
        f"worst probe deviation {worst:.2e} ({worst_key}) <= 1e-10; "
        f"Harnack scale deviation {scale_dev:.2e} <= 1e-12",
        worst <= 1e-10 and scale_dev <= 1e-12,
    )


FROZEN_CONSTANTS = Path(__file__).parent / "data" / "probe_constants.json"
# gehring rejects B != 0; the rough run resolves only two oscillation levels
CHECKERBOARD_SKIP = ("gehring", "holder")


def test_probe_constants_match_frozen_table(identity_run, checkerboard_run):
    """Every probe constant against the table written before region sampling
    was rewritten as one primitive; regenerate it only for a change that is
    meant to move a constant."""
    frozen = json.loads(FROZEN_CONSTANTS.read_text())
    measured = {
        "identity_run": _all_probe_constants(identity_run),
        "checkerboard_run": _all_probe_constants(checkerboard_run, skip=CHECKERBOARD_SKIP),
    }
    assert sorted(measured) == sorted(frozen)
    for run, table in frozen.items():
        assert sorted(measured[run]) == sorted(table), run
        for key, ref in table.items():
            got = measured[run][key]
            if math.isnan(ref):
                assert math.isnan(got), (run, key)
            else:
                assert abs(got - ref) <= 1e-13 * abs(ref), (run, key, got, ref)


def test_criterion_10_replay_determinism(tmp_path):
    from kfplab.cli import main

    def config(out):
        return {
            "schema_version": 1,
            "seed": 7,
            "solver": {
                "d": 1, "x_extent": 4.0, "nx": 32, "v_max": 3.0, "nv": 32,
                "dt": 0.015625, "t_end": 0.25, "snapshot_stride": 2,
                "initial": {"kind": "gaussian", "center_x": 2.0, "sigma_x": 0.3,
                            "sigma_v": 0.4, "floor": 0.01},
            },
            "field": {"recipe": "checkerboard", "lambda": 0.5, "Lambda": 2.0,
                      "cell": 1.0, "b_max": 1.0, "s_max": 0.0, "seed": 5},
            "probes": [
                {"name": "harnack", "R": 0.25, "Delta": 0.09375, "rho1": 0.4,
                 "rho2": 0.6, "center": [2.0, 0.0, 0.25]},
                {"name": "fractional", "s_order": 0.333, "r": 0.3,
                 "center": [2.0, 0.0, 0.25], "n_pairs": 2000, "seed": 3},
            ],
            "output": {"dir": str(out)},
        }

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_a, cfg_b = tmp_path / "a.json", tmp_path / "b.json"
    cfg_a.write_text(json.dumps(config(out_a)))
    cfg_b.write_text(json.dumps(config(out_b)))

    assert main(["run", "--config", str(cfg_a)]) == 0
    in_run = (out_a / "report.json").read_bytes()
    assert main(["probe", "--config", str(cfg_a)]) == 0
    replay = (out_a / "report.json").read_bytes()

    assert main(["run", "--config", str(cfg_b)]) == 0
    rerun_probes = json.loads((out_b / "report.json").read_text())["probes"]
    orig_probes = json.loads(in_run)["probes"]

    verdict(
        10,
        "probe-on-snapshots report byte-identical to in-run report; "
        "identical (config, seed) probes byte-identical",
        in_run == replay
        and json.dumps(orig_probes, sort_keys=True) == json.dumps(rerun_probes, sort_keys=True),
    )
