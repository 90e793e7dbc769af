"""The kinetic dilation delta_r(x, v, t) = (r^3 x, r v, r^2 t) as an oracle.

For r a power of 2, a run on the dilated grid, step and field
(``solver_oracle.dilated``), from the same initial values, is the original run
scaled: the same stored values, the times times r^2 and each ledger column
times its exact power of r.  The probes, on that run and on the dilated
geometry, report each constant equal or times its exact power of r, and the
log fits their exponent to within ``LOG_FIT_ATOL``.

Left out, because they fix a unit of their own: ``harnack_probe`` (its guard
reads the absolute unit cylinder Q_1), ``fractional_seminorm`` (a Euclidean
distance over x, v and t together), the cutoff constant ``c01`` with the
``cbar`` ratios built on it, the gain probe's L^p norm (a power r^{(4d+2) 2/p}
that is not one of 2), ``holder_fit``'s amplitude (times r^-alpha), Gehring's
tail fit and ``propagation_probe``'s
``c_pm = ((1/2 + R^2)/4)^{q/2}`` with the bounds built on it.
"""

import math

import numpy as np
import pytest

from conftest import gaussian_bump
from kfplab.fields import (CheckerboardRecipe, EllipticityBounds, RotatingAnisotropyRecipe,
                           sample_field)
from kfplab.geometry import Cylinder, CylinderShape, KineticPoint, scale_point
from kfplab.probes import (
    HarnackParams,
    caccioppoli_probe,
    doubling_probe,
    energy_estimate_check,
    gain_probe,
    gehring_probe,
    holder_fit,
    level_set_measures,
    norm_on_cylinder,
    oscillation,
    propagation_probe,
    weighted_mean,
)
from kfplab.solver import SolverConfig, solve
from kfplab.trajectory import PhaseGrid, PhaseGridFunction

from solver_oracle import dilated

# (d, recipe, bounds, seed, (x_extent, n, v_max), (sx, sv, floor) of the initial bump,
#  dt, t_end, stride, tail)
RUNS = {
    # a source of either sign, on a floor that keeps f > 0; the off-node caccioppoli
    # geometry below lost nodes to an absolute boundary collar at 2^-14
    "checkerboard_d1": (1, CheckerboardRecipe(cell=1.0, b_max=2.0, s_max=0.5),
                        EllipticityBounds(0.5, 2.0), 100, (5.0, 64, 4.0), (0.2, 0.35, 1.0),
                        1 / 8192, 1.0, 64, 0.014),
    "rotating_d2": (2, RotatingAnisotropyRecipe(period=0.8), EllipticityBounds(0.5, 2.0), 3,
                    (2.0, 8, 2.0), (0.6, 0.7, 0.01), 1 / 64, 0.5, 4, 0.05),
}
SCALES = {"checkerboard_d1": [2.0**-1, 2.0**-10, 2.0**-14], "rotating_d2": [2.0**-1, 2.0**-10]}


def ledger_powers(d):
    """The power of r each ledger column scales by, at dimension d."""
    return {"step": 0, "time": 2, "mass": 4 * d, "l2": 4 * d, "fmin": 0, "fmax": 0,
            "gradv_l2": 4 * d - 2, "source_l2": 4 * d - 4}


# bound on the slope of a log fit: its abscissae log r_k + log r each round to
# within ulp(|log r|), which the fit magnifies by |log r| over the spread of the
# log r_k; holder_fit's exponent (2.096) moved by at most 1.1e-14 here, at r = 2^-10
LOG_FIT_ATOL = 2e-14


def dilated_run(name, r):
    """The run ``name`` on the grid, step, times and field dilated by r."""
    d, recipe, bounds, seed, (x_extent, n, v_max), bump, dt, t_end, stride, tail = RUNS[name]
    grid = PhaseGrid(d=d, x_extent=r**3 * x_extent, nx=n, v_max=r * v_max, nv=n)
    field = sample_field(recipe, bounds, seed=seed, d=d)
    # the initial values are those of the undilated bump, node for node
    unit = PhaseGrid(d=d, x_extent=x_extent, nx=n, v_max=v_max, nv=n)
    f0 = gaussian_bump(unit, 0.5 * x_extent, 0.0, *bump[:2], floor=bump[2])
    cfg = SolverConfig(grid=grid, dt=r**2 * dt, t_end=r**2 * t_end,
                       field=field if r == 1.0 else dilated(field, r),
                       snapshot_stride=stride, snapshot_tail=r**2 * tail)
    return solve(cfg, PhaseGridFunction(grid, f0.values, 0.0))


def probe_constants(traj, r, t_end):
    """{name: (constant, power of r it scales by, or None for a log fit)} of every
    probe on geometry dilated by r, about centres at the undilated time ``t_end``
    and before it; the probes that need B = 0 or s >= 0 run only where the field
    has them."""
    d = traj.d
    measure = 4 * d + 2     # the power of r of a cell volume times a time step

    def at(x, v, t):
        return scale_point(r, KineticPoint.of([x] * d, [v] * d, t))

    def add(prefix, constants, powers):
        for key, val in constants.items():
            if key in powers:
                out[f"{prefix}_{key}"] = (val, powers[key])

    out: dict = {}
    x0 = 0.5 * traj.grid.x_extent / r**3
    center = at(x0, 0.0, t_end)
    q_small, q_big = Cylinder(center, 0.25 * r), Cylinder(center, 0.5 * r)
    out["norm2"] = (norm_on_cylinder(traj, q_big, 2.0), measure // 2)
    out["norm2_avg"] = (norm_on_cylinder(traj, q_big, 2.0, normalized=True), 0)
    out["norm_inf"] = (norm_on_cylinder(traj, q_big, math.inf), 0)
    out["osc"] = (oscillation(traj, q_big), 0)
    add("ls", vars(level_set_measures(traj, 0.5, q_big)),
        dict.fromkeys(("high", "low", "mid", "region"), measure))
    add("gain", gain_probe(traj, q_small, q_big).constants,
        {"p": 0, "f_l2_sq": measure, "source_sq": measure - 4})
    add("energy", energy_estimate_check(traj, q_small, q_big).constants,
        {"sup_slice_f_sq": measure - 2, "grad_sq_int": measure - 2, "f_sq_ext": measure,
         "source_sq_ext": measure - 4})
    holder = holder_fit(traj, center, omega=0.9, k_levels=3, r_base=0.45 * r).constants
    add("holder", holder, {"theta_hat": 0, "alpha_predicted": 0, "levels_used": 0, "alpha_fit": None,
                           **{f"r_{i}": 1 for i in (1, 2, 3)}, **{f"osc_{i}": 0 for i in (1, 2, 3)}})
    out["wmean"] = (weighted_mean(traj, center, 0.3 * r, center.t), 0)
    caccio = {"grad_sq_qr": measure - 2, "mean_diff_sq_q2r": measure, "energy_constant": 0,
              "sup_slice_diff_sq": measure - 2, "grad_sq_q3r": measure - 2, "poincare_constant": 0}
    add("caccio", caccioppoli_probe(traj, center, 0.3 * r).constants, caccio)
    add("caccio_off_node", caccioppoli_probe(traj, at(x0, 0.0, 0.95 * t_end), 0.15 * r).constants,
        caccio)
    field = traj.field
    if field.s_min >= 0.0:
        add("doubling", doubling_probe(traj, omega=0.25, n_levels=1,
                                       z0=at(x0, 0.0, 0.25 * t_end), r=0.19 * r).constants,
            {"r": 1, "inf_q0": 0, "inf_q1": 0, "h_1": 0, "h_min": 0})
        pp = HarnackParams(r=0.1 * r, delta=0.015 * r**2, rho1=0.2 * r, rho2=0.3 * r, q=2.0,
                           center=center)
        add("prop", propagation_probe(traj, pp, [0.08 * r, 0.1 * r, 0.12 * r]).constants,
            {"min_q_plus": 0, "q_hat": None, **{f"r_{i}": 1 for i in (1, 2, 3)},
             **{f"min_el_{i}": 0 for i in (1, 2, 3)}})
    if field.b_bound == field.s_bound == 0.0:
        q0 = Cylinder(center, 0.7 * r, CylinderShape.CUBE)
        add("gehring", gehring_probe(traj, 2.0, q0, theta=0.5).constants,
            {"b_emp": 0, "b_arg_radius": 1, "b_arg_time": 2})
    return out


@pytest.fixture(scope="module")
def runs():
    """dilated_run, each (name, r) solved once for the module."""
    memo: dict = {}

    def run(name, r):
        if (name, r) not in memo:
            memo[name, r] = dilated_run(name, r)
        return memo[name, r]
    return run


@pytest.fixture(params=[(name, r) for name in RUNS for r in SCALES[name]],
                ids=lambda p: f"{p[0]}-r=2^{round(math.log2(p[1]))}")
def pair(request, runs):
    name, r = request.param
    return name, r, runs(name, 1.0), runs(name, r)


def test_stored_values_are_the_same_bits(pair):
    _, _, base, scaled = pair
    assert scaled.values.tobytes() == base.values.tobytes()


def test_times_scale_by_r_squared(pair):
    _, r, base, scaled = pair
    assert scaled.times.tobytes() == (base.times * r**2).tobytes()


def test_ledger_columns_scale_by_their_powers(pair):
    _, r, base, scaled = pair
    for name, power in ledger_powers(base.d).items():
        want = base.ledger.column(name) * r**power if power else base.ledger.column(name)
        assert scaled.ledger.column(name).tobytes() == want.tobytes(), name


def test_probe_constants_scale_by_their_powers(pair):
    name, r, base, scaled = pair
    t_end = RUNS[name][7]
    want, got = probe_constants(base, 1.0, t_end), probe_constants(scaled, r, t_end)
    assert got.keys() == want.keys()
    for key, (value, power) in want.items():
        if power is None:
            assert got[key][0] == pytest.approx(value, rel=0.0, abs=LOG_FIT_ATOL, nan_ok=True), key
        else:
            assert np.array_equal(got[key][0], value * r**power, equal_nan=True), (key, got[key][0])
