"""Tests of the benchmark's own oracles and operation counting.

    python3 -m pytest kfpbench/tests
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracles  # noqa: E402
from harness import Tally  # noqa: E402
from workloads import D2_KNOWN_FAULTS  # noqa: E402

# Q_r(z0) with z0 = (1, 0.5, 2) and r = 0.5: |y_x| < 0.125, |y_v| < 0.5,
# -0.25 < y_t <= 0, where y_x = x - 1 - (t - 2) * 0.5.
X0, V0, T0, R = 1.0, 0.5, 2.0, 0.5
CASES = [
    ((1.0, 0.5, 2.0), True, "centre, on the closed top"),
    ((1.005, 0.5, 2.01), False, "just above the top"),
    ((0.875, 0.5, 1.75), False, "open bottom, slant followed"),
    ((0.88, 0.5, 1.76), True, "just above the bottom, slant followed"),
    ((1.0, 1.0, 2.0), False, "open velocity side"),
    ((1.0, 0.99, 2.0), True, "inside the velocity side"),
    ((1.125, 0.5, 2.0), False, "open position side"),
    ((1.124, 0.5, 2.0), True, "inside the position side"),
    ((1.05, 0.5, 1.8), False, "inside without the slant, outside with it"),
    ((0.85, 0.5, 1.8), True, "outside without the slant, inside with it"),
]


@pytest.mark.parametrize("point, inside, why", CASES)
def test_cylinder_membership_by_hand(point, inside, why):
    x, v, t = point
    got = oracles.in_slanted_cylinder(np.array([x]), np.array([v]), t, [X0], [V0], T0, R)
    assert bool(got) is inside, why


def test_cylinder_membership_uses_euclidean_balls_in_d2():
    center = ([0.0, 0.0], [0.0, 0.0], 0.0)
    on_sphere = oracles.in_slanted_cylinder([0.0, 0.0], [0.3, 0.4], 0.0, *center, 0.5)
    inside = oracles.in_slanted_cylinder([0.0, 0.0], [0.3, 0.39], 0.0, *center, 0.5)
    assert not on_sphere and inside


@pytest.mark.parametrize("t", [0.25, 1.0, 2.0])
def test_evolved_gaussian_is_a_probability_density(t):
    var_x0, var_v0 = 0.04, 0.1225
    sxx, sxv, svv = oracles.evolved_moments(t, var_x0, var_v0)
    x = np.linspace(-12 * math.sqrt(sxx), 12 * math.sqrt(sxx), 801) + 1.0 + 0.5 * t
    v = np.linspace(-12 * math.sqrt(svv), 12 * math.sqrt(svv), 801) + 0.5
    xm, vm = np.meshgrid(x, v, indexing="ij")
    f = oracles.evolved_gaussian(xm, vm, t, var_x0, var_v0, mean_x=1.0, mean_v=0.5)
    w = (x[1] - x[0]) * (v[1] - v[0])
    assert abs(f.sum() * w - 1.0) < 1e-10
    mx, mv = (f * xm).sum() * w, (f * vm).sum() * w
    assert abs(mx - (1.0 + 0.5 * t)) < 1e-9 and abs(mv - 0.5) < 1e-9
    assert abs((f * (xm - mx) * (vm - mv)).sum() * w - sxv) < 1e-9


def test_known_fault_counts_as_failed_without_raising():
    tally = Tally()
    tally.record("d1", {"exit_code": True, "positivity": True})
    tally.record("d2", {"exit_code": False, "positivity": False, "mass_drift": True},
                 D2_KNOWN_FAULTS)
    assert (tally.attempted, tally.failed, tally.correct) == (2, 1, True)


def test_unexpected_failure_makes_the_run_incorrect():
    tally = Tally()
    tally.record("d2", {"positivity": True, "mass_drift": False}, D2_KNOWN_FAULTS)
    assert (tally.attempted, tally.failed) == (1, 0)
    assert not tally.correct and tally.problems == ["d2: mass_drift"]


def test_lattice_convolution_by_hand():
    # out[i] = sum_j K[i - j + 1] f[j] with K on offsets (-1, 0, 1)
    out = oracles.lattice_convolution(np.array([1.0, 2.0]), np.array([3.0, 5.0, 7.0]), 1.0)
    assert out.tolist() == [5.0 * 1.0 + 3.0 * 2.0, 7.0 * 1.0 + 5.0 * 2.0]


def test_kappa_and_snapshot_weights():
    assert (oracles.kappa(-3.0, 3), oracles.kappa(-2.0, 3), oracles.kappa(0.0, 3)) == (-7.0,
                                                                                      -2.0, 4.0)
    assert oracles.snapshot_weights([0.0, 0.5, 1.5]).tolist() == [0.5, 0.5, 1.0]
