"""Rough-coefficient ensemble experiment.

Solves the kinetic equation over an ensemble of seeded checkerboard fields,
measures the Harnack quotient, the integrability-gain constant and the fitted
oscillation-decay exponent on each run, and prints a CSV table plus the
ensemble spread.  Doubling --nx/--nv and halving --dt probes the stability of
the measured constants under refinement.
"""

import argparse
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from kfplab.config import build_initial
from kfplab.fields import CheckerboardRecipe, EllipticityBounds, sample_field
from kfplab.geometry import Cylinder, KineticPoint
from kfplab.probes import HarnackParams, gain_probe, harnack_probe, holder_fit
from kfplab.solver import SolverConfig, solve
from kfplab.trajectory import PhaseGrid


def one_run(seed, nx, nv, dt):
    """(C_emp, gain cbar, alpha_fit) of one checkerboard run; criterion 08 of
    the acceptance suite runs this at seeds 100-119, 64^2 and 128^2."""
    grid = PhaseGrid(d=1, x_extent=5.0, nx=nx, v_max=4.0, nv=nv)
    field = sample_field(
        CheckerboardRecipe(cell=1.0, b_max=2.0, s_max=0.0),
        EllipticityBounds(0.5, 2.0), seed=seed, d=1,
    )
    cfg = SolverConfig(grid=grid, dt=dt, t_end=1.0, field=field,
                       snapshot_stride=max(nx, 64), snapshot_tail=0.014)
    traj = solve(cfg, build_initial(grid, {"kind": "gaussian", "center_x": 2.5, "sigma_x": 0.2,
                                           "sigma_v": 0.35, "floor": 0.01}))
    harnack = harnack_probe(traj, HarnackParams(
        r=0.25, delta=0.3, rho1=0.4, rho2=0.6, q=2.0,
        center=KineticPoint.of(2.5, 0.0, 0.9),
    ))
    top = KineticPoint.of(2.5, 0.0, 1.0)
    # the position windows r^3 span several cells at base resolution, so the
    # cylinder quadratures converge under refinement
    gain = gain_probe(traj, Cylinder(top, 0.7), Cylinder(top, 0.95))
    holder = holder_fit(traj, top, omega=0.9, k_levels=3, r_base=0.45)
    return (
        harnack.constants["c_emp"],
        gain.constants["cbar"],
        holder.constants["alpha_fit"],
    )


def run_jobs(jobs):
    """``one_run`` over (seed, nx, nv, dt) jobs, the results in job order.

    The jobs run on ``min(len(jobs), cores this process may use)`` workers:
    in this process when that is one, else in a pool of spawned processes.
    A job that raises re-raises here, with its traceback, and the jobs not
    yet started are cancelled.
    """
    workers = min(len(jobs), len(os.sched_getaffinity(0)))
    if workers <= 1:
        return [one_run(*job) for job in jobs]
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
    try:
        return list(pool.map(one_run, *zip(*jobs)))
    finally:
        pool.shutdown(cancel_futures=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=20, help="ensemble size")
    parser.add_argument("--nx", type=int, default=64)
    parser.add_argument("--nv", type=int, default=64)
    parser.add_argument("--dt", type=float, default=1 / 8192)
    parser.add_argument("--seed0", type=int, default=100)
    args = parser.parse_args()

    print("seed,c_emp,gain_cbar,alpha_fit")
    start = time.monotonic()
    seeds = range(args.seed0, args.seed0 + args.size)
    rows = run_jobs([(seed, args.nx, args.nv, args.dt) for seed in seeds])
    for seed, (c_emp, cbar, alpha) in zip(seeds, rows):
        print(f"{seed},{c_emp!r},{cbar!r},{alpha!r}")
    arr = np.array(rows)
    print(f"# elapsed {time.monotonic() - start:.0f}s", file=sys.stderr)
    for j, name in enumerate(("c_emp", "gain_cbar", "alpha_fit")):
        col = arr[:, j]
        print(
            f"# {name}: min {col.min():.4g}  max {col.max():.4g}  "
            f"median {np.median(col):.4g}",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
