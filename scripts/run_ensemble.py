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

from kfplab import config
from kfplab.solver import solve


def member_config(seed, nx, nv, dt):
    """The README config's shape with field seed ``seed`` on an nx x nv grid at step dt."""
    top = [2.5, 0.0, 1.0]
    return {
        "schema_version": 1,
        "solver": {
            "d": 1, "x_extent": 5.0, "nx": nx, "v_max": 4.0, "nv": nv, "dt": dt, "t_end": 1.0,
            "snapshot_stride": max(nx, 64), "snapshot_tail": 0.014,
            "initial": {"kind": "gaussian", "center_x": 2.5, "sigma_x": 0.2, "sigma_v": 0.35,
                        "floor": 0.01},
        },
        "field": {"recipe": "checkerboard", "lambda": 0.5, "Lambda": 2.0,
                  "cell": 1.0, "b_max": 2.0, "s_max": 0.0, "seed": seed},
        "probes": [
            {"name": "harnack", "R": 0.25, "Delta": 0.3, "rho1": 0.4, "rho2": 0.6,
             "center": [2.5, 0.0, 0.9]},
            # the position windows r^3 span several cells at base resolution, so the
            # cylinder quadratures converge under refinement
            {"name": "gain", "r_int": 0.7, "r_ext": 0.95, "center": top},
            {"name": "holder", "omega": 0.9, "k_levels": 3, "r_base": 0.45, "center": top},
        ],
    }


def one_run(seed, nx, nv, dt):
    """(C_emp, gain cbar, alpha_fit) of one checkerboard run, through the config
    path of ``kfplab run``; criterion 08 of the acceptance suite runs this at
    seeds 100-119, 64^2 and 128^2."""
    cfg = member_config(seed, nx, nv, dt)
    config.validate_config(cfg)
    solver_cfg = config.build_solver_config(cfg, config.build_field(cfg))
    traj = solve(solver_cfg, config.build_initial(solver_cfg.grid, cfg["solver"]["initial"]))
    harnack, gain, holder = (config.run_probe(traj, spec) for spec in cfg["probes"])
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
