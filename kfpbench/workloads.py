"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed, has a ``setup``
(what the program does before its first step or measurement) and a
``round`` of operations whose outputs it checks against :mod:`oracles` or
against properties the scheme must have.  A round returns the time spent
inside the program's calls; the checks run outside that time.

kfplab is imported inside the methods: the benchmark process imports it only
after the caller has put the checkout's ``src`` on ``sys.path``.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
from pathlib import Path

import numpy as np

import oracles
from harness import Context

# d = 2 collision steps go negative at an anisotropy ratio of 2: the
# face-averaged nine-point cross-diffusion stencil of solver._Collision2D is
# not an M-matrix.  `kfplab solve` then fails its positivity invariant and
# exits 4, on every run.
D2_KNOWN_FAULTS = frozenset({"positivity", "exit_code"})

POSITIVITY_TOL = 1e-12
LEDGER_RTOL = 1e-12
MB = 1e6


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _write_json(obj: dict, path: Path) -> Path:
    path.write_text(json.dumps(obj, sort_keys=True))
    return path


def _gaussian_initial(cx=2.5, sx=0.2, sv=0.35, floor=0.0):
    return {"kind": "gaussian", "center_x": cx, "sigma_x": sx, "sigma_v": sv, "floor": floor}


class _Workload:
    name = ""
    reference_mix = "grid"

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed % 2**31  # kfplab's generators take non-negative seeds
        self.scratch = scratch
        self._round = 0

    def fresh_dir(self, label: str) -> Path:
        out = self.scratch / f"round{self._round:03d}" / label
        out.mkdir(parents=True)
        return out

    def cli_setup(self, cfg: dict) -> None:
        """What `kfplab run/solve` does before the first step."""
        from kfplab import config, fields

        path = _write_json(cfg, self.scratch / "setup.json")
        loaded = config.load_config(path)
        field = config.build_field(loaded)
        solver_cfg = config.build_solver_config(loaded, field)
        config.build_initial(solver_cfg.grid, loaded["solver"]["initial"])
        fields.certify_field(field, seed=int(loaded["seed"]))

    def run_round(self, ctx: Context) -> dict:
        """One round; returns its program time, the median reference sample
        taken during it, and any per-round extras."""
        self._round += 1
        ctx.program_s = 0.0
        first = len(ctx.reference_s)
        try:
            extras = self.round(ctx)
        finally:
            shutil.rmtree(self.scratch / f"round{self._round:03d}", ignore_errors=True)
        return {"program_s": ctx.program_s,
                "reference_s": statistics.median(ctx.reference_s[first:]), **extras}


def check_stored_run(out: Path, cell: float) -> dict[str, bool]:
    """Positivity, and mass and L^2 of every snapshot file against the ledger."""
    mismatch, fmin = oracles.snapshots_against_ledger(out, cell)
    scale = max(1.0, float(oracles.read_ledger(out / "ledger.csv")["fmax"][0]))
    return {"ledger_matches_snapshots": mismatch <= LEDGER_RTOL,
            "positivity": fmin >= -POSITIVITY_TOL * scale}


class RoughPair(_Workload):
    """A criterion-08 ensemble pair run and replayed through the CLI.

    Checkerboard A with B != 0, lambda = 0.5, Lambda = 2, field seed 100:
    criterion 08 compares a member with its refinement.  The pair here is
    32^2 at dt = 1/4096 and 64^2 at dt = 1/8192 (snapshots every 1/128 in
    time plus a 0.014 tail of every step).  The field seed stays 100, the
    first of criterion 08's ensemble, for every benchmark seed: seeds 100-119
    change C_emp by up to 28% between these two sizes, so the 25% property
    holds for single pairs only on some seeds.
    """

    name = "rough-pair"
    MEMBERS = (("coarse", 32, 1 / 4096, 32), ("fine", 64, 1 / 8192, 64))
    FIELD_SEED = 100

    def config(self, n: int, dt: float, stride: int, out: Path) -> dict:
        return {
            "schema_version": 1,
            "seed": self.FIELD_SEED,
            "solver": {"d": 1, "x_extent": 5.0, "nx": n, "v_max": 4.0, "nv": n,
                       "dt": dt, "t_end": 1.0, "snapshot_stride": stride,
                       "snapshot_tail": 0.014, "initial": _gaussian_initial(floor=0.01)},
            "field": {"recipe": "checkerboard", "lambda": 0.5, "Lambda": 2.0, "cell": 1.0,
                      "b_max": 2.0, "s_max": 0.0, "seed": self.FIELD_SEED},
            "probes": [
                {"name": "harnack", "R": 0.25, "Delta": 0.3, "rho1": 0.4, "rho2": 0.6,
                 "center": [2.5, 0.0, 0.9]},
                {"name": "gain", "r_int": 0.7, "r_ext": 0.95, "center": [2.5, 0.0, 1.0]},
                {"name": "holder", "omega": 0.9, "k_levels": 3, "r_base": 0.45,
                 "center": [2.5, 0.0, 1.0]},
            ],
            "output": {"dir": str(out)},
        }

    def setup(self) -> None:
        _, n, dt, stride = self.MEMBERS[0]
        self.cli_setup(self.config(n, dt, stride, self.scratch / "unused"))

    def round(self, ctx: Context) -> dict:
        from kfplab import cli

        written = 0
        constants = {}
        for label, n, dt, stride in self.MEMBERS:
            out = self.fresh_dir(label)
            path = _write_json(self.config(n, dt, stride, out / "run"), out / "cfg.json")
            rc_run = ctx.timed(cli.main, ["run", "--config", str(path)])
            in_run = (out / "run" / "report.json").read_bytes()
            with ctx.span("replay"):
                rc_probe = ctx.timed(cli.main, ["probe", "--config", str(path)])
            replay = (out / "run" / "report.json").read_bytes()
            written += _tree_bytes(out / "run")

            cell = (5.0 / n) * (8.0 / n)
            ctx.tally.record(f"{label}.run", {"exit_code": rc_run == 0,
                                              **check_stored_run(out / "run", cell)})
            ctx.tally.record(f"{label}.probe", {"exit_code": rc_probe == 0,
                                                "replay_byte_identical": replay == in_run})
            probes = {p["name"]: p["constants"] for p in json.loads(in_run)["probes"]}
            constants[label] = (float(probes["harnack"]["c_emp"]),
                                float(probes["gain"]["cbar"]),
                                float(probes["holder"]["alpha_fit"]))
        (c0, g0, a0), (c1, g1, a1) = constants["coarse"], constants["fine"]
        ctx.tally.record("pair", {"c_emp_change_below_25pct": abs(c1 - c0) / c0 < 0.25,
                                  "gain_change_below_25pct": abs(g1 - g0) / g0 < 0.25,
                                  "alpha_positive": a0 > 0.0 and a1 > 0.0})
        return {"written_mb": written / MB}


class ProbeSuite(_Workload):
    """All twelve probe kinds on a constant-diffusion run and its transform.

    The run is the A = I reference run (64^2, dt = 1/8192, a 0.02 tail of
    every step).  The seed draws the Galilean shift, the value scaling and
    one slanted cylinder for the brute-force recomputation.
    """

    name = "probe-suite"

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        rng = np.random.default_rng((self.seed, 0x9B0BE))
        self.shift = (rng.uniform(0.0, 1.0), rng.uniform(-0.6, 0.6), rng.uniform(0.0, 0.5))
        self.scale = float(rng.uniform(0.5, 4.0))
        self.cylinder = ((2.5 + rng.uniform(-0.3, 0.3),), (rng.uniform(-0.5, 0.5),),
                         float(rng.uniform(0.9, 1.0)), float(rng.uniform(0.4, 0.6)))

    def inputs(self):
        from kfplab.fields import ConstantRecipe, EllipticityBounds, sample_field
        from kfplab.solver import SolverConfig
        from kfplab.trajectory import PhaseGrid, PhaseGridFunction

        grid = PhaseGrid(d=1, x_extent=5.0, nx=64, v_max=4.0, nv=64)
        field = sample_field(ConstantRecipe(), EllipticityBounds(1.0, 1.0), seed=0, d=1)
        cfg = SolverConfig(grid=grid, dt=1 / 8192, t_end=1.0, field=field,
                           snapshot_stride=64, snapshot_tail=0.02)
        x, v = self.axes(64, 5.0, 64, 4.0)
        f0 = PhaseGridFunction(grid, self.bump(x, v, 2.5, 0.2, 0.35) + 0.01, 0.0)
        return field, cfg, f0

    @staticmethod
    def axes(nx, x_extent, nv, v_max):
        x = np.arange(nx) * (x_extent / nx)
        v = -v_max + np.arange(nv) * (2.0 * v_max / nv)
        return np.meshgrid(x, v, indexing="ij")

    @staticmethod
    def bump(x, v, cx, sx, sv):
        return np.exp(-0.5 * ((x - cx) ** 2 / sx**2 + v**2 / sv**2)) / (2 * math.pi * sx * sv)

    def setup(self) -> None:
        from kfplab import fields

        field, _, _ = self.inputs()
        fields.certify_field(field, seed=0)

    def round(self, ctx: Context) -> dict:
        from kfplab import geometry, probes, solver

        tally = ctx.tally
        _, cfg, f0 = self.inputs()
        traj = ctx.timed(solver.solve, cfg, f0)
        drift, growth = oracles.conservation({k: traj.ledger.column(k) for k in ("mass", "l2")})
        tally.record("solve", {"mass_drift": drift <= 1e-12, "l2_nonincreasing": growth <= 1e-12,
                               "positivity": float(traj.values.min()) >= 0.0})

        reference = ctx.timed(all_probe_constants, traj)
        shift = geometry.KineticPoint.of(*self.shift)
        moved = ctx.timed(all_probe_constants, traj.transformed(shift), shift)
        worst = max((abs(moved[k] - ref) / max(1.0, abs(ref)) for k, ref in reference.items()
                     if not (math.isnan(ref) and math.isnan(moved[k]))), default=math.inf)
        tally.record("probes", {"galilean_invariance": worst <= 1e-10})

        params = probes.HarnackParams(r=0.25, delta=0.3, rho1=0.4, rho2=0.6, q=2.0,
                                      center=geometry.KineticPoint.of(2.5, 0.0, 0.9))
        scaled = ctx.timed(probes.harnack_probe, traj.scaled_values(self.scale), params)
        c_ref = reference["harnack_c_emp"]
        tally.record("probes.scaled", {
            "harnack_scale_invariance":
                abs(scaled.constants["c_emp"] - c_ref) / c_ref <= 1e-12})

        self.brute_force_cylinder(traj, ctx)
        self.kolmogorov(ctx)
        return {}

    def brute_force_cylinder(self, traj, ctx: Context) -> None:
        from kfplab import geometry, probes

        x0, v0, t0, r = self.cylinder
        q = geometry.Cylinder(geometry.KineticPoint.of(x0, v0, t0), r)
        norm2, osc, levels = ctx.timed(
            lambda: (probes.norm_on_cylinder(traj, q, 2.0), probes.oscillation(traj, q),
                     probes.level_set_measures(traj, 0.5, q)))
        x, v = self.axes(64, 5.0, 64, 4.0)
        brute = oracles.cylinder_statistics(
            traj.values, traj.times, x[..., None], v[..., None], traj.grid.cell_volume,
            (x0, v0, t0), r, 0.5)
        measure = brute["ls_high"] + brute["ls_low"] + brute["ls_mid"]
        ctx.tally.record("probes.cylinder", {
            "norm2": abs(norm2 - brute["norm2"]) <= 1e-12 * brute["norm2"],
            "oscillation": abs(osc - brute["osc"]) <= 1e-12 * brute["osc"],
            "level_sets": all(abs(getattr(levels, k) - brute[f"ls_{k}"]) <= 1e-12 * measure
                              for k in ("high", "low", "mid")),
            "region_nonempty": measure > 0.0,
        })

    def kolmogorov(self, ctx: Context) -> None:
        """Criterion-05 sizes: moments within 2%, L1 refinement ratio in [0.35, 0.65]."""
        from kfplab.fields import ConstantRecipe, EllipticityBounds, sample_field
        from kfplab.solver import SolverConfig, solve
        from kfplab.trajectory import PhaseGrid, PhaseGridFunction

        sx, sv = 0.2, 0.35
        field = sample_field(ConstantRecipe(), EllipticityBounds(1.0, 1.0), seed=0, d=1)
        errors = []
        moments_ok = True
        for n, dt in ((128, 1 / 8), (256, 1 / 16)):
            grid = PhaseGrid(d=1, x_extent=8.0, nx=n, v_max=6.0, nv=n)
            cfg = SolverConfig(grid=grid, dt=dt, t_end=1.0, field=field,
                               snapshot_stride=10**6)
            x, v = self.axes(n, 8.0, n, 6.0)
            f0 = PhaseGridFunction(grid, self.bump(x, v, 4.0, sx, sv), 0.0)
            traj = ctx.timed(solve, cfg, f0)
            f = traj.values[-1]
            w = grid.cell_volume
            m = f.sum() * w
            mx, mv = (f * x).sum() * w / m, (f * v).sum() * w / m
            measured = ((f * (x - mx) ** 2).sum() * w / m, (f * (x - mx) * (v - mv)).sum() * w / m,
                        (f * (v - mv) ** 2).sum() * w / m)
            expected = oracles.evolved_moments(1.0, sx**2, sv**2)
            if n == 128:
                moments_ok = all(abs(a - b) / b <= 0.02 for a, b in zip(measured, expected))
            exact = oracles.evolved_gaussian(x, v, 1.0, sx**2, sv**2, mean_x=4.0)
            errors.append(float(np.abs(f - exact).sum() * w))
        ratio = errors[1] / errors[0]
        ctx.tally.record("kolmogorov", {"moments_within_2pct": moments_ok,
                                        "l1_refinement_ratio": 0.35 <= ratio <= 0.65})


def all_probe_constants(traj, shift=None) -> dict[str, float]:
    """Every probe kind on the reference geometry, moved by ``shift`` if given."""
    from kfplab import geometry, probes
    from kfplab.geometry import Cylinder, CylinderShape, KineticPoint

    def mv(point):
        return point if shift is None else geometry.GalileanTransform(shift).apply(point)

    center = mv(KineticPoint.of(2.5, 0.0, 1.0))
    mid = mv(KineticPoint.of(2.5, 0.0, 0.9))
    q_small, q_big = Cylinder(center, 0.25), Cylinder(center, 0.5)
    out = {
        "norm2": probes.norm_on_cylinder(traj, q_big, 2.0),
        "norm_inf": probes.norm_on_cylinder(traj, q_big, math.inf),
        "osc": probes.oscillation(traj, q_big),
    }
    ls = probes.level_set_measures(traj, 0.5, q_big)
    out.update(ls_high=ls.high, ls_low=ls.low, ls_mid=ls.mid)
    hp = probes.HarnackParams(r=0.25, delta=0.3, rho1=0.4, rho2=0.6, q=2.0, center=mid)
    pp = probes.HarnackParams(r=0.1, delta=0.015, rho1=0.2, rho2=0.3, q=2.0, center=center)
    reports = {
        "gain": probes.gain_probe(traj, q_small, q_big),
        "energy": probes.energy_estimate_check(traj, q_small, q_big),
        "harnack": probes.harnack_probe(traj, hp),
        "holder": probes.holder_fit(traj, center, omega=0.9, k_levels=3, r_base=0.45),
        "doubling": probes.doubling_probe(traj, omega=0.25, n_levels=2,
                                          z0=mv(KineticPoint.of(2.5, 0.0, 0.25)), r=0.19),
        "caccio": probes.caccioppoli_probe(traj, center, 0.3),
        "gehring": probes.gehring_probe(traj, 2.0, Cylinder(center, 0.7, CylinderShape.CUBE),
                                        theta=0.5),
        "prop": probes.propagation_probe(traj, pp, r_ladder=[0.08, 0.1, 0.12]),
    }
    for prefix, report in reports.items():
        out.update({f"{prefix}_{k}": v for k, v in report.constants.items()})
    out["wmean"] = probes.weighted_mean(traj, center, 0.3, center.t)
    out["fractional"] = probes.fractional_seminorm(traj, 1.0 / 3.0, Cylinder(center, 0.4),
                                                   n_pairs=4000, seed=5)
    return out


class Reassembly(_Workload):
    """`kfplab solve` on two inputs that reassemble the collision operator
    every step: a d = 1 smooth field (b_max = s_max = 0, seeded) and a fixed
    d = 2 rotating field at an anisotropy ratio of 2."""

    name = "reassembly"

    def d1_config(self, out: Path) -> dict:
        return {
            "schema_version": 1, "seed": self.seed,
            "solver": {"d": 1, "x_extent": 4.0, "nx": 64, "v_max": 3.0, "nv": 64,
                       "dt": 1 / 1024, "t_end": 1.0, "snapshot_stride": 64,
                       "initial": _gaussian_initial(cx=2.0, sx=0.4, sv=0.5)},
            "field": {"recipe": "smooth", "lambda": 0.5, "Lambda": 2.0, "b_max": 0.0,
                      "s_max": 0.0, "seed": self.seed},
            "output": {"dir": str(out)},
        }

    @staticmethod
    def d2_config(out: Path) -> dict:
        return {
            "schema_version": 1, "seed": 4,
            "solver": {"d": 2, "x_extent": 4.0, "nx": 8, "v_max": 3.0, "nv": 8,
                       "dt": 1 / 64, "t_end": 0.125, "snapshot_stride": 1,
                       "initial": _gaussian_initial(cx=2.0, sx=0.4, sv=0.5)},
            "field": {"recipe": "rotating", "lambda": 1.0, "Lambda": 2.0, "period": 1.0,
                      "seed": 4},
            "output": {"dir": str(out)},
        }

    def setup(self) -> None:
        self.cli_setup(self.d1_config(self.scratch / "unused"))

    def round(self, ctx: Context) -> dict:
        from kfplab import cli

        written = 0
        for label, cfg_fn, cell, known in (
            ("d1", self.d1_config, (4.0 / 64) * (6.0 / 64), frozenset()),
            ("d2", self.d2_config, (4.0 / 8) ** 2 * (6.0 / 8) ** 2, D2_KNOWN_FAULTS),
        ):
            out = self.fresh_dir(label)
            path = _write_json(cfg_fn(out / "run"), out / "cfg.json")
            rc = ctx.timed(cli.main, ["solve", "--config", str(path)])
            written += _tree_bytes(out / "run")
            drift, growth = oracles.conservation(oracles.read_ledger(out / "run" / "ledger.csv"))
            ctx.tally.record(label, {"exit_code": rc == 0, "mass_drift": drift <= 1e-12,
                                     "l2_nonincreasing": growth <= 1e-12,
                                     **check_stored_run(out / "run", cell)}, known)
        return {"written_mb": written / MB}


class LandauCoulomb(_Workload):
    """Coefficient bounds of a d = 3 Maxwellian at n = 32 for the Coulomb
    case gamma = -3 and one seeded gamma in [-2, 0]; the FFT convolution
    against a direct sum on a 5^3 grid."""

    name = "landau-coulomb"
    reference_mix = "fft"

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        rng = np.random.default_rng((self.seed, 0x1A9DA))
        self.gammas = (-3.0, float(rng.uniform(-2.0, 0.0)))

    def setup(self) -> None:
        from kfplab import landau

        grid = landau.VelocityGrid(v_max=6.0, n=32, d=3)
        landau.maxwellian(grid)
        for gamma in self.gammas:
            landau.LandauParams(d=3, gamma=gamma)

    def round(self, ctx: Context) -> dict:
        from kfplab import landau

        tally = ctx.tally
        grid = landau.VelocityGrid(v_max=6.0, n=32, d=3)
        f = landau.maxwellian(grid)
        mass, second = oracles.velocity_moments(f.values, grid.h, 3)
        bounds = landau.MomentBounds(m1=0.5, m0=2.0, e0=2.0, h0=0.0)
        for gamma in self.gammas:
            report = ctx.timed(landau.check_coefficient_bounds, f,
                               landau.LandauParams(d=3, gamma=gamma), bounds)
            m, e, _ = report.moments
            tally.record(f"bounds(gamma={gamma:.4f})", {
                "verdict_ok": report.verdict == "ok",
                "kappa_formula": abs(report.kappa - oracles.kappa(gamma, 3)) <= 1e-12,
                "det_positive": report.det_ratio_min > 0.0,
                "mass_near_1": abs(mass - 1.0) <= 1e-6,
                "second_moment_near_3": abs(second - 3.0) <= 3e-6,
                "moments_match": abs(m - mass) <= 1e-12 and abs(2.0 * e - second) <= 1e-12 * 3,
            })

        coarse = landau.VelocityGrid(v_max=3.0, n=5, d=3)
        g = landau.maxwellian(coarse)
        params = landau.LandauParams(d=3, gamma=self.gammas[1])
        worst = 0.0
        for kernel in (landau.kernel_a(coarse, params), landau.kernel_b(coarse, params),
                       landau.kernel_c(coarse, params)):
            fast = ctx.timed(landau.convolve_fft, g, kernel)
            direct = oracles.lattice_convolution(g.values, kernel, coarse.h)
            worst = max(worst, float(np.max(np.abs(fast - direct)) / np.max(np.abs(direct))))
        tally.record("convolve_fft", {"matches_direct_sum": worst <= 1e-10})
        return {}


WORKLOADS = {w.name: w for w in (RoughPair, ProbeSuite, Reassembly, LandauCoulomb)}
