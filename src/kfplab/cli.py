"""Command-line front end binding fields, solver and probes into reproducible
experiments.

Subcommands: run (solve + probes + report), solve (PDE only), probe (re-run
probes on stored snapshots), landau (coefficient fields and bound checks from
a stored velocity profile), geometry (covering and group-law self-tests),
iterate (recursion sweeps to CSV).

Exit codes: 0 success, 2 invalid config, 3 solver failure, 4 invariant
violation.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import iteration, storage
from .config import (SCHEMA_VERSION, ConfigError, build_field, build_initial, build_solver_config,
                     check_memory, given, load_config, run_probe)
from .fields import certify_field
from .geometry import group_product, group_quotient, verify_covering
from .landau import (
    LandauParams,
    MomentBounds,
    VelocityGrid,
    VelocityGridFunction,
    check_coefficient_bounds,
    maxwellian,
)
from .probes import lower_order_free, source_nonnegative
from .storage import (
    canonical_json,
    config_digest,
    load_trajectory,
    read_velocity_profile,
    save_trajectory,
    write_report,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INVARIANT = 4


def _out_dir(cfg: dict, args) -> Path:
    if args.out:
        return Path(args.out)
    return Path(cfg.get("output", {}).get("dir", "out"))


def _seed(cfg: dict, args) -> int:
    return args.seed if args.seed is not None else cfg.get("seed", 0)


def _invariants(traj, cert) -> list[dict]:
    """Hard invariant checks, recomputable identically from stored artifacts."""
    out = [
        {"name": "certify_field", "value": cert.verdict, "passed": cert.verdict == "ok"}
    ]
    ledger = traj.ledger
    if ledger is None:
        return out
    field = traj.field
    mass, l2, fmin, fmax = map(ledger.column, ("mass", "l2", "fmin", "fmax"))
    scale = max(1.0, float(fmax[0]))
    if lower_order_free(field):
        drift = float(np.max(np.abs(mass - mass[0]))) / max(1.0, abs(float(mass[0])))
        out.append({"name": "mass_conservation", "value": drift, "passed": drift <= 1e-12})
        growth = float(np.max(np.diff(l2))) / max(1.0, float(l2[0]))
        out.append({"name": "l2_nonincreasing", "value": growth, "passed": growth <= 1e-12})
    if source_nonnegative(field):
        worst = float(fmin.min())
        out.append({"name": "positivity", "value": worst, "passed": worst >= -1e-12 * scale})
    return out


def _report(cfg: dict, probes: list[dict], invariants: list[dict]) -> dict:
    return {
        "schema_version": storage.SCHEMA_VERSION,
        "config_digest": config_digest(cfg),
        "probes": probes,
        "invariants": invariants,
    }


def _cmd_solve(cfg: dict, args, with_probes: bool) -> int:
    from .solver import SolverFailure, solve

    field = build_field(cfg, seed_override=args.seed)
    solver_cfg = build_solver_config(cfg, field)
    f0 = build_initial(solver_cfg.grid, cfg["solver"].get("initial"))
    try:
        traj = solve(solver_cfg, f0)
    except (np.linalg.LinAlgError, SolverFailure) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    out = _out_dir(cfg, args)
    out.mkdir(parents=True, exist_ok=True)
    save_trajectory(out, traj, seed=_seed(cfg, args), digest=config_digest(cfg))
    return _probe_and_report(cfg, traj, out, with_probes)


def _probe_and_report(cfg: dict, traj, out: Path, with_probes: bool) -> int:
    """Run the config's probes (when asked), certify the run's field on its own
    domain (its grid and stored times) with the field's own seed, then write
    probes.csv and report.json."""
    probe_reports = []
    if with_probes:
        for spec in cfg.get("probes", []):
            try:
                probe_reports.append(run_probe(traj, spec).to_dict())
            except ValueError as exc:
                print(f"probe {spec.get('name')!r} rejected: {exc}", file=sys.stderr)
                return EXIT_CONFIG
        _write_probe_csv(out / "probes.csv", probe_reports)
    g = traj.grid
    box = (0.0, g.x_extent), (-g.v_max, g.v_max), (float(traj.times[0]), float(traj.times[-1]))
    cert = certify_field(traj.field, seed=traj.field.descriptor["seed"], box=box)
    invariants = _invariants(traj, cert)
    write_report(out / "report.json", _report(cfg, probe_reports, invariants))
    if not all(item["passed"] for item in invariants):
        print("invariant violation; see report.json", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _write_probe_csv(path, probe_reports: list[dict]) -> None:
    """Flat probe/constant table (ladders included) for external plotting."""
    lines = ["probe,constant,value"]
    for entry in probe_reports:
        for key in sorted(entry["constants"]):
            lines.append(f"{entry['name']},{key},{entry['constants'][key]!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def _cmd_probe(cfg: dict, args) -> int:
    out = _out_dir(cfg, args)
    try:
        traj = load_trajectory(out)
    except (OSError, ValueError) as exc:
        print(f"cannot load snapshots from {out}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if traj.field is None:
        print(f"{out / 'run_meta.json'} stores no field descriptor to replay", file=sys.stderr)
        return EXIT_CONFIG
    return _probe_and_report(cfg, traj, out, with_probes=True)


def _cmd_landau(cfg: dict, args) -> int:
    section = cfg.get("landau")
    if section is None:
        raise ConfigError("config has no landau section")
    d = section.get("d", 3)
    try:
        iteration.kappa_exponent(section["gamma"], d)  # the bound check covers gamma in [-d, 0] only
        params = LandauParams(d=d, **given(section, "gamma", "a_const", "b_const", "c_const"))
        bounds = MomentBounds(**section.get("bounds", {"m1": 0.1, "m0": 10.0, "e0": 10.0, "h0": 10.0}))
        if "input" in section:
            values, v_max = read_velocity_profile(section["input"])
            profile = VelocityGridFunction(VelocityGrid(v_max=v_max, n=values.shape[0], d=d), values)
        else:
            spec = section.get("profile", {})
            n = spec.get("n", 16)
            check_memory(f"the profile's {n}^{d} values", 8 * n**d)
            grid = VelocityGrid(v_max=spec.get("v_max", 6.0), n=n, d=d)
            profile = maxwellian(grid, **given(spec, "sigma"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot set up the landau check: {exc}") from exc
    try:
        report = check_coefficient_bounds(profile, params, bounds)
    except ValueError as exc:
        print(f"bound check rejected: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    m, e, h = report.moments
    out = _out_dir(cfg, args)
    out.mkdir(parents=True, exist_ok=True)
    payload = _report(cfg, [{
        "name": "landau_bounds",
        "params": {"gamma": params.gamma, "d": d, "n": profile.grid.n, "v_max": profile.grid.v_max},
        "constants": report.to_dict(),
        "verdict": report.verdict,
    }], [])
    write_report(out / "landau_report.json", payload)
    print(canonical_json({"kappa": report.kappa, "det_ratio_min": report.det_ratio_min,
                          "moments": [m, e, h]}))
    return EXIT_OK if report.verdict == "ok" else EXIT_INVARIANT


def _cmd_geometry(cfg: dict, args) -> int:
    section = cfg.get("geometry", {})
    seed = _seed(cfg, args)
    n_checks = section.get("n_selfchecks", 2000)
    rng = np.random.default_rng(seed)
    d = section.get("d", 1)
    try:
        covering = verify_covering(
            delta=section.get("delta", 0.2),
            r_plus=section.get("R", 1e-11),
            r0=section.get("r0", 0.1),
            n_samples=section.get("n_samples", 4096),
            d=d,
            seed=seed,
            **given(section, "omega"),
        )
    except ValueError as exc:
        raise ConfigError(f"geometry: {exc}") from exc
    # check i draws the (x, v, t) of its z0, z1 and z in turn
    draws = rng.normal(size=(n_checks, 3, 2 * d + 1))
    z0, z1, z = ((p[:, :d], p[:, d:-1], p[:, -1]) for p in draws.swapaxes(0, 1))
    left = group_product(z0, group_product(z1, z))
    right = group_product(group_product(z0, z1), z)
    back = group_quotient(z0, group_product(z0, z))
    deviations = (left[0] - right[0], left[2] - right[2], back[0] - z[0], back[1] - z[1], back[2] - z[2])
    worst = max(float(np.abs(dev).max(initial=0.0)) for dev in deviations)
    group_ok = worst <= 1e-10
    out = _out_dir(cfg, args)
    out.mkdir(parents=True, exist_ok=True)
    payload = _report(cfg, [
        {"name": "group_law", "params": {"n_checks": n_checks},
         "constants": {"worst_deviation": worst},
         "verdict": "ok" if group_ok else "violated"},
        {"name": "covering", "params": covering.params,
         "constants": {"claim_a_counterexamples": float(len(covering.claim_a_counterexamples)),
                       "claim_b_counterexamples": float(len(covering.claim_b_counterexamples)),
                       "claim_b_threshold": covering.claim_b_threshold},
         "verdict": f"a:{covering.verdict_a};b:{covering.verdict_b}"},
    ], [])
    write_report(out / "geometry_report.json", payload)
    failed = (not group_ok) or covering.verdict_a == "fail" or covering.verdict_b == "fail"
    return EXIT_INVARIANT if failed else EXIT_OK


def _cmd_iterate(cfg: dict, args) -> int:
    section = cfg.get("iterate", {})
    degiorgi = section.get("degiorgi", [
        {"beta": 1.0, "alpha": 2.0, "v0": 0.5},
        {"beta": 4.0, "alpha": 1.5, "v0": 1e-8},
    ])
    moser = section.get("moser", [{"p": 4.0, "cbar": 2.0, "a": 1.0, "n": 60}])
    try:
        reps = [iteration.degiorgi_threshold(c["beta"], c["alpha"], c["v0"]) for c in degiorgi]
        limits = [iteration.moser_product(c["p"], c["cbar"], c["a"], c["n"])[1] for c in moser]
    except ValueError as exc:
        raise ConfigError(f"iterate: {exc}") from exc
    out = _out_dir(cfg, args)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["beta,alpha,v0,gamma,verdict"] + [
        f"{c['beta']!r},{c['alpha']!r},{c['v0']!r},{rep.gamma!r},{rep.verdict}"
        for c, rep in zip(degiorgi, reps)
    ]
    (out / "degiorgi.csv").write_text("\n".join(lines) + "\n")
    lines = ["p,cbar,a,n,partial_product"] + [
        f"{c['p']!r},{c['cbar']!r},{c['a']!r},{c['n']},{limit!r}" for c, limit in zip(moser, limits)
    ]
    (out / "moser.csv").write_text("\n".join(lines) + "\n")
    return EXIT_OK


_COMMANDS = {
    "run": partial(_cmd_solve, with_probes=True),
    "solve": partial(_cmd_solve, with_probes=False),
    "probe": _cmd_probe,
    "landau": _cmd_landau,
    "geometry": _cmd_geometry,
    "iterate": _cmd_iterate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="kfplab", description=__doc__)
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--config", type=str, default=None, help="path to the JSON config")
    parser.add_argument("--out", type=str, default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed override for run, solve and geometry")
    args = parser.parse_args(argv)
    if args.config is None and args.command in ("run", "solve", "probe", "landau"):
        print("--config is required for this command", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None and args.seed < 0:
        print(f"--seed must be at least 0, got {args.seed}", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None and args.command in ("probe", "landau", "iterate"):
        print(f"--seed has no effect on {args.command}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        cfg = load_config(args.config) if args.config is not None else {"schema_version": SCHEMA_VERSION}
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except np.linalg.LinAlgError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
