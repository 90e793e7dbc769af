import copy
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import traced_peak
from kfplab import cli, storage
from kfplab.cli import main
from kfplab.config import (
    SCHEMA,
    Min,
    Pick,
    Req,
    build_field,
    build_initial,
    build_solver_config,
    load_config,
    validate_config,
)
from kfplab.storage import (
    canonical_json,
    load_trajectory,
    read_snapshot,
    read_velocity_profile,
    write_snapshot,
    write_velocity_profile,
)
from kfplab.landau import VelocityGrid, maxwellian
from kfplab.solver import SolverConfig
from kfplab.trajectory import EnergyLedger, LedgerRow, PhaseGrid

# `kfplab geometry` reports written by kfplab at commit 5bc6bae (see test_geometry)
GOLDEN = json.loads((Path(__file__).parent / "data" / "geometry_golden.json").read_text())


def base_config(out_dir, initial=None, field=None, probes=None):
    return {
        "schema_version": 1,
        "seed": 42,
        "solver": {
            "d": 1, "x_extent": 4.0, "nx": 32, "v_max": 3.0, "nv": 32,
            "dt": 0.015625, "t_end": 0.25, "snapshot_stride": 2,
            "initial": initial or {"kind": "zero"},
        },
        "field": field or {"recipe": "checkerboard", "lambda": 0.5, "Lambda": 2.0,
                           "cell": 1.0, "b_max": 1.0, "s_max": 0.0, "seed": 5},
        "probes": probes if probes is not None else [
            {"name": "harnack", "R": 0.25, "Delta": 0.09375, "rho1": 0.4, "rho2": 0.6,
             "center": [2.0, 0.0, 0.25]},
            {"name": "norm", "p": 2, "r": 0.4, "center": [2.0, 0.0, 0.25]},
        ],
        "output": {"dir": str(out_dir)},
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestSnapshotFormat:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((8, 8))
        path = tmp_path / "snap.kfs"
        write_snapshot(path, values, {"kind": "phase", "time": 0.125, "seed": 3,
                                      "extents": {}, "spacings": {}})
        header, back = read_snapshot(path)
        assert back.tobytes() == values.tobytes()
        assert header["time"] == 0.125
        assert header["dims"] == [8, 8]

    def test_velocity_profile_round_trip(self, tmp_path):
        grid = VelocityGrid(v_max=4.0, n=12, d=3)
        f = maxwellian(grid)
        path = tmp_path / "profile.kvg"
        write_velocity_profile(path, f.values, grid.v_max)
        back, v_max = read_velocity_profile(path)
        assert v_max == 4.0
        assert np.array_equal(back, f.values)

    def test_ledger_round_trip(self, tmp_path):
        # each value is written as its repr and read back to the same bits
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((10_000, 7)) * 10.0 ** rng.integers(-300, 300, (10_000, 7))
        vals[:4] = [[-0.0, 5e-324, 1e-310, 1e300, -1e300, 0.1, 2.5e-308]] * 4
        ledger = EnergyLedger(tuple(LedgerRow(n, *row) for n, row in enumerate(vals.tolist())))
        path = tmp_path / "ledger.csv"
        storage.write_ledger(path, ledger)
        lines = [",".join(repr(getattr(r, name)) for name in EnergyLedger.FIELDS)
                 for r in ledger.rows]
        assert path.read_text() == "\n".join([",".join(EnergyLedger.FIELDS)] + lines) + "\n"
        back = storage.read_ledger(path)
        assert [r.step for r in back.rows] == list(range(10_000))
        assert np.array([r[1:] for r in back.rows]).tobytes() == vals.tobytes()
        path.write_text(path.read_text().replace("1e+300", "1e+300x", 1))
        with pytest.raises(ValueError):
            storage.read_ledger(path)


class TestRunCommand:
    def test_zero_data_degenerate_probes_exit_zero(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out))
        assert main(["run", "--config", str(cfg)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["probes"][0]["verdict"] == "degenerate"
        assert all(item["passed"] for item in report["invariants"])

    def test_corrupted_field_exit_four(self, tmp_path):
        out = tmp_path / "out"
        config = base_config(out)
        config["field"]["scale_a"] = 6.0
        cfg = write_config(tmp_path, config)
        assert main(["run", "--config", str(cfg)]) == 4
        report = json.loads((out / "report.json").read_text())
        cert = [i for i in report["invariants"] if i["name"] == "certify_field"][0]
        assert not cert["passed"]

    def test_field_broken_only_during_the_run_exit_four(self, tmp_path, monkeypatch):
        # A tripled for t >= 0 only: the certificate must sample the run's own times
        def broken_field(cfg, seed_override=None):
            field = build_field(cfg, seed_override)
            a_fn = field.a_fn

            def tripled(x, v, t):
                return np.where((np.asarray(t) >= 0.0)[..., None, None], 3.0, 1.0) * a_fn(x, v, t)

            return replace(field, a_fn=tripled, nodes_fn=None)

        monkeypatch.setattr(cli, "build_field", broken_field)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out))
        assert main(["run", "--config", str(cfg)]) == 4
        report = json.loads((out / "report.json").read_text())
        cert = [i for i in report["invariants"] if i["name"] == "certify_field"][0]
        assert cert["value"] == "violated"

    def test_nan_mid_solve_exits_three_with_its_step(self, tmp_path, capsys, monkeypatch):
        # the ledger reads finiteness from fmin and fmax; step 5 lies inside
        # the first block of 32 states the ledger reduces
        from kfplab import solver

        apply = solver._Collision1D.apply
        calls = []

        def poisoned(self, values, t):
            out = apply(self, values, t)
            calls.append(t)
            if len(calls) == 5:
                out[3, 7] = np.nan
            return out

        monkeypatch.setattr(solver._Collision1D, "apply", poisoned)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out))
        assert main(["solve", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert re.search(r"solver failure: .*\bstep 5\b", err)
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg1 = write_config(tmp_path, base_config(
            out1, initial={"kind": "gaussian", "center_x": 2.0, "sigma_x": 0.3,
                           "sigma_v": 0.4, "floor": 0.01}), "c1.json")
        cfg2 = write_config(tmp_path, base_config(
            out2, initial={"kind": "gaussian", "center_x": 2.0, "sigma_x": 0.3,
                           "sigma_v": 0.4, "floor": 0.01}), "c2.json")
        assert main(["run", "--config", str(cfg1)]) == 0
        assert main(["run", "--config", str(cfg2)]) == 0
        r1 = (out1 / "report.json").read_bytes()
        r2 = (out2 / "report.json").read_bytes()
        # digests differ only through the output dir; compare probe payloads
        p1 = json.loads(r1)["probes"]
        p2 = json.loads(r2)["probes"]
        assert canonical_json(p1) == canonical_json(p2)
        assert json.loads(r1)["invariants"] == json.loads(r2)["invariants"]

    def test_replay_probe_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        config = base_config(out, initial={"kind": "gaussian", "center_x": 2.0,
                                           "sigma_x": 0.3, "sigma_v": 0.4, "floor": 0.01})
        cfg = write_config(tmp_path, config)
        assert main(["run", "--config", str(cfg)]) == 0
        in_run = (out / "report.json").read_bytes()
        assert main(["probe", "--config", str(cfg)]) == 0
        replay = (out / "report.json").read_bytes()
        assert in_run == replay


class TestConfigValidation:
    def test_unknown_top_key(self, tmp_path):
        config = base_config(tmp_path / "out")
        config["bogus"] = 1
        cfg = write_config(tmp_path, config)
        assert main(["run", "--config", str(cfg)]) == 2

    def test_unknown_probe_key(self, tmp_path):
        config = base_config(tmp_path / "out")
        config["probes"][0]["surprise"] = True
        cfg = write_config(tmp_path, config)
        assert main(["run", "--config", str(cfg)]) == 2

    def test_missing_config(self):
        assert main(["run"]) == 2

    @pytest.mark.parametrize("command", ["landau", "iterate"])
    def test_seed_is_rejected_where_nothing_draws(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, {"schema_version": 1, "landau": {"gamma": -3.0}})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out), "--seed", "5"]) == 2
        assert f"--seed has no effect on {command}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_schema_version(self, tmp_path):
        config = base_config(tmp_path / "out")
        config["schema_version"] = 99
        cfg = write_config(tmp_path, config)
        assert main(["run", "--config", str(cfg)]) == 2

    def test_output_formats_key_rejected(self, tmp_path):
        config = base_config(tmp_path / "out")
        config["output"]["formats"] = ["json"]
        cfg = write_config(tmp_path, config)
        assert main(["run", "--config", str(cfg)]) == 2

    def test_inverted_ellipticity_window_is_config_error(self, tmp_path):
        config = base_config(tmp_path / "out")
        config["field"].update({"lambda": 2.0, "Lambda": 1.0})
        cfg = write_config(tmp_path, config)
        assert main(["solve", "--config", str(cfg)]) == 2

    def test_unknown_field_recipe_is_config_error(self, tmp_path):
        config = base_config(tmp_path / "out")
        config["field"]["recipe"] = "plaid"
        cfg = write_config(tmp_path, config)
        assert main(["solve", "--config", str(cfg)]) == 2

    def test_t_end_not_a_multiple_of_dt_is_config_error(self, tmp_path):
        out = tmp_path / "out"
        config = base_config(out)
        config["solver"].update({"dt": 0.4, "t_end": 1.0, "snapshot_stride": 1})
        cfg = write_config(tmp_path, config)
        assert main(["solve", "--config", str(cfg)]) == 2
        assert not (out / "snapshots").exists()


    def test_number_given_as_string_is_config_error(self, tmp_path):
        config = base_config(tmp_path / "out")
        config["field"]["lambda"] = "0.5"
        cfg = write_config(tmp_path, config)
        assert main(["solve", "--config", str(cfg)]) == 2

    def test_integer_given_as_string_is_config_error(self, tmp_path):
        config = base_config(tmp_path / "out")
        config["solver"]["nx"] = "64"
        cfg = write_config(tmp_path, config)
        assert main(["solve", "--config", str(cfg)]) == 2

    def test_fractional_snapshot_stride_is_config_error(self, tmp_path):
        out = tmp_path / "out"
        config = base_config(out)
        config["solver"]["snapshot_stride"] = 2.5
        cfg = write_config(tmp_path, config)
        assert main(["solve", "--config", str(cfg)]) == 2
        assert not (out / "snapshots").exists()

    def test_probe_number_given_as_string_is_config_error(self, tmp_path):
        config = base_config(tmp_path / "out")
        config["probes"][0]["R"] = "0.25"
        cfg = write_config(tmp_path, config)
        assert main(["run", "--config", str(cfg)]) == 2

    def test_boolean_number_is_config_error(self, tmp_path):
        config = base_config(tmp_path / "out")
        config["solver"]["initial"] = {"kind": "constant", "value": True}
        cfg = write_config(tmp_path, config)
        assert main(["solve", "--config", str(cfg)]) == 2

    def test_fractional_geometry_dimension_is_config_error(self, tmp_path):
        config = {"schema_version": 1,
                  "geometry": {"d": 2.5, "n_selfchecks": 10, "n_samples": 64}}
        cfg = write_config(tmp_path, config)
        assert main(["geometry", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2

    def test_landau_number_given_as_string_is_config_error(self, tmp_path):
        config = {"schema_version": 1,
                  "landau": {"gamma": "-3", "d": 3, "profile": {"n": 8}},
                  "output": {"dir": str(tmp_path / "out")}}
        cfg = write_config(tmp_path, config)
        assert main(["landau", "--config", str(cfg)]) == 2


DROP = object()
LANDAU_BOUNDS = {"m1": "0.1", "m0": 10.0, "e0": 10.0, "h0": 10.0}
PROPAGATION = {"name": "propagation", "R": 0.25, "Delta": 0.3, "rho1": 0.4, "rho2": 0.6}
# (command, path into base_config, value put there; DROP deletes the key)
MALFORMED = {
    "landau_profile_n_string": ("landau", ("landau",), {"gamma": -3.0, "profile": {"n": "8"}}),
    "landau_bounds_string": ("landau", ("landau",), {"gamma": -3.0, "bounds": LANDAU_BOUNDS}),
    "landau_without_gamma": ("landau", ("landau",), {"d": 3, "profile": {"n": 8}}),
    "landau_input_number": ("landau", ("landau",), {"gamma": -3.0, "input": 5}),
    "degiorgi_beta_string": ("iterate", ("iterate",),
                             {"degiorgi": [{"beta": "1", "alpha": 2.0, "v0": 0.5}]}),
    "degiorgi_alpha_overflow": ("iterate", ("iterate",),
                                {"degiorgi": [{"beta": 2.0, "alpha": 1e12, "v0": 0.5}]}),
    "moser_without_n": ("iterate", ("iterate",), {"moser": [{"p": 4.0, "cbar": 2.0, "a": 1.0}]}),
    "probe_not_an_object": ("run", ("probes",), [1]),
    "probes_not_a_list": ("run", ("probes",), {"name": "norm"}),
    "solver_not_an_object": ("solve", ("solver",), []),
    "solver_without_nv": ("solve", ("solver", "nv"), DROP),
    "norm_without_p": ("run", ("probes", 1, "p"), DROP),
    "center_not_a_list": ("run", ("probes", 1, "center"), 5),
    "r_ladder_not_a_list": ("run", ("probes",), [{**PROPAGATION, "r_ladder": 0.1}]),
    "output_dir_number": ("solve", ("output", "dir"), 5),
    "landau_profile_unknown_key": ("landau", ("landau",),
                                   {"gamma": -3.0, "profile": {"n": 8, "typo": 1}}),
    "degiorgi_unknown_key": ("iterate", ("iterate",),
                             {"degiorgi": [{"beta": 1.0, "alpha": 2.0, "v0": 0.5, "typo": 1}]}),
    "constant_field_with_cell": ("solve", ("field",), {"recipe": "constant", "cell": 1.0}),
    "constant_field_with_period": ("solve", ("field",), {"recipe": "constant", "period": 1.0}),
    "constant_field_with_n_modes": ("solve", ("field",), {"recipe": "constant", "n_modes": 4}),
    "rotating_field_with_s_max": ("solve", ("field",), {"recipe": "rotating", "s_max": 0.5}),
    "rotating_field_with_b_max": ("solve", ("field",), {"recipe": "rotating", "b_max": 1.0}),
    "constant_initial_with_sigma_x": ("solve", ("solver", "initial"),
                                      {"kind": "constant", "value": 1.0, "sigma_x": 0.3}),
    "levelsets_unit_ball": ("run", ("probes",),
                            [{"name": "levelsets", "theta": 0.5, "r": 0.3, "region": "unit_ball"}]),
    "norm_p_string": ("run", ("probes", 1, "p"), "2"),
    "gaussian_zero_width": ("solve", ("solver", "initial"), {"kind": "gaussian", "sigma_x": 0.0}),
    "geometry_zero_dimension": ("geometry", ("geometry",), {"d": 0, "n_selfchecks": 2}),
    "levelsets_r_and_region": ("run", ("probes",),
                               [{"name": "levelsets", "theta": 0.5, "r": 0.3, "region": "unit_box"}]),
    "landau_input_and_profile": ("landau", ("landau",),
                                 {"gamma": -3.0, "input": "f.kvg", "profile": {"n": 8}}),
    "landau_hard_potential": ("landau", ("landau",), {"gamma": 0.5, "profile": {"n": 8}}),
    "landau_one_dimension": ("landau", ("landau",), {"gamma": -0.5, "d": 1, "profile": {"n": 64}}),
    "geometry_negative_selfchecks": ("geometry", ("geometry",), {"n_selfchecks": -1}),
    "fractional_zero_pairs": ("run", ("probes",),
                              [{"name": "fractional", "s_order": 0.5, "r": 0.3, "n_pairs": 0}]),
    "field_negative_s_max": ("solve", ("field", "s_max"), -1.0),
    "checkerboard_negative_b_max": ("solve", ("field", "b_max"), -1.5),
    "smooth_negative_b_max": ("solve", ("field",), {"recipe": "smooth", "lambda": 0.5,
                                                    "Lambda": 2.0, "b_max": -1.5}),
    "negative_snapshot_tail": ("solve", ("solver", "snapshot_tail"), -1.0),
    "smooth_field_zero_modes": ("solve", ("field",), {"recipe": "smooth", "n_modes": 0}),
    "solver_boundary": ("solve", ("solver",), {"d": 2, "x_extent": 4.0, "nx": 8, "v_max": 3.0,
                                               "nv": 8, "dt": 0.015625, "t_end": 0.125,
                                               "boundary": "periodic_both"}),
    "solver_scheme": ("solve", ("solver", "scheme"), "upwind"),
    # json.dumps writes these as the literals NaN, Infinity and -Infinity
    "constant_initial_nan": ("solve", ("solver", "initial"), {"kind": "constant", "value": math.nan}),
    "x_extent_infinity": ("solve", ("solver", "x_extent"), math.inf),
    # finite, but t_end / dt overflows, and the checkerboard cannot index the grid
    "dt_tiny": ("run", ("solver", "dt"), 1e-320),
    "x_extent_huge": ("run", ("solver", "x_extent"), 1e308),
    "v_max_huge": ("run", ("solver", "v_max"), 1e308),
    "gaussian_center_v_minus_infinity": ("solve", ("solver", "initial"),
                                         {"kind": "gaussian", "center_v": -math.inf}),
    "seed_negative": ("run", ("seed",), -1),
    "field_seed_negative": ("solve", ("field", "seed"), -1),
    "fractional_seed_negative": ("run", ("probes",), [{"name": "fractional", "s_order": 0.5,
                                                       "r": 0.3, "seed": -1}]),
    # a window or width whose power overflows or underflows, and initial data
    # that is not finite, are config errors before any step runs
    "checkerboard_cell_huge": ("solve", ("field", "cell"), 1e300),
    "gaussian_sigma_x_huge": ("solve", ("solver", "initial"), {"kind": "gaussian", "sigma_x": 1e300}),
    "gaussian_sigma_v_huge": ("solve", ("solver", "initial"), {"kind": "gaussian", "sigma_v": 1e300}),
    "gaussian_sigma_x_tiny": ("solve", ("solver", "initial"), {"kind": "gaussian", "sigma_x": 1e-300}),
    "gaussian_amplitude_overflows": ("solve", ("solver", "initial"),
                                     {"kind": "gaussian", "sigma_x": 1e-150, "sigma_v": 1e-150,
                                      "mass": 1e300}),
    # a Landau profile, covering check or recursion whose value overflows or
    # underflows where it enters, and a profile larger than physical memory
    "landau_profile_v_max_huge": ("landau", ("landau",),
                                  {"gamma": -3.0, "profile": {"v_max": 1e300, "n": 8}}),
    "landau_profile_sigma_huge": ("landau", ("landau",),
                                  {"gamma": -3.0, "profile": {"n": 8, "sigma": 1e300}}),
    "landau_profile_sigma_negative": ("landau", ("landau",),
                                      {"gamma": -3.0, "profile": {"n": 8, "sigma": -1.0}}),
    "landau_profile_n_huge": ("landau", ("landau",), {"gamma": -3.0, "profile": {"n": 100000}}),
    "geometry_omega_tiny": ("geometry", ("geometry",),
                            {"omega": 1e-300, "n_samples": 64, "n_selfchecks": 2}),
    "geometry_omega_subnormal": ("geometry", ("geometry",),
                                 {"omega": 5e-324, "n_samples": 64, "n_selfchecks": 2}),
    "degiorgi_alpha_huge": ("iterate", ("iterate",),
                            {"degiorgi": [{"beta": 2.0, "alpha": 1e300, "v0": 0.5}]}),
    "moser_a_huge": ("iterate", ("iterate",), {"moser": [{"p": 4.0, "cbar": 2.0, "a": 1e300, "n": 60}]}),
    "moser_scale_overflows": ("iterate", ("iterate",),
                              {"moser": [{"p": 4.0, "cbar": 1e300, "a": 1e10, "n": 60}]}),
}


@pytest.mark.parametrize("command, path, value", MALFORMED.values(), ids=list(MALFORMED))
@pytest.mark.filterwarnings("error")
def test_malformed_config_exits_two(tmp_path, capsys, command, path, value):
    out = tmp_path / "out"
    config = base_config(out)
    *parents, key = path
    section = config
    for step in parents:
        section = section[step]
    if value is DROP:
        del section[key]
    else:
        section[key] = value
    cfg = write_config(tmp_path, config)
    assert main([command, "--config", str(cfg)]) == 2
    assert "invalid config:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("probe", [
    {"name": "oscillation", "r": 1e300},
    {"name": "gain", "r_int": 0.2, "r_ext": 1e300},
    {"name": "caccioppoli", "R": 1e300},
    {"name": "caccioppoli", "R": 1e-300},
    {"name": "caccioppoli", "R": 5e-324},
], ids=["oscillation_huge", "gain_huge", "caccioppoli_huge", "caccioppoli_tiny",
        "caccioppoli_subnormal"])
@pytest.mark.filterwarnings("error")
def test_probe_window_that_overflows_or_vanishes_is_rejected(tmp_path, capsys, probe):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, base_config(out, probes=[probe]))
    assert main(["run", "--config", str(cfg)]) == 2
    assert re.search(rf"probe '{probe['name']}' rejected: radius .* overflow or vanish",
                     capsys.readouterr().err)


@pytest.mark.parametrize("command", ["run", "geometry"])
def test_negative_seed_flag_exits_two(tmp_path, capsys, command):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, base_config(out))
    assert main([command, "--config", str(cfg), "--seed", "-1"]) == 2
    assert "--seed must be at least 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_schema_accepts_inf_null_and_recipe_keys():
    config = base_config("out", field={"recipe": "smooth", "lambda": 0.5, "Lambda": 2.0,
                                       "n_modes": 4, "b_max": None, "seed": 1})
    config["probes"] = [
        {"name": "norm", "p": "inf", "r": 0.4},
        {"name": "holder", "r_base": None},
        {"name": "doubling", "r": None, "n_levels": 2},
        {"name": "levelsets", "theta": 0.5, "region": "unit_box"},
    ]
    validate_config(config)


def test_solver_schema_names_exactly_the_fields_it_feeds():
    # a solver key that no longer reaches a dataclass field fails here
    fed = {f.name for f in fields(PhaseGrid)}
    fed |= {f.name for f in fields(SolverConfig)} - {"grid", "field"}
    assert set(SCHEMA["solver"]) == fed | {"initial"}


def test_readme_config_builds(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    cfg = load_config(write_config(tmp_path, json.loads(block)))
    field = build_field(cfg)
    solver_cfg = build_solver_config(cfg, field)
    f0 = build_initial(solver_cfg.grid, cfg["solver"]["initial"])
    assert field.descriptor["kind"] == "checkerboard" and field.descriptor["cell"] == 1.0
    assert solver_cfg.snapshot_stride == 64 and f0.values.shape == solver_cfg.grid.shape


def test_snapshot_stack_beyond_physical_memory_exits_two(tmp_path, capsys):
    # d = 2 on a 1024^2 x 1024^2 grid: 129 snapshots of 8.8 TB, over 1 PB.
    # The check comes before the initial state or the stack is allocated
    out = tmp_path / "out"
    config = base_config(out)
    config["solver"].update({"d": 2, "nx": 1024, "nv": 1024, "dt": 0.0078125, "t_end": 1.0,
                             "snapshot_stride": 1})
    cfg = write_config(tmp_path, config)
    code, peak = traced_peak(main, ["solve", "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    assert f"invalid config: the stored snapshots take {129 * 1024**4 * 8} bytes" in err
    assert f"the {memory} bytes of physical memory" in err
    assert 129 * 1024**4 * 8 >= 1e15 and peak < 1e7
    assert not out.exists()


# A small config per command that exits 0; the fuzz walks every section it holds
FUZZ_BASES = {
    "landau": {"landau": {"gamma": -1.3, "d": 2, "a_const": 1.0, "b_const": 1.0, "c_const": 1.0,
                          "profile": {"v_max": 6.0, "n": 8, "sigma": 1.0},
                          "bounds": {"m1": 0.1, "m0": 10.0, "e0": 10.0, "h0": 10.0}}},
    "geometry": {"geometry": {"delta": 0.2, "R": 1e-11, "r0": 0.1, "omega": 0.25,
                              "n_samples": 64, "d": 1, "n_selfchecks": 10}},
    "iterate": {"iterate": {"degiorgi": [{"beta": 1.0, "alpha": 2.0, "v0": 0.5}],
                            "moser": [{"p": 4.0, "cbar": 2.0, "a": 1.0, "n": 60}]}},
    # a 16^2 run of 32 steps with one probe of each kind
    "run": {"seed": 1,
            "solver": {"d": 1, "x_extent": 4.0, "nx": 16, "v_max": 3.0, "nv": 16,
                       "dt": 0.015625, "t_end": 0.5, "snapshot_stride": 1, "snapshot_tail": 0.0625,
                       "initial": {"kind": "gaussian", "center_x": 2.0, "center_v": 0.0,
                                   "sigma_x": 0.5, "sigma_v": 0.5, "mass": 1.0, "floor": 0.01}},
            "field": {"recipe": "constant", "lambda": 1.0, "Lambda": 1.0, "seed": 0,
                      "scale_a": 1.0, "a_value": 1.0, "b_value": 0.0, "s_value": 0.0},
            "probes": [
                {"name": "harnack", "R": 0.25, "Delta": 0.1, "rho1": 0.4, "rho2": 0.6, "q": 2.0,
                 "center": [2.0, 0.0, 0.5]},
                {"name": "gain", "r_int": 0.3, "r_ext": 0.5, "center": [2.0, 0.0, 0.5]},
                {"name": "energy", "r_int": 0.3, "r_ext": 0.5, "center": [2.0, 0.0, 0.5]},
                {"name": "holder", "omega": 0.9, "k_levels": 2, "r_base": 0.3,
                 "center": [2.0, 0.0, 0.5]},
                {"name": "doubling", "omega": 0.25, "n_levels": 2},
                {"name": "oscillation", "r": 0.4, "center": [2.0, 0.0, 0.5]},
                {"name": "levelsets", "theta": 0.5, "r": 0.4, "center": [2.0, 0.0, 0.5]},
                {"name": "fractional", "s_order": 0.5, "r": 0.4, "n_pairs": 50, "seed": 0,
                 "center": [2.0, 0.0, 0.5]},
                {"name": "gehring", "q": 1.5, "r0": 0.5, "theta": 0.5, "center": [2.0, 0.0, 0.5]},
                {**PROPAGATION, "Delta": 0.1, "q": 2.0, "r_ladder": [0.1, 0.2],
                 "center": [2.0, 0.0, 0.5]},
                {"name": "caccioppoli", "R": 0.2, "center": [2.0, 0.0, 0.5]},
                {"name": "norm", "p": 2.0, "r": 0.4, "normalized": True, "center": [2.0, 0.0, 0.5]},
            ]},
}
FUZZ_NUMBERS = (0, -0.0, -1, 1e-300, 5e-324, 1e300, 1e-9, 7.3)
FUZZ_INTEGERS = (0, -1, 1, 2, 3)
# the keys that size a run take only values that keep it small: past ~1e7
# steps, SolverConfig.stack_bytes alone walks every step for seconds
FUZZ_SIZES = {("solver", "dt"): (0, -0.0, -1, 5e-324, 1e300, 7.3),
              ("solver", "t_end"): (0, -0.0, -1, 1e-300, 5e-324, 1e-9, 7.3)}


def schema_leaves(node, base, path=()):
    """(path, values) for each numeric leaf of a schema node, with the values
    the fuzz puts there; objects and every entry of a list are walked
    through ``base``."""
    if isinstance(node, (Req, Min)):
        node = node.node
    if isinstance(node, Pick):
        node = node.variants[base.get(node.key, node.default)]
    if isinstance(node, dict):
        for key, sub in node.items():
            yield from schema_leaves(sub, base.get(key, {}), path + (key,))
    elif isinstance(node, list):
        for i, entry in enumerate(base):
            yield from schema_leaves(node[0], entry, path + (i,))
    elif node is int:
        yield path, FUZZ_INTEGERS
    elif float in (node if isinstance(node, tuple) else (node,)):
        yield path, FUZZ_NUMBERS


FUZZ_CASES = [(command, path, value)
              for command, base in FUZZ_BASES.items()
              for section in base
              for path, values in schema_leaves(SCHEMA[section], base[section], (section,))
              for value in FUZZ_SIZES.get(path, values)]


@pytest.mark.parametrize("command", list(FUZZ_BASES))
def test_fuzz_bases_exit_zero(tmp_path, command):
    config = {"schema_version": 1, "output": {"dir": str(tmp_path / "out")}, **FUZZ_BASES[command]}
    assert main([command, "--config", str(write_config(tmp_path, config))]) == 0


@pytest.mark.parametrize("command, path, value", FUZZ_CASES,
                         ids=[".".join(map(str, path)) + f"={value!r}" for _, path, value in FUZZ_CASES])
@pytest.mark.filterwarnings("ignore")
def test_config_fuzz_exits_cleanly(tmp_path, capsys, command, path, value):
    # every numeric leaf of the fuzzed sections, set to a value that may be
    # out of range, underflow or overflow, gives a documented exit code
    config = {"schema_version": 1, "output": {"dir": str(tmp_path / "out")},
              **copy.deepcopy(FUZZ_BASES[command])}
    section = config
    for step in path[:-1]:
        section = section[step] if isinstance(step, int) else section.setdefault(step, {})
    section[path[-1]] = value
    code = main([command, "--config", str(write_config(tmp_path, config))])
    err = capsys.readouterr().err
    assert code in ((0, 2, 3, 4) if command == "run" else (0, 2, 4))
    if code == 2:
        assert "invalid config:" in err or (command == "run" and re.search(r"probe '\w+' rejected:", err))
    if code == 3:
        assert "solver failure:" in err


@pytest.mark.parametrize("solver", [{"x_extent": 5e-324}, {"v_max": 1e-300}, {"v_max": 1e300},
                                    {"d": 2, "x_extent": 1e-170}],
                         ids=["x_extent_subnormal", "v_max_tiny", "v_max_huge", "cell_volume_underflows"])
@pytest.mark.filterwarnings("error")
def test_grid_beyond_the_float_range_is_rejected(tmp_path, capsys, solver):
    # on a constant field without probes the parent exited 3 (a solver
    # failure), 1 (an OverflowError in the collision assembly) or, for the
    # cell volume, 0 with every ledger integral 0
    config = {"schema_version": 1, "output": {"dir": str(tmp_path / "out")},
              **copy.deepcopy(FUZZ_BASES["run"]), "probes": []}
    config["solver"].update(solver)
    assert main(["run", "--config", str(write_config(tmp_path, config))]) == 2
    s = config["solver"]
    assert (f"invalid config: x_extent = {s['x_extent']!r}, v_max = {s['v_max']!r}: hv^2 or the cell "
            f"volume hx^{s['d']} hv^{s['d']} overflows or underflows to 0.0") in capsys.readouterr().err


@pytest.mark.parametrize("probe, message", [
    ({**PROPAGATION, "Delta": 0.1, "q": 1e300, "r_ladder": [0.1, 0.2], "center": [2.0, 0.0, 0.5]},
     "q = 1e+300: r^(-q) overflows a float at r = 0.1"),
    ({"name": "doubling", "n_levels": 10**6}, "T_k = (4/3)(4^k - 1) overflows a float at k = 1000000"),
    ({"name": "doubling", "r": 1e300}, "radius 1e+300 gives windows that overflow or vanish"),
    ({"name": "gehring", "q": 1e300, "r0": 0.5, "center": [2.0, 0.0, 0.5]},
     "q = 1e+300: g^q or (avg g)^q leaves the float range"),
], ids=["propagation_q_huge", "doubling_n_levels_huge", "doubling_r_huge", "gehring_q_huge"])
@pytest.mark.filterwarnings("error")
def test_probe_value_beyond_the_float_range_is_rejected(tmp_path, capsys, probe, message):
    # the parent ended in an OverflowError (exit 1), or reported gehring's b_emp as NaN
    config = {"schema_version": 1, "output": {"dir": str(tmp_path / "out")},
              **copy.deepcopy(FUZZ_BASES["run"]), "probes": [probe]}
    assert main(["run", "--config", str(write_config(tmp_path, config))]) == 2
    assert f"probe '{probe['name']}' rejected: {message}" in capsys.readouterr().err


def test_landau_profile_beyond_physical_memory_exits_two(tmp_path, capsys):
    # 100000^3 float64 values are 8e15 bytes; the check comes before the grid's
    # points or the profile are allocated
    out = tmp_path / "out"
    config = {"schema_version": 1, "output": {"dir": str(out)},
              "landau": {"gamma": -3.0, "d": 3, "profile": {"n": 100000}}}
    code, peak = traced_peak(main, ["landau", "--config", str(write_config(tmp_path, config))])
    assert code == 2
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    assert (f"the profile's 100000^3 values take {8 * 100000**3} bytes, more than the {memory} "
            "bytes of physical memory") in capsys.readouterr().err
    assert peak < 1e7
    assert not out.exists()


class TestOtherCommands:
    def test_solve_writes_snapshots_without_probes(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out))
        assert main(["solve", "--config", str(cfg)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["probes"] == []
        snaps = sorted((out / "snapshots").glob("snap_*.kfs"))
        assert len(snaps) >= 2
        assert (out / "ledger.csv").exists()

    def test_rerun_with_larger_stride_replaces_snapshots(self, tmp_path):
        out = tmp_path / "out"
        config = base_config(out)
        config["solver"]["snapshot_stride"] = 1
        cfg = write_config(tmp_path, config)
        assert main(["solve", "--config", str(cfg)]) == 0
        config["solver"]["snapshot_stride"] = 4
        cfg = write_config(tmp_path, config)
        assert main(["solve", "--config", str(cfg)]) == 0
        meta = json.loads((out / "run_meta.json").read_text())
        assert len(list((out / "snapshots").glob("snap_*.kfs"))) == meta["n_snapshots"]
        assert main(["probe", "--config", str(cfg)]) == 0

    def test_probe_without_snapshots_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, base_config(tmp_path / "never_ran"))
        assert main(["probe", "--config", str(cfg)]) == 2

    def test_probe_outside_domain_is_config_error(self, tmp_path):
        out = tmp_path / "out"
        config = base_config(out, probes=[
            {"name": "norm", "p": 2, "r": 0.3, "center": [2.0, 0.0, 9.0]},
        ])
        cfg = write_config(tmp_path, config)
        assert main(["run", "--config", str(cfg)]) == 2

    def test_probe_past_velocity_wall_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = base_config(out, probes=[
            {"name": "norm", "p": 2, "r": 0.4, "center": [2.0, 2.8, 0.25]},
        ])
        cfg = write_config(tmp_path, config)
        assert main(["run", "--config", str(cfg)]) == 2
        assert "velocity wall" in capsys.readouterr().err

    def test_truncated_ledger_row_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out))
        assert main(["solve", "--config", str(cfg)]) == 0
        ledger = out / "ledger.csv"
        text = ledger.read_text()
        ledger.write_text(text[: text.rstrip().rindex(",")] + "\n")
        with pytest.raises(ValueError, match="fields"):
            load_trajectory(out)
        assert main(["probe", "--config", str(cfg)]) == 2
        assert "ledger.csv" in capsys.readouterr().err

    def test_ledger_with_wrong_header_exits_two(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out))
        assert main(["solve", "--config", str(cfg)]) == 0
        ledger = out / "ledger.csv"
        ledger.write_text(ledger.read_text().replace("gradv_l2,", ""))
        assert main(["probe", "--config", str(cfg)]) == 2

    def test_geometry_defaults_pass(self, tmp_path):
        assert main(["geometry", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "geometry_report.json").read_text())
        names = [p["name"] for p in report["probes"]]
        assert "group_law" in names and "covering" in names
        group = [p for p in report["probes"] if p["name"] == "group_law"][0]
        assert group["verdict"] == "ok"

    def test_geometry_without_selfchecks_passes(self, tmp_path):
        cfg = write_config(tmp_path, {"schema_version": 1, "geometry": {"n_selfchecks": 0}})
        assert main(["geometry", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "geometry_report.json").read_text())
        group = [p for p in report["probes"] if p["name"] == "group_law"][0]
        assert group["constants"]["worst_deviation"] == "0.0" and group["verdict"] == "ok"

    @pytest.mark.parametrize("case", GOLDEN["geometry_reports"],
                             ids=["defaults", "d2", "d3_claim_a_fails"])
    def test_geometry_report_matches_golden(self, tmp_path, case):
        out = tmp_path / "out"
        argv = ["geometry", "--out", str(out)]
        if case["config"] is not None:
            argv += ["--config", str(write_config(tmp_path, case["config"]))]
        assert main(argv) == case["exit"]
        assert (out / "geometry_report.json").read_bytes() == case["report"].encode("utf-8")

    def test_landau_coulomb_kappa(self, tmp_path):
        grid = VelocityGrid(v_max=5.0, n=12, d=3)
        f = maxwellian(grid)
        profile = tmp_path / "maxwellian.kvg"
        write_velocity_profile(profile, f.values, grid.v_max)
        config = {
            "schema_version": 1,
            "landau": {
                "input": str(profile), "gamma": -3.0, "d": 3,
                "bounds": {"m1": 0.2, "m0": 2.0, "e0": 3.0, "h0": 1.0},
            },
            "output": {"dir": str(tmp_path / "out")},
        }
        cfg = write_config(tmp_path, config)
        assert main(["landau", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "landau_report.json").read_text())
        entry = report["probes"][0]
        assert entry["constants"]["kappa"] == repr(-7.0)

    def test_iterate_writes_tables(self, tmp_path):
        assert main(["iterate", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "degiorgi.csv").exists()
        assert (tmp_path / "moser.csv").exists()
        lines = (tmp_path / "degiorgi.csv").read_text().strip().splitlines()
        assert lines[0] == "beta,alpha,v0,gamma,verdict"
        assert len(lines) >= 2

    @pytest.mark.parametrize("kind", ["missing", "plain_text", "no_extents", "no_v_max"])
    def test_landau_unreadable_input_exits_two(self, tmp_path, capsys, kind):
        profile = tmp_path / "profile.kvg"
        if kind == "plain_text":
            profile.write_text("not a snapshot\n")
        elif kind != "missing":
            header = {"kind": "velocity", "time": 0.0}
            if kind == "no_v_max":
                header["extents"] = {"d": 3}
            write_snapshot(profile, maxwellian(VelocityGrid(v_max=5.0, n=4, d=3)).values, header)
        config = {"schema_version": 1, "landau": {"input": str(profile), "gamma": -3.0},
                  "output": {"dir": str(tmp_path / "out")}}
        cfg = write_config(tmp_path, config)
        assert main(["landau", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "cannot set up the landau check" in err
        if kind.startswith("no_"):
            assert f"{profile} lacks a numeric 'extents.v_max'" in err

    def test_run_meta_without_grid_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out))
        assert main(["solve", "--config", str(cfg)]) == 0
        meta = json.loads((out / "run_meta.json").read_text())
        del meta["grid"]
        (out / "run_meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="grid"):
            load_trajectory(out)
        assert main(["probe", "--config", str(cfg)]) == 2
        assert "grid" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["time", "dims"])
    def test_snapshot_header_without_key_exits_two(self, tmp_path, capsys, key):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out))
        assert main(["solve", "--config", str(cfg)]) == 0
        snap = out / "snapshots" / "snap_000001.kfs"
        header, payload = snap.read_bytes().split(b"\n", 1)
        meta = json.loads(header)
        del meta[key]
        snap.write_bytes(json.dumps(meta).encode("utf-8") + b"\n" + payload)
        with pytest.raises(ValueError, match=f"snap_000001.kfs lacks the key '{key}'"):
            load_trajectory(out)
        assert main(["probe", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "cannot load snapshots" in err and f"snap_000001.kfs lacks the key '{key}'" in err

    @pytest.mark.parametrize("edit", ["dims", "time"])
    def test_snapshot_unlike_run_meta_exits_two(self, tmp_path, capsys, edit):
        # a [nv] payload would broadcast into its slot of the stack unnoticed
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out))
        assert main(["solve", "--config", str(cfg)]) == 0
        snap = out / "snapshots" / "snap_000001.kfs"
        header, payload = snap.read_bytes().split(b"\n", 1)
        meta = json.loads(header)
        if edit == "dims":
            meta["dims"], payload = [32], payload[:32 * 8]
            message = "snap_000001.kfs has dims [32], not [32, 32]"
        else:
            stored = meta["time"]
            meta["time"] = stored + 1e-3
            message = f"snap_000001.kfs has time {stored + 1e-3!r}, but run_meta.json lists {stored!r}"
        snap.write_bytes(json.dumps(meta).encode("utf-8") + b"\n" + payload)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_trajectory(out)
        assert main(["probe", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "cannot load snapshots" in err and message in err

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("a_const", [1e105, 1e-110])
    def test_landau_det_outside_float_range_exits_four(self, tmp_path, capsys, a_const):
        out = tmp_path / "out"
        config = {"schema_version": 1,
                  "landau": {"gamma": -1.3, "d": 3, "a_const": a_const,
                             "profile": {"n": 8, "v_max": 5.0},
                             "bounds": {"m1": 1e-3, "m0": 1e6, "e0": 1e9, "h0": 1e9}},
                  "output": {"dir": str(out)}}
        assert main(["landau", "--config", str(write_config(tmp_path, config))]) == 4
        err = capsys.readouterr().err
        assert err.startswith("bound check rejected: ") and f"at a_const = {a_const!r}" in err
        assert not (out / "landau_report.json").exists()

    def test_out_flag_beats_environment_beats_config(self, tmp_path, monkeypatch):
        flag, env, configured = (tmp_path / name for name in ("flag", "env", "configured"))
        cfg = write_config(tmp_path, {"schema_version": 1, "output": {"dir": str(configured)}})
        monkeypatch.setenv("KFPLAB_OUT", str(env))
        assert main(["iterate", "--config", str(cfg), "--out", str(flag)]) == 0
        assert (flag / "degiorgi.csv").exists() and not env.exists() and not configured.exists()
        assert main(["iterate", "--config", str(cfg)]) == 0
        assert (env / "degiorgi.csv").exists() and not configured.exists()
        monkeypatch.delenv("KFPLAB_OUT")
        assert main(["iterate", "--config", str(cfg)]) == 0
        assert (configured / "degiorgi.csv").exists()

    def test_failed_rerun_keeps_previous_run(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        config = base_config(out)
        config["solver"]["snapshot_stride"] = 1
        cfg = write_config(tmp_path, config)
        assert main(["solve", "--config", str(cfg)]) == 0
        before = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        old = load_trajectory(out)

        written = []

        def failing_write(path, values, header):
            written.append(path)
            if len(written) == 3:
                raise OSError("disk full")
            return write_snapshot(path, values, header)

        monkeypatch.setattr(storage, "write_snapshot", failing_write)
        config["solver"]["snapshot_stride"] = 4
        cfg = write_config(tmp_path, config)
        with pytest.raises(OSError, match="disk full"):
            main(["solve", "--config", str(cfg)])
        after = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert after == before
        reloaded = load_trajectory(out)
        assert reloaded.values.tobytes() == old.values.tobytes()
        assert np.array_equal(reloaded.times, old.times)
        assert sorted(p.name for p in out.iterdir()) == [
            "ledger.csv", "report.json", "run_meta.json", "snapshots"]


def test_import_graph_leaves_out_scipy_stats_and_signal():
    # scipy.stats alone costs about 0.8 s of every command's start-up
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, kfplab.cli, kfplab.landau; "
            "print(*[m for m in sys.modules if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'signal'])])")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.split() == []
