"""The streaming ledger files and the one-stack snapshot loader against their
slow predecessors in ``storage_oracle``, and the memory each of them holds."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import storage_oracle as oracle
from conftest import ledger_from_rows, ledger_rows, same_ledger, traced_peak
from kfplab import storage
from kfplab.trajectory import EnergyLedger, PhaseGrid, Trajectory

HEADER = ",".join(EnergyLedger.FIELDS)
ROW = "3,0.5,2.0,5e-324,-0.0,1e+300"


def random_ledger(n_rows, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((n_rows, 5)) * 10.0 ** rng.integers(-300, 300, (n_rows, 5))
    return ledger_from_rows((n, *row) for n, row in enumerate(vals.tolist()))


def outcome(read, path):
    """The rows read(path) returns, each value by repr, or the message of the
    ValueError it raises."""
    try:
        return [tuple(map(repr, row)) for row in ledger_rows(read(path))]
    except ValueError as exc:
        return str(exc)


def stored_run(out, n_snapshots, grid, ledger=None):
    """Save a trajectory of random snapshots at times k/64 and return it."""
    values = np.random.default_rng(1).standard_normal((n_snapshots, *grid.shape))
    traj = Trajectory(grid=grid, times=np.arange(n_snapshots) / 64.0, values=values, ledger=ledger)
    storage.save_trajectory(out, traj, seed=0, digest="0" * 64)
    return traj


class TestLedgerFiles:
    @pytest.mark.parametrize("n_rows", [0, 1, 8192])
    def test_write_gives_the_oracle_bytes(self, tmp_path, n_rows):
        ledger = random_ledger(n_rows)
        storage.write_ledger(tmp_path / "new.csv", ledger)
        oracle.write_ledger(tmp_path / "old.csv", ledger)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("text, expect", [
        (f"{HEADER}\n{ROW}\n\n \n\n", "line 3 has 1 fields, not 6"),
        (f"\n \t{HEADER}\n{ROW}\n", "does not start with the ledger header"),
        (f"{HEADER}\n{ROW}\n\n{ROW}\n", "line 3 has 1 fields, not 6"),
        (f"\n\n{HEADER}\n{ROW}\n\n{ROW}\n", "does not start with the ledger header"),
        (f"{HEADER},gradv_l2,source_l2\n{ROW}\n", "does not start with the ledger header"),
        (f"{HEADER} \n{ROW}\n", "does not start with the ledger header"),
        (f"{HEADER}\n{ROW}\n1,2\n", "line 3 has 2 fields, not 6"),
        (f"{HEADER}\r\n{ROW}\r\n{ROW}\r\n", 2),
        (f"{HEADER}\n", 0),
        (f"  {HEADER}  \n\n", "does not start with the ledger header"),
        ("", "does not start with the ledger header"),
        (f"{HEADER}\n{ROW}\n{ROW.replace('2.0', 'x')}\n",
         "line 3: could not convert string to float: 'x'"),
        (f"{HEADER}\n{ROW.replace('3,', '3.0,', 1)}\n",
         "line 2: invalid literal for int() with base 10: '3.0'"),
    ], ids=["trailing_blank_lines", "leading_whitespace", "interior_blank_line",
            "interior_blank_after_leading_blanks", "wrong_header", "header_then_space",
            "short_row", "crlf", "header_only", "header_only_in_whitespace", "empty",
            "float_not_a_number", "step_not_an_int"])
    def test_read_matches_the_oracle(self, tmp_path, text, expect):
        # a file the writer could have made reads as the oracle reads it; any
        # other is a ValueError naming the file and the line at fault
        path = tmp_path / "ledger.csv"
        path.write_bytes(text.encode("utf-8"))
        got = outcome(storage.read_ledger, path)
        if isinstance(expect, int):
            assert got == outcome(oracle.read_ledger, path) and len(got) == expect
        else:
            assert got == f"{path} {expect}"

    @settings(max_examples=400, deadline=None)
    @given(st.booleans(), st.lists(st.sampled_from(
        [HEADER, ROW, "1,2", "", " ", "\t", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c",
         "\x85", " ", ",", "x", f"{HEADER} ", f" {HEADER}"]), max_size=12))
    @example(True, [ROW, "\n", ROW, "\n"])
    def test_read_matches_the_oracle_on_any_mix(self, tmp_path_factory, headed, pieces):
        # every line break str.splitlines knows, and whitespace at both ends:
        # only the writer's own format is read, and nothing but ValueError is raised
        path = tmp_path_factory.getbasetemp() / "mixed_ledger.csv"
        text = (HEADER + "\n" if headed else "") + "".join(pieces)
        path.write_bytes(text.encode("utf-8"))
        got = outcome(storage.read_ledger, path)   # any error but ValueError escapes
        *lines, last = text.split("\n")
        if lines and lines[0] == HEADER and set(lines[1:]) <= {ROW} and last == "":
            assert got == outcome(oracle.read_ledger, path)

    def test_write_peak_is_a_few_lines(self, tmp_path):
        ledger = random_ledger(8192)
        _, peak = traced_peak(storage.write_ledger, tmp_path / "ledger.csv", ledger)
        assert peak <= 0.1e6

    def test_read_peak_is_below_the_oracle(self, tmp_path):
        path = tmp_path / "ledger.csv"
        storage.write_ledger(path, random_ledger(8192))
        want, oracle_peak = traced_peak(oracle.read_ledger, path)
        got, peak = traced_peak(storage.read_ledger, path)
        assert same_ledger(got, want)
        assert peak <= 0.7 * oracle_peak

    def test_read_peak_is_the_columns(self, tmp_path, long_constant_run):
        # 48 bytes a row in columns, and at most one chunk of rows as objects
        path = tmp_path / "ledger.csv"
        storage.write_ledger(path, long_constant_run[0].ledger)
        got, peak = traced_peak(storage.read_ledger, path)
        n_rows = got.column("step").size
        assert n_rows == 32_769 and peak <= 100 * n_rows
        assert same_ledger(got, long_constant_run[0].ledger)


class TestLoadTrajectory:
    def test_matches_the_oracle(self, tmp_path, checkerboard_run):
        storage.save_trajectory(tmp_path, checkerboard_run, seed=11, digest="0" * 64)
        got, want = storage.load_trajectory(tmp_path), oracle.load_trajectory(tmp_path)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.values.shape == want.values.shape and got.values.flags.c_contiguous
        assert got.times.tobytes() == want.times.tobytes()
        assert got.grid == want.grid and same_ledger(got.ledger, want.ledger)
        assert got.field.descriptor == want.field.descriptor

    def test_peak_is_the_stack(self, tmp_path):
        grid = PhaseGrid(d=1, x_extent=4.0, nx=64, v_max=3.0, nv=64)
        # a ledger must hold a row at each stored time
        stored_run(tmp_path, 200, grid, ledger=ledger_from_rows(
            (n, n / 64.0, 1.0, 1.0, 0.0, 1.0) for n in range(200)))
        traj, peak = traced_peak(storage.load_trajectory, tmp_path)
        assert traj.n_times == 200
        assert peak <= 1.25 * traj.values.nbytes

    def test_snapshot_rejects_a_buffer_of_another_shape_or_size(self, tmp_path):
        grid = PhaseGrid(d=1, x_extent=4.0, nx=8, v_max=3.0, nv=8)
        stored_run(tmp_path, 1, grid)
        snap = tmp_path / "snapshots" / "snap_000000.kfs"
        with pytest.raises(ValueError, match=r"snap_000000.kfs has dims \[8, 8\], not \[64\]"):
            storage.read_snapshot(snap, out=np.empty(64))
        snap.write_bytes(snap.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="payload in .*snap_000000.kfs is not 512 bytes"):
            storage.read_snapshot(snap)
