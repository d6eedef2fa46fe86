"""Snapshot round-trip exactness, failure modes, and image output."""

import re

import numpy as np
import pytest

from conftest import spinodal_state
from nlchb.grid import make_grid
from nlchb.snapshots import (
    LedgerCsvWriter,
    SnapshotError,
    read_snapshot,
    write_ppm,
    write_snapshot,
)


@pytest.fixture
def state16():
    grid = make_grid(16, 16, 1.0, 1.0)
    state = spinodal_state(grid)
    rng = np.random.default_rng(0)
    state.theta = rng.standard_normal(grid.shape)
    state.vel.u[1:-1, :] = rng.standard_normal((grid.nx - 1, grid.ny))
    state.vel.v[:, 1:-1] = rng.standard_normal((grid.nx, grid.ny - 1))
    state.t = 0.1 + 0.2 + 0.3  # deliberately non-representable sum
    state.step = 1234
    return grid, state


class TestRoundTrip:
    def test_bit_exact(self, state16, tmp_path):
        grid, state = state16
        path = str(tmp_path / "snap.bin")
        write_snapshot(path, state, grid, dt=1e-3)
        back, meta = read_snapshot(path, grid)
        assert back.t == state.t  # exact, not approx
        assert back.step == state.step
        assert np.array_equal(back.phi, state.phi)
        assert np.array_equal(back.theta, state.theta)
        assert np.array_equal(back.vel.u, state.vel.u)
        assert np.array_equal(back.vel.v, state.vel.v)
        assert meta["dt"] == 1e-3

    def test_old_header_with_kernel_parameters_reads_the_same(self, state16, tmp_path):
        # older writers put mode, epsilon and gamma on the time line
        grid, state = state16
        path = tmp_path / "snap.bin"
        write_snapshot(str(path), state, grid, config_text="[grid]\nnx = 16\n", dt=1e-3)
        blob = path.read_bytes()
        old = blob.replace(b" step=1234 ", b" step=1234 mode=nonlocal epsilon=0.2 gamma=0.5 ", 1)
        assert old != blob
        path.write_bytes(old)
        back, meta = read_snapshot(str(path), grid)
        assert (back.t, back.step) == (state.t, state.step)
        assert np.array_equal(back.phi, state.phi) and np.array_equal(back.theta, state.theta)
        assert np.array_equal(back.vel.u, state.vel.u) and np.array_equal(back.vel.v, state.vel.v)
        assert meta["dt"] == 1e-3 and meta["config_text"] == "[grid]\nnx = 16"

    def test_config_text_embedded(self, state16, tmp_path):
        grid, state = state16
        path = str(tmp_path / "snap.bin")
        cfg = "[grid]\nnx = 16\nny = 16\n"
        write_snapshot(path, state, grid, config_text=cfg)
        _, meta = read_snapshot(path)
        assert meta["config_text"] == cfg.rstrip("\n") or meta["config_text"] == cfg

    def test_grid_reconstructed_when_not_given(self, state16, tmp_path):
        grid, state = state16
        path = str(tmp_path / "snap.bin")
        write_snapshot(path, state, grid)
        back, meta = read_snapshot(path)
        assert meta["grid"].shape == grid.shape


class TestFailureModes:
    def test_truncated_payload_rejected(self, state16, tmp_path):
        grid, state = state16
        path = str(tmp_path / "snap.bin")
        write_snapshot(path, state, grid)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-17])
        with pytest.raises(SnapshotError, match="truncated"):
            read_snapshot(path, grid)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bad.bin")
        open(path, "wb").write(b"NOTNLCHB\n12345")
        with pytest.raises(SnapshotError, match="magic"):
            read_snapshot(path)

    def test_grid_mismatch_rejected(self, state16, tmp_path):
        grid, state = state16
        path = str(tmp_path / "snap.bin")
        write_snapshot(path, state, grid)
        other = make_grid(32, 32, 1.0, 1.0)
        with pytest.raises(SnapshotError, match="mismatch"):
            read_snapshot(path, other)

    @pytest.mark.parametrize(
        "old, new",
        [
            (b"\nt=", b"\nx="),
            (b" step=", b" x="),
            (b" lx=1.0", b" lx=abc"),
            (b"nx=16", b"nx=4"),
            (b"config_lines=2", b"config_lines=two"),
            (b"[grid]", b"[\xff]"),
        ],
        ids=["no_t", "no_step", "bad_lx", "undersized_grid", "bad_config_lines", "not_utf8"],
    )
    def test_malformed_header_rejected(self, state16, tmp_path, old, new):
        grid, state = state16
        path = tmp_path / "snap.bin"
        write_snapshot(str(path), state, grid, config_text="[grid]\nnx = 16\n")
        blob = path.read_bytes()
        assert blob.count(old) == 1
        path.write_bytes(blob.replace(old, new))
        with pytest.raises(SnapshotError, match="malformed header"):
            read_snapshot(str(path))

    @pytest.mark.parametrize(
        "name, value", [("phi", np.nan), ("theta", np.inf), ("u", -np.inf), ("v", np.nan)]
    )
    def test_non_finite_field_rejected(self, state16, tmp_path, name, value):
        grid, state = state16
        field = {"phi": state.phi, "theta": state.theta, "u": state.vel.u, "v": state.vel.v}[name]
        field[3, 4] = value  # an interior cell or face
        path = str(tmp_path / "snap.bin")
        write_snapshot(path, state, grid)
        with pytest.raises(SnapshotError, match=f"field {name} holds NaN or inf"):
            read_snapshot(path, grid)

    @pytest.mark.parametrize(
        "key, value",
        [("t", "nan"), ("dt", "inf"), ("lx", "inf"), ("ly", "nan"), ("dt", "0.0"), ("dt", "-0.5")],
    )
    def test_non_finite_header_number_rejected(self, state16, tmp_path, key, value):
        # a dt <= 0 is refused with them: a resume would step with it
        grid, state = state16
        path = tmp_path / "snap.bin"
        write_snapshot(str(path), state, grid, dt=1e-3)
        blob = path.read_bytes()
        blob, count = re.subn(rb"(?<=[ \n])" + key.encode() + rb"=[^ \n]+", f"{key}={value}".encode(), blob, 1)
        assert count == 1
        path.write_bytes(blob)
        message = f"non-finite {key}" if value in ("nan", "inf") else f"non-positive {key}"
        with pytest.raises(SnapshotError, match=f"malformed header: {message}"):
            read_snapshot(str(path))

    def test_refused_write_leaves_no_files(self, state16, tmp_path):
        grid, state = state16
        state.theta = state.theta[:-1]
        with pytest.raises(SnapshotError, match="does not match"):
            write_snapshot(str(tmp_path / "snap.bin"), state, grid)
        assert list(tmp_path.iterdir()) == []


class TestPpm:
    def test_header_and_size(self, tmp_path):
        grid = make_grid(16, 8, 1.0, 1.0)
        path = str(tmp_path / "img.ppm")
        write_ppm(path, np.linspace(-1, 1, 16 * 8).reshape(16, 8))
        blob = open(path, "rb").read()
        assert blob.startswith(b"P6\n16 8\n255\n")
        assert len(blob) == len(b"P6\n16 8\n255\n") + 16 * 8 * 3

    def test_extremes_map_to_blue_and_red(self, tmp_path):
        grid = make_grid(8, 8, 1.0, 1.0)
        field = np.full(grid.shape, -1.0)
        field[0, 0] = 1.0
        path = str(tmp_path / "img.ppm")
        write_ppm(path, field)
        pixels = np.frombuffer(open(path, "rb").read().split(b"\n255\n", 1)[1], dtype=np.uint8)
        img = pixels.reshape(8, 8, 3)
        assert tuple(img[-1, 0]) == (255, 0, 0)  # field[0, 0] = +1 -> red, bottom row
        assert tuple(img[0, 0]) == (0, 0, 255)   # -1 -> blue


class TestLedgerCsv:
    def test_write_and_append(self, tmp_path):
        from nlchb.energy import LEDGER_COLUMNS

        path = str(tmp_path / "ledger.csv")
        row = {c: 0.0 for c in LEDGER_COLUMNS}
        with LedgerCsvWriter(path) as w:
            row["t"] = 0.1
            w.write_row(row)
        with LedgerCsvWriter(path, append=True) as w:
            row["t"] = 0.2
            w.write_row(row)
        lines = open(path).read().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("t,E_total")
        assert lines[1].split(",")[0] == "0.1"
