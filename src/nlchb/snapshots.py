"""Bit-exact state snapshots, PPM image emission, and the streaming ledger CSV.

Snapshot format: the magic line "NLCHB1\n", a short text header (grid, time,
step, dt, field shapes, optionally the embedded run config, which holds the
model parameters), the literal line "end", then each field as row-major
little-endian float64 in the declared order. Floats in the header are written
with repr() and parse back bit-identically. Older headers also carry `mode`,
`epsilon` and `gamma` on the time line; reading ignores them.
"""

from __future__ import annotations

import contextlib
import math
import os

import numpy as np

from .energy import LEDGER_COLUMNS, EnergyLedger
from .grid import Grid, MacVelocity, make_grid
from .solver import SimState

__all__ = [
    "SnapshotError",
    "write_snapshot",
    "read_snapshot",
    "write_ppm",
    "LedgerCsvWriter",
]

MAGIC = b"NLCHB1\n"


class SnapshotError(IOError):
    """Malformed, truncated, or mismatched snapshot file."""


def _field_list(grid: Grid) -> list[tuple[str, tuple[int, int]]]:
    return [
        ("phi", (grid.nx, grid.ny)),
        ("theta", (grid.nx, grid.ny)),
        ("u", (grid.nx + 1, grid.ny)),
        ("v", (grid.nx, grid.ny + 1)),
    ]


def write_snapshot(
    path: str,
    state: SimState,
    grid: Grid,
    config_text: str | None = None,
    dt: float | None = None,
) -> None:
    state_line = f"t={state.t!r} step={state.step}"
    if dt is not None:
        state_line += f" dt={dt!r}"
    fields = _field_list(grid)
    header = [
        f"nx={grid.nx} ny={grid.ny} lx={grid.Lx!r} ly={grid.Ly!r}",
        state_line,
        "fields=" + " ".join(f"{n}:{s[0]}x{s[1]}" for n, s in fields),
    ]
    if config_text is not None:
        cfg_lines = config_text.splitlines()
        header.append(f"config_lines={len(cfg_lines)}")
        header.extend(cfg_lines)
    header.append("end")

    arrays = [state.phi, state.theta, state.vel.u, state.vel.v]
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(("\n".join(header) + "\n").encode("utf-8"))
            for arr, (_, shape) in zip(arrays, fields):
                if arr.shape != shape:
                    raise SnapshotError(f"field shape {arr.shape} does not match {shape}")
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    except BaseException:
        # a refused or failed write leaves neither a partial file nor its .tmp
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    os.replace(tmp, path)


def _parse_kv(line: str) -> dict[str, str]:
    out = {}
    for part in line.split():
        key, _, value = part.partition("=")
        out[key] = value
    return out


def read_snapshot(path: str, grid: Grid | None = None) -> tuple[SimState, dict]:
    """Read a snapshot; returns (state, meta). Refuses partial or mismatched
    files, header numbers or fields holding NaN or inf, and a dt <= 0."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(MAGIC):
        raise SnapshotError(f"{path}: bad magic")
    try:
        header_end = blob.index(b"\nend\n", len(MAGIC)) + len(b"\nend\n")
    except ValueError:
        raise SnapshotError(f"{path}: header terminator missing (truncated?)") from None
    try:
        lines = blob[len(MAGIC) : header_end].decode("utf-8").splitlines()
        gridkv = _parse_kv(lines[0])
        statekv = _parse_kv(lines[1])
        nx, ny = int(gridkv["nx"]), int(gridkv["ny"])
        lx, ly = float(gridkv["lx"]), float(gridkv["ly"])
        t, step = float(statekv["t"]), int(statekv["step"])
        meta = {"dt": float(statekv["dt"]) if "dt" in statekv else None, "config_text": None}
        numbers = {"t": t, "dt": meta["dt"], "lx": lx, "ly": ly}
        bad = [k for k, v in numbers.items() if v is not None and not math.isfinite(v)]
        if bad:
            raise ValueError(f"non-finite {', '.join(bad)}")
        if meta["dt"] is not None and meta["dt"] <= 0.0:
            raise ValueError(f"non-positive dt {meta['dt']!r}")
        file_grid = meta["grid"] = make_grid(nx, ny, lx, ly)
        declared = []
        for token in lines[2].split("=", 1)[1].split():
            name, _, dims = token.partition(":")
            a, _, b = dims.partition("x")
            declared.append((name, (int(a), int(b))))
        if len(lines) > 3 and lines[3].startswith("config_lines="):
            n_cfg = int(lines[3].split("=", 1)[1])
            meta["config_text"] = "\n".join(lines[4 : 4 + n_cfg])
    except (KeyError, IndexError, ValueError) as exc:
        raise SnapshotError(f"{path}: malformed header: {exc}") from None

    if grid is not None and (grid.nx, grid.ny, grid.Lx, grid.Ly) != (nx, ny, lx, ly):
        raise SnapshotError(
            f"{path}: grid mismatch (file {nx}x{ny} [{lx},{ly}], expected "
            f"{grid.nx}x{grid.ny} [{grid.Lx},{grid.Ly}])"
        )

    expected = _field_list(file_grid)
    if declared != expected:
        raise SnapshotError(f"{path}: unexpected field layout {declared}")

    payload = blob[header_end:]
    total = sum(s[0] * s[1] for _, s in expected) * 8
    if len(payload) != total:
        raise SnapshotError(
            f"{path}: payload has {len(payload)} bytes, expected {total} (truncated?)"
        )

    arrays = []
    offset = 0
    for name, shape in expected:
        count = shape[0] * shape[1]
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=offset).reshape(shape)
        if not np.isfinite(arr).all():
            raise SnapshotError(f"{path}: field {name} holds NaN or inf")
        arrays.append(arr.astype(np.float64))
        offset += count * 8

    state = SimState(
        t=t,
        step=step,
        phi=arrays[0],
        theta=arrays[1],
        vel=MacVelocity(file_grid, arrays[2], arrays[3]),
    )
    return state, meta


def write_ppm(path: str, values: np.ndarray) -> None:
    """Binary PPM render with a fixed blue-white-red diverging map over [-1, 1].

    Image rows run from the top of the domain (largest y) downward.
    """
    t = np.clip((values + 1.0) / 2.0, 0.0, 1.0)
    lo = np.clip(2.0 * t, 0.0, 1.0)        # blue -> white
    hi = np.clip(2.0 - 2.0 * t, 0.0, 1.0)  # white -> red
    r = (255.0 * lo).astype(np.uint8)
    g = (255.0 * np.minimum(lo, hi)).astype(np.uint8)
    b = (255.0 * hi).astype(np.uint8)
    # values[i, j] has x->i, y->j; image wants rows of constant y, top first
    img = np.stack([r, g, b], axis=-1).transpose(1, 0, 2)[::-1]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{values.shape[0]} {values.shape[1]}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(img).tobytes())


class LedgerCsvWriter(EnergyLedger):
    """An `EnergyLedger` that writes each checked row to the line-buffered
    ledger CSV as the step makes it, so the row reaches the operating system
    at once, and keeps none; the header is written when the file it opens is
    empty. A writer opened with `append` starts with no last t."""

    def __init__(self, path: str, append: bool = False):
        super().__init__()
        self.path = path
        self._fh = open(path, "a" if append else "w", buffering=1, encoding="utf-8")
        if self._fh.tell() == 0:
            self._fh.write(",".join(LEDGER_COLUMNS) + "\n")

    def write_row(self, row: dict) -> None:
        self._fh.write(",".join(repr(row[c]) for c in LEDGER_COLUMNS) + "\n")

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "LedgerCsvWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _cut_ledger(path: str, t: float) -> None:
    """Keep the header and the complete rows of the ledger CSV with time <= t.

    The time is the first column, written with repr(), so it reads back exactly.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    keep = lines[:1] + [
        line for line in lines[1:] if line.endswith("\n") and float(line.split(",", 1)[0]) <= t
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(keep)
