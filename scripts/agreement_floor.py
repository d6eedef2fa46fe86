"""End-state spread of the shipped runs under rounding-level perturbations.

    python3 scripts/agreement_floor.py > scripts/agreement_floor.txt

Runs configs/spinodal.cfg and configs/convection.cfg to t_end in process,
with this checkout's `src` and no output files, once as shipped and once per
perturbation:

  * `phi[i,j] +1ulp`: one initial phi cell moved up by one ulp (three cells,
    one run each);
  * `no AVX-512`: the shipped run in a child process with numpy's AVX-512
    paths off (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR");
  * `c_eta +1ulp`, `c_eta -1ulp`: the calibrated mollifier constant moved by
    one ulp, which is what computing it by another quadrature rule would do.

For each it prints the change of the end state against the shipped run,
relative to the shipped run's value: of the phi, theta and u L2 norms, of
the L2 distance of each field (which bounds the change of its norm), and of
the final ledger row's E_total. A row of zeros means the perturbation left
every end-state bit of that quantity unchanged.

Then it runs acceptance criterion 12, the eps sweep (`solution_sweep` at 64^2
with eps 0.2/0.1/0.05 and t_end 0.5, called as tests/test_acceptance.py calls
it), as shipped, with AVX-512 off and under c_eta +-1 ulp. For each it prints
the seven columns and the relative drop (a - b) / a of each column the test
checks between neighbouring eps. The test passes while every such drop is
positive, so the smallest one is the margin a rounding change may take.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import scipy  # noqa: E402

import nlchb.solver  # noqa: E402
from conftest import spinodal_material, spinodal_potential, spinodal_state  # noqa: E402
from nlchb.config import parse_config  # noqa: E402
from nlchb.energy import EnergyLedger  # noqa: E402
from nlchb.grid import make_grid  # noqa: E402
from nlchb.limits import solution_sweep  # noqa: E402
from nlchb.solver import Model, integrate, suggest_dt  # noqa: E402

CONFIGS = ("spinodal", "convection")
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
SWEEP_EPS = (0.2, 0.1, 0.05)
SWEEP_COLUMNS = ("dist_phi", "dist_theta", "dist_u", "end_dist_phi", "end_dist_theta",
                 "end_dist_u", "energy_gap")
SWEEP_CHECKED = ("dist_phi", "dist_theta", "dist_u", "energy_gap")


@contextlib.contextmanager
def c_eta_moved(c_eta_ulp: int):
    """Model builds inside see the calibrated c_eta one ulp up (`c_eta_ulp` > 0),
    one ulp down (< 0) or as calibrated (0)."""
    raw = nlchb.solver.calibrate_mollifier

    def moved(*args, **kwargs):
        m = raw(*args, **kwargs)
        return dataclasses.replace(m, c_eta=float(np.nextafter(m.c_eta, c_eta_ulp * np.inf)))

    nlchb.solver.calibrate_mollifier = moved if c_eta_ulp else raw
    try:
        yield
    finally:
        nlchb.solver.calibrate_mollifier = raw


def end_state(name: str, phi_ulp: tuple[int, int] | None = None, c_eta_ulp: int = 0) -> dict:
    """The end fields and final E_total of configs/<name>.cfg, run as `nlchb run` steps it."""
    path = ROOT / "configs" / f"{name}.cfg"
    config = parse_config(path.read_text(), base_dir=str(path.parent))
    with c_eta_moved(c_eta_ulp):
        model = Model.build(config)
    state = config.initial_state()
    if phi_ulp is not None:
        state.phi[phi_ulp] = np.nextafter(state.phi[phi_ulp], np.inf)
    dt = config.dt if config.dt is not None else suggest_dt(model, state, config.safety)
    ledger = EnergyLedger()

    def keep_last_row(_state) -> None:
        del ledger.rows[:-1]

    end = integrate(model, state, dt, config.t_end, config.forcing(), ledger, keep_last_row)
    return {
        "phi": end.phi,
        "theta": end.theta,
        "u": np.concatenate((end.vel.u.ravel(), end.vel.v.ravel())),
        "E_total": np.float64(ledger.rows[-1]["E_total"]),
        "steps": end.step,
    }


def sweep_columns(c_eta_ulp: int = 0) -> dict:
    """Criterion 12's sweep columns, one value per eps (NaN for a diverged member)."""
    grid = make_grid(64, 64, 1.0, 1.0)
    with c_eta_moved(c_eta_ulp):
        report = solution_sweep(grid, spinodal_potential(), spinodal_material(),
                                spinodal_state(grid), list(SWEEP_EPS), gamma=0.5, t_end=0.5)
    return {name: np.array(report.columns[name]) for name in SWEEP_COLUMNS}


def child_end_state(name: str) -> dict | str:
    """`end_state(name)`, or `sweep_columns()` for name "sweep", from a child
    process with numpy's AVX-512 paths off, or the child's last error line."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "end.npz")
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512)
        proc = subprocess.run(
            [sys.executable, __file__, "--child", name, out],
            env=env, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            return (proc.stderr.strip().splitlines() or ["no output"])[-1]
        with np.load(out) as data:
            return {key: data[key] for key in data.files}


def spread(base: dict, other: dict) -> list[float]:
    """Relative norm change of phi, theta, u, their relative distances, and
    the relative change of E_total."""
    norms, dists = [], []
    for key in ("phi", "theta", "u"):
        ref = float(np.linalg.norm(base[key]))
        norms.append(abs(float(np.linalg.norm(other[key])) - ref) / ref)
        dists.append(float(np.linalg.norm(other[key] - base[key])) / ref)
    e_change = abs(float(other["E_total"]) - float(base["E_total"])) / abs(float(base["E_total"]))
    return norms + dists + [e_change]


def cpu_line() -> str:
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        return "numpy CPU features: unknown"
    names = ("AVX2", *NO_AVX512.split())
    return "numpy CPU features: " + " ".join(f"{n}={'yes' if features.get(n) else 'no'}" for n in names)


def print_sweep(label: str, columns: dict | str) -> None:
    """The sweep's columns and the relative drops of the checked ones."""
    if isinstance(columns, str):
        print(f"\n{label}: not run: {columns}")
        return
    print(f"\n{label}")
    print(f"{'eps':<18}" + "".join(f"{c:>15}" for c in SWEEP_COLUMNS))
    for i, eps in enumerate(SWEEP_EPS):
        print(f"{eps!r:<18}" + "".join(f"{columns[c][i]:>15.7g}" for c in SWEEP_COLUMNS))
    drops = []
    for i in range(len(SWEEP_EPS) - 1):
        pair = f"{SWEEP_EPS[i]!r} -> {SWEEP_EPS[i + 1]!r}"
        row = {}
        for c in SWEEP_CHECKED:
            a, b = columns[c][i], columns[c][i + 1]
            row[c] = (a - b) / a
            drops.append((row[c], c, pair))
        print(f"{'drop ' + pair:<18}" + "".join(
            f"{f'{100.0 * row[c]:.3f}%' if c in row else '':>15}" for c in SWEEP_COLUMNS))
    low, column, pair = min(drops, key=lambda d: d[0] if np.isfinite(d[0]) else -np.inf)
    print(f"smallest checked drop: {100.0 * low:.3f}% ({column}, eps {pair})")


def main() -> None:
    if sys.argv[1:2] == ["--child"]:
        name, out = sys.argv[2:4]
        np.savez(out, **(sweep_columns() if name == "sweep" else end_state(name)))
        return
    columns = ("phi", "theta", "u", "d_phi", "d_theta", "d_u", "E_total")
    print("# python3 scripts/agreement_floor.py")
    print(f"# Python {platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__}, "
          f"{os.cpu_count()} CPUs")
    print(f"# {cpu_line()}")
    print("# relative change of the end state against the shipped run: L2 norms of phi, theta and u;")
    print("# L2 distances d_*; the final E_total")
    for name in CONFIGS:
        base = end_state(name)
        nx, ny = base["phi"].shape
        print(f"\n{name}.cfg ({base['steps']} steps)")
        print(f"{'perturbation':<18}" + "".join(f"{c:>10}" for c in columns))
        runs = [(f"phi[{i},{j}] +1ulp", lambda i=i, j=j: end_state(name, phi_ulp=(i, j)))
                for i, j in ((nx // 4, ny // 3), (nx // 2, ny // 2), (3 * nx // 4, 2 * ny // 3))]
        runs += [("no AVX-512", lambda: child_end_state(name)),
                 ("c_eta +1ulp", lambda: end_state(name, c_eta_ulp=1)),
                 ("c_eta -1ulp", lambda: end_state(name, c_eta_ulp=-1))]
        for label, run in runs:
            other = run()
            if isinstance(other, str):
                print(f"{label:<18}  not run: {other}")
                continue
            print(f"{label:<18}" + "".join(f"{x:>10.1e}" for x in spread(base, other)))

    print("\ncriterion 12: solution_sweep at 64x64, eps " + "/".join(map(repr, SWEEP_EPS))
          + ", t_end 0.5, as tests/test_acceptance.py calls it;")
    print("# drop a -> b is (a - b) / a of each checked column; the test needs every drop > 0")
    print_sweep("shipped", sweep_columns())
    print_sweep("no AVX-512", child_end_state("sweep"))
    print_sweep("c_eta +1ulp", sweep_columns(c_eta_ulp=1))
    print_sweep("c_eta -1ulp", sweep_columns(c_eta_ulp=-1))


if __name__ == "__main__":
    main()
