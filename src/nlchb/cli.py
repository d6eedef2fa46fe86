"""Command-line entry points: run, sweep-eps, gamma-sweep, oracle, validate, resume.

Environment override: NLCHB_OUTPUT_DIR replaces the configured output
directory.

Exit codes: 0 success, 1 usage/config/check failure, 2 a solver blow-up or an
invariant violation (both with a diagnostic snapshot on disk), or a diverged
sweep-eps reference run. Every ledger row is handed to the operating system
as it is written.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from .config import ConfigError, RunConfig, parse_config
from .kernel import (
    calibrate_mollifier,
    compute_cd,
    convolve,
    convolve_direct,
    sample_kernel,
)
from .limits import _check_eps_list, gamma_sweep, solution_sweep
from .physics import validate_assumptions
from .solver import BlowUpError, Forcing, Model, SimState, integrate, suggest_dt
from .snapshots import LedgerCsvWriter, _cut_ledger, read_snapshot, write_ppm, write_snapshot

ORACLE_MAX_CELLS = 32 * 32


def _load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config(text, base_dir=os.path.dirname(os.path.abspath(path)))


def _output_dir(config: RunConfig) -> str:
    out = os.environ.get("NLCHB_OUTPUT_DIR", config.output["directory"])
    os.makedirs(out, exist_ok=True)
    return out


def _save(config: RunConfig, path: str, state: SimState, dt: float) -> None:
    """Snapshot of `state` that embeds the run config and dt, so it can be resumed."""
    write_snapshot(path, state, config.grid, config_text=config.raw_text, dt=dt)


def _emit_outputs(config: RunConfig, outdir: str, state: SimState, dt: float) -> None:
    tag = f"{state.step:08d}"
    if config.output["write_snapshots"]:
        _save(config, os.path.join(outdir, f"snapshot_{tag}.bin"), state, dt)
    if config.output["write_images"]:
        write_ppm(os.path.join(outdir, f"phi_{tag}.ppm"), state.phi)
        write_ppm(os.path.join(outdir, f"theta_{tag}.ppm"), state.theta)


def _run_loop(
    config: RunConfig,
    model: Model,
    start: list[SimState],
    forcing: Forcing,
    dt: float,
    outdir: str,
    append_csv: bool,
) -> int:
    """Integrate the one state in `start` to t_end, writing the outputs.

    The state is popped from the list straight into `integrate`, so no frame
    here or in the caller keeps it: its fields are freed after the first step.
    """
    csv = LedgerCsvWriter(os.path.join(outdir, "ledger.csv"), append=append_csv)

    def on_step(state: SimState) -> None:
        if state.step % config.cadence == 0:
            _emit_outputs(config, outdir, state, dt)

    with csv:
        try:
            state = integrate(
                model,
                start.pop(),
                dt,
                config.t_end,
                forcing,
                csv,
                on_step=on_step,
            )
        except BlowUpError as exc:
            _save(config, os.path.join(outdir, "blowup.bin"), exc.state, dt)
            raise

    _save(config, os.path.join(outdir, "checkpoint.bin"), state, dt)
    print(f"finished at t={state.t:.6g} after {state.step} steps")
    return 0


def cmd_run(config_path: str) -> int:
    config = _load_config(config_path)
    outdir = _output_dir(config)
    model = Model.build(config)
    lines = validate_assumptions(model.kernel, model.a, config.potential, config.material).lines()
    print("\n".join(lines))
    with open(os.path.join(outdir, "validation.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    state = config.initial_state()
    dt = config.dt
    if dt is None:
        dt = suggest_dt(model, state, config.safety)
        print(f"auto dt = {dt:.6g}")
    _emit_outputs(config, outdir, state, dt)
    start = [state]
    del state
    return _run_loop(config, model, start, config.forcing(), dt, outdir, append_csv=False)


def cmd_resume(checkpoint_path: str) -> int:
    state, meta = read_snapshot(checkpoint_path)
    if meta["config_text"] is None:
        print("checkpoint carries no embedded config; cannot resume", file=sys.stderr)
        return 1
    config = parse_config(
        meta["config_text"], base_dir=os.path.dirname(os.path.abspath(checkpoint_path))
    )
    outdir = _output_dir(config)
    model = Model.build(config)
    dt = meta["dt"] if meta["dt"] is not None else config.dt
    if dt is None:
        print("checkpoint carries no step size and config dt is auto", file=sys.stderr)
        return 1
    if state.t >= config.t_end - 0.5 * dt:
        print("checkpoint already at or beyond t_end; nothing to do")
        return 0
    csv_path = os.path.join(outdir, "ledger.csv")
    if os.path.exists(csv_path):
        # a mid-run snapshot is older than the ledger's last rows
        _cut_ledger(csv_path, state.t)
    start = [state]
    del state
    return _run_loop(config, model, start, config.forcing(), dt, outdir, append_csv=True)


def cmd_validate(config_path: str) -> int:
    config = _load_config(config_path)
    model = Model.build(config)
    report = validate_assumptions(model.kernel, model.a, config.potential, config.material)
    print("\n".join(report.lines()))
    return 0


def cmd_gamma_sweep(config_path: str, eps_list: list[float]) -> int:
    config = _load_config(config_path)
    outdir = _output_dir(config)
    state = config.initial_state()
    report = gamma_sweep(config.grid, state.phi, eps_list, config.gamma, config.shape_id)
    path = os.path.join(outdir, "gamma_sweep.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(report.csv_lines()) + "\n")
    print(f"target (local energy) = {report.target:.8f}")
    for eps, val, err in zip(report.eps, report.columns["e_nl"], report.columns["abs_error"]):
        print(f"  eps={eps:<8g} e_nl={val:.8f} |error|={err:.3e}")
    print(f"wrote {path}")
    return 0


def cmd_sweep_eps(config_path: str, eps_list: list[float]) -> int:
    config = _load_config(config_path)
    outdir = _output_dir(config)
    start = [config.initial_state()]  # popped into the sweep, so no name here keeps it
    eps_list = _check_eps_list(eps_list)  # before any member's directory is made
    with contextlib.ExitStack() as stack:
        ledgers = []
        for eps in eps_list:
            subdir = os.path.join(outdir, f"eps_{eps!r}")
            os.makedirs(subdir, exist_ok=True)
            ledgers.append(stack.enter_context(LedgerCsvWriter(os.path.join(subdir, "ledger.csv"))))
        report = solution_sweep(
            config.grid,
            config.potential,
            config.material,
            start.pop(),
            eps_list,
            gamma=config.gamma,
            shape_id=config.shape_id,
            t_end=config.t_end,
            dt=config.dt,
            stabilization=config.stabilization,
            safety=config.safety,
            ledgers=ledgers,
        )
    path = os.path.join(outdir, "sweep_eps.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(report.csv_lines()) + "\n")
    for i, eps in enumerate(report.eps):
        if report.valid[i]:
            print(
                f"  eps={eps!r:<8} dist_phi={report.columns['dist_phi'][i]:.6e} "
                f"dist_theta={report.columns['dist_theta'][i]:.6e} "
                f"dist_u={report.columns['dist_u'][i]:.6e} "
                f"energy_gap={report.columns['energy_gap'][i]:.6e}"
            )
        else:
            print(f"  eps={eps!r:<8} DIVERGED (excluded from ratios)")
    print(f"wrote {path}")
    return 0


def cmd_oracle(config_path: str) -> int:
    config = _load_config(config_path)
    grid = config.grid
    if grid.nx * grid.ny > ORACLE_MAX_CELLS:
        print(
            f"oracle requires a grid of at most {ORACLE_MAX_CELLS} cells "
            f"(got {grid.nx}x{grid.ny}); use a smaller config",
            file=sys.stderr,
        )
        return 1

    rows = []

    def check(name: str, value: float, tol: float) -> None:
        rows.append((name, value, tol, value <= tol))

    c2 = compute_cd(2)
    c3 = compute_cd(3)
    print(f"angular constants: C_2 = {c2:.12f} (pi = {np.pi:.12f}),")
    print(f"                   C_3 = {c3:.12f} (4 pi / 3 = {4 * np.pi / 3:.12f})")
    check("c2_vs_pi", abs(c2 - np.pi), 1e-8)
    check("c3_vs_4pi_over_3", abs(c3 - 4.0 * np.pi / 3.0), 1e-6)

    mollifier = calibrate_mollifier(config.gamma, shape_id=config.shape_id)
    check("mollifier_calibration", mollifier.renormalization_residual(), 1e-8)

    kernel = sample_kernel(mollifier, config.epsilon, grid)
    ii = (-np.arange(2 * grid.nx)) % (2 * grid.nx)
    jj = (-np.arange(2 * grid.ny)) % (2 * grid.ny)
    sym = float(np.abs(kernel.values - kernel.values[np.ix_(ii, jj)]).max())
    check("kernel_symmetry", sym, 0.0)

    a = convolve(kernel, np.ones(grid.shape))
    rng = np.random.default_rng(config.seed)
    fft_err = adj_err = enl_err = 0.0
    for _ in range(3):
        phi = rng.standard_normal(grid.shape)
        psi = rng.standard_normal(grid.shape)
        fast = convolve(kernel, phi)
        slow = convolve_direct(kernel, phi)
        fft_err = max(fft_err, float(np.abs(fast - slow).max() / np.abs(slow).max()))
        s12 = float(np.sum(fast * psi))
        s21 = float(np.sum(convolve(kernel, psi) * phi))
        norm = float(np.sqrt(np.sum(phi**2) * np.sum(psi**2)))
        adj_err = max(adj_err, abs(s12 - s21) / norm)
        quad = float(np.sum(a * phi * phi - phi * fast) * grid.cell_area)
        direct = 0.0
        K = kernel.values
        for i in range(grid.nx):
            rsel = (i - np.arange(grid.nx)) % (2 * grid.nx)
            for j in range(grid.ny):
                csel = (j - np.arange(grid.ny)) % (2 * grid.ny)
                direct += float(np.sum(K[np.ix_(rsel, csel)] * (phi[i, j] - phi) ** 2))
        direct *= 0.5 * grid.cell_area**2
        enl_err = max(enl_err, abs(quad - direct) / max(abs(direct), 1e-300))
    check("fft_vs_direct_convolution", fft_err, 1e-12)
    check("adjoint_symmetry", adj_err, 1e-12)
    check("nonlocal_energy_identity", enl_err, 1e-10)

    h = 1e-6
    fd = (config.potential.f(0.3 + h) - config.potential.f(0.3 - h)) / (2.0 * h)
    check("potential_derivative_fd", abs(config.potential.df(0.3) - fd), 1e-8)

    all_pass = all(ok for _, _, _, ok in rows)
    print(f"{'oracle':<28} {'value':>12}  {'tolerance':>10}  result")
    for name, value, tol, ok in rows:
        print(f"{name:<28} {value:>12.3e}  {tol:>10.1e}  {'PASS' if ok else 'FAIL'}")
    print("oracle suite:", "PASS" if all_pass else "FAIL")
    return 0 if all_pass else 1


def _parse_eps(text: str) -> list[float]:
    return [float(p) for p in text.replace(",", " ").split()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlchb",
        description="Nonlocal two-phase-flow simulator with convective heat transfer",
    )
    commands = {  # name: (help, positional argument, handler)
        "run": ("run a simulation to t_end", "config", cmd_run),
        "resume": ("continue from a checkpoint", "checkpoint", cmd_resume),
        "validate": ("check model assumptions for a config", "config", cmd_validate),
        "gamma-sweep": ("interface-energy convergence study", "config", cmd_gamma_sweep),
        "sweep-eps": ("full-solution convergence study", "config", cmd_sweep_eps),
        "oracle": ("run the brute-force oracle battery", "config", cmd_oracle),
    }
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, positional, _) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument(positional)
        if name in ("gamma-sweep", "sweep-eps"):
            p.add_argument("--eps", required=True, help="comma/space-separated decreasing list")

    args = parser.parse_args(argv)
    _, positional, handler = commands[args.command]
    try:
        eps = [_parse_eps(args.eps)] if "eps" in args else []
        return handler(getattr(args, positional), *eps)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except BlowUpError as exc:
        print(f"blow-up at t={exc.state.t:.6g} (step {exc.state.step}): {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
