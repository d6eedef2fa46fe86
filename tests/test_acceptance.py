"""Acceptance suite: every agreed criterion at its stated tolerance.

Each test prints one `[criterion NN] name: PASS|FAIL` line (run pytest with -s
or -rA to see them all). Fixture constants are frozen here and in conftest;
nothing is calibrated at run time.
"""

import time

import numpy as np
import pytest

from conftest import smooth_flow_state, spinodal_material, spinodal_potential, spinodal_state
from nlchb.energy import EnergyLedger, e_nl
from nlchb.grid import make_grid
from nlchb.kernel import (
    calibrate_mollifier,
    compute_a,
    compute_cd,
    convolve,
    convolve_direct,
    sample_kernel,
)
from nlchb.limits import gamma_sweep, solution_sweep, weak_operator_check
from nlchb.physics import validate_assumptions
from nlchb.solver import Model, ModelSpec, integrate, step_ch, step_heat, suggest_dt
from test_kernel import double_sum_energy

GAMMA = 0.5
SPINODAL_EPS = 0.2


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def _spinodal_model(grid, eps=SPINODAL_EPS, mode="nonlocal"):
    return Model.build(ModelSpec(
        grid, spinodal_potential(), spinodal_material(), mode=mode, epsilon=eps, gamma=GAMMA
    ))


@pytest.fixture(scope="module")
def soak_run():
    """One 10^4-step spinodal run at 64^2 shared by criteria 5 and 6."""
    grid = make_grid(64, 64, 1.0, 1.0)
    model = _spinodal_model(grid)
    state = spinodal_state(grid)
    dt = suggest_dt(model, state, 0.4)
    mean0 = float(state.phi.mean())
    worst = {"drift": 0.0, "div": 0.0}

    def track(state):
        worst["drift"] = max(worst["drift"], abs(float(state.phi.mean()) - mean0))
        worst["div"] = max(worst["div"], float(np.abs(state.vel.divergence()).max()))

    t0 = time.perf_counter()
    end = integrate(model, state, dt, 10_000 * dt, on_step=track)
    elapsed = time.perf_counter() - t0
    assert end.step == 10_000
    return worst["drift"], worst["div"], elapsed


class TestCriterion01Convolution:
    def test_fft_equals_direct_sum(self):
        rng = np.random.default_rng(2024)
        t0 = time.perf_counter()
        worst = 0.0
        for case in range(20):
            n = (8, 16, 32)[case % 3]
            grid = make_grid(n, n, 1.0, 1.0)
            gamma = float(rng.uniform(0.1, 0.9))
            eps = float(rng.uniform(4.0 / n, 0.6))
            kernel = sample_kernel(calibrate_mollifier(gamma), eps, grid)
            phi = rng.standard_normal(grid.shape)
            fast = convolve(kernel, phi)
            slow = convolve_direct(kernel, phi)
            worst = max(worst, float(np.abs(fast - slow).max() / np.abs(slow).max()))
        elapsed = time.perf_counter() - t0
        _report(
            1,
            "convolution oracle",
            worst <= 1e-12 and elapsed < 10.0,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s",
        )


class TestCriterion02EnergyIdentity:
    def test_quadratic_form_equals_double_sum(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for n, eps, gamma in ((16, 0.3, 0.4), (32, 0.2, 0.6), (32, 0.35, 0.8)):
            grid = make_grid(n, n, 1.0, 1.0)
            kernel = sample_kernel(calibrate_mollifier(gamma), eps, grid)
            a = compute_a(kernel)
            phi = rng.standard_normal(grid.shape)
            fast = e_nl(kernel, a, phi)
            slow = double_sum_energy(kernel, phi)
            worst = max(worst, abs(fast - slow) / abs(slow))
        _report(2, "nonlocal energy identity", worst <= 1e-10, f"worst rel err {worst:.2e}")


class TestCriterion03Adjoint:
    def test_convolution_adjoint_symmetry(self):
        rng = np.random.default_rng(11)
        grid = make_grid(32, 32, 1.0, 1.0)
        kernel = sample_kernel(calibrate_mollifier(GAMMA), 0.25, grid)
        worst = 0.0
        for _ in range(10):
            p1 = rng.standard_normal(grid.shape)
            p2 = rng.standard_normal(grid.shape)
            s12 = float(np.sum(convolve(kernel, p1) * p2))
            s21 = float(np.sum(convolve(kernel, p2) * p1))
            norm = float(np.sqrt(np.sum(p1**2)) * np.sqrt(np.sum(p2**2)))
            worst = max(worst, abs(s12 - s21) / norm)
        _report(3, "adjoint symmetry", worst <= 1e-12, f"worst {worst:.2e}")


class TestCriterion04Renormalization:
    def test_constants_and_calibration(self):
        err2 = abs(compute_cd(2) - np.pi)
        err3 = abs(compute_cd(3) - 4.0 * np.pi / 3.0)
        resid = max(
            calibrate_mollifier(g, shape_id=s).renormalization_residual()
            for g in (0.3, 0.5, 0.8)
            for s in ("bump", "quartic")
        )
        ok = err2 <= 1e-8 and err3 <= 1e-6 and resid <= 1e-8
        _report(
            4,
            "renormalization constants",
            ok,
            f"|C2-pi|={err2:.1e} |C3-4pi/3|={err3:.1e} calib {resid:.1e}",
        )


class TestCriterion05Mass:
    def test_mass_conserved_over_soak(self, soak_run):
        drift, _, elapsed = soak_run
        _report(
            5,
            "mass conservation (1e4 steps)",
            drift <= 1e-10 and elapsed < 120.0,
            f"max drift {drift:.2e}, {elapsed:.0f}s",
        )


class TestCriterion06Incompressibility:
    def test_divergence_free_over_soak(self, soak_run):
        _, max_div, _ = soak_run
        _report(6, "incompressibility (1e4 steps)", max_div <= 1e-10, f"max div {max_div:.2e}")


class TestCriterion07EnergyLaw:
    def test_monotone_energy_and_residual_halving(self):
        grid = make_grid(64, 64, 1.0, 1.0)
        model = _spinodal_model(grid)
        dt = suggest_dt(model, spinodal_state(grid), 0.4)

        def run(step: float) -> EnergyLedger:
            ledger = EnergyLedger()
            integrate(model, spinodal_state(grid), step, 0.5, ledger=ledger)
            return ledger

        led1 = run(dt)
        E = led1.column("E_total")
        violation = max(float(np.diff(E).max()), 0.0)
        mono_ok = violation <= 1e-8 * E[0]

        r1 = led1.column("residual")
        r2 = run(dt / 2.0).column("residual")
        s1 = float(r1[r1 > 0].sum())
        s2 = float(r2[r2 > 0].sum())
        ratio = s1 / s2 if s2 > 0 else float("inf")
        _report(
            7,
            "discrete energy law",
            mono_ok and ratio >= 1.8,
            f"max increase {violation:.2e} (tol {1e-8 * E[0]:.2e}), residual ratio {ratio:.2f}",
        )


class TestCriterion08HeatBalance:
    def test_latent_mean_invariant_without_flow(self):
        grid = make_grid(64, 64, 1.0, 1.0)
        model = _spinodal_model(grid)
        state = spinodal_state(grid)
        state.theta = 0.05 * state.phi
        lh = model.material.l_h
        h_prev = float(np.mean(state.theta - lh * state.phi))
        worst = 0.0
        for _ in range(200):
            phi_next, _ = step_ch(model, state, 1e-3)
            theta_next = step_heat(model, state, phi_next, 1e-3, None)
            state.phi, state.theta = phi_next, theta_next
            h_now = float(np.mean(state.theta - lh * state.phi))
            worst = max(worst, abs(h_now - h_prev))
            h_prev = h_now
        _report(8, "heat-balance invariant", worst <= 1e-12, f"max per-step drift {worst:.2e}")


class TestCriterion09Order:
    def test_first_order_in_time(self):
        # smooth unforced state with all fields active; mild potential keeps
        # the comparison inside the asymptotic-in-dt regime
        from nlchb.physics import PotentialParams

        grid = make_grid(64, 64, 1.0, 1.0)
        model = Model.build(
            ModelSpec(grid, PotentialParams(eta_f=1.0), spinodal_material(),
                      mode="nonlocal", epsilon=SPINODAL_EPS, gamma=GAMMA)
        )
        h, T = 1.25e-5, 2e-3
        ends = [integrate(model, smooth_flow_state(grid), mult * h, T).phi for mult in (4, 2, 1)]
        e1 = float(np.sqrt(np.sum((ends[0] - ends[1]) ** 2) * grid.cell_area))
        e2 = float(np.sqrt(np.sum((ends[1] - ends[2]) ** 2) * grid.cell_area))
        order = float(np.log2(e1 / e2))
        _report(9, "first-order time stepping", 0.8 <= order <= 1.2, f"observed order {order:.3f}")


class TestCriterion10GammaLimit:
    def test_energy_converges_to_dirichlet(self):
        t0 = time.perf_counter()
        grid = make_grid(128, 128, 1.0, 1.0)
        X, Y = grid.cell_centers()
        phi = np.cos(np.pi * X) * np.cos(np.pi * Y)
        target = np.pi**2 / 4.0
        report = gamma_sweep(grid, phi, [0.2, 0.1, 0.05, 0.025], GAMMA)
        errs = [abs(v - target) for v in report.columns["e_nl"]]
        elapsed = time.perf_counter() - t0
        decreasing = all(a > b for a, b in zip(errs, errs[1:]))
        final_ok = errs[-1] <= 0.05 * target
        _report(
            10,
            "gamma-limit of energies",
            decreasing and final_ok and elapsed < 60.0,
            "errors " + " > ".join(f"{e:.3f}" for e in errs) + f", {elapsed:.0f}s",
        )


class TestCriterion11WeakOperator:
    def test_bilinear_form_converges(self):
        grid = make_grid(128, 128, 1.0, 1.0)
        X, Y = grid.cell_centers()
        phi = np.cos(np.pi * X) * np.cos(np.pi * Y)
        target = np.pi**2 / 4.0
        report = weak_operator_check(grid, phi, phi, [0.2, 0.1, 0.05, 0.025], GAMMA)
        errs = [abs(v - target) for v in report.columns["form"]]
        decreasing = all(a > b for a, b in zip(errs, errs[1:]))
        _report(
            11,
            "weak operator limit",
            decreasing,
            "errors " + " > ".join(f"{e:.3f}" for e in errs),
        )


class TestCriterion12SolutionConvergence:
    def test_sweep_monotone_against_local_reference(self):
        t0 = time.perf_counter()
        grid = make_grid(64, 64, 1.0, 1.0)
        report = solution_sweep(
            grid,
            spinodal_potential(),
            spinodal_material(),
            spinodal_state(grid),
            [0.2, 0.1, 0.05],
            gamma=GAMMA,
            t_end=0.5,
        )
        elapsed = time.perf_counter() - t0

        def mono(col: str) -> bool:
            v = report.columns[col]
            return all(a > b for a, b in zip(v, v[1:]))

        ok = (
            all(report.valid)
            and mono("dist_phi")
            and mono("dist_theta")
            and mono("dist_u")
            and mono("energy_gap")
            and elapsed < 600.0
        )
        detail = (
            "phi " + "/".join(f"{v:.3f}" for v in report.columns["dist_phi"])
            + "; gap " + "/".join(f"{v:.3f}" for v in report.columns["energy_gap"])
            + f"; {elapsed:.0f}s"
        )
        _report(12, "solution convergence sweep", ok, detail)


class TestCriterion13Determinism:
    def test_checkpoint_restart_bit_exact(self, tmp_path):
        from nlchb.cli import main
        from nlchb.snapshots import read_snapshot, write_snapshot

        base = (
            "[grid]\nnx = 16\nny = 16\n"
            "[kernel]\nepsilon = 0.3\ngamma = 0.5\n"
            "[solver]\ndt = 1e-3\nt_end = {T}\ncadence = 7\n"
            "[output]\ndirectory = {out}\n"
        )
        full_cfg = tmp_path / "full.cfg"
        full_cfg.write_text(base.format(T="2e-2", out=tmp_path / "full"))
        assert main(["run", str(full_cfg)]) == 0
        full_state, _ = read_snapshot(str(tmp_path / "full" / "checkpoint.bin"))

        half_cfg = tmp_path / "half.cfg"
        half_cfg.write_text(base.format(T="1e-2", out=tmp_path / "half"))
        assert main(["run", str(half_cfg)]) == 0
        ckpt = str(tmp_path / "half" / "checkpoint.bin")
        state, meta = read_snapshot(ckpt)
        write_snapshot(
            ckpt,
            state,
            meta["grid"],
            config_text=meta["config_text"].replace("t_end = 1e-2", "t_end = 2e-2"),
            dt=meta["dt"],
        )
        assert main(["resume", ckpt]) == 0
        resumed, _ = read_snapshot(str(tmp_path / "half" / "checkpoint.bin"))
        ok = (
            resumed.t == full_state.t
            and np.array_equal(resumed.phi, full_state.phi)
            and np.array_equal(resumed.theta, full_state.theta)
            and np.array_equal(resumed.vel.u, full_state.vel.u)
            and np.array_equal(resumed.vel.v, full_state.vel.v)
        )
        _report(13, "checkpoint-restart determinism", ok, "bitwise state equality")


class TestCriterion14Validator:
    def test_default_configuration_constants(self):
        grid = make_grid(64, 64, 1.0, 1.0)
        kernel = sample_kernel(calibrate_mollifier(GAMMA), SPINODAL_EPS, grid)
        a = compute_a(kernel)
        report = validate_assumptions(kernel, a, spinodal_potential(), spinodal_material())
        a4_ok = report.a4_satisfied == (report.c1 > report.half_j_l1)
        flagged_consistently = report.a4_satisfied or "a4_c1_below_half_l1" in report.flags
        ok = (
            report.c1 > report.half_j_l1
            and a4_ok
            and flagged_consistently
            and report.a5_feasible_on_range
            and np.isfinite(report.c3)
            and np.isfinite(report.c4)
        )
        _report(
            14,
            "assumption validator",
            ok,
            f"c1={report.c1:.3f} > |J|/2={report.half_j_l1:.3f}; "
            f"p=2 feasible with c3={report.c3:.3f}, c4={report.c4:.3f}",
        )
