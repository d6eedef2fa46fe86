"""Limit-study tests (the full acceptance fixtures run in test_acceptance)."""

import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import (
    count_calls,
    fields_energy,
    patch_everywhere,
    spinodal_material,
    spinodal_potential,
    spinodal_state,
)
import nlchb.kernel
import nlchb.limits
import nlchb.solver
from nlchb.config import parse_config
from nlchb.energy import EnergyLedger
from nlchb.grid import make_grid
from nlchb.limits import SweepReport, gamma_sweep, solution_sweep, weak_operator_check
from nlchb.solver import BlowUpError, Model, ModelSpec, integrate, suggest_dt


def coscos(grid):
    X, Y = grid.cell_centers()
    return np.cos(np.pi * X) * np.cos(np.pi * Y)


class TestSweepReport:
    def test_eps_must_decrease(self):
        with pytest.raises(ValueError):
            SweepReport(kind="x", eps=[0.1, 0.2], columns={"v": [1.0, 2.0]})

    def test_csv_has_metadata_and_rows(self):
        rep = SweepReport(
            kind="x", eps=[0.2, 0.1], columns={"v": [1.0, 2.0]}, target=0.0, metadata={"k": 3}
        )
        lines = rep.csv_lines()
        assert lines[0] == "# kind = x"
        assert any(l.startswith("# k = 3") for l in lines)
        assert lines[-1].split(",")[0] == repr(0.1)


class TestGammaSweep:
    def test_constant_field_all_zero(self):
        grid = make_grid(32, 32, 1.0, 1.0)
        rep = gamma_sweep(grid, np.full(grid.shape, 0.7), [0.4, 0.2], gamma=0.5)
        assert rep.target == 0.0
        assert max(abs(v) for v in rep.columns["e_nl"]) < 1e-10

    def test_coscos_error_decreases(self):
        grid = make_grid(64, 64, 1.0, 1.0)
        rep = gamma_sweep(grid, coscos(grid), [0.2, 0.1, 0.05], gamma=0.5)
        errs = rep.columns["abs_error"]
        assert errs[0] > errs[1] > errs[2]
        assert rep.target == pytest.approx(np.pi**2 / 4.0, rel=5e-3)

    def test_under_resolved_eps_flagged(self):
        grid = make_grid(16, 16, 1.0, 1.0)
        with pytest.warns(UserWarning):
            rep = gamma_sweep(grid, coscos(grid), [0.5, 0.05], gamma=0.5)
        assert rep.valid == [True, False]


class TestWeakOperator:
    def test_constant_phi2_gives_zero_form_and_target(self):
        grid = make_grid(32, 32, 1.0, 1.0)
        phi1 = coscos(grid)
        phi2 = np.full(grid.shape, 2.0)
        rep = weak_operator_check(grid, phi1, phi2, [0.3], gamma=0.5)
        assert rep.target == 0.0
        assert abs(rep.columns["form"][0]) < 1e-10

    def test_cos_form_approaches_quarter_pi_sq(self):
        # target = (1/2) int |grad cos(pi x)|^2 = pi^2/4
        grid = make_grid(64, 64, 1.0, 1.0)
        X, _ = grid.cell_centers()
        phi = np.cos(np.pi * X)
        rep = weak_operator_check(grid, phi, phi, [0.2, 0.1, 0.05], gamma=0.5)
        assert rep.target == pytest.approx(np.pi**2 / 4.0, rel=5e-3)
        errs = rep.columns["abs_error"]
        assert errs[0] > errs[1] > errs[2]

    def test_symmetry_of_form(self):
        grid = make_grid(32, 32, 1.0, 1.0)
        rng = np.random.default_rng(0)
        phi1 = rng.standard_normal(grid.shape)
        phi2 = rng.standard_normal(grid.shape)
        rep = weak_operator_check(grid, phi1, phi2, [0.25], gamma=0.5)
        scale = abs(rep.columns["form"][0]) + 1.0
        assert rep.columns["symmetry_defect"][0] <= 1e-12 * scale


@pytest.fixture(scope="module")
def small_sweep():
    grid = make_grid(32, 32, 1.0, 1.0)
    return solution_sweep(
        grid,
        spinodal_potential(),
        spinodal_material(),
        spinodal_state(grid),
        [0.25, 0.125],
        gamma=0.5,
        t_end=0.05,
        sample_count=25,
    )


class TestSolutionSweep:
    def test_rows_valid_and_finite(self, small_sweep):
        assert small_sweep.valid == [True, True]
        for col in small_sweep.columns.values():
            assert all(np.isfinite(v) for v in col)

    def test_distances_positive_and_ordered(self, small_sweep):
        d = small_sweep.columns["dist_phi"]
        assert d[0] > d[1] > 0.0

    def test_metadata_records_shared_dt(self, small_sweep):
        assert small_sweep.metadata["dt"] > 0.0
        assert small_sweep.metadata["n_steps"] >= 1

    def test_all_runs_conserve_mass(self):
        # inherited solver invariant, checked per epsilon via the kept ledgers
        grid = make_grid(32, 32, 1.0, 1.0)
        state0 = spinodal_state(grid)
        mass0 = float(state0.phi.mean())
        ledgers = [EnergyLedger(), EnergyLedger()]
        solution_sweep(
            grid, spinodal_potential(), spinodal_material(), state0,
            [0.25, 0.125], gamma=0.5, t_end=0.02, sample_count=10, ledgers=ledgers,
        )
        for ledger in ledgers:
            mass = ledger.column("mass_phi") / (grid.Lx * grid.Ly)
            assert np.abs(mass - mass0).max() <= 1e-10

    def test_ledgered_steps_start_without_a_new_convolution(self, monkeypatch):
        # each ledgered step of a member starts from the mu and E its last
        # step left: one J*phi per model build (a), one per member start and
        # one per step
        grid = make_grid(32, 32, 1.0, 1.0)
        calls = count_calls(monkeypatch, nlchb.kernel.convolve)
        eps = [0.25, 0.125]
        report = solution_sweep(
            grid, spinodal_potential(), spinodal_material(), spinodal_state(grid),
            eps, gamma=0.5, t_end=0.02, sample_count=10,
            ledgers=[EnergyLedger() for _ in eps],
        )
        md = report.metadata
        assert (md["n_steps"], md["sample_every"]) == (30, 3)  # 10 sampling intervals
        assert len(calls) == len(eps) * (1 + 1 + md["n_steps"]) == 64

    def test_one_reference_run_steps_every_member(self, monkeypatch):
        # 5 sampling intervals and 3 steps after the last sample, all in one integrate call
        integrates = count_calls(monkeypatch, nlchb.solver.integrate)
        advances = count_calls(monkeypatch, nlchb.solver.advance)
        eps = [0.5, 0.4, 0.3]
        report = tiny_sweep(eps, dt=1e-3, t_end=23e-3, sample_count=5)
        md = report.metadata
        assert (md["sample_every"], md["n_steps"] % md["sample_every"]) == (4, 3)
        assert len(integrates) == 1
        assert len(advances) == (len(eps) + 1) * md["n_steps"]

    def test_each_model_built_once(self, monkeypatch):
        # with dt auto the smallest-eps model sets dt and then runs: eps + 1 builds
        raw = Model.build.__func__
        builds = []

        def counted(cls, spec):
            builds.append((spec.mode, spec.epsilon))
            return raw(cls, spec)

        monkeypatch.setattr(Model, "build", classmethod(counted))
        grid = make_grid(16, 16, 1.0, 1.0)
        eps = [0.5, 0.4, 0.3]
        solution_sweep(
            grid, spinodal_potential(), spinodal_material(), spinodal_state(grid),
            eps, gamma=0.5, t_end=2e-3, sample_count=4,
        )
        assert len(builds) == len(eps) + 1
        assert sorted(builds) == sorted([("local", 0.5)] + [("nonlocal", e) for e in eps])


DIST_COLUMNS = (
    "dist_phi",
    "dist_theta",
    "dist_u",
    "end_dist_phi",
    "end_dist_theta",
    "end_dist_u",
    "energy_gap",
)


def keep_all_samples_sweep(grid, state0, eps, t_end, sample_count, dt=None, ledgered=False):
    """Oracle: the sweep that runs each member to the end keeping every sample,
    then sums the trapezoidal distances member by member, sample by sample.

    Returns (columns, ledgers) for the spinodal potential and material, gamma 0.5.
    """
    potential, material = spinodal_potential(), spinodal_material()

    def build(mode, e):
        return Model.build(ModelSpec(grid, potential, material, mode=mode, epsilon=e, gamma=0.5))

    if dt is None:
        dt = suggest_dt(build("nonlocal", eps[-1]), state0, 0.4)
    n_steps = max(1, int(round(t_end / dt)))
    sample_every = max(1, n_steps // max(2, sample_count))

    def run(model):
        ledger = EnergyLedger() if ledgered else None
        samples = []

        def sample(state):
            if (state.step - state0.step) % sample_every == 0:
                samples.append(
                    (state.phi.copy(), state.theta.copy(), state.vel.u.copy(), state.vel.v.copy())
                )

        sample(state0)
        end = integrate(model, state0, dt, state0.t + n_steps * dt, ledger=ledger, on_step=sample)
        return samples, end, ledger

    ref_samples, ref, _ = run(build("local", eps[0]))
    e_ref_local = fields_energy(grid, ref.phi, ref.theta, ref.vel, "local", potential, material)
    w = np.full(len(ref_samples), sample_every * dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    area = grid.cell_area
    cols = {k: [] for k in DIST_COLUMNS}
    ledgers = {}
    for e in eps:
        samples, st, ledger = run(build("nonlocal", e))
        dp = dth = du = 0.0
        for wi, sa, sb in zip(w, samples, ref_samples):
            dp += wi * float(np.sum((sa[0] - sb[0]) ** 2)) * area
            dth += wi * float(np.sum((sa[1] - sb[1]) ** 2)) * area
            du += wi * (
                float(np.sum((sa[2] - sb[2]) ** 2)) + float(np.sum((sa[3] - sb[3]) ** 2))
            ) * area
        e_local_fn = fields_energy(grid, st.phi, st.theta, st.vel, "local", potential, material)
        cols["dist_phi"].append(np.sqrt(dp))
        cols["dist_theta"].append(np.sqrt(dth))
        cols["dist_u"].append(np.sqrt(du))
        cols["end_dist_phi"].append(float(np.sqrt(np.sum((st.phi - ref.phi) ** 2) * area)))
        cols["end_dist_theta"].append(float(np.sqrt(np.sum((st.theta - ref.theta) ** 2) * area)))
        cols["end_dist_u"].append(
            float(
                np.sqrt(
                    (np.sum((st.vel.u - ref.vel.u) ** 2) + np.sum((st.vel.v - ref.vel.v) ** 2))
                    * area
                )
            )
        )
        cols["energy_gap"].append(abs(e_local_fn - e_ref_local))
        ledgers[e] = ledger
    return cols, ledgers


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def sweep_grid():
    # 20 x 20: the cell area is not a power of two, so rounding shows any reordering
    return make_grid(20, 20, 1.0, 1.0)


def tiny_sweep(eps, **kwargs):
    grid = sweep_grid()
    return solution_sweep(
        grid, spinodal_potential(), spinodal_material(), spinodal_state(grid), eps,
        gamma=0.5, **kwargs,
    )


def diverge_after(monkeypatch, steps, mode, epsilon=None):
    """Make `advance` blow up from step `steps` on, for the runs of one mode
    (and one epsilon, when given)."""
    raw = nlchb.solver.advance

    def advance(model, state, *args, **kwargs):
        hit = model.mode == mode and (epsilon is None or model.kernel.epsilon == epsilon)
        if hit and state.step >= steps:
            raise BlowUpError("forced divergence", state)
        return raw(model, state, *args, **kwargs)

    patch_everywhere(monkeypatch, raw, advance)


class TestStreamedSweep:
    @pytest.mark.parametrize(
        "dt, t_end, sample_count, ledgered, sample_every, remainder",
        [
            (1e-3, 9e-3, 100, False, 1, 0),  # every step is a sample
            (1e-3, 23e-3, 5, False, 4, 3),  # steps after the last sample
            (None, 0.05, 4, True, 3, 1),  # dt auto, every member ledgered
        ],
    )
    def test_matches_keep_all_samples_oracle(
        self, dt, t_end, sample_count, ledgered, sample_every, remainder
    ):
        eps = [0.5, 0.4, 0.3]
        kept = [EnergyLedger() for _ in eps] if ledgered else None
        report = tiny_sweep(eps, dt=dt, t_end=t_end, sample_count=sample_count, ledgers=kept)
        md = report.metadata
        assert md["sample_every"] == sample_every
        assert md["n_steps"] % sample_every == remainder
        grid = sweep_grid()
        cols, ledgers = keep_all_samples_sweep(
            grid, spinodal_state(grid), eps, t_end, sample_count, dt, ledgered
        )
        assert report.valid == [True] * len(eps)
        for name in DIST_COLUMNS:
            assert bits(report.columns[name]) == bits(cols[name]), name
            assert all(type(v) is float for v in report.columns[name]), name
        if ledgered:
            for e, ledger in zip(eps, kept):
                assert len(ledger.rows) == md["n_steps"]
                assert ledger.rows == ledgers[e].rows

    def test_diverged_member_is_invalid_and_leaves_the_others(self, monkeypatch):
        eps = [0.5, 0.4, 0.3]
        kwargs = dict(dt=1e-3, t_end=1e-2, sample_count=4)
        clean_ledgers = [EnergyLedger() for _ in eps]
        clean = tiny_sweep(eps, ledgers=clean_ledgers, **kwargs)
        diverge_after(monkeypatch, 3, "nonlocal", 0.4)
        ledgers = [EnergyLedger() for _ in eps]
        report = tiny_sweep(eps, ledgers=ledgers, **kwargs)
        assert report.valid == [True, False, True]
        # the diverged member keeps the 3 rows it made, the others all 10
        assert [len(ledger.rows) for ledger in ledgers] == [10, 3, 10]
        for ledger, clean_ledger in zip(ledgers, clean_ledgers):
            assert ledger.rows == clean_ledger.rows[: len(ledger.rows)]
        for name in DIST_COLUMNS:
            col = report.columns[name]
            assert np.isnan(col[1]), name
            assert bits([col[0], col[2]]) == bits([clean.columns[name][0], clean.columns[name][2]])

    def test_kept_ledgers_stay_out_of_the_csv(self):
        kwargs = dict(dt=1e-3, t_end=1e-2, sample_count=4)
        ledgers = [EnergyLedger(), EnergyLedger()]
        kept = tiny_sweep([0.5, 0.4], ledgers=ledgers, **kwargs)
        assert [len(ledger.rows) for ledger in ledgers] == [10, 10]
        assert kept.csv_lines() == tiny_sweep([0.5, 0.4], **kwargs).csv_lines()

    def test_start_state_from_another_model_changes_no_bit(self):
        # the start state ends a ledgered run at another eps; the sweep's
        # models must not step it from that run's terms
        grid = sweep_grid()
        other = Model.build(ModelSpec(
            grid, spinodal_potential(), spinodal_material(), mode="nonlocal", epsilon=0.3,
            gamma=0.5,
        ))
        start = integrate(other, spinodal_state(grid), 1e-3, 5e-3, ledger=EnergyLedger())
        kwargs = dict(dt=1e-3, t_end=6e-3, sample_count=3)
        report = solution_sweep(
            grid, spinodal_potential(), spinodal_material(), start, [0.5, 0.4], **kwargs
        )
        fresh = solution_sweep(
            grid, spinodal_potential(), spinodal_material(), start.copy(), [0.5, 0.4], **kwargs
        )
        for name in DIST_COLUMNS:
            assert bits(report.columns[name]) == bits(fresh.columns[name]), name

    def test_header_mass_is_the_ledger_integral(self):
        # on a 2 x 1 domain the integral of phi is twice its mean
        cfg = parse_config("[grid]\nnx = 16\nny = 16\nlx = 2.0\n[initial]\nphi_mean = 0.1\n")
        ledgers = [EnergyLedger(), EnergyLedger()]
        report = solution_sweep(
            cfg.grid, cfg.potential, cfg.material, cfg.initial_state(), [0.5, 0.4],
            dt=1e-3, t_end=3e-3, sample_count=2, ledgers=ledgers,
        )
        (header,) = [line for line in report.csv_lines() if line.startswith("# mass_phi0 = ")]
        mass0 = float(header.split(" = ")[1])
        assert mass0 == pytest.approx(0.2, abs=1e-12)
        for ledger in ledgers:
            assert abs(ledger.rows[0]["mass_phi"] - mass0) <= 1e-12

    def test_start_phi_is_freed_by_the_members_first_steps(self, monkeypatch):
        # the sweep keeps only the start step and mass and hands the start
        # state to the reference run, so once every member has taken its
        # first step nothing holds the start fields
        grid = sweep_grid()
        start = [spinodal_state(grid)]
        start_phi = weakref.ref(start[0].phi)
        raw, alive_at_step_2 = nlchb.limits.advance, []

        def advance(model, state, *args, **kwargs):
            if state.step == 1:
                alive_at_step_2.append(start_phi() is not None)
            return raw(model, state, *args, **kwargs)

        monkeypatch.setattr(nlchb.limits, "advance", advance)
        report = solution_sweep(
            grid, spinodal_potential(), spinodal_material(), start.pop(), [0.5, 0.4],
            gamma=0.5, dt=1e-3, t_end=3e-3, sample_count=3,
        )
        assert report.valid == [True, True]
        assert alive_at_step_2 == [False, False]

    def test_diverged_reference_aborts(self, monkeypatch):
        diverge_after(monkeypatch, 2, "local")
        with pytest.raises(RuntimeError, match="local reference run diverged") as info:
            tiny_sweep([0.5, 0.3], dt=1e-3, t_end=1e-2, sample_count=4)
        # a typed blow-up carrying the reference's last state
        assert isinstance(info.value, BlowUpError)
        assert info.value.state.step == 2

    def test_memory_does_not_grow_with_samples(self):
        # 40 steps: two samples or one per step must peak within one state
        grid = sweep_grid()
        state0 = spinodal_state(grid)
        state_bytes = (
            state0.phi.nbytes + state0.theta.nbytes + state0.vel.u.nbytes + state0.vel.v.nbytes
        )

        def peak(sample_count):
            tracemalloc.start()
            try:
                report = tiny_sweep([0.5, 0.3], dt=1e-3, t_end=40e-3, sample_count=sample_count)
                return tracemalloc.get_traced_memory()[1], report.metadata["sample_every"]
            finally:
                tracemalloc.stop()

        peak(2)  # warm the per-grid and FFT caches outside the measurement
        few, every_20 = peak(2)
        many, every_1 = peak(40)
        assert (every_20, every_1) == (20, 1)
        assert abs(many - few) < state_bytes
