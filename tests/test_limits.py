"""Limit-study tests (the full acceptance fixtures run in test_acceptance)."""

import numpy as np
import pytest

from conftest import spinodal_material, spinodal_potential, spinodal_state
from nlchb.grid import make_grid
from nlchb.limits import SweepReport, gamma_sweep, solution_sweep, weak_operator_check
from nlchb.solver import Model


def coscos(grid):
    X, Y = grid.cell_centers()
    return np.cos(np.pi * X) * np.cos(np.pi * Y)


class TestSweepReport:
    def test_eps_must_decrease(self):
        with pytest.raises(ValueError):
            SweepReport(kind="x", eps=[0.1, 0.2], columns={"v": [1.0, 2.0]})

    def test_errors_and_ratios(self):
        rep = SweepReport(kind="x", eps=[0.2, 0.1], columns={"v": [1.5, 1.25]}, target=1.0)
        assert rep.errors("v") == [0.5, 0.25]
        assert rep.ratios("v") == [2.0]

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
        report = solution_sweep(
            grid, spinodal_potential(), spinodal_material(), state0,
            [0.25, 0.125], gamma=0.5, t_end=0.02, sample_count=10, keep_ledgers=True,
        )
        for ledger in report.metadata["ledgers"].values():
            mass = ledger.column("mass_phi") / (grid.Lx * grid.Ly)
            assert np.abs(mass - mass0).max() <= 1e-10

    def test_each_model_built_once(self, monkeypatch):
        # with dt auto the smallest-eps model sets dt and then runs: eps + 1 builds
        raw = Model.build.__func__
        builds = []

        def counted(cls, *args, **kwargs):
            builds.append((kwargs["mode"], kwargs["epsilon"]))
            return raw(cls, *args, **kwargs)

        monkeypatch.setattr(Model, "build", classmethod(counted))
        grid = make_grid(16, 16, 1.0, 1.0)
        eps = [0.5, 0.4, 0.3]
        solution_sweep(
            grid, spinodal_potential(), spinodal_material(), spinodal_state(grid),
            eps, gamma=0.5, t_end=2e-3, sample_count=4,
        )
        assert len(builds) == len(eps) + 1
        assert sorted(builds) == sorted([("local", 0.5)] + [("nonlocal", e) for e in eps])
