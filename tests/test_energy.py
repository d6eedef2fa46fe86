"""Energy and dissipation tests against double-sum and analytic oracles."""

import numpy as np
import pytest

from conftest import fields_energy, smooth_flow_state
from nlchb.energy import (
    EnergyLedger,
    LEDGER_COLUMNS,
    _energy_integrals,
    _viscous_parts,
    dissipation,
    e_local,
    e_nl,
    energy_budget_residual,
    mac_l2_sq,
    total_energy,
)
from nlchb.grid import MacVelocity, dct2_inverse, dct2_transform, make_grid
from nlchb.kernel import calibrate_mollifier, compute_a, convolve, sample_kernel
from nlchb.physics import MaterialParams, PotentialParams
from nlchb.snapshots import LedgerCsvWriter, _cut_ledger

from test_kernel import double_sum_energy


@pytest.fixture(scope="module")
def setup16():
    grid = make_grid(16, 16, 1.0, 1.0)
    kernel = sample_kernel(calibrate_mollifier(0.5), 0.3, grid)
    return grid, kernel, compute_a(kernel)


class TestInterfaceEnergies:
    def test_e_nl_constant_zero(self, setup16):
        grid, kernel, a = setup16
        scale = float(np.sum(a) * grid.cell_area)
        assert abs(e_nl(kernel, a, np.full(grid.shape, 2.0))) <= 1e-12 * scale

    def test_e_nl_matches_double_sum(self, setup16):
        grid, kernel, a = setup16
        phi = np.random.default_rng(4).standard_normal(grid.shape)
        slow = double_sum_energy(kernel, phi)
        assert abs(e_nl(kernel, a, phi) - slow) <= 1e-10 * abs(slow)

    def test_e_nl_nonnegative(self, setup16):
        grid, kernel, a = setup16
        rng = np.random.default_rng(5)
        for _ in range(10):
            assert e_nl(kernel, a, rng.standard_normal(grid.shape)) >= 0.0

    def test_precomputed_convolution(self, setup16):
        grid, kernel, a = setup16
        phi = np.random.default_rng(4).standard_normal(grid.shape)
        assert e_nl(kernel, a, phi, convolve(kernel, phi)) == e_nl(kernel, a, phi)

    def test_e_local_constant_zero(self):
        grid = make_grid(16, 16, 1.0, 1.0)
        assert e_local(grid, np.full(grid.shape, -3.0)) == 0.0

    def test_e_local_coscos_refines_to_quarter_pi_sq(self):
        target = np.pi**2 / 4.0
        errs = []
        for n in (32, 64, 128):
            g = make_grid(n, n, 1.0, 1.0)
            X, Y = g.cell_centers()
            errs.append(abs(e_local(g, np.cos(np.pi * X) * np.cos(np.pi * Y)) - target))
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] <= 0.005 * target

    def test_e_local_quadratic_scaling(self):
        grid = make_grid(32, 32, 1.0, 1.0)
        phi = np.random.default_rng(1).standard_normal(grid.shape)
        assert e_local(grid, 2.0 * phi) == pytest.approx(4.0 * e_local(grid, phi), rel=1e-12)


class TestTotalEnergy:
    def test_zero_state_unit_quartic(self, setup16):
        grid, kernel, a = setup16
        mat = MaterialParams(l_c=0.5)
        e = fields_energy(
            grid,
            grid.zeros(),
            grid.zeros(),
            MacVelocity(grid),
            "nonlocal",
            PotentialParams(),
            mat,
            kernel,
            a,
        )
        # E = (1/l_c) int F(0) = |Omega| / (4 l_c)
        assert e == pytest.approx(0.25 / mat.l_c, rel=1e-12)

    def test_velocity_only_state(self, setup16):
        grid, kernel, a = setup16
        mat = MaterialParams(K_cap=2.0, l_c=0.5)
        vel = MacVelocity(grid)
        vel.u[1:-1, :] = 1.5
        pot = PotentialParams(coeffs=(0.0, 0.0, 0.0, 0.0, 1.0))  # F(0) = 0
        e = fields_energy(grid, grid.zeros(), grid.zeros(), vel, "nonlocal", pot, mat, kernel, a)
        assert e == pytest.approx(mac_l2_sq(grid, vel) / (2.0 * mat.K_cap * mat.l_c), rel=1e-12)

    @pytest.mark.parametrize("mode", ["nonlocal", "local"])
    def test_precomputed_interface_term(self, setup16, mode):
        grid, kernel, a = setup16
        rng = np.random.default_rng(5)
        phi = rng.standard_normal(grid.shape)
        theta = rng.standard_normal(grid.shape)
        vel = MacVelocity(grid)
        vel.u[1:-1, :] = rng.standard_normal((grid.nx - 1, grid.ny))
        pot, mat = PotentialParams(), MaterialParams(K_cap=0.3, l_c=0.5, l_h=0.7)
        interface = e_nl(kernel, a, phi) if mode == "nonlocal" else e_local(grid, phi)
        given = total_energy(mode, mat, interface, _energy_integrals(grid, phi, theta, vel, pot))
        # the displayed E, term by term; the bulk weight is 2 in nonlocal mode only
        f_weight = 2.0 if mode == "nonlocal" else 1.0
        bulk = pot.eta_f * float(np.sum(pot.f(phi)) * grid.cell_area)
        display = 0.5 * (
            (interface + f_weight * bulk) / mat.l_c
            + mac_l2_sq(grid, vel) / (mat.K_cap * mat.l_c)
            + float(np.sum(theta**2) * grid.cell_area) / mat.l_h
        )
        assert given == pytest.approx(display, rel=1e-14)

    def test_transform_round_trip_invariance(self, setup16):
        grid, kernel, a = setup16
        rng = np.random.default_rng(2)
        phi = rng.standard_normal(grid.shape)
        theta = rng.standard_normal(grid.shape)
        vel = MacVelocity(grid)
        args = ("nonlocal", PotentialParams(), MaterialParams(), kernel, a)
        e1 = fields_energy(grid, phi, theta, vel, *args)
        phi_rt = dct2_inverse(dct2_transform(phi))
        theta_rt = dct2_inverse(dct2_transform(theta))
        e2 = fields_energy(grid, phi_rt, theta_rt, vel, *args)
        assert abs(e1 - e2) <= 1e-12 * abs(e1)


class TestDissipation:
    def test_rest_state_zero(self, setup16):
        grid, _, _ = setup16
        mat = MaterialParams(nu_min=0.5, nu_max=2.0)
        viscous = _viscous_parts(grid, mat, np.full(grid.shape, 0.7), MacVelocity(grid))
        d = dissipation(grid, np.full(grid.shape, 1.2), np.full(grid.shape, -0.3), mat, viscous)
        assert d == 0.0

    def test_linear_shear_deformation_interior(self):
        # u = (s y, 0) away from the pinned wall faces: Dxy = s/2 and the
        # diagonal strain vanishes, so nu |Du|^2 = nu s^2 / 2 per unit area
        from nlchb.energy import mac_deformation

        grid = make_grid(32, 32, 1.0, 1.0)
        s = 0.8
        vel = MacVelocity(grid)
        y = (np.arange(grid.ny) + 0.5) * grid.dy
        vel.u[1:-1, :] = s * y[None, :]
        dxx, dyy, dxy = mac_deformation(grid, vel)
        assert np.abs(dxx[1:-1, :]).max() < 1e-12  # cells not touching the x-walls
        assert np.abs(dyy).max() < 1e-12
        assert np.abs(dxy[1:-1, 1:-1] - 0.5 * s).max() < 1e-12
        nu = 1.3
        density = nu * 2.0 * dxy[1:-1, 1:-1] ** 2
        assert np.abs(density - nu * s**2 / 2.0).max() < 1e-12

    def test_nonnegative_random(self, setup16):
        grid, kernel, a = setup16
        rng = np.random.default_rng(6)
        mat = MaterialParams(nu_min=0.5, nu_max=2.0)
        for _ in range(5):
            vel = MacVelocity(grid)
            vel.u[1:-1, :] = rng.standard_normal((grid.nx - 1, grid.ny))
            vel.v[:, 1:-1] = rng.standard_normal((grid.nx, grid.ny - 1))
            phi, mu, theta = (rng.standard_normal(grid.shape) for _ in range(3))
            d = dissipation(grid, mu, theta, mat, _viscous_parts(grid, mat, phi, vel))
            assert d >= 0.0

    def test_constant_viscosity_scalars_keep_the_array_bits(self, monkeypatch):
        # with nu_max == nu_min the viscous parts hold scalars; the dissipation
        # and a ledgered step's row are bitwise those of the per-cell arrays
        import nlchb.solver
        from nlchb.energy import _nu_at_corners, mac_deformation
        from nlchb.physics import viscosity
        from nlchb.solver import Model, ModelSpec, advance

        def array_parts(grid, material, phi, vel):
            nu = viscosity(material, phi)
            return nu, _nu_at_corners(grid, nu), mac_deformation(grid, vel)

        grid = make_grid(32, 32, 1.0, 1.0)
        mat = MaterialParams(K_cap=0.05, l_c=0.5, l_h=0.5, nu_min=0.7, nu_max=0.7)
        state = smooth_flow_state(grid)
        nu, nu_c, _ = _viscous_parts(grid, mat, state.phi, state.vel)
        assert isinstance(nu, float) and isinstance(nu_c, float)
        mu, theta = np.cos(state.phi), state.theta
        diss = [
            dissipation(grid, mu, theta, mat, parts(grid, mat, state.phi, state.vel))
            for parts in (_viscous_parts, array_parts)
        ]
        assert np.float64(diss[0]).tobytes() == np.float64(diss[1]).tobytes()

        model = Model.build(ModelSpec(grid, PotentialParams(eta_f=150.0), mat, epsilon=0.2, gamma=0.5))
        rows = []
        for parts in (_viscous_parts, array_parts):
            monkeypatch.setattr(nlchb.solver, "_viscous_parts", parts)
            ledger = EnergyLedger()
            advance(model, smooth_flow_state(grid), 5e-4, ledger=ledger)
            rows.append(np.array([ledger.rows[-1][c] for c in LEDGER_COLUMNS]))
        assert rows[0].tobytes() == rows[1].tobytes()


class TestBudgetResidual:
    def test_zero_dt(self):
        assert energy_budget_residual(1.3, 1.3, 10.0, 4.0, 0.0) == 0.0

    def test_signs(self):
        # pure dissipation with exact balance gives zero residual
        assert energy_budget_residual(1.0, 0.9, 1.0, 0.0, 0.1) == pytest.approx(0.0)


def csv_times(path):
    """The t column of a ledger CSV."""
    return [float(line.split(",", 1)[0]) for line in path.read_text().splitlines()[1:]]


class TestLedger:
    def make_row(self, t):
        row = {c: 0.0 for c in LEDGER_COLUMNS}
        row["t"] = t
        return row

    @pytest.fixture(params=["EnergyLedger", "LedgerCsvWriter"])
    def sink(self, request, tmp_path):
        """(ledger, written): an empty sink of either kind, and a function
        giving the t of every row it has written so far."""
        if request.param == "EnergyLedger":
            led = EnergyLedger()
            yield led, lambda: list(led.column("t"))
        else:
            path = tmp_path / "ledger.csv"
            with LedgerCsvWriter(str(path)) as led:

                yield led, lambda: csv_times(path)

    def test_append_and_column(self):
        led = EnergyLedger()
        led.append(self.make_row(0.1))
        led.append(self.make_row(0.2))
        assert np.allclose(led.column("t"), [0.1, 0.2])

    def test_non_increasing_time_rejected(self, sink):
        led, written = sink
        led.append(self.make_row(0.1))
        for t in (0.1, 0.05):
            with pytest.raises(ValueError, match="strictly increasing"):
                led.append(self.make_row(t))
        led.append(self.make_row(0.2))
        assert written() == [0.1, 0.2]

    def test_missing_column_rejected(self, sink):
        led, written = sink
        row = self.make_row(0.0)
        del row["residual"]
        with pytest.raises(ValueError, match="missing columns"):
            led.append(row)
        assert written() == []

    def test_resumed_writer_accepts_the_next_row(self, tmp_path):
        path = tmp_path / "ledger.csv"
        with LedgerCsvWriter(str(path)) as csv:
            for t in (0.1, 0.2, 0.3):
                csv.append(self.make_row(t))
        _cut_ledger(str(path), 0.2)
        with LedgerCsvWriter(str(path), append=True) as csv:
            csv.append(self.make_row(0.3))
            with pytest.raises(ValueError, match="strictly increasing"):
                csv.append(self.make_row(0.3))
        assert csv_times(path) == [0.1, 0.2, 0.3]

    def test_csv_header(self, tmp_path):
        path = tmp_path / "ledger.csv"
        with LedgerCsvWriter(str(path)) as csv:
            csv.append(self.make_row(0.0))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("t,E_total,E_interface")
        assert len(lines) == 2
