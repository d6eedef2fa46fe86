"""Energy and dissipation tests against double-sum and analytic oracles."""

import numpy as np
import pytest

from nlchb.energy import (
    EnergyLedger,
    LEDGER_COLUMNS,
    _viscous_parts,
    dissipation,
    e_local,
    e_nl,
    energy_budget_residual,
    mac_l2_sq,
    total_energy,
)
from nlchb.grid import MacVelocity, NonFiniteError, dct2_inverse, dct2_transform, make_grid
from nlchb.kernel import calibrate_mollifier, compute_a, convolve, sample_kernel
from nlchb.physics import MaterialParams, PotentialParams
from nlchb.snapshots import LedgerCsvWriter

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
        e = total_energy(
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
        e = total_energy(grid, grid.zeros(), grid.zeros(), vel, "nonlocal", pot, mat, kernel, a)
        assert e == pytest.approx(mac_l2_sq(grid, vel) / (2.0 * mat.K_cap * mat.l_c), rel=1e-12)

    def test_missing_kernel_rejected(self):
        grid = make_grid(16, 16, 1.0, 1.0)
        with pytest.raises(ValueError):
            total_energy(
                grid,
                grid.zeros(),
                grid.zeros(),
                MacVelocity(grid),
                "nonlocal",
                PotentialParams(),
                MaterialParams(),
            )

    @pytest.mark.parametrize("mode", ["nonlocal", "local"])
    def test_precomputed_interface_term(self, setup16, mode):
        grid, kernel, a = setup16
        rng = np.random.default_rng(5)
        phi = rng.standard_normal(grid.shape)
        theta = rng.standard_normal(grid.shape)
        vel = MacVelocity(grid)
        vel.u[1:-1, :] = rng.standard_normal((grid.nx - 1, grid.ny))
        args = (mode, PotentialParams(), MaterialParams(l_c=0.5), kernel, a)
        interface = e_nl(kernel, a, phi) if mode == "nonlocal" else e_local(grid, phi)
        given = total_energy(grid, phi, theta, vel, *args, interface=interface)
        assert given == total_energy(grid, phi, theta, vel, *args)

    def test_transform_round_trip_invariance(self, setup16):
        grid, kernel, a = setup16
        rng = np.random.default_rng(2)
        phi = rng.standard_normal(grid.shape)
        theta = rng.standard_normal(grid.shape)
        vel = MacVelocity(grid)
        args = ("nonlocal", PotentialParams(), MaterialParams(), kernel, a)
        e1 = total_energy(grid, phi, theta, vel, *args)
        phi_rt = dct2_inverse(dct2_transform(phi))
        theta_rt = dct2_inverse(dct2_transform(theta))
        e2 = total_energy(grid, phi_rt, theta_rt, vel, *args)
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


class TestBudgetResidual:
    def test_zero_dt(self):
        assert energy_budget_residual(1.3, 1.3, 10.0, 4.0, 0.0) == 0.0

    def test_signs(self):
        # pure dissipation with exact balance gives zero residual
        assert energy_budget_residual(1.0, 0.9, 1.0, 0.0, 0.1) == pytest.approx(0.0)


class TestLedger:
    def make_row(self, t):
        row = {c: 0.0 for c in LEDGER_COLUMNS}
        row["t"] = t
        return row

    def test_append_and_column(self):
        led = EnergyLedger()
        led.append(self.make_row(0.1))
        led.append(self.make_row(0.2))
        assert np.allclose(led.column("t"), [0.1, 0.2])

    def test_non_increasing_time_rejected(self):
        led = EnergyLedger()
        led.append(self.make_row(0.1))
        with pytest.raises(ValueError):
            led.append(self.make_row(0.1))

    def test_missing_column_rejected(self):
        led = EnergyLedger()
        row = self.make_row(0.0)
        del row["residual"]
        with pytest.raises(ValueError):
            led.append(row)

    def test_non_finite_rejected(self):
        led = EnergyLedger()
        row = self.make_row(0.0)
        row["E_total"] = np.nan
        with pytest.raises(ValueError):
            led.append(row)

    def test_non_finite_raises_typed_error(self):
        led = EnergyLedger()
        row = self.make_row(0.0)
        row["dissipation"] = np.nan
        with pytest.raises(NonFiniteError):
            led.append(row)
        assert led.rows == []

    def test_csv_header(self, tmp_path):
        led = EnergyLedger()
        led.append(self.make_row(0.0))
        path = tmp_path / "ledger.csv"
        with LedgerCsvWriter(str(path)) as csv:
            for row in led.rows:
                csv.write_row(row)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("t,E_total,E_interface")
        assert len(lines) == 2
