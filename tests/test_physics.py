"""Constitutive-law tests with finite-difference and direct-sum oracles."""

import numpy as np
import pytest

from nlchb.grid import make_grid
from nlchb.kernel import calibrate_mollifier, compute_a, convolve, convolve_direct, sample_kernel
from nlchb.physics import (
    MaterialParams,
    PotentialParams,
    buoyancy,
    mu_local,
    mu_nonlocal,
    validate_assumptions,
    viscosity,
)


class TestPotential:
    def test_double_well_minima(self):
        pot = PotentialParams()
        for s in (-1.0, 1.0):
            assert pot.f(s) == pytest.approx(0.0, abs=1e-15)
            assert pot.df(s) == pytest.approx(0.0, abs=1e-15)

    def test_double_well_origin(self):
        pot = PotentialParams()
        assert pot.f(0.0) == pytest.approx(0.25)
        assert pot.df(0.0) == pytest.approx(0.0, abs=1e-15)
        assert pot.ddf(0.0) == pytest.approx(-1.0)

    def test_first_derivative_finite_difference(self):
        pot = PotentialParams()
        h = 1e-6
        fd = (pot.f(0.3 + h) - pot.f(0.3 - h)) / (2 * h)
        assert abs(pot.df(0.3) - fd) <= 1e-8

    def test_derivative_consistency_sweep(self):
        pot = PotentialParams()
        s = np.linspace(-3.0, 3.0, 601)
        h = 1e-6
        fd1 = (pot.f(s + h) - pot.f(s - h)) / (2 * h)
        fd2 = (pot.df(s + h) - pot.df(s - h)) / (2 * h)
        assert np.abs(pot.df(s) - fd1).max() <= 1e-6
        assert np.abs(pot.ddf(s) - fd2).max() <= 1e-5

    @pytest.mark.parametrize(
        "coeffs", [None, (1.0, 0.0, 2.0), (0.1, -0.3, -0.5, 0.2, 0.4, 0.0, 0.05)]
    )
    def test_derivatives_match_polyder_bitwise(self, coeffs):
        # F' and F'' are built once per potential, with the bits of polyder per call
        pot = PotentialParams() if coeffs is None else PotentialParams(coeffs=coeffs)
        P = np.polynomial.polynomial
        s = np.linspace(-2.5, 2.5, 1001)
        for k, deriv in ((1, pot.df), (2, pot.ddf)):
            ref = P.polyder(pot.coeffs, k)
            assert deriv(s).tobytes() == P.polyval(s, ref).tobytes()
            for x in (0.3, -1.7, np.float64(0.9)):
                assert np.asarray(deriv(x)).tobytes() == np.asarray(P.polyval(x, ref)).tobytes()

    def test_derivative_coefficients_leave_equality_alone(self):
        assert PotentialParams(eta_f=2.0) == PotentialParams(eta_f=2.0)
        assert hash(PotentialParams(eta_f=2.0)) == hash(PotentialParams(eta_f=2.0))

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            PotentialParams(coeffs=(0.0, 0.0, 1.0, 0.5))

    def test_negative_leading_rejected(self):
        with pytest.raises(ValueError):
            PotentialParams(coeffs=(0.0, 0.0, -1.0))


class TestViscosity:
    def setup_method(self):
        self.mat = MaterialParams(nu_min=0.5, nu_max=2.0)

    def test_tanh_limits(self):
        assert viscosity(self.mat, -50.0) == pytest.approx(0.5, abs=1e-12)
        assert viscosity(self.mat, 50.0) == pytest.approx(2.0, abs=1e-12)

    def test_midpoint(self):
        assert viscosity(self.mat, 0.0) == pytest.approx(1.25)

    def test_bounds_exhaustive(self):
        s = np.linspace(-10.0, 10.0, 4001)
        nu = viscosity(self.mat, s)
        assert nu.min() >= 0.5 and nu.max() <= 2.0

    def test_lipschitz_property(self):
        rng = np.random.default_rng(0)
        L = (2.0 - 0.5) / 2.0
        s1, s2 = rng.uniform(-8, 8, 500), rng.uniform(-8, 8, 500)
        lhs = np.abs(viscosity(self.mat, s1) - viscosity(self.mat, s2))
        assert np.all(lhs <= L * np.abs(s1 - s2) + 1e-12)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            MaterialParams(nu_min=2.0, nu_max=1.0)


class TestBuoyancy:
    def setup_method(self):
        self.grid = make_grid(16, 16, 1.0, 1.0)

    def test_constant_when_state_independent(self):
        mat = MaterialParams(alpha0=2.0, alpha1=0.0, alpha2=0.0, g=(0.0, -1.0))
        fx, fy = buoyancy(self.grid, mat, np.ones(self.grid.shape), np.zeros(self.grid.shape))
        assert np.abs(fx).max() == 0.0
        assert np.abs(fy + 2.0).max() < 1e-14

    def test_uniform_phi_shifts_amplitude(self):
        mat = MaterialParams(alpha0=1.0, alpha1=0.5, alpha2=0.0, g=(0.0, -1.0))
        fx, fy = buoyancy(self.grid, mat, np.ones(self.grid.shape), np.zeros(self.grid.shape))
        assert np.abs(fy + 1.5).max() < 1e-14

    def test_linearity_in_phi(self):
        mat = MaterialParams(alpha0=0.4, alpha1=0.7, alpha2=0.0, g=(1.0, 2.0))
        rng = np.random.default_rng(3)
        p1 = rng.standard_normal(self.grid.shape)
        p2 = rng.standard_normal(self.grid.shape)
        z = np.zeros(self.grid.shape)
        fx12, fy12 = buoyancy(self.grid, mat, p1 + p2, z)
        fx1, fy1 = buoyancy(self.grid, mat, p1, z)
        fx2, fy2 = buoyancy(self.grid, mat, p2, z)
        fx0, fy0 = buoyancy(self.grid, mat, z, z)
        assert np.abs(fx12 - (fx1 + fx2 - fx0)).max() < 1e-12
        assert np.abs(fy12 - (fy1 + fy2 - fy0)).max() < 1e-12


class TestChemicalPotentials:
    def setup_method(self):
        self.grid = make_grid(16, 16, 1.0, 1.0)
        self.pot = PotentialParams(eta_f=0.8)
        self.mat = MaterialParams(l_c=0.6)
        self.kernel = sample_kernel(calibrate_mollifier(0.5), 0.3, self.grid)
        self.a = compute_a(self.kernel)

    def test_nonlocal_constant_state_is_constant(self):
        c = 0.37
        phi = np.full(self.grid.shape, c)
        theta = np.zeros(self.grid.shape)
        j_phi = convolve(self.kernel, phi)
        mu = mu_nonlocal(phi, theta, self.kernel, self.a, self.pot, self.mat, j_phi)
        expected = self.pot.eta_f * self.pot.df(c)
        assert np.abs(mu - expected).max() <= 1e-12 * max(1.0, abs(expected))

    def test_nonlocal_zero_phi_uniform_theta(self):
        t0 = 1.3
        phi = np.zeros(self.grid.shape)
        mu = mu_nonlocal(
            phi,
            np.full(self.grid.shape, t0),
            self.kernel,
            self.a,
            self.pot,
            self.mat,
            convolve(self.kernel, phi),
        )
        expected = self.pot.eta_f * self.pot.df(0.0) + self.mat.l_c * t0
        assert np.abs(mu - expected).max() <= 1e-12 * abs(expected)

    def test_nonlocal_matches_direct_reassembly(self):
        rng = np.random.default_rng(1)
        phi = rng.standard_normal(self.grid.shape)
        theta = rng.standard_normal(self.grid.shape)
        j_phi = convolve(self.kernel, phi)
        mu = mu_nonlocal(phi, theta, self.kernel, self.a, self.pot, self.mat, j_phi)
        oracle = (
            self.a * phi
            - convolve_direct(self.kernel, phi)
            + self.pot.eta_f * self.pot.df(phi)
            + self.mat.l_c * theta
        )
        assert np.abs(mu - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_local_constant_state(self):
        c = -0.4
        mu = mu_local(
            self.grid, np.full(self.grid.shape, c), np.zeros(self.grid.shape), self.pot, self.mat
        )
        expected = self.pot.eta_f * self.pot.df(c)
        assert np.abs(mu - expected).max() <= 1e-11 * max(1.0, abs(expected))

    def test_local_linearized_eigenmode(self):
        # with eta_f = 0 the potential term drops and mu = -Delta phi
        pot = PotentialParams(eta_f=0.0)
        X, _ = self.grid.cell_centers()
        phi = np.cos(np.pi * X)
        lam = (2.0 / self.grid.dx**2) * (1.0 - np.cos(np.pi / self.grid.nx))
        mu = mu_local(self.grid, phi, np.zeros(self.grid.shape), pot, self.mat)
        assert np.abs(mu - lam * phi).max() <= 1e-9 * lam

    def test_local_mean_identity(self):
        rng = np.random.default_rng(8)
        phi = rng.standard_normal(self.grid.shape)
        theta = rng.standard_normal(self.grid.shape)
        mu = mu_local(self.grid, phi, theta, self.pot, self.mat)
        rest = mu - self.pot.eta_f * self.pot.df(phi) - self.mat.l_c * theta
        assert abs(rest.mean()) <= 1e-12 * max(1.0, np.abs(rest).max())


class TestValidateAssumptions:
    def test_quartic_without_kernel_flags_a3(self):
        report = validate_assumptions(None, None, PotentialParams(), MaterialParams())
        assert report.c0 == pytest.approx(-1.0)
        assert "a3_nonpositive_c0" in report.flags

    def test_a4_explicit_quartic_pair_holds(self):
        # F(s) >= s^2/8 - 1/2 for the unit quartic double well
        pot = PotentialParams()
        s = np.linspace(-6.0, 6.0, 4001)
        assert np.all(pot.f(s) >= s**2 / 8.0 - 0.5 - 1e-12)

    def test_a4_fitted_pair_valid_and_compared(self):
        grid = make_grid(16, 16, 1.0, 1.0)
        kernel = sample_kernel(calibrate_mollifier(0.5), 0.3, grid)
        a = compute_a(kernel)
        report = validate_assumptions(kernel, a, PotentialParams(), MaterialParams())
        assert report.a4_satisfied
        assert report.c1 > report.half_j_l1
        s = np.linspace(-8.0, 8.0, 4001)
        pot = PotentialParams()
        assert np.all(pot.f(s) >= report.c1 * s**2 - report.c2 - 1e-9)

    def test_a5_feasible_with_p2(self):
        report = validate_assumptions(None, None, PotentialParams(), MaterialParams())
        assert report.a5_feasible_on_range
        assert np.isfinite(report.c3) and np.isfinite(report.c4)
        pot = PotentialParams()
        s = np.linspace(-3.0, 3.0, 2001)
        assert np.all(np.abs(pot.df(s)) ** 2 <= report.c3 * np.abs(pot.f(s)) + report.c4 + 1e-8)

    def test_a3_positive_c0_with_strong_kernel(self):
        grid = make_grid(32, 32, 1.0, 1.0)
        kernel = sample_kernel(calibrate_mollifier(0.5), 0.1, grid)
        a = compute_a(kernel)
        report = validate_assumptions(kernel, a, PotentialParams(), MaterialParams())
        assert report.c0 > 0.0
        assert "a3_nonpositive_c0" not in report.flags

    def test_deterministic(self):
        grid = make_grid(16, 16, 1.0, 1.0)
        kernel = sample_kernel(calibrate_mollifier(0.5), 0.3, grid)
        a = compute_a(kernel)
        r1 = validate_assumptions(kernel, a, PotentialParams(), MaterialParams())
        r2 = validate_assumptions(kernel, a, PotentialParams(), MaterialParams())
        assert r1 == r2

    def test_report_lines_render(self):
        report = validate_assumptions(None, None, PotentialParams(), MaterialParams())
        text = "\n".join(report.lines())
        assert "c1" in text and "flags" in text
