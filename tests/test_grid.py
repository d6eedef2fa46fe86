"""Grid, transform, and reduction tests (oracle values computed independently)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlchb.grid import (
    MacVelocity,
    dct2_inverse,
    dct2_transform,
    field_integral,
    gradient_cc,
    h1_seminorm,
    helmholtz_solve,
    laplacian_neumann,
    make_grid,
)


def cos_mode(grid, k, l):
    X, Y = grid.cell_centers()
    return np.cos(np.pi * k * X / grid.Lx) * np.cos(np.pi * l * Y / grid.Ly)


class TestMakeGrid:
    def test_square_spacing(self):
        g = make_grid(64, 64, 1.0, 1.0)
        assert g.dx == pytest.approx(0.015625, abs=0)
        assert g.dy == pytest.approx(0.015625, abs=0)

    def test_anisotropic_spacing(self):
        g = make_grid(8, 16, 2.0, 1.0)
        assert g.dx == pytest.approx(0.25, abs=0)
        assert g.dy == pytest.approx(0.0625, abs=0)

    def test_undersized_rejected(self):
        with pytest.raises(ValueError):
            make_grid(4, 64, 1.0, 1.0)

    @pytest.mark.parametrize("Lx,Ly", [(0.0, 1.0), (1.0, -2.0)])
    def test_nonpositive_lengths_rejected(self, Lx, Ly):
        with pytest.raises(ValueError):
            make_grid(16, 16, Lx, Ly)

    def test_cell_centers(self):
        g = make_grid(8, 8, 1.0, 1.0)
        X, Y = g.cell_centers()
        assert X[0, 0] == pytest.approx(g.dx / 2)
        assert Y[-1, -1] == pytest.approx(1.0 - g.dy / 2)


class TestTransforms:
    def test_constant_field_single_coefficient(self):
        g = make_grid(16, 16, 1.0, 1.0)
        c = 2.5
        coeffs = dct2_transform(np.full(g.shape, c))
        assert coeffs[0, 0] == pytest.approx(g.nx * g.ny * c, rel=1e-14)
        rest = coeffs.copy()
        rest[0, 0] = 0.0
        assert np.abs(rest).max() < 1e-11

    def test_single_cosine_mode_against_direct_sum(self):
        # oracle: evaluate the transform by explicit summation
        g = make_grid(8, 12, 1.0, 1.0)
        f = cos_mode(g, 1, 0)
        coeffs = dct2_transform(f)
        i = np.arange(g.nx)
        direct_10 = np.sum(f[:, 0] * np.cos(np.pi * 1 * (i + 0.5) / g.nx)) * g.ny
        assert coeffs[1, 0] == pytest.approx(direct_10, rel=1e-12)
        mask = np.ones(g.shape, dtype=bool)
        mask[1, 0] = False
        assert np.abs(coeffs[mask]).max() < 1e-10 * abs(coeffs[1, 0])

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_round_trip_random(self, n):
        g = make_grid(n, n, 2.0, 1.0)
        rng = np.random.default_rng(n)
        f = rng.standard_normal(g.shape)
        back = dct2_inverse(dct2_transform(f))
        assert np.abs(back - f).max() <= 1e-12 * max(1.0, np.abs(f).max())

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_round_trip_property(self, seed):
        g = make_grid(16, 8, 1.0, 3.0)
        f = np.random.default_rng(seed).uniform(-5, 5, g.shape)
        back = dct2_inverse(dct2_transform(f))
        assert np.abs(back - f).max() <= 1e-12 * max(1.0, np.abs(f).max())


class TestLaplacian:
    def test_constant_in_kernel(self):
        g = make_grid(16, 16, 1.0, 1.0)
        out = laplacian_neumann(g, np.full(g.shape, 3.0))
        assert np.abs(out).max() < 1e-12

    def test_cosine_eigenpair_discrete(self):
        g = make_grid(32, 32, 1.0, 1.0)
        f = cos_mode(g, 1, 0)
        lam = (2.0 / g.dx**2) * (1.0 - np.cos(np.pi / g.nx))
        out = laplacian_neumann(g, f)
        assert np.abs(out + lam * f).max() < 1e-9 * lam

    def test_zero_mean_output(self):
        g = make_grid(16, 24, 1.5, 1.0)
        f = np.random.default_rng(7).standard_normal(g.shape)
        out = laplacian_neumann(g, f)
        assert abs(out.mean()) <= 1e-12 * max(1.0, np.abs(out).max())


class TestLaplacianEigenvalues:
    def test_cached_read_only(self):
        g = make_grid(16, 24, 1.5, 1.0)
        lam = g.laplacian_eigenvalues()
        assert g.laplacian_eigenvalues() is lam
        assert not lam.flags.writeable
        with pytest.raises(ValueError):
            lam[0, 0] = 1.0

    def test_values_match_stencil_formula(self):
        g = make_grid(16, 24, 1.5, 1.0)
        lx = (2.0 / g.dx**2) * (1.0 - np.cos(np.pi * np.arange(g.nx) / g.nx))
        ly = (2.0 / g.dy**2) * (1.0 - np.cos(np.pi * np.arange(g.ny) / g.ny))
        assert np.array_equal(g.laplacian_eigenvalues(), lx[:, None] + ly[None, :])

    def test_cache_is_per_grid_and_not_a_field(self):
        g1 = make_grid(16, 16, 1.0, 1.0)
        g2 = make_grid(16, 16, 2.0, 1.0)
        g1.laplacian_eigenvalues()
        assert g1 == make_grid(16, 16, 1.0, 1.0)
        assert hash(g1) == hash(make_grid(16, 16, 1.0, 1.0))
        assert not np.array_equal(g1.laplacian_eigenvalues(), g2.laplacian_eigenvalues())


class TestHelmholtz:
    def test_beta_zero_is_scaling(self):
        g = make_grid(8, 8, 1.0, 1.0)
        rhs = np.random.default_rng(0).standard_normal(g.shape)
        w = helmholtz_solve(g, 2.0, 0.0, rhs)
        assert np.allclose(w, rhs / 2.0, rtol=1e-13, atol=0)

    def test_constructed_eigen_rhs(self):
        g = make_grid(32, 32, 1.0, 1.0)
        alpha, beta = 1.5, 0.25
        lam = (2.0 / g.dx**2) * (1.0 - np.cos(np.pi / g.nx))
        f = cos_mode(g, 1, 0)
        w = helmholtz_solve(g, alpha, beta, (alpha + beta * lam) * f)
        assert np.abs(w - f).max() < 1e-10

    def test_residual_property(self):
        g = make_grid(16, 16, 1.0, 2.0)
        rhs = np.random.default_rng(3).standard_normal(g.shape)
        alpha, beta = 0.7, 1.3
        w = helmholtz_solve(g, alpha, beta, rhs)
        residual = alpha * w - beta * laplacian_neumann(g, w) - rhs
        assert np.abs(residual).max() <= 1e-10 * np.abs(rhs).max()

    def test_alpha_nonpositive_rejected(self):
        g = make_grid(8, 8, 1.0, 1.0)
        with pytest.raises(ValueError):
            helmholtz_solve(g, 0.0, 1.0, g.zeros())

    def test_negative_beta_rejected(self):
        g = make_grid(8, 8, 1.0, 1.0)
        with pytest.raises(ValueError):
            helmholtz_solve(g, 1.0, -0.5, g.zeros())


class TestGradient:
    def test_constant_annihilated(self):
        g = make_grid(16, 16, 1.0, 1.0)
        gx, gy = gradient_cc(g, np.full(g.shape, -4.0))
        assert np.abs(gx).max() == 0.0
        assert np.abs(gy).max() == 0.0

    def test_linear_field_interior(self):
        g = make_grid(16, 16, 1.0, 1.0)
        X, _ = g.cell_centers()
        gx, gy = gradient_cc(g, 3.0 * X)
        assert np.abs(gx[1:-1, :] - 3.0).max() < 1e-12
        assert np.abs(gy).max() < 1e-12

    def test_second_order_on_cosine(self):
        errs = []
        for n in (32, 64, 128):
            g = make_grid(n, n, 1.0, 1.0)
            X, _ = g.cell_centers()
            gx, _ = gradient_cc(g, np.cos(np.pi * X))
            errs.append(np.abs(gx + np.pi * np.sin(np.pi * X)).max())
        order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
        assert min(order) >= 1.9


class TestReductions:
    def test_constant_on_unit_square(self):
        g = make_grid(16, 16, 1.0, 1.0)
        f = np.full(g.shape, -2.0)
        assert field_integral(g, f) == pytest.approx(-2.0, rel=1e-14)
        assert h1_seminorm(g, f) == 0.0

    def test_cosine_l2_is_half(self):
        # midpoint quadrature integrates cos^2 of a resolved mode exactly
        for n in (32, 64, 128):
            g = make_grid(n, n, 1.0, 1.0)
            X, _ = g.cell_centers()
            err = abs(field_integral(g, np.cos(np.pi * X) ** 2) - 0.5)
            assert err < 1e-13

    def test_coscos_h1_refines_to_pi2_over_2(self):
        # |grad phi|^2 integrates to pi^2/2, so h1^2/2 -> pi^2/4
        target = np.pi**2 / 4.0
        errs = []
        for n in (32, 64, 128):
            g = make_grid(n, n, 1.0, 1.0)
            X, Y = g.cell_centers()
            h1 = h1_seminorm(g, np.cos(np.pi * X) * np.cos(np.pi * Y))
            errs.append(abs(h1**2 / 2.0 - target))
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] <= 0.005 * target


class TestMacVelocity:
    def test_boundary_faces_zeroed(self):
        g = make_grid(8, 8, 1.0, 1.0)
        u = np.ones((g.nx + 1, g.ny))
        v = np.ones((g.nx, g.ny + 1))
        vel = MacVelocity(g, u, v)
        assert np.all(vel.u[0, :] == 0.0) and np.all(vel.u[-1, :] == 0.0)
        assert np.all(vel.v[:, 0] == 0.0) and np.all(vel.v[:, -1] == 0.0)

    def test_shape_mismatch_rejected(self):
        g = make_grid(8, 8, 1.0, 1.0)
        with pytest.raises(ValueError):
            MacVelocity(g, np.zeros((3, 3)), np.zeros((8, 9)))

    def test_divergence_of_zero_field(self):
        g = make_grid(8, 8, 1.0, 1.0)
        vel = MacVelocity(g)
        assert np.abs(vel.divergence()).max() == 0.0

    @pytest.mark.parametrize("shape", [(8, 8), (9, 13), (64, 64)])
    def test_max_speed_has_the_bits_of_the_abs_maximum(self, shape):
        g = make_grid(shape[0], shape[1], 1.0, 1.0)
        rng = np.random.default_rng(7)
        for scale in (1e-8, 1.0, 1e3):
            for su, sv in ((1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (0.1, 10.0), (10.0, -0.1)):
                u = su * scale * rng.standard_normal((g.nx + 1, g.ny))
                v = sv * scale * rng.standard_normal((g.nx, g.ny + 1))
                vel = MacVelocity(g, u, v)
                expected = max(np.abs(vel.u).max(), np.abs(vel.v).max())
                assert np.float64(vel.max_speed()).tobytes() == np.float64(expected).tobytes()

    def test_max_speed_at_rest_is_plus_zero(self):
        g = make_grid(8, 8, 1.0, 1.0)
        interior = MacVelocity(g, np.full((9, 8), -0.0), np.full((8, 9), -0.0))
        assert np.signbit(interior.u[1:-1]).all() and np.signbit(interior.v[:, 1:-1]).all()
        everywhere = MacVelocity(g)
        everywhere.u[...] = everywhere.v[...] = -0.0  # wall faces included
        for vel in (MacVelocity(g), interior, everywhere):
            speed = vel.max_speed()
            assert speed == 0.0 and not np.signbit(speed)
