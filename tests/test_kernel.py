"""Kernel construction, convolution, and nonlocal-form identity tests.

Brute-force oracles: O(N^4) direct convolution, direct double-sum energy,
a scalar cell-by-cell kernel sampler,
scipy adaptive quadrature for all continuum integrals,
and frozen copies of the masked kernel formulas (bit-for-bit references).
"""

import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sfft
from scipy import integrate

from nlchb.grid import make_grid
from nlchb.kernel import (
    AVG_RING_FRACTION,
    AVG_RING_MAX,
    CELL_AVG_REL_TOL,
    GRADIENT_LIMIT_SCALE,
    PROFILES,
    RESOLVED_CELLS,
    _GL_W,
    _GL_X,
    KernelGrid,
    KernelResolutionWarning,
    _calibrated,
    calibrate_mollifier,
    compute_a,
    compute_cd,
    convolve,
    convolve_direct,
    kernel_norms,
    sample_kernel,
)
from nlchb.physics import MaterialParams, PotentialParams, validate_assumptions


def radial_l1(mollifier, eps):
    val, _ = integrate.quad(
        lambda r: 2.0 * np.pi * r * float(mollifier.kernel_value(np.asarray([r]), eps)[0]),
        0.0,
        eps,
        limit=400,
    )
    return val


def double_sum_energy(kernel, phi):
    """(1/2) sum_x sum_y J(x-y) (phi(x)-phi(y))^2 dx^2 dy^2 by direct summation."""
    g = kernel.grid
    K = kernel.values
    total = 0.0
    for i in range(g.nx):
        rows = (i - np.arange(g.nx)) % (2 * g.nx)
        for j in range(g.ny):
            cols = (j - np.arange(g.ny)) % (2 * g.ny)
            total += np.sum(K[np.ix_(rows, cols)] * (phi[i, j] - phi) ** 2)
    return 0.5 * total * g.cell_area**2


def quadratic_form(kernel, a, phi):
    return float(np.sum(a * phi * phi - phi * convolve(kernel, phi)) * kernel.grid.cell_area)


def displacements(grid):
    """(x, y) displacement of each entry of a (2nx, 2ny) kernel array in FFT layout."""
    mx = np.arange(2 * grid.nx)
    mx[mx >= grid.nx] -= 2 * grid.nx
    my = np.arange(2 * grid.ny)
    my[my >= grid.ny] -= 2 * grid.ny
    return mx[:, None] * grid.dx, my[None, :] * grid.dy


def outer_lattice_grad_l1(kernel):
    """Centered-difference int |grad J| over the lattice points outside the
    near-origin disc (radius r0) that `kernel_norms` integrates radially."""
    g = kernel.grid
    h = max(g.dx, g.dy)
    ring = min(AVG_RING_MAX, int(AVG_RING_FRACTION * kernel.epsilon / h)) + 1
    r0 = min((ring + 0.5) * h, kernel.epsilon)
    K = kernel.values
    gx = (np.roll(K, -1, axis=0) - np.roll(K, 1, axis=0)) / (2.0 * g.dx)
    gy = (np.roll(K, -1, axis=1) - np.roll(K, 1, axis=1)) / (2.0 * g.dy)
    zx, zy = displacements(g)
    return float(np.sum(np.hypot(gx, gy)[np.hypot(zx, zy) > r0]) * g.cell_area)


# Frozen references: the kernel formulas as masked array code, with each
# quadrature node wrapped in a one-element array. `nlchb.kernel` evaluates
# nodes on floats and skips the mask when every point is inside; it must
# reproduce these bits exactly.


def frozen_bump(s):
    out = np.zeros_like(s)
    m = s < 1.0
    out[m] = np.exp(-1.0 / (1.0 - s[m] ** 2))
    return out


def frozen_bump_prime(s):
    out = np.zeros_like(s)
    m = s < 1.0
    sm = s[m]
    out[m] = np.exp(-1.0 / (1.0 - sm**2)) * (-2.0 * sm / (1.0 - sm**2) ** 2)
    return out


def frozen_quartic(s):
    out = np.zeros_like(s)
    m = s < 1.0
    out[m] = (1.0 - s[m] ** 2) ** 2
    return out


def frozen_quartic_prime(s):
    out = np.zeros_like(s)
    m = s < 1.0
    out[m] = -4.0 * s[m] * (1.0 - s[m] ** 2)
    return out


FROZEN_PROFILES = {
    "bump": (frozen_bump, frozen_bump_prime),
    "quartic": (frozen_quartic, frozen_quartic_prime),
}


def frozen_eta(m, s):
    return m.c_eta * FROZEN_PROFILES[m.shape_id][0](np.asarray(s, dtype=float))


def frozen_eta_prime(m, s):
    return m.c_eta * FROZEN_PROFILES[m.shape_id][1](np.asarray(s, dtype=float))


def frozen_kernel_value(m, r, eps):
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    mask = (r > 0.0) & (r < eps)
    amp = GRADIENT_LIMIT_SCALE / eps ** (2.0 - m.gamma + 2)
    out[mask] = amp * frozen_eta(m, r[mask] / eps) / r[mask] ** m.gamma
    return out


def frozen_kernel_radial_derivative(m, r, eps):
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    mask = (r > 0.0) & (r < eps)
    rm = r[mask]
    amp = GRADIENT_LIMIT_SCALE / eps ** (2.0 - m.gamma + 2)
    out[mask] = amp * (
        frozen_eta_prime(m, rm / eps) / eps / rm**m.gamma
        - m.gamma * frozen_eta(m, rm / eps) / rm ** (m.gamma + 1.0)
    )
    return out


def frozen_c_eta(gamma, d, shape_id):
    base, _ = FROZEN_PROFILES[shape_id]
    raw, _ = integrate.quad(
        lambda s: base(np.asarray([s]))[0] * s ** (d + 1 - gamma),
        0.0,
        1.0,
        limit=400,
        epsabs=1e-14,
        epsrel=1e-13,
    )
    return float((2.0 / compute_cd(d)) / raw)


def frozen_renormalization_residual(m):
    target = 2.0 / compute_cd(2)
    val, _ = integrate.quad(lambda s: frozen_eta(m, s) * s ** (2 + 1 - m.gamma), 0.0, 1.0, limit=200)
    return abs(val - target) / target


def frozen_kernel_norms(kernel):
    g = kernel.grid
    l1 = kernel.l1()
    h = max(g.dx, g.dy)
    ring = min(AVG_RING_MAX, int(AVG_RING_FRACTION * kernel.epsilon / h)) + 1
    r0 = min((ring + 0.5) * h, kernel.epsilon)
    m = kernel.mollifier
    grad_inner, _ = integrate.quad(
        lambda r: 2.0 * np.pi * r * abs(float(frozen_kernel_radial_derivative(m, np.asarray([r]), kernel.epsilon)[0])),
        0.0,
        r0,
        limit=200,
    )
    K = np.fft.fftshift(kernel.values)
    zx = (np.arange(2 * g.nx) - g.nx)[:, None] * g.dx
    zy = (np.arange(2 * g.ny) - g.ny)[None, :] * g.dy
    outer = np.hypot(zx, zy) > r0
    gx = np.zeros_like(K)
    gy = np.zeros_like(K)
    gx[1:-1, :] = (K[2:, :] - K[:-2, :]) / (2.0 * g.dx)
    gy[:, 1:-1] = (K[:, 2:] - K[:, :-2]) / (2.0 * g.dy)
    grad_outer = float(np.sum(np.hypot(gx, gy)[outer]) * g.cell_area)
    return {"l1": l1, "grad_l1": grad_inner + grad_outer}


def oracle_radii(eps):
    """At least 20 000 radii: the support ends, the last float inside, points
    beyond eps, the smallest normal scales, and dense and geometric fills."""
    special = [0.0, 1e-300, 5e-324, eps, np.nextafter(eps, 0.0), np.nextafter(eps, 1.0), 1.5 * eps, 2.0 * eps]
    return np.concatenate([special, np.linspace(0.0, 1.5 * eps, 20000), np.geomspace(1e-12, eps, 2000)])


_GL_X, _GL_W = np.polynomial.legendre.leggauss(4)


def scalar_gauss_cell(mollifier, eps, cx, cy, hx, hy):
    X = cx + _GL_X[:, None] * hx / 2.0
    Y = cy + _GL_X[None, :] * hy / 2.0
    W = (_GL_W[:, None] * _GL_W[None, :]) / 4.0
    return float(np.sum(W * frozen_kernel_value(mollifier, np.hypot(X, Y), eps)))


def scalar_cell_average(mollifier, eps, cx, cy, hx, hy, floor, depth=0):
    """Cell-by-cell recursive quadtree average of J_eps over one lattice cell."""
    coarse = scalar_gauss_cell(mollifier, eps, cx, cy, hx, hy)
    children = [(cx + sx * hx / 4.0, cy + sy * hy / 4.0) for sx in (-1.0, 1.0) for sy in (-1.0, 1.0)]
    refined = 0.25 * sum(scalar_gauss_cell(mollifier, eps, x, y, hx / 2.0, hy / 2.0) for x, y in children)
    if depth >= 30 or abs(refined - coarse) <= CELL_AVG_REL_TOL * abs(refined) + floor:
        return refined
    return 0.25 * sum(
        scalar_cell_average(mollifier, eps, x, y, hx / 2.0, hy / 2.0, floor, depth + 1) for x, y in children
    )


def scalar_sample_kernel(mollifier, eps, grid):
    """Scalar oracle for `sample_kernel`: the same sampling policy, one cell at
    a time, on the frozen masked `kernel_value`."""
    nx, ny, dx, dy = grid.nx, grid.ny, grid.dx, grid.dy
    h = max(dx, dy)
    ring = min(AVG_RING_MAX, int(AVG_RING_FRACTION * eps / h))
    edge_avg = eps >= RESOLVED_CELLS * h
    half_diag = 0.5 * np.hypot(dx, dy)
    floor = 1e-10 * float(frozen_kernel_value(mollifier, np.asarray([eps / 2.0]), eps)[0])
    values = np.zeros((2 * nx, 2 * ny))
    for i in range(min(nx, int(eps / dx) + 1) + 1):
        for j in range(min(ny, int(eps / dy) + 1) + 1):
            rc = float(np.hypot(i * dx, j * dy))
            if rc >= eps:
                continue
            if max(i, j) <= ring or (edge_avg and rc + half_diag > eps):
                v = scalar_cell_average(mollifier, eps, i * dx, j * dy, dx, dy, floor)
            else:
                v = float(frozen_kernel_value(mollifier, np.asarray([rc]), eps)[0])
            for ii in {i % (2 * nx), (-i) % (2 * nx)}:
                for jj in {j % (2 * ny), (-j) % (2 * ny)}:
                    values[ii, jj] = v
    return values


class TestCd:
    def test_d2_is_pi(self):
        assert abs(compute_cd(2) - np.pi) <= 1e-8

    def test_d3_is_four_thirds_pi(self):
        assert abs(compute_cd(3) - 4.0 * np.pi / 3.0) <= 1e-6

    def test_bounded_by_sphere_area(self):
        assert 0.0 < compute_cd(2) < 2.0 * np.pi
        assert 0.0 < compute_cd(3) < 4.0 * np.pi

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            compute_cd(4)


class TestMollifier:
    @pytest.mark.parametrize("gamma", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("shape", ["bump", "quartic"])
    def test_calibration_residual(self, gamma, shape):
        m = calibrate_mollifier(gamma, shape_id=shape)
        assert m.c_eta > 0.0
        assert m.renormalization_residual() <= 1e-8

    def test_calibration_is_linear_in_c_eta(self):
        m = calibrate_mollifier(0.5)
        val, _ = integrate.quad(lambda s: 2.0 * m.eta(s) * s**2.5, 0.0, 1.0, limit=200)
        assert val == pytest.approx(2.0 * (2.0 / np.pi), rel=1e-8)

    def test_calibration_is_memoized_with_fresh_values(self):
        m = calibrate_mollifier(0.37, shape_id="quartic")
        assert calibrate_mollifier(0.37, shape_id="quartic") is m
        fresh = _calibrated.__wrapped__(0.37, "quartic")
        assert fresh is not m
        assert (fresh.gamma, fresh.shape_id) == (m.gamma, m.shape_id)
        assert fresh.c_eta.hex() == m.c_eta.hex()

    def test_calibration_cache_is_shared_by_every_call_form(self):
        misses = _calibrated.cache_info().misses
        m = calibrate_mollifier(0.4321)
        assert calibrate_mollifier(0.4321, "bump") is m
        assert calibrate_mollifier(0.4321, shape_id="bump") is m
        assert calibrate_mollifier(np.float64(0.4321)) is m
        assert _calibrated.cache_info().misses == misses + 1

    @pytest.mark.parametrize("gamma", [-0.1, 0.0, 1.0, 1.5])
    def test_gamma_out_of_range(self, gamma):
        with pytest.raises(ValueError):
            calibrate_mollifier(gamma)

    def test_unknown_shape(self):
        with pytest.raises(ValueError):
            calibrate_mollifier(0.5, shape_id="sombrero")

    def test_profile_nonnegative_and_supported(self):
        m = calibrate_mollifier(0.5)
        s = np.linspace(0.0, 2.0, 401)
        eta = m.eta(s)
        assert np.all(eta >= 0.0)
        assert np.all(eta[s >= 1.0] == 0.0)
        for x in (1.0, 1.5, np.float64(2.0), np.asarray(1.0), np.asarray(3.0)):
            assert m.eta(x) == 0.0 and m.eta_prime(x) == 0.0

    @pytest.mark.parametrize("shape", ["bump", "quartic"])
    def test_derivative_weight_integrable(self, shape):
        # |eta'(s)| s^(d-1-gamma) must be integrable for the kernel family
        m = calibrate_mollifier(0.7, shape_id=shape)
        val, _ = integrate.quad(
            lambda s: abs(float(m.eta_prime(np.asarray([s]))[0])) * s ** (2 - 1 - 0.7),
            0.0,
            1.0,
            limit=200,
        )
        assert np.isfinite(val) and val > 0.0


CASES = [(eps, gamma, shape) for eps in (0.2, 0.05) for gamma in (0.1, 0.5, 0.8) for shape in ("bump", "quartic")]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFrozenFormulas:
    """The kernel formulas reproduce the frozen masked references bit for bit."""

    @pytest.mark.parametrize("shape", ["bump", "quartic"])
    def test_profiles(self, shape):
        s = oracle_radii(1.0)
        for new, old in zip(PROFILES[shape], FROZEN_PROFILES[shape]):
            assert same_bits(new(s), old(s))
            for x in s[::97]:
                ref = old(np.asarray([x]))[0]
                assert same_bits(new(float(x)), ref)
                assert same_bits(new(np.float64(x)), ref)
                assert same_bits(new(np.asarray(x)), ref)

    @pytest.mark.parametrize("eps,gamma,shape", CASES)
    def test_kernel_value_and_derivative(self, eps, gamma, shape):
        m = calibrate_mollifier(gamma, shape_id=shape)
        r = oracle_radii(eps)
        pairs = [
            (m.kernel_value, lambda r: frozen_kernel_value(m, r, eps)),
            (m.kernel_radial_derivative, lambda r: frozen_kernel_radial_derivative(m, r, eps)),
        ]
        with np.errstate(all="ignore"):  # the subnormal radius overflows |z|^-(gamma+1)
            for new, old in pairs:
                assert same_bits(new(r, eps), old(r))
                for x in r[::41]:  # the quadrature integrands evaluate one node at a time
                    ref = old(np.asarray([x]))[0]
                    assert same_bits(new(float(x), eps), ref)
                    assert same_bits(new(np.float64(x), eps), ref)
                    assert same_bits(new(np.asarray(x), eps), ref)
            assert same_bits(m.eta(r / eps), frozen_eta(m, r / eps))
            assert same_bits(m.eta_prime(r / eps), frozen_eta_prime(m, r / eps))
        assert m.renormalization_residual() == frozen_renormalization_residual(m)

    @pytest.mark.parametrize("gamma", [0.1, 0.25, 0.5, 0.5000001, 0.8, 0.9])
    @pytest.mark.parametrize("shape", ["bump", "quartic"])
    def test_calibration(self, gamma, shape):
        assert _calibrated.__wrapped__(gamma, shape).c_eta.hex() == frozen_c_eta(gamma, 2, shape).hex()

    @pytest.mark.parametrize(
        "n,eps,gamma,shape",
        [(64, 0.2, 0.5, "bump"), (256, 0.1, 0.5, "bump"), (32, 0.25, 0.5, "quartic"), (64, 0.05, 0.8, "bump")],
    )
    def test_kernel_norms(self, n, eps, gamma, shape):
        k = sample_kernel(calibrate_mollifier(gamma, shape_id=shape), eps, make_grid(n, n, 1.0, 1.0))
        got, ref = kernel_norms(k), frozen_kernel_norms(k)
        assert got["l1"].hex() == ref["l1"].hex()
        assert got["grad_l1"].hex() == ref["grad_l1"].hex()


class TestGaussTable:
    """The 4-point Gauss-Legendre table of the cell averaging is fixed in the
    source, so no command has to start LAPACK (which `leggauss` calls)."""

    def test_bitwise_equal_to_leggauss(self):
        x, w = np.polynomial.legendre.leggauss(4)
        assert _GL_X.tobytes() == x.tobytes()
        assert _GL_W.tobytes() == w.tobytes()

    def test_nodes_are_the_rounded_closed_form(self):
        # +-sqrt((3 -+ 2 sqrt(6/5)) / 7), from 40 digits to the nearest double
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            root = (decimal.Decimal(6) / 5).sqrt()
            inner, outer = (((3 + sign * 2 * root) / 7).sqrt() for sign in (-1, 1))
        assert list(_GL_X) == [float(-outer), float(-inner), float(inner), float(outer)]

    def test_weights_sum_to_two(self):
        assert math.fsum(_GL_W) == 2.0


class TestSampleKernel:
    @pytest.mark.filterwarnings("ignore::nlchb.kernel.KernelResolutionWarning")
    @pytest.mark.parametrize(
        "nx,ny,Ly,eps,gamma,shape",
        [
            (16, 16, 1.0, 0.1, 0.5, "bump"),  # under-resolved: ring 0, no edge averaging
            (64, 64, 1.0, 0.2, 0.5, "bump"),  # default kernel: ring 3, edge-averaged
            (32, 32, 1.0, 0.25, 0.3, "quartic"),  # edge-averaged
            (16, 24, 1.5, 0.4, 0.7, "bump"),  # non-square grid
        ],
    )
    def test_matches_scalar_oracle(self, nx, ny, Ly, eps, gamma, shape):
        g = make_grid(nx, ny, 1.0, Ly)
        m = calibrate_mollifier(gamma, shape_id=shape)
        got = sample_kernel(m, eps, g).values
        ref = scalar_sample_kernel(m, eps, g)
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))

    def test_zero_outside_support(self):
        g = make_grid(32, 32, 1.0, 1.0)
        m = calibrate_mollifier(0.5)
        k = sample_kernel(m, 0.2, g)
        zx, zy = displacements(g)
        assert np.all(k.values[np.hypot(zx, zy) >= 0.2] == 0.0)

    def test_exact_reflection_symmetry(self):
        g = make_grid(16, 24, 1.0, 1.5)
        m = calibrate_mollifier(0.7)
        k = sample_kernel(m, 0.4, g)
        ii = (-np.arange(2 * g.nx)) % (2 * g.nx)
        jj = (-np.arange(2 * g.ny)) % (2 * g.ny)
        assert np.array_equal(k.values, k.values[np.ix_(ii, jj)])

    def test_nonnegative(self):
        g = make_grid(16, 16, 1.0, 1.0)
        k = sample_kernel(calibrate_mollifier(0.5), 0.3, g)
        assert k.values.min() >= 0.0

    @pytest.mark.parametrize("gamma,tol", [(0.2, 1e-4), (0.5, 1e-4), (0.8, 1e-3)])
    def test_lattice_l1_matches_quadrature(self, gamma, tol):
        # resolved kernel (eps = 64 dx); the singular end of the gamma range
        # carries a documented looser tolerance
        g = make_grid(128, 128, 1.0, 1.0)
        m = calibrate_mollifier(gamma)
        k = sample_kernel(m, 0.5, g)
        ref = radial_l1(m, 0.5)
        assert abs(k.l1() - ref) / ref <= tol

    def test_under_resolved_warns(self):
        g = make_grid(16, 16, 1.0, 1.0)
        m = calibrate_mollifier(0.5)
        with pytest.warns(KernelResolutionWarning):
            k = sample_kernel(m, 0.1, g)
        assert k.under_resolved

    def test_directional_second_moment_is_unit(self):
        # the construction fixes the second moment (the L1 mass grows ~eps^-2)
        g = make_grid(128, 128, 1.0, 1.0)
        m = calibrate_mollifier(0.5)
        for eps in (0.4, 0.2, 0.1):
            k = sample_kernel(m, eps, g)
            zx, _ = displacements(g)
            mom = float(np.sum(k.values * zx**2) * g.cell_area)
            assert mom == pytest.approx(1.0, rel=5e-2)
            assert mom == pytest.approx(1.0, rel=5e-3)  # resolved kernels do much better

    def test_l1_scales_like_inverse_eps_squared(self):
        g = make_grid(128, 128, 1.0, 1.0)
        m = calibrate_mollifier(0.5)
        l1 = [sample_kernel(m, eps, g).l1() for eps in (0.4, 0.2, 0.1)]
        assert l1[1] / l1[0] == pytest.approx(4.0, rel=0.05)
        assert l1[2] / l1[1] == pytest.approx(4.0, rel=0.05)


class TestConvolve:
    def setup_method(self):
        self.grid = make_grid(16, 16, 1.0, 1.0)
        self.mollifier = calibrate_mollifier(0.5)
        self.kernel = sample_kernel(self.mollifier, 0.3, self.grid)
        self.a = compute_a(self.kernel)

    def test_constant_gives_c_times_a(self):
        c = -1.7
        out = convolve(self.kernel, np.full(self.grid.shape, c))
        assert np.abs(out - c * self.a).max() <= 1e-12 * np.abs(self.a).max()

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(11)
        phi = rng.standard_normal(self.grid.shape)
        fast = convolve(self.kernel, phi)
        slow = convolve_direct(self.kernel, phi)
        assert np.abs(fast - slow).max() <= 1e-12 * np.abs(slow).max()

    def test_adjoint_symmetry(self):
        rng = np.random.default_rng(5)
        p1 = rng.standard_normal(self.grid.shape)
        p2 = rng.standard_normal(self.grid.shape)
        s1 = np.sum(convolve(self.kernel, p1) * p2)
        s2 = np.sum(convolve(self.kernel, p2) * p1)
        n1 = np.sqrt(np.sum(p1**2)) * np.sqrt(np.sum(p2**2))
        assert abs(s1 - s2) <= 1e-12 * n1

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            convolve(self.kernel, np.zeros((8, 8)))


def padded_rfft2_convolve(kernel, values):
    """Oracle: the whole (2nx, 2ny) zero-padded field through rfft2 and irfft2."""
    g = kernel.grid
    pad = np.zeros((2 * g.nx, 2 * g.ny))
    pad[: g.nx, : g.ny] = values
    out = sfft.irfft2(sfft.rfft2(pad) * kernel.spectrum(), s=pad.shape)
    return out[: g.nx, : g.ny] * g.cell_area


class TestPrunedConvolve:
    """`convolve` skips the zero rows and the discarded rows of the padded
    transform; it must still give the bits of the full rfft2/irfft2 pair.
    Odd, prime and mixed sizes matter: normalising each inverse pass on its
    own agrees with the oracle only when nx is a power of two."""

    @pytest.mark.parametrize(
        "nx, ny, eps",
        [
            (8, 8, 0.4),
            (9, 13, 0.4),
            (16, 24, 0.3),
            (33, 17, 0.3),
            (48, 48, 0.2),
            (100, 75, 0.1),
            (256, 256, 0.1),
        ],
    )
    def test_bit_equal_to_padded_rfft2(self, nx, ny, eps):
        kernel = sample_kernel(calibrate_mollifier(0.5), eps, make_grid(nx, ny, 1.0, 1.3))
        rng = np.random.default_rng(nx * 1000 + ny)
        for amplitude in (1e-8, 1e-4, 1.0, 1e3):
            phi = amplitude * (rng.standard_normal((nx, ny)) + 0.3)
            assert np.array_equal(convolve(kernel, phi), padded_rfft2_convolve(kernel, phi))


class TestConvolveDirect:
    def test_delta_kernel_is_identity(self):
        g = make_grid(8, 8, 1.0, 1.0)
        w = 2.5
        values = np.zeros((2 * g.nx, 2 * g.ny))
        values[0, 0] = w / g.cell_area
        k = KernelGrid(grid=g, epsilon=0.1, mollifier=calibrate_mollifier(0.5), values=values)
        phi = np.random.default_rng(2).standard_normal(g.shape)
        out = convolve_direct(k, phi)
        assert np.abs(out - w * phi).max() < 1e-12 * np.abs(phi).max()

    def test_ones_give_a(self):
        g = make_grid(8, 8, 1.0, 1.0)
        k = sample_kernel(calibrate_mollifier(0.5), 0.4, g)
        a = compute_a(k)
        out = convolve_direct(k, np.ones(g.shape))
        assert np.abs(out - a).max() <= 1e-12 * np.abs(a).max()

    def test_size_guard(self):
        g = make_grid(128, 128, 1.0, 1.0)
        k = sample_kernel(calibrate_mollifier(0.5), 0.2, g)
        with pytest.raises(ValueError):
            convolve_direct(k, np.zeros(g.shape))


class TestCoefficientA:
    def test_interior_value_equals_l1(self):
        g = make_grid(32, 32, 1.0, 1.0)
        k = sample_kernel(calibrate_mollifier(0.5), 0.2, g)
        a = compute_a(k)
        # cell centers farther than eps from the boundary see the full mass
        X, Y = g.cell_centers()
        interior = (X > 0.2) & (X < 0.8) & (Y > 0.2) & (Y < 0.8)
        assert np.abs(a[interior] - k.l1()).max() <= 1e-10 * k.l1()

    def test_corner_below_l1_and_nonnegative(self):
        g = make_grid(32, 32, 1.0, 1.0)
        k = sample_kernel(calibrate_mollifier(0.5), 0.2, g)
        a = compute_a(k)
        assert a[0, 0] < k.l1()
        assert a.min() >= 0.0

    def test_decays_toward_boundary(self):
        g = make_grid(32, 32, 1.0, 1.0)
        k = sample_kernel(calibrate_mollifier(0.5), 0.3, g)
        a = compute_a(k)
        assert a.max() == pytest.approx(a[g.nx // 2, g.ny // 2], rel=1e-12)
        assert a[0, 0] <= a.min() + 1e-12 * a.max()


class TestKernelNorms:
    def test_l1_positive(self):
        g = make_grid(32, 32, 1.0, 1.0)
        m = calibrate_mollifier(0.5)
        k = sample_kernel(m, 0.25, g)
        norms = kernel_norms(k)
        assert norms["l1"] > 0.0

    def test_grad_l1_finite_and_grows_as_eps_shrinks(self):
        g = make_grid(64, 64, 1.0, 1.0)
        m = calibrate_mollifier(0.5)
        vals = [kernel_norms(sample_kernel(m, eps, g))["grad_l1"] for eps in (0.4, 0.2, 0.1)]
        assert all(np.isfinite(v) for v in vals)
        assert vals[0] < vals[1] < vals[2]

    @pytest.mark.parametrize("eps", [0.2, 0.1])
    def test_validation_report_includes_inner_disc(self, eps):
        # the validator reports the full seminorm: the radial quadrature over
        # the near-origin disc plus the lattice part outside it
        g = make_grid(64, 64, 1.0, 1.0)
        k = sample_kernel(calibrate_mollifier(0.5, shape_id="bump"), eps, g)
        report = validate_assumptions(k, compute_a(k), PotentialParams(eta_f=150.0), MaterialParams())
        outer = outer_lattice_grad_l1(k)
        assert report.kernel_grad_l1 == kernel_norms(k)["grad_l1"]
        assert report.kernel_grad_l1 > 1.5 * outer


class TestNonlocalFormIdentities:
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_energy_identity_vs_double_sum(self, n):
        g = make_grid(n, n, 1.0, 1.0)
        k = sample_kernel(calibrate_mollifier(0.6), 0.3, g)
        a = compute_a(k)
        phi = np.random.default_rng(n).standard_normal(g.shape)
        fast = quadratic_form(k, a, phi)
        slow = double_sum_energy(k, phi)
        assert abs(fast - slow) <= 1e-10 * abs(slow)

    def test_form_nonnegative_and_zero_on_constants(self):
        g = make_grid(16, 16, 1.0, 1.0)
        k = sample_kernel(calibrate_mollifier(0.5), 0.3, g)
        a = compute_a(k)
        rng = np.random.default_rng(9)
        for _ in range(5):
            phi = rng.standard_normal(g.shape)
            assert quadratic_form(k, a, phi) >= 0.0
        c = np.full(g.shape, 4.2)
        scale = float(np.sum(a * c * c) * g.cell_area)
        assert abs(quadratic_form(k, a, c)) <= 1e-12 * scale

    @pytest.mark.parametrize("n,eps,gamma", [(8, 0.4, 0.3), (16, 0.25, 0.5), (32, 0.15, 0.8)])
    def test_fft_vs_direct_across_sizes(self, n, eps, gamma):
        g = make_grid(n, n, 1.0, 1.0)
        k = sample_kernel(calibrate_mollifier(gamma), eps, g)
        phi = np.random.default_rng(n + 1).standard_normal(g.shape)
        fast = convolve(k, phi)
        slow = convolve_direct(k, phi)
        assert np.abs(fast - slow).max() <= 1e-12 * np.abs(slow).max()

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), gamma=st.floats(0.15, 0.85))
    def test_adjoint_symmetry_property(self, seed, gamma):
        g = make_grid(12, 12, 1.0, 1.0)
        k = sample_kernel(calibrate_mollifier(round(gamma, 3)), 0.3, g)
        rng = np.random.default_rng(seed)
        p1 = rng.uniform(-3, 3, g.shape)
        p2 = rng.uniform(-3, 3, g.shape)
        s12 = float(np.sum(convolve(k, p1) * p2))
        s21 = float(np.sum(convolve(k, p2) * p1))
        norm = float(np.sqrt(np.sum(p1**2) * np.sum(p2**2)))
        assert abs(s12 - s21) <= 1e-12 * max(norm, 1.0) * k.l1()
