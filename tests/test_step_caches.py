"""Per-run and per-state terms of a step are built once and change no bit.

The oracles below are the formulas these functions used before their
denominators, weights and scans were cached or shared; every comparison is
on the raw bytes, so a flipped sign of zero counts as a difference.
"""

import contextlib
import functools
import tracemalloc

import numpy as np
import pytest
from scipy import fft as _fft

from conftest import count_calls, patch_everywhere, smooth_flow_state, spinodal_potential
import nlchb.energy
import nlchb.grid
import nlchb.physics
import nlchb.solver
from nlchb.config import parse_config
from nlchb.energy import EnergyLedger, _corner_weights, _nu_at_corners, mac_deformation, work_terms
from nlchb.grid import (
    MacVelocity,
    _helmholtz_denominator,
    dct2_inverse,
    dct2_transform,
    gradient_cc,
    h1_seminorm,
    helmholtz_solve,
    laplacian_neumann,
    make_grid,
)
from nlchb.kernel import convolve
from nlchb.physics import MaterialParams, buoyancy
from nlchb.solver import (
    Forcing,
    Model,
    ModelSpec,
    SimState,
    _implicit_solve,
    _Terms,
    _sine_denominators,
    _terms,
    advance,
    integrate,
    project,
    step_ch,
    step_heat,
    step_ns,
    suggest_dt,
)

SHAPES = [(9, 13), (16, 24), (33, 17), (64, 64)]
SCALES = [1e-8, 1.0, 1e3]


# ---------------------------------------------------------------- oracles


def oracle_helmholtz_solve(grid, alpha, beta, rhs):
    coeffs = dct2_transform(rhs)
    return dct2_inverse(coeffs / (alpha + beta * grid.laplacian_eigenvalues()))


def oracle_local_step_ch(model, state, dt):
    g, S = model.grid, model.stabilization
    phi, theta = state.phi, state.theta
    adv = nlchb.solver.advect_scalar(g, state.vel, phi) if state.vel.max_speed() > 0.0 else 0.0
    explicit = model.potential.eta_f * model.potential.df(phi) + model.material.l_c * theta
    rhs = phi / dt - adv + laplacian_neumann(g, explicit - S * phi)
    lam = g.laplacian_eigenvalues()
    coeffs = dct2_transform(rhs) / (1.0 / dt + S * lam + lam**2)
    phi_next = dct2_inverse(coeffs)
    mu_half = -laplacian_neumann(g, phi_next) + explicit + S * (phi_next - phi)
    return phi_next, mu_half


def oracle_project(grid, vel):
    div = vel.divergence()
    coeffs = dct2_transform(div)
    lam = grid.laplacian_eigenvalues()
    lam_safe = lam.copy()
    lam_safe[0, 0] = 1.0
    coeffs = -coeffs / lam_safe
    coeffs[0, 0] = 0.0
    psi = dct2_inverse(coeffs)
    out = vel.copy()
    out.u[1:-1, :] -= np.diff(psi, axis=0) / grid.dx
    out.v[:, 1:-1] -= np.diff(psi, axis=1) / grid.dy
    return out


def oracle_sine_eigs(grid):
    def eigs(n, d, count):
        k = np.arange(count) + 1
        return (2.0 / d**2) * (1.0 - np.cos(np.pi * k / n))

    nx, ny, dx, dy = grid.nx, grid.ny, grid.dx, grid.dy
    lam_u = eigs(nx, dx, nx - 1)[:, None] + eigs(ny, dy, ny)[None, :]
    lam_v = eigs(nx, dx, nx)[:, None] + eigs(ny, dy, ny - 1)[None, :]
    return lam_u, lam_v


def oracle_implicit_u_solve(grid, alpha, nu, rhs_int):
    chat = _fft.dst(_fft.dst(rhs_int, type=1, axis=0), type=2, axis=1)
    chat /= alpha + nu * oracle_sine_eigs(grid)[0]
    return _fft.idst(_fft.idst(chat, type=2, axis=1), type=1, axis=0)


def oracle_implicit_v_solve(grid, alpha, nu, rhs_int):
    chat = _fft.dst(_fft.dst(rhs_int, type=2, axis=0), type=1, axis=1)
    chat /= alpha + nu * oracle_sine_eigs(grid)[1]
    return _fft.idst(_fft.idst(chat, type=2, axis=0), type=1, axis=1)


def oracle_corner_weights(grid):
    wx = np.ones(grid.nx + 1)
    wx[0] = wx[-1] = 0.5
    wy = np.ones(grid.ny + 1)
    wy[0] = wy[-1] = 0.5
    return wx[:, None] * wy[None, :] * grid.cell_area


def oracle_nu_at_corners(grid, nu_centers):
    pad = np.pad(nu_centers, 1, mode="edge")
    return 0.25 * (pad[:-1, :-1] + pad[1:, :-1] + pad[:-1, 1:] + pad[1:, 1:])


# The staggered stencils as they were written before the grid module gave them
# one face-difference and one face-average operator: one explicit body per
# axis, and the solver's own difference and midpoint helpers.


def oracle_difference(f, axis, d):
    out = np.diff(f, axis=axis)
    out /= d
    return out


def oracle_midpoint(a, b, out=None):
    out = np.add(a, b, out=out)
    out *= 0.5
    return out


def oracle_divergence(vel):
    g = vel.grid
    return (vel.u[1:] - vel.u[:-1]) / g.dx + (vel.v[:, 1:] - vel.v[:, :-1]) / g.dy


def oracle_gradient_cc(grid, values):
    gx = np.empty(grid.shape)
    np.subtract(values[2:], values[:-2], out=gx[1:-1])
    np.subtract(values[1], values[0], out=gx[0])
    np.subtract(values[-1], values[-2], out=gx[-1])
    gx /= 2.0 * grid.dx
    gy = np.empty(grid.shape)
    np.subtract(values[:, 2:], values[:, :-2], out=gy[:, 1:-1])
    np.subtract(values[:, 1], values[:, 0], out=gy[:, 0])
    np.subtract(values[:, -1], values[:, -2], out=gy[:, -1])
    gy /= 2.0 * grid.dy
    return gx, gy


def oracle_centers_to_xfaces(grid, values):
    out = np.empty((grid.nx + 1, grid.ny))
    out[1:-1] = 0.5 * (values[1:] + values[:-1])
    out[0] = values[0]
    out[-1] = values[-1]
    return out


def oracle_centers_to_yfaces(grid, values):
    out = np.empty((grid.nx, grid.ny + 1))
    out[:, 1:-1] = 0.5 * (values[:, 1:] + values[:, :-1])
    out[:, 0] = values[:, 0]
    out[:, -1] = values[:, -1]
    return out


def oracle_buoyancy(grid, material, phi, theta):
    coeff = material.alpha0 + material.alpha1 * phi + material.alpha2 * theta
    gx, gy = material.g
    return gx * oracle_centers_to_xfaces(grid, coeff), gy * oracle_centers_to_yfaces(grid, coeff)


def oracle_advect_scalar(grid, vel, c):
    flux = oracle_centers_to_xfaces(grid, c)
    flux *= vel.u
    out = oracle_difference(flux, 0, grid.dx)
    flux = oracle_centers_to_yfaces(grid, c)
    flux *= vel.v
    out += oracle_difference(flux, 1, grid.dy)
    return out


def oracle_g_dot_u(terms):
    gx, gy = terms.model.material.g
    if gx == 0.0 and gy == 0.0:
        return 0.0
    u_c = 0.5 * (terms.vel.u[1:, :] + terms.vel.u[:-1, :])
    v_c = 0.5 * (terms.vel.v[:, 1:] + terms.vel.v[:, :-1])
    return gx * u_c + gy * v_c


def oracle_momentum_advection(grid, vel):
    u, v = vel.u, vel.v
    dx, dy = grid.dx, grid.dy
    flux = oracle_midpoint(u[:-1, :], u[1:, :])
    flux *= flux
    adv_u = oracle_difference(flux, 0, dx)
    carrier = oracle_midpoint(v[:-1, :], v[1:, :])
    flux = np.zeros((grid.nx - 1, grid.ny + 1))
    oracle_midpoint(u[1:-1, 1:], u[1:-1, :-1], out=flux[:, 1:-1])
    flux *= carrier
    adv_u += oracle_difference(flux, 1, dy)

    flux = oracle_midpoint(v[:, :-1], v[:, 1:])
    flux *= flux
    adv_v = oracle_difference(flux, 1, dy)
    carrier = oracle_midpoint(u[:, 1:], u[:, :-1])
    flux = np.zeros((grid.nx + 1, grid.ny - 1))
    oracle_midpoint(v[1:, 1:-1], v[:-1, 1:-1], out=flux[1:-1, :])
    flux *= carrier
    adv_v += oracle_difference(flux, 0, dx)
    return adv_u, adv_v


def oracle_viscous_remainder(grid, viscous, nu_bar):
    nu_centers, nu_corners, (dxx, dyy, dxy) = viscous
    two_dnu = nu_centers - nu_bar
    two_dnu *= 2.0
    stress = two_dnu * dxx
    rem_u = oracle_difference(stress, 0, grid.dx)
    np.multiply(two_dnu, dyy, out=stress)
    rem_v = oracle_difference(stress, 1, grid.dy)
    stress = nu_corners - nu_bar
    stress *= 2.0
    stress *= dxy
    rem_u += oracle_difference(stress[1:-1, :], 1, grid.dy)
    rem_v += oracle_difference(stress[:, 1:-1], 0, grid.dx)
    return rem_u, rem_v


def oracle_korteweg_force(grid, material, mu_half, theta, phi):
    scal = material.l_c * theta
    np.subtract(mu_half, scal, out=scal)
    scal *= material.K_cap
    fx = oracle_midpoint(scal[1:], scal[:-1])
    fx *= np.diff(phi, axis=0)
    fx /= grid.dx
    fy = oracle_midpoint(scal[:, 1:], scal[:, :-1])
    fy *= np.diff(phi, axis=1)
    fy /= grid.dy
    return fx, fy


def oracle_mac_deformation(grid, vel):
    dxx = (vel.u[1:] - vel.u[:-1]) / grid.dx
    dyy = (vel.v[:, 1:] - vel.v[:, :-1]) / grid.dy
    u_pad = np.empty((grid.nx + 1, grid.ny + 2))
    u_pad[:, 1:-1] = vel.u
    u_pad[:, 0] = -vel.u[:, 0]
    u_pad[:, -1] = -vel.u[:, -1]
    du_dy = (u_pad[:, 1:] - u_pad[:, :-1]) / grid.dy
    v_pad = np.empty((grid.nx + 2, grid.ny + 1))
    v_pad[1:-1, :] = vel.v
    v_pad[0, :] = -vel.v[0, :]
    v_pad[-1, :] = -vel.v[-1, :]
    dv_dx = (v_pad[1:] - v_pad[:-1]) / grid.dx
    return dxx, dyy, 0.5 * (du_dy + dv_dx)


def oracle_work_terms(grid, theta, vel, material, q_faces, z_centers, buoy, g_dot_u):
    kl = material.K_cap * material.l_c
    out = {"work_q": 0.0, "work_buoy": 0.0, "work_z": 0.0, "work_gu": 0.0}
    if q_faces is not None:
        qx, qy = q_faces
        out["work_q"] = float((np.sum(qx * vel.u) + np.sum(qy * vel.v)) * grid.cell_area) / kl
    if z_centers is not None:
        out["work_z"] = float(np.sum(z_centers * theta) * grid.cell_area) / material.l_h
    if buoy is not None:
        bx, by = buoy
        out["work_buoy"] = float((np.sum(bx * vel.u) + np.sum(by * vel.v)) * grid.cell_area) / kl
        out["work_gu"] = float(np.sum(g_dot_u * theta) * grid.cell_area) / material.l_h
    return out


def oracle_h1_seminorm(grid, values):
    gx, gy = gradient_cc(grid, values)
    return float(np.sqrt(np.sum(gx * gx + gy * gy) * grid.cell_area))


def use_oracle_stencils(monkeypatch):
    for raw, oracle in [
        (nlchb.grid.MacVelocity.divergence, oracle_divergence),
        (nlchb.grid.gradient_cc, oracle_gradient_cc),
        (nlchb.physics.buoyancy, oracle_buoyancy),
        (nlchb.solver.advect_scalar, oracle_advect_scalar),
        (nlchb.solver.momentum_advection, oracle_momentum_advection),
        (nlchb.solver.viscous_remainder, oracle_viscous_remainder),
        (nlchb.solver.korteweg_force, oracle_korteweg_force),
        (nlchb.solver.project, oracle_project),
        (nlchb.energy.mac_deformation, oracle_mac_deformation),
    ]:
        patch_everywhere(monkeypatch, raw, oracle)
    g_dot_u = functools.cached_property(oracle_g_dot_u)
    g_dot_u.__set_name__(_Terms, "g_dot_u")
    monkeypatch.setattr(_Terms, "g_dot_u", g_dot_u)


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def random_vel(grid, rng, scale):
    vel = MacVelocity(grid)
    vel.u[1:-1, :] = scale * rng.standard_normal((grid.nx - 1, grid.ny))
    vel.v[:, 1:-1] = scale * rng.standard_normal((grid.nx, grid.ny - 1))
    return vel


# ------------------------------------------------------- bit-for-bit oracles


@pytest.mark.parametrize("shape", SHAPES)
class TestSameBitsAsOracle:
    def grid(self, shape):
        return make_grid(shape[0], shape[1], 1.0, 1.3)

    @pytest.mark.parametrize("alpha, beta", [(1.0 / 3e-4, 7.25), (2.0, 0.0), (0.3, 1e-3)])
    def test_helmholtz_solve(self, shape, alpha, beta):
        g = self.grid(shape)
        rng = np.random.default_rng(1)
        for scale in SCALES:
            rhs = scale * rng.standard_normal(g.shape)
            assert_same_bits(helmholtz_solve(g, alpha, beta, rhs), oracle_helmholtz_solve(g, alpha, beta, rhs))

    def test_project(self, shape):
        g = self.grid(shape)
        rng = np.random.default_rng(2)
        for scale in SCALES:
            vel = random_vel(g, rng, scale)
            new, old = project(g, vel), oracle_project(g, vel)
            assert_same_bits(new.u, old.u)
            assert_same_bits(new.v, old.v)

    def test_project_leaves_its_argument_unchanged(self, shape):
        g = self.grid(shape)
        vel = random_vel(g, np.random.default_rng(3), 1.0)
        u0, v0 = vel.u.copy(), vel.v.copy()
        out = project(g, vel)
        assert out.u is not vel.u and out.v is not vel.v
        assert_same_bits(vel.u, u0)
        assert_same_bits(vel.v, v0)

    @pytest.mark.parametrize("dt", [1e-3, 2e-5])
    def test_local_step_ch(self, shape, dt):
        g = self.grid(shape)
        model = flow_model(g, (0.3, -1.0), mode="local")
        rng = np.random.default_rng(6)
        for scale in SCALES:
            for vel in (MacVelocity(g), random_vel(g, rng, scale)):
                state = SimState(0.0, 0, scale * rng.standard_normal(g.shape),
                                 scale * rng.standard_normal(g.shape), vel)
                for new, old in zip(step_ch(model, state, dt), oracle_local_step_ch(model, state, dt)):
                    assert_same_bits(new, old)

    @pytest.mark.parametrize("alpha, nu", [(1.0 / 2e-5, 0.125), (1.0 / 1.7e-3, 1.0)])
    def test_implicit_velocity_solves(self, shape, alpha, nu):
        g = self.grid(shape)
        rng = np.random.default_rng(4)
        for scale in SCALES:
            ru = scale * rng.standard_normal((g.nx - 1, g.ny))
            rv = scale * rng.standard_normal((g.nx, g.ny - 1))
            den_u, den_v = _sine_denominators(g, alpha, nu)
            assert_same_bits(_implicit_solve(den_u, 0, ru), oracle_implicit_u_solve(g, alpha, nu, ru))
            assert_same_bits(_implicit_solve(den_v, 1, rv), oracle_implicit_v_solve(g, alpha, nu, rv))

    def test_ledgered_steps_match_the_per_axis_stencils(self, shape, monkeypatch):
        # gravity, variable viscosity and a heat source on a grid with
        # nx != ny and lx != ly, so a stencil applied along the wrong axis shows
        g = self.grid(shape)
        model = flow_model(g, (0.3, -1.0), epsilon=0.3)
        forcing = Forcing(z=0.1 * np.cos(np.pi * g.cell_centers()[0]))
        runs = []
        for oracle in (False, True):
            if oracle:
                use_oracle_stencils(monkeypatch)
            ledger = EnergyLedger()
            runs.append((integrate(model, smooth_flow_state(g), 2e-4, 5 * 2e-4, forcing, ledger),
                         ledger.rows))
        (new, new_rows), (old, old_rows) = runs
        assert new.step == old.step == 5
        for a, b in [(new.phi, old.phi), (new.theta, old.theta), (new.vel.u, old.vel.u),
                     (new.vel.v, old.vel.v)]:
            assert_same_bits(a, b)
        assert len(new_rows) == len(old_rows) == 5
        for row_new, row_old in zip(new_rows, old_rows):
            assert row_new.keys() == row_old.keys()
            for key in row_new:
                assert_same_bits(np.float64(row_new[key]), np.float64(row_old[key]))

    def test_mac_deformation(self, shape):
        g = self.grid(shape)
        rng = np.random.default_rng(7)
        for scale in SCALES:
            vel = random_vel(g, rng, scale)
            # -0.0 on the no-penetration walls, next to the no-slip walls and inside
            vel.u[0] = vel.u[1:-1, 0] = vel.u[2, 3] = -0.0
            vel.v[:, -1] = vel.v[-1, 1:-1] = vel.v[3, 2] = -0.0
            for new, old in zip(mac_deformation(g, vel), oracle_mac_deformation(g, vel)):
                assert_same_bits(new, old)

    @pytest.mark.parametrize("with_q, with_buoy", [(True, False), (False, True), (True, True),
                                                   (False, False)])
    def test_work_terms(self, shape, with_q, with_buoy):
        g = self.grid(shape)
        mat = MaterialParams(K_cap=0.3, l_c=0.7, l_h=1.3)  # no power of two hides a rounding
        rng = np.random.default_rng(8)
        for scale in SCALES:
            vel = random_vel(g, rng, scale)
            theta, g_dot_u, z = (scale * rng.standard_normal(g.shape) for _ in range(3))
            q, buoy = ((rng.standard_normal(vel.u.shape), rng.standard_normal(vel.v.shape))
                       for _ in range(2))
            args = (g, theta, vel, mat, q if with_q else None, z,
                    buoy if with_buoy else None, g_dot_u if with_buoy else 0.0)
            new, old = work_terms(*args), oracle_work_terms(*args)
            assert new.keys() == old.keys()
            for key in new:
                assert_same_bits(np.float64(new[key]), np.float64(old[key]))

    def test_h1_seminorm(self, shape):
        g = self.grid(shape)
        rng = np.random.default_rng(9)
        for scale in SCALES:
            values = scale * rng.standard_normal(g.shape)
            assert_same_bits(np.float64(h1_seminorm(g, values)),
                             np.float64(oracle_h1_seminorm(g, values)))

    def test_corner_weights(self, shape):
        g = self.grid(shape)
        assert_same_bits(_corner_weights(g), oracle_corner_weights(g))

    def test_nu_at_corners(self, shape):
        g = self.grid(shape)
        rng = np.random.default_rng(5)
        for scale in SCALES:
            nu = scale * rng.uniform(0.05, 0.2, g.shape)
            assert_same_bits(_nu_at_corners(g, nu), oracle_nu_at_corners(g, nu))


# ------------------------------------------------ a step from a fluid at rest

REST_CONFIG = """
[grid]
nx = 16
ny = 12
ly = 0.75
[physics]
kappa = 0.2
nu_min = 0.05
nu_max = {nu_max}
alpha1 = 0.1
alpha2 = 1.0
g_y = {g_y}
[kernel]
mode = {mode}
epsilon = 0.3
[initial]
phi_preset = {preset}
phi_amplitude = 0.4
phi_value = 0.3
[forcing]
z_preset = single_mode
z_amplitude = 2.0
"""


def use_at_rest_shortcut(monkeypatch):
    """The path a step from a resting fluid used to take: no scalar advection,
    no momentum advection and no viscous remainder. Each is patched to return
    +0.0 arrays, which leave every bit of a right-hand side whose velocity
    part is +0.0 as it was without the term."""

    def no_scalar_advection(grid, vel, c):
        return np.zeros(grid.shape)

    def no_face_term(grid, *args):
        return np.zeros((grid.nx - 1, grid.ny)), np.zeros((grid.nx, grid.ny - 1))

    for raw, zero in [
        (nlchb.solver.advect_scalar, no_scalar_advection),
        (nlchb.solver.momentum_advection, no_face_term),
        (nlchb.solver.viscous_remainder, no_face_term),
    ]:
        patch_everywhere(monkeypatch, raw, zero)


@pytest.mark.parametrize("ledgered", [False, True], ids=["unledgered", "ledgered"])
@pytest.mark.parametrize("g_y", [0.0, -5.0], ids=["no_gravity", "gravity"])
@pytest.mark.parametrize("nu_max", [0.05, 0.2], ids=["constant_nu", "variable_nu"])
@pytest.mark.parametrize("mode", ["nonlocal", "local"])
@pytest.mark.parametrize("preset", ["spinodal", "random", "constant"])
def test_step_from_rest_has_the_bits_of_the_at_rest_shortcut(
    monkeypatch, preset, mode, nu_max, g_y, ledgered
):
    # every step runs the advection and the viscous remainder, also from rest,
    # where they are zero: the fields and the ledger row keep the bits of the
    # shortcut that skipped them
    config = parse_config(REST_CONFIG.format(preset=preset, mode=mode, nu_max=nu_max, g_y=g_y))
    model = Model.build(config)
    start = config.initial_state()
    assert not np.signbit(start.vel.u).any() and not np.signbit(start.vel.v).any()
    assert start.vel.max_speed() == 0.0
    dt = suggest_dt(model, start, config.safety)
    runs = []
    for shortcut in (False, True):
        if shortcut:
            use_at_rest_shortcut(monkeypatch)
        ledger = EnergyLedger() if ledgered else None
        runs.append((advance(model, start.copy(), dt, config.forcing(), ledger), ledger))
    (new, new_ledger), (old, old_ledger) = runs
    assert new.vel.max_speed() > 0.0 or preset == "constant" and g_y == 0.0
    for a, b in [(new.phi, old.phi), (new.theta, old.theta), (new.vel.u, old.vel.u),
                 (new.vel.v, old.vel.v)]:
        assert_same_bits(a, b)
    if ledgered:
        (row_new,), (row_old,) = new_ledger.rows, old_ledger.rows
        assert row_new.keys() == row_old.keys()
        for key in row_new:
            assert_same_bits(np.float64(row_new[key]), np.float64(row_old[key]))


def test_cached_arrays_are_read_only():
    g = make_grid(9, 13, 1.0, 1.3)
    arrays = [
        _helmholtz_denominator(g, 2.0, 0.5),
        *_sine_denominators(g, 2.0, 0.5),
        _corner_weights(g),
        g.laplacian_eigenvalues(),
    ]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0
    assert g.laplacian_eigenvalues()[0, 0] == 0.0


# ------------------------------------------------------ built once per run


def flow_model(grid, g, epsilon=0.2, mode="nonlocal"):
    mat = MaterialParams(
        K_cap=0.05, l_c=0.5, l_h=0.5, kappa=0.5,
        nu_min=0.5, nu_max=1.5, alpha1=0.2, alpha2=0.5, g=g,
    )
    return Model.build(ModelSpec(grid, spinodal_potential(), mat, mode=mode, epsilon=epsilon, gamma=0.5))


def test_denominators_built_once_per_run(grid32):
    model = flow_model(grid32, (0.3, -1.0))
    state = smooth_flow_state(grid32)
    caches = (_helmholtz_denominator, _sine_denominators, _corner_weights)
    for cache in caches:
        cache.cache_clear()
    steps, dt = 5, 5e-4
    integrate(model, state, dt, steps * dt, ledger=EnergyLedger())
    # (1/dt, S) and (1/dt, kappa): two helmholtz_solve calls per step
    assert _helmholtz_denominator.cache_info()[:2] == (2 * steps - 2, 2)
    # one (1/dt, nu_bar) pair, looked up once per step for both no-slip solves
    assert _sine_denominators.cache_info()[:2] == (steps - 1, 1)
    # one dissipation per ledger row
    assert _corner_weights.cache_info()[:2] == (steps - 1, 1)


# ---------------------------------------------------- computed once per state


@pytest.mark.parametrize("ledgered", [False, True])
@pytest.mark.parametrize("g, per_step", [((0.0, 0.0), 0), ((0.3, -1.0), 1)])
def test_buoyancy_built_only_with_gravity(grid32, monkeypatch, ledgered, g, per_step):
    model = flow_model(grid32, g)
    state = smooth_flow_state(grid32)
    calls = count_calls(monkeypatch, nlchb.physics.buoyancy)
    steps = 3
    for _ in range(steps):
        state = advance(model, state, 5e-4, ledger=EnergyLedger() if ledgered else None)
    assert len(calls) == per_step * steps


def test_zero_gravity_work_buoy_is_zero(grid32):
    model = flow_model(grid32, (0.0, 0.0))
    ledger = EnergyLedger()
    integrate(model, smooth_flow_state(grid32), 5e-4, 2e-3, ledger=ledger)
    for row in ledger.rows:
        for name in ("work_buoy", "work_gu"):
            assert row[name] == 0.0 and not np.signbit(row[name])


def count_max_speed(monkeypatch):
    calls = []
    raw = MacVelocity.max_speed

    def counted(self):
        calls.append(self)
        return raw(self)

    monkeypatch.setattr(MacVelocity, "max_speed", counted)
    return calls


@pytest.mark.parametrize("ledgered, per_step", [(False, 0), (True, 1)])
def test_max_speed_read_only_by_the_ledger_row(grid32, monkeypatch, ledgered, per_step):
    # no step reads max |u|: the ledger row reads it once, of the new state
    model = flow_model(grid32, (0.3, -1.0))
    forcing = Forcing(z=np.full(grid32.shape, 0.1))
    ledger = EnergyLedger() if ledgered else None
    state = advance(model, smooth_flow_state(grid32), 5e-4, forcing, ledger)
    calls = count_max_speed(monkeypatch)
    for k in range(1, 4):
        state = advance(model, state, 5e-4, forcing, ledger)
        assert len(calls) == per_step * k
        if ledgered:
            assert calls[-1] is state.vel
    if ledgered:
        assert ledger.rows[-1]["max_u"] == state.vel.max_speed() > 0.0


@pytest.mark.parametrize("ledgered, per_step", [(False, 2), (True, 2)])
def test_divergence_calls_per_step(grid32, monkeypatch, ledgered, per_step):
    # two projections per step; the row's max |div u|, which is also the one
    # incompressibility check, is the trace of the deformation it already has
    model = flow_model(grid32, (0.3, -1.0))
    state = smooth_flow_state(grid32)
    calls = count_calls(monkeypatch, MacVelocity.divergence)
    steps = 4
    integrate(model, state, 5e-4, steps * 5e-4, ledger=EnergyLedger() if ledgered else None)
    assert len(calls) == per_step * steps


# ------------------------------------------ dropped after their last reader


@pytest.mark.parametrize("ledgered", [False, True])
def test_released_terms_read_again_with_the_same_bits(grid32, ledgered):
    # a state's grid arrays leave its memo after their last reader in the step
    # from it; read again, they and E are those of a fresh copy, bit for bit
    model = flow_model(grid32, (0.3, -1.0))
    forcing = Forcing(z=np.full(grid32.shape, 0.1))
    state = advance(model, smooth_flow_state(grid32), 5e-4, forcing)
    energy = model.total_energy(state)  # a memo the run's copy of state shares
    integrate(model, state, 5e-4, state.t + 3 * 5e-4, forcing,
              ledger=EnergyLedger() if ledgered else None)
    held = _terms(model, state).__dict__
    assert not {"j_phi", "mu", "g_dot_u", "viscous"} & set(held)
    assert {"energy", "interface", "integrals"} <= set(held)

    fresh = state.copy()
    assert np.float64(model.total_energy(state)).tobytes() == np.float64(energy).tobytes()
    assert np.float64(energy).tobytes() == np.float64(model.total_energy(fresh)).tobytes()
    again, new = _terms(model, state), _terms(model, fresh)
    assert_same_bits(again.mu, new.mu)
    assert_same_bits(again.g_dot_u, new.g_dot_u)
    for a, b in zip(again.viscous[:2] + again.viscous[2], new.viscous[:2] + new.viscous[2]):
        assert_same_bits(a, b)


def test_memo_keeps_no_array_of_its_own(grid32):
    # J*phi is never kept: after a step from a state and a read of its E, the
    # memo holds no grid array but its references to phi and theta
    model = flow_model(grid32, (0.3, -1.0))
    state = smooth_flow_state(grid32)
    advance(model, state, 5e-4)
    model.total_energy(state)

    def arrays(value):
        if isinstance(value, tuple):
            return [a for v in value for a in arrays(v)]
        return [value] if isinstance(value, np.ndarray) else []

    held = _terms(model, state).__dict__
    own = [name for name, value in held.items() for a in arrays(value)
           if a is not state.phi and a is not state.theta]
    assert own == []


def budget_model_and_forcing(n=32):
    """The n x n flow with gravity, variable viscosity and a heat source that
    the live-array budgets are measured on."""
    grid = make_grid(n, n, 1.0, 1.0)
    mat = MaterialParams(
        K_cap=0.05, l_c=0.5, l_h=0.5, kappa=0.2,
        nu_min=0.05, nu_max=0.2, alpha1=0.1, alpha2=1.0, g=(0.0, -5.0),
    )
    model = Model.build(ModelSpec(grid, spinodal_potential(), mat, epsilon=0.2, gamma=0.5))
    return model, Forcing(z=np.full(grid.shape, 0.1))


@contextlib.contextmanager
def traced_with_fixed_buffers():
    """tracemalloc on, with numpy's ufunc iterator buffers at 8192 elements,
    the default of numpy 2.4.6 that the budgets below were measured with:
    at 32x32 those buffers are a share of every peak, so another numpy's
    default would move the budgets with no change to nlchb. Both undone after."""
    old = np.setbufsize(8192)
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()
        np.setbufsize(old)


# Peak of the arrays one warmed-up ledgered step allocates, the memo of the
# state it makes included, in grid arrays of nx * ny float64. A step that
# keeps terms past their last reader, or builds its temporaries out of
# place, shows here: such a step held about 36.
STEP_PEAK_ARRAYS = 26


def test_ledgered_step_live_arrays_within_budget():
    model, forcing = budget_model_and_forcing()
    grid = model.grid
    ledger = EnergyLedger()
    state = advance(model, smooth_flow_state(grid), 1e-5, forcing, ledger)  # per-run caches
    with traced_with_fixed_buffers():
        state = advance(model, state, 1e-5, forcing, ledger)  # a traced state and memo
        tracemalloc.reset_peak()
        advance(model, state, 1e-5, forcing, ledger)
        _, peak = tracemalloc.get_traced_memory()
    assert peak / (grid.nx * grid.ny * 8) <= STEP_PEAK_ARRAYS


# Peak of the arrays `step_ns` alone allocates, in grid arrays. From a
# ledgered state, whose row already computed the viscous parts: a `step_ns`
# that keeps its unprojected right-hand side alive through the solves held
# 10.6 here. From an unledgered state `step_ns` computes the viscous parts
# itself and drops them after the remainder, their last reader; a `step_ns`
# that keeps them to its end held 14.5. The remainder is formed while the
# five parts (5.2 arrays) are live, and at 32x32 each strided numpy ufunc
# call also allocates about 2.2 arrays of iterator buffers, so no order of
# its differences gets that case under 10.5.
STEP_NS_PEAK_ARRAYS = 10
STEP_NS_UNLEDGERED_PEAK_ARRAYS = 12


@pytest.mark.parametrize(
    "ledgered, budget",
    [(True, STEP_NS_PEAK_ARRAYS), (False, STEP_NS_UNLEDGERED_PEAK_ARRAYS)],
    ids=["ledgered", "unledgered"],
)
def test_step_ns_live_arrays_within_budget(ledgered, budget):
    model, forcing = budget_model_and_forcing()
    grid, dt = model.grid, 1e-5
    state = smooth_flow_state(grid)
    for _ in range(2):  # per-run caches, then the start state
        state = advance(model, state, dt, forcing, EnergyLedger() if ledgered else None)
    assert ("viscous" in _terms(model, state).__dict__) == ledgered
    phi_next, mu_half = step_ch(model, state, dt)
    theta_next = step_heat(model, state, phi_next, dt, forcing.z)
    buoy = buoyancy(grid, model.material, phi_next, theta_next)
    with traced_with_fixed_buffers():
        step_ns(model, state, phi_next, theta_next, mu_half, dt, forcing.q, buoy)
        _, peak = tracemalloc.get_traced_memory()
    assert peak / (grid.nx * grid.ny * 8) <= budget


# At 128x128 numpy's iterator buffers cost about one grid array per strided
# call, against 2.2 at 32x32, so these budgets see arrays a step holds that
# the 32x32 ones cannot tell from buffers. Both count only what is allocated
# after tracing starts, with the start state, its memo and the per-run caches
# built untraced before.

# One ledgered step: a `convolve` that keeps its r2c and c2r results beside
# its two buffers, or a ledger row that squares the dissipation's parts into
# new arrays, peaked at 19.1 here.
STEP_128_PEAK_ARRAYS = 16

# At 256x256 the buffers are a smaller share still, and the peak is set by
# `dissipation`, at 14.41 arrays. A ledger row that builds `mean_h` or
# `max_div_u` with two temporaries on top of the arrays live after
# `work_terms` peaked at 15.04 here; one that holds both its temporaries at
# once, at 16.04.
STEP_256_PEAK_ARRAYS = 14.6

# `convolve`: its zero-padded input and its spectrum, 6.03 arrays; the result
# is made after the spectrum is freed. Out-of-place passes and scaling held 10.0.
CONVOLVE_128_PEAK_ARRAYS = 6.1


def ledgered_step_peak_arrays(n):
    """The traced peak of one ledgered n x n step, in grid arrays."""
    model, forcing = budget_model_and_forcing(n)
    grid, ledger = model.grid, EnergyLedger()
    state = smooth_flow_state(grid)
    for _ in range(2):  # per-run caches, then the start state and its memo
        state = advance(model, state, 1e-5, forcing, ledger)
    with traced_with_fixed_buffers():
        entry, _ = tracemalloc.get_traced_memory()
        advance(model, state, 1e-5, forcing, ledger)
        _, peak = tracemalloc.get_traced_memory()
    return (peak - entry) / (grid.nx * grid.ny * 8)


def test_ledgered_step_at_128_live_arrays_within_budget():
    assert ledgered_step_peak_arrays(128) <= STEP_128_PEAK_ARRAYS


def test_ledgered_step_at_256_live_arrays_within_budget():
    assert ledgered_step_peak_arrays(256) <= STEP_256_PEAK_ARRAYS


def test_convolve_at_128_live_arrays_within_budget():
    model, _ = budget_model_and_forcing(128)
    grid = model.grid
    phi = smooth_flow_state(grid).phi
    convolve(model.kernel, phi)  # the kernel's spectrum, built once
    with traced_with_fixed_buffers():
        entry, _ = tracemalloc.get_traced_memory()
        convolve(model.kernel, phi)
        _, peak = tracemalloc.get_traced_memory()
    assert (peak - entry) / (grid.nx * grid.ny * 8) <= CONVOLVE_128_PEAK_ARRAYS
