"""Per-run and per-state terms of a step are built once and change no bit.

The oracles below are the formulas these functions used before their
denominators, weights and scans were cached or shared; every comparison is
on the raw bytes, so a flipped sign of zero counts as a difference.
"""

import tracemalloc

import numpy as np
import pytest
from scipy import fft as _fft

from conftest import count_calls, smooth_flow_state, spinodal_potential
import nlchb.physics
from nlchb.energy import EnergyLedger, _corner_weights, _nu_at_corners
from nlchb.grid import (
    MacVelocity,
    _helmholtz_denominator,
    dct2_inverse,
    dct2_transform,
    helmholtz_solve,
    make_grid,
)
from nlchb.physics import MaterialParams, buoyancy
from nlchb.solver import (
    Forcing,
    Model,
    _implicit_solve,
    _projection_eigenvalues,
    _sine_denominators,
    _terms,
    advance,
    integrate,
    project,
    step_ch,
    step_heat,
    step_ns,
)

SHAPES = [(9, 13), (16, 24), (33, 17), (64, 64)]
SCALES = [1e-8, 1.0, 1e3]


# ---------------------------------------------------------------- oracles


def oracle_helmholtz_solve(grid, alpha, beta, rhs):
    coeffs = dct2_transform(rhs)
    return dct2_inverse(coeffs / (alpha + beta * grid.laplacian_eigenvalues()))


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

    def test_corner_weights(self, shape):
        g = self.grid(shape)
        assert_same_bits(_corner_weights(g), oracle_corner_weights(g))

    def test_nu_at_corners(self, shape):
        g = self.grid(shape)
        rng = np.random.default_rng(5)
        for scale in SCALES:
            nu = scale * rng.uniform(0.05, 0.2, g.shape)
            assert_same_bits(_nu_at_corners(g, nu), oracle_nu_at_corners(g, nu))


def test_cached_arrays_are_read_only():
    g = make_grid(9, 13, 1.0, 1.3)
    arrays = [
        _helmholtz_denominator(g, 2.0, 0.5),
        *_sine_denominators(g, 2.0, 0.5),
        _projection_eigenvalues(g),
        _corner_weights(g),
    ]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0
    assert g.laplacian_eigenvalues()[0, 0] == 0.0


# ------------------------------------------------------ built once per run


def flow_model(grid, g):
    mat = MaterialParams(
        K_cap=0.05, l_c=0.5, l_h=0.5, kappa=0.5,
        nu_min=0.5, nu_max=1.5, alpha1=0.2, alpha2=0.5, g=g,
    )
    return Model.build(grid, spinodal_potential(), mat, epsilon=0.2, gamma=0.5)


def test_denominators_built_once_per_run(grid32):
    model = flow_model(grid32, (0.3, -1.0))
    state = smooth_flow_state(grid32)
    caches = (_helmholtz_denominator, _sine_denominators, _projection_eigenvalues, _corner_weights)
    for cache in caches:
        cache.cache_clear()
    steps, dt = 5, 5e-4
    integrate(model, state, dt, steps * dt, ledger=EnergyLedger())
    # (1/dt, S) and (1/dt, kappa): two helmholtz_solve calls per step
    assert _helmholtz_denominator.cache_info()[:2] == (2 * steps - 2, 2)
    # one (1/dt, nu_bar) pair, looked up once per step for both no-slip solves
    assert _sine_denominators.cache_info()[:2] == (steps - 1, 1)
    # two projections per step
    assert _projection_eigenvalues.cache_info()[:2] == (2 * steps - 1, 1)
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


@pytest.mark.parametrize("ledgered", [False, True])
def test_max_speed_once_per_step(grid32, monkeypatch, ledgered):
    model = flow_model(grid32, (0.3, -1.0))
    forcing = Forcing(z=np.full(grid32.shape, 0.1))
    ledger = EnergyLedger() if ledgered else None
    state = advance(model, smooth_flow_state(grid32), 5e-4, forcing, ledger)
    assert state.vel.max_speed() > 0.0
    calls = count_max_speed(monkeypatch)
    for k in range(1, 4):
        previous = state
        state = advance(model, state, 5e-4, forcing, ledger)
        assert len(calls) == k
        # read by the ledger row of the new state, else by the step from the old one
        assert calls[-1] is (state.vel if ledgered else previous.vel)
    if ledgered:
        assert ledger.rows[-1]["max_u"] == state.vel.max_speed()


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
    assert {"energy", "interface", "integrals", "max_u"} <= set(held)

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


def budget_model_and_forcing():
    """The 32x32 flow with gravity, variable viscosity and a heat source that
    the live-array budgets are measured on."""
    grid = make_grid(32, 32, 1.0, 1.0)
    mat = MaterialParams(
        K_cap=0.05, l_c=0.5, l_h=0.5, kappa=0.2,
        nu_min=0.05, nu_max=0.2, alpha1=0.1, alpha2=1.0, g=(0.0, -5.0),
    )
    model = Model.build(grid, spinodal_potential(), mat, epsilon=0.2, gamma=0.5)
    return model, Forcing(z=np.full(grid.shape, 0.1))


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
    tracemalloc.start()
    try:
        state = advance(model, state, 1e-5, forcing, ledger)  # a traced state and memo
        tracemalloc.reset_peak()
        advance(model, state, 1e-5, forcing, ledger)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (grid.nx * grid.ny * 8) <= STEP_PEAK_ARRAYS


# Peak of the arrays `step_ns` alone allocates, in grid arrays, stepping from
# a state whose viscous parts its ledger row already computed. The ledger row
# sets the peak of a whole step, so this is where a `step_ns` that keeps its
# unprojected right-hand side alive through the solves shows: it held 10.6.
STEP_NS_PEAK_ARRAYS = 10


def test_step_ns_live_arrays_within_budget():
    model, forcing = budget_model_and_forcing()
    grid, dt = model.grid, 1e-5
    state = smooth_flow_state(grid)
    for _ in range(2):  # per-run caches, then a state with a ledgered memo
        state = advance(model, state, dt, forcing, EnergyLedger())
    phi_next, mu_half = step_ch(model, state, dt)
    theta_next = step_heat(model, state, phi_next, dt, forcing.z)
    buoy = buoyancy(grid, model.material, phi_next, theta_next)
    tracemalloc.start()
    try:
        step_ns(model, state, phi_next, theta_next, mu_half, dt, forcing.q, buoy)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (grid.nx * grid.ny * 8) <= STEP_NS_PEAK_ARRAYS
