"""Time-stepper tests: fixed points, conservation, one-mode recurrences, order."""

import warnings

import numpy as np
import pytest

from conftest import (
    count_calls,
    smooth_flow_state,
    spinodal_material,
    spinodal_potential,
    spinodal_state,
)
import nlchb.energy
import nlchb.kernel
import nlchb.physics
from nlchb.energy import EnergyLedger, e_local, e_nl, total_energy
from nlchb.grid import MacVelocity, NonFiniteError, make_grid
from nlchb.kernel import convolve
from nlchb.physics import MaterialParams, PotentialParams, mu_local, mu_nonlocal
from nlchb.solver import (
    BlowUpError,
    Forcing,
    Model,
    SimState,
    _terms,
    advance,
    integrate,
    momentum_advection,
    project,
    step_ch,
    step_heat,
    suggest_dt,
)


def build_model(grid, mode="nonlocal", eps=0.2, pot=None, mat=None, S=None):
    return Model.build(
        grid, pot or spinodal_potential(), mat or spinodal_material(),
        mode=mode, epsilon=eps, gamma=0.5, stabilization=S,
    )


def uniform_forcing(grid, qx=0.0, z=0.0):
    """Uniform x-force qx on the faces and heat source z; a zero part is None."""
    q = (np.full((grid.nx + 1, grid.ny), qx), np.zeros((grid.nx, grid.ny + 1))) if qx else None
    return Forcing(q=q, z=np.full(grid.shape, z) if z else None)


def count_convolutions(monkeypatch):
    """Wrap kernel.convolve at every nlchb binding; returns the list of calls."""
    return count_calls(monkeypatch, nlchb.kernel.convolve)


def state_is_finite(state):
    return bool(
        np.all(np.isfinite(state.phi)) and np.all(np.isfinite(state.theta)) and state.vel.is_finite()
    )


def random_divfree(grid, seed=0, amp=1.0):
    rng = np.random.default_rng(seed)
    vel = MacVelocity(grid)
    vel.u[1:-1, :] = amp * rng.standard_normal((grid.nx - 1, grid.ny))
    vel.v[:, 1:-1] = amp * rng.standard_normal((grid.nx, grid.ny - 1))
    return project(grid, vel)


class TestStepCH:
    def test_constant_state_fixed_point(self, grid32):
        model = build_model(grid32)
        c = 0.4
        state = SimState(
            t=0.0, step=0, phi=np.full(grid32.shape, c), theta=grid32.zeros(), vel=MacVelocity(grid32)
        )
        phi_next, _ = step_ch(model, state, 1e-3)
        assert np.abs(phi_next - c).max() <= 1e-13

    def test_mass_conserved_under_divfree_advection(self, grid32):
        model = build_model(grid32)
        vel = random_divfree(grid32, seed=3)
        state = spinodal_state(grid32)
        state.vel = vel
        m0 = float(state.phi.mean())
        for _ in range(100):
            phi_next, _ = step_ch(model, state, 5e-4)
            state.phi = phi_next
        assert abs(float(state.phi.mean()) - m0) <= 1e-12

    def test_local_linearized_one_mode_decay(self):
        # F' = 0: exact recurrence factor (1/dt + S lam) / (1/dt + S lam + lam^2)
        grid = make_grid(32, 32, 1.0, 1.0)
        pot = PotentialParams(eta_f=0.0)
        model = build_model(grid, mode="local", pot=pot, S=2.0)
        X, _ = grid.cell_centers()
        phi = np.cos(np.pi * X)
        state = SimState(t=0.0, step=0, phi=phi, theta=grid.zeros(), vel=MacVelocity(grid))
        dt = 1e-2
        lam = (2.0 / grid.dx**2) * (1.0 - np.cos(np.pi / grid.nx))
        factor = (1.0 / dt + 2.0 * lam) / (1.0 / dt + 2.0 * lam + lam**2)
        phi_next, _ = step_ch(model, state, dt)
        assert np.abs(phi_next - factor * phi).max() <= 1e-12 * abs(factor)


class TestStepHeat:
    def test_pure_heat_one_mode_decay(self, grid32):
        model = build_model(grid32)
        X, _ = grid32.cell_centers()
        c = 0.3
        phi = np.full(grid32.shape, c)
        theta = np.cos(np.pi * X)
        state = SimState(t=0.0, step=0, phi=phi, theta=theta, vel=MacVelocity(grid32))
        dt = 2e-3
        lam = (2.0 / grid32.dx**2) * (1.0 - np.cos(np.pi / grid32.nx))
        theta_next = step_heat(model, state, phi, dt, None)
        factor = 1.0 / (1.0 + dt * model.material.kappa * lam)
        assert np.abs(theta_next - factor * theta).max() <= 1e-11

    def test_constant_source_grows_mean(self, grid32):
        model = build_model(grid32)
        state = spinodal_state(grid32)
        dt, c = 1e-3, 2.5
        z = np.full(grid32.shape, c)
        theta_next = step_heat(model, state, state.phi, dt, z)
        assert float(theta_next.mean()) - float(state.theta.mean()) == pytest.approx(
            dt * c, rel=1e-12
        )

    def test_latent_balance_mean_conserved(self, grid32):
        # g = 0, z = 0, u = 0: mean(theta - l_h phi) is exactly conserved
        model = build_model(grid32)
        state = spinodal_state(grid32)
        state.theta = 0.1 * state.phi
        lh = model.material.l_h
        h0 = float(np.mean(state.theta - lh * state.phi))
        for _ in range(20):
            phi_next, _ = step_ch(model, state, 1e-3)
            theta_next = step_heat(model, state, phi_next, 1e-3, None)
            state.phi, state.theta = phi_next, theta_next
            h1 = float(np.mean(state.theta - lh * state.phi))
            assert abs(h1 - h0) <= 1e-12
            h0 = h1


class TestStepNS:
    def test_zero_forces_keep_rest(self, grid32):
        model = build_model(grid32)
        state = SimState(
            t=0.0, step=0, phi=np.full(grid32.shape, 1.0), theta=grid32.zeros(), vel=MacVelocity(grid32)
        )
        nxt = advance(model, state, 1e-3)
        assert nxt.vel.max_speed() <= 1e-14

    def test_hydrostatic_rest_with_constant_buoyancy(self, grid32):
        mat = MaterialParams(
            K_cap=0.05, l_c=0.5, l_h=0.5, alpha0=1.0, g=(0.0, -9.8), nu_min=1.0, nu_max=1.0
        )
        model = build_model(grid32, mat=mat)
        state = SimState(
            t=0.0, step=0, phi=np.full(grid32.shape, 1.0), theta=grid32.zeros(), vel=MacVelocity(grid32)
        )
        for _ in range(3):
            state = advance(model, state, 1e-3)
        assert state.vel.max_speed() <= 1e-12
        assert np.abs(state.phi - 1.0).max() <= 1e-12

    def test_projection_after_step_divfree(self, grid32):
        model = build_model(grid32)
        state = spinodal_state(grid32)
        state.vel = random_divfree(grid32, seed=11)
        nxt = advance(model, state, 1e-4)
        assert np.abs(nxt.vel.divergence()).max() <= 1e-10


class TestProjection:
    def test_gradient_field_annihilated(self, grid32):
        X, Y = grid32.cell_centers()
        chi = np.cos(np.pi * X) * np.cos(2.0 * np.pi * Y)
        vel = MacVelocity(grid32)
        vel.u[1:-1, :] = np.diff(chi, axis=0) / grid32.dx
        vel.v[:, 1:-1] = np.diff(chi, axis=1) / grid32.dy
        out = project(grid32, vel)
        assert max(np.abs(out.u).max(), np.abs(out.v).max()) <= 1e-10

    def test_divfree_unchanged(self, grid32):
        vel = random_divfree(grid32, seed=2)
        out = project(grid32, vel)
        scale = max(vel.max_speed(), 1.0)
        assert np.abs(out.u - vel.u).max() <= 1e-12 * scale
        assert np.abs(out.v - vel.v).max() <= 1e-12 * scale

    def test_idempotent(self, grid32):
        vel = MacVelocity(grid32)
        rng = np.random.default_rng(7)
        vel.u[1:-1, :] = rng.standard_normal((grid32.nx - 1, grid32.ny))
        vel.v[:, 1:-1] = rng.standard_normal((grid32.nx, grid32.ny - 1))
        p1 = project(grid32, vel)
        p2 = project(grid32, p1)
        assert np.abs(p2.u - p1.u).max() <= 1e-12
        assert np.abs(p2.v - p1.v).max() <= 1e-12

    def test_skew_symmetric_advection(self):
        grid = make_grid(32, 48, 1.0, 1.5)
        vel = random_divfree(grid, seed=5)
        adv_u, adv_v = momentum_advection(grid, vel)
        ip = (
            np.sum(adv_u * vel.u[1:-1, :]) + np.sum(adv_v * vel.v[:, 1:-1])
        ) * grid.cell_area
        scale = (np.sum(vel.u**2) + np.sum(vel.v**2)) * grid.cell_area
        assert abs(ip) <= 1e-12 * scale


class TestAdvance:
    def test_rest_equilibrium_exact_fixed_point(self, grid32):
        model = build_model(grid32)
        for value in (-1.0, 1.0):
            state = SimState(
                t=0.0,
                step=0,
                phi=np.full(grid32.shape, value),
                theta=grid32.zeros(),
                vel=MacVelocity(grid32),
            )
            nxt = advance(model, state, 1e-3)
            assert np.abs(nxt.phi - value).max() <= 1e-12
            assert np.abs(nxt.theta).max() <= 1e-12
            assert nxt.vel.max_speed() <= 1e-12

    def test_first_order_richardson(self, grid64):
        # mild potential keeps the comparison in the asymptotic-in-dt regime
        model = build_model(grid64, pot=PotentialParams(eta_f=1.0))
        h, T = 1.25e-5, 2e-3
        ends = [integrate(model, smooth_flow_state(grid64), mult * h, T).phi for mult in (4, 2, 1)]
        e1 = np.sqrt(np.sum((ends[0] - ends[1]) ** 2) * grid64.cell_area)
        e2 = np.sqrt(np.sum((ends[1] - ends[2]) ** 2) * grid64.cell_area)
        order = np.log2(e1 / e2)
        assert 0.8 <= order <= 1.2

    def test_deterministic_bitwise(self, grid32):
        results = []
        for _ in range(2):
            model = build_model(grid32)
            state = spinodal_state(grid32)
            for _ in range(10):
                state = advance(model, state, 1e-3)
            results.append(state)
        assert np.array_equal(results[0].phi, results[1].phi)
        assert np.array_equal(results[0].theta, results[1].theta)
        assert np.array_equal(results[0].vel.u, results[1].vel.u)
        assert np.array_equal(results[0].vel.v, results[1].vel.v)

    def test_blow_up_raises_with_state(self, grid32):
        mat = MaterialParams(
            K_cap=10.0, l_c=0.5, l_h=0.5, alpha2=5.0, g=(0.0, -10.0), nu_min=0.01, nu_max=0.01
        )
        model = build_model(grid32, mat=mat)
        state = spinodal_state(grid32)
        state.theta = np.cos(np.pi * grid32.cell_centers()[0])
        with pytest.raises(BlowUpError) as info:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                for _ in range(200):
                    state = advance(model, state, 10.0)
        assert state_is_finite(info.value.state)

    def test_blow_up_carries_last_good_state(self, grid32):
        mat = MaterialParams(
            K_cap=10.0, l_c=0.5, l_h=0.5, alpha2=5.0, g=(0.0, -10.0), nu_min=0.01, nu_max=0.01
        )
        model = build_model(grid32, mat=mat)
        state = spinodal_state(grid32)
        state.theta = np.cos(np.pi * grid32.cell_centers()[0])
        ledger = EnergyLedger()
        with pytest.raises(BlowUpError) as info:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                for _ in range(200):
                    state = advance(model, state, 10.0, ledger=ledger)
        assert info.value.state is state
        assert state_is_finite(state)
        assert len(ledger.rows) == state.step

    def test_overflow_is_typed_non_finite_blow_up(self, grid32):
        # F'(phi) overflows to inf, which the spectral solve's finiteness check
        # reports as NonFiniteError; advance turns it into a blow-up
        model = build_model(grid32)
        state = spinodal_state(grid32)
        state.phi = 1e120 * state.phi
        with pytest.raises(BlowUpError) as info:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                advance(model, state, 1e-3, ledger=EnergyLedger())
        assert info.value.state is state
        assert isinstance(info.value.__cause__, NonFiniteError)

    def test_ledger_rows_appended(self, grid32):
        model = build_model(grid32)
        ledger = EnergyLedger()
        integrate(model, spinodal_state(grid32), 1e-3, 5e-3, ledger=ledger)
        assert len(ledger.rows) == 5
        assert np.all(np.diff(ledger.column("t")) > 0)

    def test_invariant_checks_accept_healthy_steps(self, grid32):
        model = build_model(grid32)
        state = spinodal_state(grid32)
        for _ in range(5):
            state = advance(model, state, 1e-3, check_invariants=True)

    def test_run_to_cadence_callback(self, grid32):
        # integrate calls on_step after every step; a cadence is the caller's filter
        model = build_model(grid32)
        seen = []

        def on_step(state):
            if state.step % 3 == 0:
                seen.append(state.step)

        integrate(model, spinodal_state(grid32), 1e-3, 1e-2, on_step=on_step)
        assert seen == [3, 6, 9]

    @pytest.mark.parametrize("mode", ["nonlocal", "local"])
    def test_anisotropic_grid_full_coupling(self, mode):
        # rectangular cells, all couplings active: invariants must still hold
        grid = make_grid(16, 24, 1.0, 1.5)
        mat = MaterialParams(
            K_cap=0.1, l_c=0.5, l_h=0.5, kappa=0.5,
            nu_min=0.5, nu_max=1.5, alpha0=0.1, alpha1=0.2, alpha2=0.5, g=(0.3, -1.0),
        )
        pot = PotentialParams(eta_f=5.0)
        model = Model.build(grid, pot, mat, mode=mode, epsilon=0.4, gamma=0.6)
        X, Y = grid.cell_centers()
        state = SimState(
            t=0.0,
            step=0,
            phi=0.3 * np.cos(2 * np.pi * X) * np.cos(np.pi * Y / 1.5),
            theta=0.2 * np.cos(np.pi * X),
            vel=MacVelocity(grid),
        )
        m0 = float(state.phi.mean())
        forcing = uniform_forcing(grid, qx=0.05, z=0.1)
        for _ in range(25):
            state = advance(model, state, 1e-3, forcing)
        assert state_is_finite(state)
        assert abs(float(state.phi.mean()) - m0) <= 1e-12
        assert np.abs(state.vel.divergence()).max() <= 1e-10
        assert state.vel.max_speed() > 0.0  # couplings actually stirred the flow


def coupled_flow_setup(grid, mode):
    """Model, moving initial state and forcing with every coupling active."""
    mat = MaterialParams(
        K_cap=0.05, l_c=0.5, l_h=0.5, kappa=0.5,
        nu_min=0.5, nu_max=1.5, alpha1=0.2, alpha2=0.5, g=(0.3, -1.0),
    )
    model = build_model(grid, mode=mode, mat=mat)
    return model, smooth_flow_state(grid), uniform_forcing(grid, qx=0.05, z=0.1)


def assert_same_state(s1, s2):
    assert s1.t == s2.t and s1.step == s2.step
    assert np.array_equal(s1.phi, s2.phi)
    assert np.array_equal(s1.theta, s2.theta)
    assert np.array_equal(s1.vel.u, s2.vel.u)
    assert np.array_equal(s1.vel.v, s2.vel.v)


@pytest.mark.parametrize("mode", ["nonlocal", "local"])
class TestSharedChemicalPotential:
    """advance derives mu, E_interface and E_total of a state from one J*phi,
    and the next step_ch reads that mu back; none of it may change a bit."""

    dt = 5e-4
    steps = 4

    def test_ledger_does_not_change_states(self, grid32, mode, monkeypatch):
        model, state0, forcing = coupled_flow_setup(grid32, mode)
        plain, kept = state0, state0.copy()
        ledger = EnergyLedger()
        assert plain.vel.max_speed() > 0.0
        energies = count_calls(monkeypatch, nlchb.energy.total_energy)
        for _ in range(self.steps):
            plain = advance(model, plain, self.dt, forcing)
            kept = advance(model, kept, self.dt, forcing, ledger=ledger)
            assert_same_state(plain, kept)
        assert len(ledger.rows) == self.steps
        # every E is the ledgered run's: its start state's and one per step
        assert len(energies) == self.steps + 1

    def test_ledger_energies_match_model(self, grid32, mode):
        model, state, forcing = coupled_flow_setup(grid32, mode)
        g, pot, mat = grid32, model.potential, model.material
        ledger = EnergyLedger()
        for _ in range(self.steps):
            state = advance(model, state, self.dt, forcing, ledger=ledger)
            row = ledger.rows[-1]
            phi, theta = state.phi, state.theta
            if mode == "nonlocal":
                interface = e_nl(model.kernel, model.a, phi)
                j_phi = convolve(model.kernel, phi)
                mu = mu_nonlocal(phi, theta, model.kernel, model.a, pot, mat, j_phi)
            else:
                interface = e_local(g, phi)
                mu = mu_local(g, phi, theta, pot, mat)
            energy = total_energy(g, phi, theta, state.vel, mode, pot, mat, model.kernel, model.a)
            assert row["E_interface"] == interface
            assert row["E_total"] == energy
            assert model.total_energy(state) == row["E_total"]
            assert np.array_equal(_terms(model, state).mu, mu)

    def test_ledger_energy_parts_match_their_formulas(self, grid32, mode):
        # F_integral, kinetic and thermal share the integrals of E_total
        model, state, forcing = coupled_flow_setup(grid32, mode)
        pot, mat, area = model.potential, model.material, grid32.cell_area
        ledger = EnergyLedger()
        for _ in range(self.steps):
            state = advance(model, state, self.dt, forcing, ledger=ledger)
            row = ledger.rows[-1]
            u_sq = np.sum(state.vel.u**2) + np.sum(state.vel.v**2)
            assert row["F_integral"] == pot.eta_f * float(np.sum(pot.f(state.phi)) * area)
            assert row["kinetic"] == float(u_sq * area) / (2.0 * mat.K_cap * mat.l_c)
            assert row["thermal"] == float(np.sum(state.theta**2) * area) / (2.0 * mat.l_h)
            assert row["E_total"] == model.total_energy(state)

    def test_missing_mu_is_recomputed(self, grid32, mode):
        model, state, forcing = coupled_flow_setup(grid32, mode)
        ledger = EnergyLedger()
        state = advance(model, state, self.dt, forcing, ledger=ledger)
        resumed, resumed_ledger = state.copy(), EnergyLedger()
        ledger.rows.clear()
        for _ in range(self.steps):
            state = advance(model, state, self.dt, forcing, ledger=ledger)
            resumed = advance(model, resumed, self.dt, forcing, ledger=resumed_ledger)
            assert_same_state(state, resumed)
            assert np.array_equal(_terms(model, state).mu, _terms(model, resumed).mu)
        assert resumed_ledger.rows == ledger.rows

    def test_one_convolution_per_ledgered_step(self, grid32, mode, monkeypatch):
        model, state, forcing = coupled_flow_setup(grid32, mode)
        ledger = EnergyLedger()
        state = advance(model, state, self.dt, forcing, ledger=ledger)
        calls = count_convolutions(monkeypatch)
        for k in range(1, self.steps):
            state = advance(model, state, self.dt, forcing, ledger=ledger)
            assert len(calls) == (k if mode == "nonlocal" else 0)
        # a state without mu costs one more convolution, in its step_ch
        advance(model, state.copy(), self.dt, forcing, ledger=ledger)
        assert len(calls) == (self.steps + 1 if mode == "nonlocal" else 0)


@pytest.mark.parametrize("mode", ["nonlocal", "local"])
class TestCarriedTerms:
    """A ledgered advance leaves mu, E, the viscous parts and g . u on the
    state it produces, and the next step reads them instead of recomputing
    them; none of it may change a bit."""

    dt = 5e-4
    steps = 4

    def test_copies_drop_carried_terms_and_change_no_bit(self, grid32, mode, monkeypatch):
        model, state0, forcing = coupled_flow_setup(grid32, mode)
        carried, carried_ledger = state0, EnergyLedger()
        fresh, fresh_ledger = state0, EnergyLedger()
        counted = {
            "convolve": count_calls(monkeypatch, nlchb.kernel.convolve),
            "mac_deformation": count_calls(monkeypatch, nlchb.energy.mac_deformation),
        }
        for _ in range(self.steps):
            carried = advance(model, carried, self.dt, forcing, ledger=carried_ledger)
            fresh = advance(model, fresh.copy(), self.dt, forcing, ledger=fresh_ledger)
            assert_same_state(carried, fresh)
        assert carried_ledger.rows == fresh_ledger.rows
        # the carried run computes each term once per state; each copy computes
        # its start state's terms again
        for name, calls in counted.items():
            expected = 0 if name == "convolve" and mode == "local" else 3 * self.steps + 1
            assert len(calls) == expected, name

    def test_reassigned_fields_are_read_afresh(self, grid32, mode):
        model, state, forcing = coupled_flow_setup(grid32, mode)
        other = advance(model, state, self.dt, forcing)
        advance(model, state, self.dt, forcing, ledger=EnergyLedger())  # fills state's terms
        state.phi, state.theta, state.vel = other.phi, other.theta, other.vel
        fresh = SimState(t=state.t, step=state.step, phi=other.phi, theta=other.theta, vel=other.vel)
        ledger, fresh_ledger = EnergyLedger(), EnergyLedger()
        stepped = advance(model, state, self.dt, forcing, ledger=ledger)
        assert_same_state(stepped, advance(model, fresh, self.dt, forcing, ledger=fresh_ledger))
        assert ledger.rows == fresh_ledger.rows

    def test_each_state_term_computed_once_per_ledgered_step(self, grid32, mode, monkeypatch):
        model, state, forcing = coupled_flow_setup(grid32, mode)
        ledger = EnergyLedger()
        state = advance(model, state, self.dt, forcing, ledger=ledger)
        assert state.vel.max_speed() > 0.0
        counted = {
            "convolve": count_calls(monkeypatch, nlchb.kernel.convolve),
            "mac_deformation": count_calls(monkeypatch, nlchb.energy.mac_deformation),
            "viscosity": count_calls(monkeypatch, nlchb.physics.viscosity),
            "buoyancy": count_calls(monkeypatch, nlchb.physics.buoyancy),
        }
        for k in range(1, self.steps):
            state = advance(model, state, self.dt, forcing, ledger=ledger)
            for name, calls in counted.items():
                expected = 0 if name == "convolve" and mode == "local" else k
                assert len(calls) == expected, name


class TestIntegrate:
    def test_steps_while_t_below_t_end_minus_half_dt(self, grid32):
        model = build_model(grid32)
        dt = 1e-3
        assert integrate(model, spinodal_state(grid32), dt, 2.4 * dt).step == 2
        assert integrate(model, spinodal_state(grid32), dt, 2.6 * dt).step == 3
        start = spinodal_state(grid32)
        assert integrate(model, start, dt, 0.4 * dt) is start

    def test_ledgered_run_convolves_once_per_state(self, grid32, monkeypatch):
        # the initial state's mu and energy share one J*phi, then one per step
        model = build_model(grid32)
        state = spinodal_state(grid32)
        calls = count_convolutions(monkeypatch)
        steps = 5
        end = integrate(model, state, 1e-3, steps * 1e-3, ledger=EnergyLedger())
        assert end.step == steps
        assert len(calls) == steps + 1
        # the caller's state kept no terms of the run: a second run pays the same
        integrate(model, state, 1e-3, steps * 1e-3, ledger=EnergyLedger())
        assert len(calls) == 2 * (steps + 1)

    def test_start_state_from_another_model_changes_no_bit(self, grid32):
        # the start state ends a ledgered run of another model; this run must
        # not step it from that run's terms
        other, model = build_model(grid32, eps=0.25), build_model(grid32, eps=0.2)
        start = integrate(other, spinodal_state(grid32), 1e-3, 3e-3, ledger=EnergyLedger())
        ledger, fresh_ledger = EnergyLedger(), EnergyLedger()
        end = integrate(model, start, 1e-3, 7e-3, ledger=ledger)
        fresh = integrate(model, start.copy(), 1e-3, 7e-3, ledger=fresh_ledger)
        assert_same_state(end, fresh)
        assert ledger.rows == fresh_ledger.rows

    def test_ledgered_run_matches_advance_loop(self, grid32):
        model, state, forcing = coupled_flow_setup(grid32, "nonlocal")
        looped, ledger = state, EnergyLedger()
        for _ in range(4):
            looped = advance(model, looped, 5e-4, forcing, ledger=ledger)
        integrated = EnergyLedger()
        end = integrate(model, state, 5e-4, 2e-3, forcing, ledger=integrated)
        assert_same_state(end, looped)
        assert integrated.rows == ledger.rows


class TestBuildAndDtValidation:
    def test_unknown_mode_rejected(self, grid32):
        with pytest.raises(ValueError, match="unknown mode"):
            build_model(grid32, mode="spectral")

    def test_negative_stabilization_rejected(self, grid32):
        with pytest.raises(ValueError, match="nonnegative"):
            build_model(grid32, mode="local", S=-1.0)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, float("nan")])
    def test_nonpositive_dt_rejected(self, grid32, dt):
        model = build_model(grid32, mode="local")
        with pytest.raises(ValueError, match="dt must be positive"):
            integrate(model, spinodal_state(grid32), dt, 1e-2)

    @pytest.mark.parametrize("safety", [0.0, 1.5])
    def test_safety_outside_unit_interval_rejected(self, grid32, safety):
        model = build_model(grid32, mode="local")
        with pytest.raises(ValueError, match="safety"):
            suggest_dt(model, spinodal_state(grid32), safety)


class TestEnergyDecay:
    def test_unforced_energy_monotone_at_suggested_dt(self, grid64):
        model = build_model(grid64)
        state = spinodal_state(grid64)
        dt = suggest_dt(model, state, 0.4)
        ledger = EnergyLedger()
        integrate(model, state, dt, 0.1, ledger=ledger)
        E = ledger.column("E_total")
        assert np.diff(E).max() <= 1e-8 * E[0]

    def test_pure_diffusion_energy_monotone(self, grid32):
        # frozen u = 0, theta = 0: interface + bulk energy decays every step
        model = build_model(grid32)
        state = spinodal_state(grid32)
        prev = None
        for _ in range(50):
            phi_next, _ = step_ch(model, state, 1e-3)
            state.phi = phi_next
            e = e_nl(model.kernel, model.a, state.phi) + 2.0 * model.potential.eta_f * float(
                np.sum(model.potential.f(state.phi)) * grid32.cell_area
            )
            if prev is not None:
                assert e <= prev + 1e-10 * abs(prev)
            prev = e


class TestSuggestDt:
    def test_rest_state_uses_kernel_bound(self, grid64):
        model = build_model(grid64)
        state = spinodal_state(grid64)
        dt = suggest_dt(model, state, 0.4)
        assert dt == pytest.approx(0.4 / float(model.a.max()), rel=1e-12)

    def test_doubling_speed_halves_advective_bound(self, grid64):
        model = build_model(grid64)
        state = spinodal_state(grid64)
        state.vel.u[1:-1, :] = 500.0  # make advection binding
        dt1 = suggest_dt(model, state, 0.4)
        state.vel.u[1:-1, :] = 1000.0
        dt2 = suggest_dt(model, state, 0.4)
        assert dt1 == pytest.approx(2.0 * dt2, rel=1e-12)

    def test_local_mode_capped(self, grid32):
        model = build_model(grid32, mode="local")
        state = SimState(
            t=0.0, step=0, phi=grid32.zeros(), theta=grid32.zeros(), vel=MacVelocity(grid32)
        )
        assert suggest_dt(model, state, 0.5) == pytest.approx(0.5)


class TestForcing:
    def test_forced_mean_theta_growth_through_advance(self, grid32):
        model = build_model(grid32)
        state = spinodal_state(grid32)
        forcing = Forcing(z=np.full(grid32.shape, 1.0))
        nxt = advance(model, state, 1e-3, forcing)
        dh = float(np.mean(nxt.theta - model.material.l_h * nxt.phi)) - float(
            np.mean(state.theta - model.material.l_h * state.phi)
        )
        assert dh == pytest.approx(1e-3, rel=1e-10)
