"""First-order IMEX time integration of the coupled phase-field/heat/flow system.

One step advances phi -> theta -> velocity, each consuming the freshest
available fields:

  * phi: stabilized IMEX update. The chemical potential is frozen at the old
    state and augmented with S (phi^{n+1} - phi^n); in local mode the -Delta
    part of mu is taken implicitly as well (biharmonic symbol, diagonal in the
    cosine basis). Advection uses the conservative flux form, so the discrete
    mean of phi is conserved exactly when the carrier is discretely
    divergence-free.
  * theta: implicit diffusion for the Caginalp balance of h = theta - l_h phi,
    conservative advection of h, explicit g.u and source.
  * velocity: explicit momentum advection in the energy-conserving flux form
    (midpoint interpolations on the staggered grid), implicit constant-
    coefficient viscosity nu_bar (sine-basis solves respecting no-slip),
    explicit variable-viscosity remainder, explicit capillary and buoyancy
    forces, then projection onto the discretely divergence-free space through
    a Neumann pressure Poisson solve.

Scalars live in the cosine basis of the Neumann Laplacian; the velocity
deliberately uses the staggered-grid projection method instead of a solenoidal
eigenbasis (no closed form on a no-slip box), which is the one structural
liberty taken with the continuous formulation.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as _fft

from .energy import (
    EnergyLedger,
    _energy_integrals,
    _viscous_parts,
    dissipation,
    e_local,
    e_nl,
    energy_budget_residual,
    total_energy,
    work_terms,
)
from .grid import (
    Grid,
    MacVelocity,
    centers_to_xfaces,
    centers_to_yfaces,
    dct2_inverse,
    dct2_transform,
    helmholtz_solve,
    laplacian_neumann,
)
from .kernel import KernelGrid, calibrate_mollifier, compute_a, convolve, sample_kernel
from .physics import (
    MaterialParams,
    PotentialParams,
    buoyancy,
    mu_local,
    mu_nonlocal,
)

__all__ = [
    "BlowUpError",
    "InvariantError",
    "SimState",
    "Model",
    "Forcing",
    "step_ch",
    "step_heat",
    "step_ns",
    "project",
    "advance",
    "suggest_dt",
    "integrate",
]

SUGGEST_DT_CAP = 1.0
INVARIANT_TOL = 1e-10


class BlowUpError(RuntimeError):
    """A step made NaN or inf fields or ledger values; carries its start state."""

    def __init__(self, message: str, state: "SimState"):
        super().__init__(message)
        self.state = state


class InvariantError(BlowUpError):
    """A ledgered step broke mass or incompressibility; carries its start state."""


@dataclass
class SimState:
    """Time-stepped solution: t, step, phi, theta and the velocity.

    The terms derived from a state (mu, E, the viscous parts, ...) are not
    fields: each is computed the first time a model's step or ledger reads
    it, and kept for later reads under that model (see `_Terms`). The scalar
    terms (E, the interface energy, the energy integrals, max |u|) outlive a
    step from the state; its grid arrays (mu, g . u, the viscous parts) are
    dropped by `advance` after their last reader in that step, and a later
    read computes them again, bit for bit. A read under another model, or
    after phi, theta or vel was reassigned, starts a fresh memo. Arrays
    written in place are not noticed: change a state by assigning new arrays
    or by making a new one (`copy()`, `replace`).
    """

    t: float
    step: int
    phi: np.ndarray
    theta: np.ndarray
    vel: MacVelocity
    _terms: "_Terms | None" = field(default=None, init=False, repr=False, compare=False)

    def copy(self) -> "SimState":
        """Deep copy of t, step, phi, theta and vel; the memo is dropped."""
        return SimState(
            t=self.t,
            step=self.step,
            phi=self.phi.copy(),
            theta=self.theta.copy(),
            vel=self.vel.copy(),
        )


@dataclass
class Model:
    """Grid, physics, kernel data, and the resolved stabilization constant."""

    grid: Grid
    potential: PotentialParams
    material: MaterialParams
    mode: str
    kernel: KernelGrid | None = None
    a: np.ndarray | None = None
    stabilization: float = 0.0

    @classmethod
    def build(
        cls,
        grid: Grid,
        potential: PotentialParams,
        material: MaterialParams,
        *,
        mode: str = "nonlocal",
        epsilon: float = 0.1,
        gamma: float = 0.5,
        shape_id: str = "bump",
        stabilization: float | None = None,  # None -> default rule
    ) -> "Model":
        if mode not in ("nonlocal", "local"):
            raise ValueError(f"unknown mode {mode!r}")
        if stabilization is not None and stabilization < 0.0:
            raise ValueError("stabilization must be nonnegative")
        kernel = None
        a = None
        if mode == "nonlocal":
            mollifier = calibrate_mollifier(gamma, d=2, shape_id=shape_id)
            kernel = sample_kernel(mollifier, epsilon, grid)
            a = compute_a(kernel)
        S = stabilization
        if S is None:
            S = default_stabilization(potential, a)
        return cls(
            grid=grid,
            potential=potential,
            material=material,
            mode=mode,
            kernel=kernel,
            a=a,
            stabilization=float(S),
        )

    def total_energy(self, state: "SimState") -> float:
        """E of `state` under this model."""
        return _terms(self, state).energy


def default_stabilization(potential: PotentialParams, a: np.ndarray | None) -> float:
    """S = (|a|_inf + eta_f max_{|s|<=2} |F''|) / 2 + 1.

    The sum (not the max) of the two stiffness scales is required: the explicit
    part of the phi update carries a(x) and eta_f F'' together, and 2S must
    dominate their sum for the large-step linear stability of the split.
    """
    s = np.linspace(-2.0, 2.0, 801)
    curvature = potential.eta_f * float(np.abs(potential.ddf(s)).max())
    a_inf = float(np.abs(a).max()) if a is not None else 0.0
    return (a_inf + curvature) / 2.0 + 1.0


@dataclass(frozen=True)
class Forcing:
    """External momentum force q (x- and y-face arrays) and heat source z
    (centers); a part left as None is zero."""

    q: tuple[np.ndarray, np.ndarray] | None = None
    z: np.ndarray | None = None


def _difference(f: np.ndarray, axis: int, d: float) -> np.ndarray:
    """(f[1:] - f[:-1]) / d along `axis`, built in one new array."""
    out = np.diff(f, axis=axis)
    out /= d
    return out


def _midpoint(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """0.5 * (a + b), into `out` when given."""
    out = np.add(a, b, out=out)
    out *= 0.5
    return out


def advect_scalar(grid: Grid, vel: MacVelocity, c: np.ndarray) -> np.ndarray:
    """div(u c) in conservative flux form; discrete mass change is exactly zero."""
    flux = centers_to_xfaces(grid, c)
    flux *= vel.u
    out = _difference(flux, 0, grid.dx)
    flux = centers_to_yfaces(grid, c)
    flux *= vel.v
    out += _difference(flux, 1, grid.dy)
    return out


class _Terms:
    """The terms of one state under one model, each computed by its one rule
    here on first read and kept for later reads. The rules call `convolve`,
    `mu_nonlocal`, `mu_local`, `e_nl` and `total_energy` by their module-global
    names, so perfbench's wrappers see every call. The memo holds the state's
    arrays, not the state, so it makes no reference cycle.

    Who holds what: the scalars (`energy`, `interface`, `integrals`, `max_u`)
    stay for the life of the state. `advance` drops the grid arrays of its
    start state after their last reader: `mu` after `step_ch`, `g_dot_u`
    after `step_heat`, `viscous` after `step_ns`. A dropped term read again is
    computed again by the same rule. J*phi is never kept: `mu` and
    `interface` each convolve, or `mu_and_interface` gives both from one.
    """

    def __init__(self, model: Model, state: SimState):
        self.model = model
        self.phi, self.theta, self.vel = state.phi, state.theta, state.vel

    @functools.cached_property
    def mu(self) -> np.ndarray:
        m = self.model
        if m.mode == "local":
            return mu_local(m.grid, self.phi, self.theta, m.potential, m.material)
        j_phi = convolve(m.kernel, self.phi)
        return mu_nonlocal(self.phi, self.theta, m.kernel, m.a, m.potential, m.material, j_phi)

    @functools.cached_property
    def interface(self) -> float:
        """e_nl or e_local by mode."""
        m = self.model
        if m.mode == "local":
            return e_local(m.grid, self.phi)
        return e_nl(m.kernel, m.a, self.phi)

    def mu_and_interface(self) -> None:
        """Compute `mu` and `interface` from one J*phi when neither is kept yet
        (nonlocal mode; the local rules read no J*phi)."""
        m = self.model
        if m.mode == "nonlocal" and not {"mu", "interface"} & self.__dict__.keys():
            j_phi = convolve(m.kernel, self.phi)
            self.mu = mu_nonlocal(self.phi, self.theta, m.kernel, m.a, m.potential, m.material, j_phi)
            self.interface = e_nl(m.kernel, m.a, self.phi, j_phi)

    @functools.cached_property
    def integrals(self) -> tuple[float, float, float]:
        m = self.model
        return _energy_integrals(m.grid, self.phi, self.theta, self.vel, m.potential)

    @functools.cached_property
    def energy(self) -> float:
        return total_energy(self.model.mode, self.model.material, self.interface, self.integrals)

    @functools.cached_property
    def viscous(self) -> tuple:
        """nu(phi) at centers, nu at corners and `mac_deformation(vel)`."""
        return _viscous_parts(self.model.grid, self.model.material, self.phi, self.vel)

    @functools.cached_property
    def g_dot_u(self) -> np.ndarray | float:
        """g . u at cell centers (0.0 when g is zero)."""
        gx, gy = self.model.material.g
        if gx == 0.0 and gy == 0.0:
            return 0.0
        u_c = 0.5 * (self.vel.u[1:, :] + self.vel.u[:-1, :])
        v_c = 0.5 * (self.vel.v[:, 1:] + self.vel.v[:, :-1])
        return gx * u_c + gy * v_c

    @functools.cached_property
    def max_u(self) -> float:
        return self.vel.max_speed()

    def drop(self, *names: str) -> None:
        """Forget the named terms; a later read computes them again."""
        for name in names:
            self.__dict__.pop(name, None)


def _terms(model: Model, state: SimState) -> _Terms:
    """The memo of `state` under `model`; a fresh one when another model filled
    it or a field of the state was reassigned since."""
    terms = state._terms
    if terms is None or terms.model is not model or not (
        terms.phi is state.phi and terms.theta is state.theta and terms.vel is state.vel
    ):
        terms = state._terms = _Terms(model, state)
    return terms


def step_ch(
    model: Model, state: SimState, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """One stabilized IMEX update of phi; returns (phi_next, mu_half)."""
    g = model.grid
    S = model.stabilization
    phi, theta = state.phi, state.theta
    terms = _terms(model, state)
    adv = advect_scalar(g, state.vel, phi) if terms.max_u > 0.0 else 0.0

    if model.mode == "nonlocal":
        mu_n = terms.mu
        rhs = phi / dt - adv + laplacian_neumann(g, mu_n - S * phi)
        phi_next = helmholtz_solve(g, 1.0 / dt, S, rhs)
        mu_half = mu_n + S * (phi_next - phi)
    else:
        explicit = model.potential.eta_f * model.potential.df(phi) + model.material.l_c * theta
        rhs = phi / dt - adv + laplacian_neumann(g, explicit - S * phi)
        lam = g.laplacian_eigenvalues()
        coeffs = dct2_transform(rhs) / (1.0 / dt + S * lam + lam**2)
        phi_next = dct2_inverse(coeffs)
        mu_half = -laplacian_neumann(g, phi_next) + explicit + S * (phi_next - phi)
    return phi_next, mu_half


def step_heat(
    model: Model,
    state: SimState,
    phi_next: np.ndarray,
    dt: float,
    z: np.ndarray | None,
) -> np.ndarray:
    """Implicit-diffusion update of theta via the latent balance h = theta - l_h phi."""
    g = model.grid
    mat = model.material
    terms = _terms(model, state)
    h = state.theta - mat.l_h * state.phi
    adv = advect_scalar(g, state.vel, h) if terms.max_u > 0.0 else 0.0

    rhs = h / dt - adv + terms.g_dot_u + (z if z is not None else 0.0) + mat.l_h * phi_next / dt
    return helmholtz_solve(g, 1.0 / dt, mat.kappa, rhs)


@functools.lru_cache(maxsize=16)
def _sine_denominators(grid: Grid, alpha: float, nu: float) -> tuple[np.ndarray, np.ndarray]:
    """alpha + nu * lambda for the no-slip solves, with lambda the eigenvalues of
    -Delta on the interior x-faces (sine-I in x, sine-II in y) and on the
    interior y-faces (sine-II in x, sine-I in y).

    Built once per (grid, alpha, nu), i.e. once per run, and returned read-only.
    """

    def eigs(n: int, d: float, count: int) -> np.ndarray:
        k = np.arange(count) + 1
        return (2.0 / d**2) * (1.0 - np.cos(np.pi * k / n))

    nx, ny, dx, dy = grid.nx, grid.ny, grid.dx, grid.dy
    den_u = alpha + nu * (eigs(nx, dx, nx - 1)[:, None] + eigs(ny, dy, ny)[None, :])
    den_v = alpha + nu * (eigs(nx, dx, nx)[:, None] + eigs(ny, dy, ny - 1)[None, :])
    den_u.flags.writeable = False
    den_v.flags.writeable = False
    return den_u, den_v


def _implicit_solve(den: np.ndarray, sine1_axis: int, rhs_int: np.ndarray) -> np.ndarray:
    """(alpha - nu Delta) on one face set, `den` its `_sine_denominators` entry: sine-I
    along `sine1_axis`, sine-II along the other, which the inverse transforms first."""
    types = (1, 2) if sine1_axis == 0 else (2, 1)
    chat = _fft.dst(rhs_int, type=types[0], axis=0)
    chat = _fft.dst(chat, type=types[1], axis=1, overwrite_x=True)
    chat /= den
    chat = _fft.idst(chat, type=2, axis=1 - sine1_axis, overwrite_x=True)
    return _fft.idst(chat, type=1, axis=sine1_axis, overwrite_x=True)


def momentum_advection(grid: Grid, vel: MacVelocity) -> tuple[np.ndarray, np.ndarray]:
    """Flux-form self-advection with midpoint interpolation on interior faces.

    With a discretely divergence-free carrier this form is skew-symmetric:
    <adv(u), u> = 0 up to rounding.
    """
    u, v = vel.u, vel.v
    dx, dy = grid.dx, grid.dy

    # u-momentum: east/west fluxes at cell centers, north/south at corners
    flux = _midpoint(u[:-1, :], u[1:, :])           # (nx, ny) carrier and transported
    flux *= flux
    adv_u = _difference(flux, 0, dx)                # (nx-1, ny)
    carrier = _midpoint(v[:-1, :], v[1:, :])        # (nx-1, ny+1) carrier at interior corners
    flux = np.zeros((grid.nx - 1, grid.ny + 1))     # transported u at corners; walls stay 0
    _midpoint(u[1:-1, 1:], u[1:-1, :-1], out=flux[:, 1:-1])
    flux *= carrier
    adv_u += _difference(flux, 1, dy)

    # v-momentum
    flux = _midpoint(v[:, :-1], v[:, 1:])           # (nx, ny)
    flux *= flux
    adv_v = _difference(flux, 1, dy)                # (nx, ny-1)
    carrier = _midpoint(u[:, 1:], u[:, :-1])        # (nx+1, ny-1) carrier at interior corners
    flux = np.zeros((grid.nx + 1, grid.ny - 1))     # transported v at corners; walls stay 0
    _midpoint(v[1:, 1:-1], v[:-1, 1:-1], out=flux[1:-1, :])
    flux *= carrier
    adv_v += _difference(flux, 0, dx)

    return adv_u, adv_v


def viscous_remainder(
    grid: Grid, viscous: tuple, nu_bar: float
) -> tuple[np.ndarray, np.ndarray]:
    """div(2 (nu - nu_bar) D u) on interior faces (explicit split part).

    `viscous` is `_viscous_parts` of the state: nu at centers and corners
    and the deformation.
    """
    nu_centers, nu_corners, (dxx, dyy, dxy) = viscous
    two_dnu = nu_centers - nu_bar
    two_dnu *= 2.0
    stress = two_dnu * dxx                          # txx
    rem_u = _difference(stress, 0, grid.dx)
    np.multiply(two_dnu, dyy, out=stress)           # tyy
    rem_v = _difference(stress, 1, grid.dy)

    stress = nu_corners - nu_bar
    stress *= 2.0
    stress *= dxy                                   # txy
    rem_u += _difference(stress[1:-1, :], 1, grid.dy)
    rem_v += _difference(stress[:, 1:-1], 0, grid.dx)
    return rem_u, rem_v


def korteweg_force(
    grid: Grid,
    material: MaterialParams,
    mu_half: np.ndarray,
    theta: np.ndarray,
    phi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """K (mu - l_c theta) grad phi on the interior faces: x-faces 1..nx-1, shape
    (nx-1, ny), and y-faces 1..ny-1, shape (nx, ny-1). The force is zero at
    the wall faces, which are left out."""
    scal = material.l_c * theta
    np.subtract(mu_half, scal, out=scal)
    scal *= material.K_cap
    fx = _midpoint(scal[1:], scal[:-1])
    fx *= np.diff(phi, axis=0)
    fx /= grid.dx
    fy = _midpoint(scal[:, 1:], scal[:, :-1])
    fy *= np.diff(phi, axis=1)
    fy /= grid.dy
    return fx, fy


@functools.lru_cache(maxsize=16)
def _projection_eigenvalues(grid: Grid) -> np.ndarray:
    """`laplacian_eigenvalues` with the zero (0, 0) entry set to 1; read-only."""
    lam_safe = grid.laplacian_eigenvalues().copy()
    lam_safe[0, 0] = 1.0
    lam_safe.flags.writeable = False
    return lam_safe


def project(grid: Grid, vel: MacVelocity) -> MacVelocity:
    """Remove the discrete gradient part: u - grad psi with Delta_N psi = div u.

    Returns a new velocity; `vel` is left unchanged.
    """
    # dct2_transform, run in place on the divergence that only this call holds
    coeffs = _fft.dctn(vel.divergence(), type=2, overwrite_x=True)
    coeffs /= 4.0
    np.negative(coeffs, out=coeffs)
    coeffs /= _projection_eigenvalues(grid)
    coeffs[0, 0] = 0.0
    psi = dct2_inverse(coeffs)
    del coeffs
    out = vel.copy()
    out.u[1:-1, :] -= _difference(psi, 0, grid.dx)
    out.v[:, 1:-1] -= _difference(psi, 1, grid.dy)
    return out


def step_ns(
    model: Model,
    state: SimState,
    phi_next: np.ndarray,
    theta_next: np.ndarray,
    mu_half: np.ndarray,
    dt: float,
    q: tuple[np.ndarray, np.ndarray] | None,
    buoy: tuple[np.ndarray, np.ndarray] | None,
) -> MacVelocity:
    """Explicit forces + implicit mean viscosity + projection.

    The explicit right-hand side is zero on the wall faces; each force is
    added to the interior faces and freed before the next is built. It is
    projected before the viscous solve (and the result projected again after
    it), so purely gradient forces such as a uniform buoyancy on a constant
    state leave a resting fluid exactly at rest. `buoy` is
    buoyancy(phi_next, theta_next). With zero gravity the buoyancy is
    identically zero, `buoy` is None and nothing is added.
    """
    g = model.grid
    mat = model.material
    vel = state.vel
    terms = _terms(model, state)

    rhs = MacVelocity(g)
    rhs_u, rhs_v = rhs.u[1:-1, :], rhs.v[:, 1:-1]
    np.divide(vel.u[1:-1, :], dt, out=rhs_u)
    np.divide(vel.v[:, 1:-1], dt, out=rhs_v)

    if terms.max_u > 0.0:
        fx, fy = momentum_advection(g, vel)
        rhs_u -= fx
        rhs_v -= fy
        del fx, fy
        if mat.nu_max > mat.nu_min:
            fx, fy = viscous_remainder(g, terms.viscous, mat.nu_bar)
            rhs_u += fx
            rhs_v += fy
            del fx, fy

    fx, fy = korteweg_force(g, mat, mu_half, theta_next, phi_next)
    if any(mat.g):
        bx, by = buoy
        fx += bx[1:-1, :]
        fy += by[:, 1:-1]
    rhs_u += fx
    rhs_v += fy
    if q is not None:
        rhs_u += q[0][1:-1, :]
        rhs_v += q[1][:, 1:-1]
    # the views would keep the unprojected right-hand side alive
    del fx, fy, rhs_u, rhs_v
    rhs = project(g, rhs)
    den_u, den_v = _sine_denominators(g, 1.0 / dt, mat.nu_bar)
    rhs.u[1:-1, :] = _implicit_solve(den_u, 0, rhs.u[1:-1, :])
    rhs.v[:, 1:-1] = _implicit_solve(den_v, 1, rhs.v[:, 1:-1])
    return project(g, rhs)


def suggest_dt(model: Model, state: SimState, safety: float) -> float:
    """Safety-scaled minimum of the advective, explicit-viscous, and kernel bounds."""
    if not 0.0 < safety <= 1.0:
        raise ValueError("safety factor must lie in (0, 1]")
    g = model.grid
    candidates = [SUGGEST_DT_CAP]

    speed_x = float(np.max(np.abs(state.vel.u))) / g.dx
    speed_y = float(np.max(np.abs(state.vel.v))) / g.dy
    if speed_x + speed_y > 0.0:
        candidates.append(1.0 / (speed_x + speed_y))

    dnu = 0.5 * (model.material.nu_max - model.material.nu_min)
    if dnu > 0.0:
        candidates.append(min(g.dx, g.dy) ** 2 / (4.0 * dnu))

    if model.mode == "nonlocal" and model.a is not None:
        candidates.append(1.0 / float(np.abs(model.a).max()))

    return safety * min(candidates)


def _ledger_row(
    model: Model,
    e_prev: float,
    state_next: SimState,
    dt: float,
    forcing: Forcing,
    buoy: tuple[np.ndarray, np.ndarray] | None,
) -> dict:
    """The ledger row of the step to `state_next` from a state of energy
    `e_prev`, from the terms of `state_next` under `model`.

    mu and E come from one J*phi. `max_div_u` is the trace dxx + dyy of the
    deformation the dissipation reads, which is bit for bit
    `MacVelocity.divergence()`.
    """
    g = model.grid
    mat = model.material
    terms = _terms(model, state_next)
    terms.mu_and_interface()
    energy = terms.energy
    f_int, u_sq, theta_sq = terms.integrals
    diss = dissipation(g, terms.mu, state_next.theta, mat, terms.viscous)
    dxx, dyy, _ = terms.viscous[2]
    works = work_terms(
        g,
        state_next.theta,
        state_next.vel,
        mat,
        forcing.q,
        forcing.z,
        buoy,
        terms.g_dot_u,
    )
    work_sum = sum(works.values())
    resid = energy_budget_residual(e_prev, energy, diss, work_sum, dt)
    return {
        "t": state_next.t,
        "E_total": energy,
        "E_interface": terms.interface,
        "F_integral": f_int,
        "kinetic": u_sq / (2.0 * mat.K_cap * mat.l_c),
        "thermal": theta_sq / (2.0 * mat.l_h),
        "dissipation": diss,
        "residual": resid,
        "mass_phi": float(state_next.phi.sum() * g.cell_area),
        "mean_h": float(np.mean(state_next.theta - mat.l_h * state_next.phi)),
        "max_div_u": float(np.abs(dxx + dyy).max()),
        "max_u": terms.max_u,
        "dt_used": dt,
        **works,
    }


def advance(
    model: Model,
    state: SimState,
    dt: float,
    forcing: Forcing | None = None,
    ledger: EnergyLedger | None = None,
) -> SimState:
    """One full step (phi -> theta -> velocity); returns the new state.

    The one finiteness check of a run: NaN and inf carry through the
    sub-steps, so a step whose phi, theta or velocity holds one raises
    `BlowUpError` with `state`. With a ledger, the row reads the terms of
    `state` and of the new state from their memos under `model`; a row holding
    NaN or inf raises `BlowUpError` and one that breaks an invariant raises
    `InvariantError`, both instead of being appended.

    Each grid array of `state`'s memo is dropped after its last reader here
    (see `_Terms`), so a step holds as few arrays as its sub-steps need; the
    scalars stay. With a ledger, mu and E of `state` come from one J*phi.
    """
    forcing = forcing or Forcing()
    g, mat = model.grid, model.material
    terms = _terms(model, state)
    if ledger is not None:
        terms.mu_and_interface()
        e_prev = terms.energy

    phi_next, mu_half = step_ch(model, state, dt)
    terms.drop("mu")
    theta_next = step_heat(model, state, phi_next, dt, forcing.z)
    terms.drop("g_dot_u")
    buoy = buoyancy(g, mat, phi_next, theta_next) if any(mat.g) else None
    vel_next = step_ns(model, state, phi_next, theta_next, mu_half, dt, forcing.q, buoy)
    del mu_half
    terms.drop("viscous")
    fields = {"phi": phi_next, "theta": theta_next, "u": vel_next.u, "v": vel_next.v}
    bad = [name for name, x in fields.items() if not np.isfinite(x).all()]
    if bad:
        raise BlowUpError(f"step diverged: non-finite {', '.join(bad)}", state)
    state_next = SimState(
        t=state.t + dt, step=state.step + 1, phi=phi_next, theta=theta_next, vel=vel_next
    )

    if ledger is not None:
        row = _ledger_row(model, e_prev, state_next, dt, forcing, buoy)
        bad = [c for c, x in row.items() if not math.isfinite(x)]
        if bad:
            raise BlowUpError(f"step diverged: non-finite ledger {', '.join(bad)}", state)
        mass_change = abs(row["mass_phi"] - float(state.phi.sum() * g.cell_area))
        if mass_change > INVARIANT_TOL or row["max_div_u"] > INVARIANT_TOL:
            raise InvariantError(f"invariant broken: mass change {mass_change:.3e}, max div u "
                                 f"{row['max_div_u']:.3e}, bound {INVARIANT_TOL:g}", state)
        ledger.append(row)
    return state_next


def integrate(
    model: Model,
    state: SimState,
    dt: float,
    t_end: float,
    forcing: Forcing | None = None,
    ledger: EnergyLedger | None = None,
    on_step=None,
) -> SimState:
    """Advance with fixed dt while t < t_end - dt/2; returns the last state.

    `on_step(state)` is called after every step. The run steps a shallow
    copy of `state`, so the terms it computes for its start state are not
    kept on the caller's object; a memo the caller's state already holds is
    shared. With no step due, `state` itself is returned.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if state.t < t_end - 0.5 * dt:
        state = copy.copy(state)
    while state.t < t_end - 0.5 * dt:
        state = advance(model, state, dt, forcing, ledger)
        if on_step is not None:
            on_step(state)
    return state
