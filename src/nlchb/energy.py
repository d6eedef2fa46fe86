"""Interface/total energies, dissipation, work terms, and per-step budget residual.

Conventions (kept literal to the model displays):
  2 E_nonlocal = (1/l_c) { Q(phi) + 2 int eta_f F(phi) } + (1/(K l_c)) |u|^2 + (1/l_h) |theta|^2
  2 E_local    = (1/l_c) { (1/2)|grad phi|^2 + int eta_f F(phi) } + same u, theta terms
with Q(phi) = (a phi, phi) - (phi, J*phi), the double-integral difference form.
Note the factor-2 asymmetry in the F weighting between the two modes is part
of the displayed definitions and is preserved as such.

The budget residual applies the work terms with the prefactors 1/(K l_c) and
1/l_h that arise when the three tested equations are combined; the budget does
not close without them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    Grid,
    MacVelocity,
    NonFiniteError,
    field_integral,
    gradient_cc,
    h1_seminorm,
)
from .kernel import KernelGrid, convolve
from .physics import MaterialParams, PotentialParams, viscosity

__all__ = [
    "LEDGER_COLUMNS",
    "EnergyLedger",
    "e_nl",
    "e_local",
    "total_energy",
    "dissipation",
    "work_terms",
    "energy_budget_residual",
    "mac_l2_sq",
    "mac_deformation",
]

LEDGER_COLUMNS = (
    "t",
    "E_total",
    "E_interface",
    "F_integral",
    "kinetic",
    "thermal",
    "dissipation",
    "work_q",
    "work_buoy",
    "work_z",
    "work_gu",
    "residual",
    "mass_phi",
    "mean_h",
    "max_div_u",
    "max_u",
    "dt_used",
)


@dataclass
class EnergyLedger:
    """Append-only per-step accounting; one row per completed step."""

    rows: list[dict] = field(default_factory=list)

    def append(self, row: dict) -> None:
        missing = set(LEDGER_COLUMNS) - set(row)
        if missing:
            raise ValueError(f"ledger row missing columns: {sorted(missing)}")
        if self.rows and not row["t"] > self.rows[-1]["t"]:
            raise ValueError("ledger rows must be strictly increasing in t")
        if not all(math.isfinite(row[c]) for c in LEDGER_COLUMNS):
            raise NonFiniteError("ledger row contains non-finite entries")
        self.rows.append({c: float(row[c]) for c in LEDGER_COLUMNS})

    def column(self, name: str) -> np.ndarray:
        return np.array([r[name] for r in self.rows])


def e_nl(
    kernel: KernelGrid, a: np.ndarray, phi: np.ndarray, j_phi: np.ndarray | None = None
) -> float:
    """Nonlocal interface energy (a phi, phi) - (phi, J*phi).

    Convolves phi unless its convolution `j_phi` is passed in.
    """
    g = kernel.grid
    if j_phi is None:
        j_phi = convolve(kernel, phi)
    return float(np.sum(a * phi * phi - phi * j_phi) * g.cell_area)


def e_local(grid: Grid, phi: np.ndarray) -> float:
    """Dirichlet interface energy (1/2) int |grad phi|^2."""
    return 0.5 * h1_seminorm(grid, phi) ** 2


def mac_l2_sq(grid: Grid, vel: MacVelocity) -> float:
    """int |u|^2 with face samples (wall faces carry zero velocity)."""
    return float((np.sum(vel.u**2) + np.sum(vel.v**2)) * grid.cell_area)


def _energy_integrals(
    grid: Grid, phi: np.ndarray, theta: np.ndarray, vel: MacVelocity, potential: PotentialParams
) -> tuple[float, float, float]:
    """eta_f int F(phi), int |u|^2 and int theta^2: the terms of E besides the interface."""
    return (
        potential.eta_f * field_integral(grid, potential.f(phi)),
        mac_l2_sq(grid, vel),
        field_integral(grid, theta * theta),
    )


def total_energy(
    grid: Grid,
    phi: np.ndarray,
    theta: np.ndarray,
    vel: MacVelocity,
    mode: str,
    potential: PotentialParams,
    material: MaterialParams,
    kernel: KernelGrid | None = None,
    a: np.ndarray | None = None,
    interface: float | None = None,
    integrals: tuple[float, float, float] | None = None,
) -> float:
    """Total energy E of the coupled state (see module docstring for the display).

    `interface` is the already computed interface energy of phi (e_nl or
    e_local by mode) and `integrals` the state's `_energy_integrals`; when
    None they are computed here.
    """
    if mode == "nonlocal":
        if interface is None:
            if kernel is None or a is None:
                raise ValueError("nonlocal total energy requires the kernel and a(x)")
            interface = e_nl(kernel, a, phi)
        f_weight = 2.0
    elif mode == "local":
        if interface is None:
            interface = e_local(grid, phi)
        f_weight = 1.0
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if integrals is None:
        integrals = _energy_integrals(grid, phi, theta, vel, potential)
    f_int, u_sq, theta_sq = integrals
    two_e = (
        (interface + f_weight * f_int) / material.l_c
        + u_sq / (material.K_cap * material.l_c)
        + theta_sq / material.l_h
    )
    return 0.5 * two_e


def mac_deformation(grid: Grid, vel: MacVelocity) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric gradient on the MAC grid.

    Returns (Dxx, Dyy) at cell centers and Dxy at cell corners; wall values use
    the no-slip antisymmetric ghost so tangential shear at the wall is resolved.
    """
    dxx = (vel.u[1:] - vel.u[:-1]) / grid.dx
    dyy = (vel.v[:, 1:] - vel.v[:, :-1]) / grid.dy

    # du/dy at corners (nx+1, ny+1): ghost u = -u across the wall
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

    dxy = 0.5 * (du_dy + dv_dx)
    return dxx, dyy, dxy


@functools.lru_cache(maxsize=16)
def _corner_weights(grid: Grid) -> np.ndarray:
    """Trapezoid weights of the cell corners times the cell area; built once
    per grid and returned read-only."""
    wx = np.ones(grid.nx + 1)
    wx[0] = wx[-1] = 0.5
    wy = np.ones(grid.ny + 1)
    wy[0] = wy[-1] = 0.5
    w = wx[:, None] * wy[None, :] * grid.cell_area
    w.flags.writeable = False
    return w


def _nu_at_corners(grid: Grid, nu_centers: np.ndarray) -> np.ndarray:
    """Mean of the four centres around each corner, edge cells repeated outward."""
    pad = np.empty((grid.nx + 2, grid.ny + 2))
    pad[1:-1, 1:-1] = nu_centers
    pad[0, 1:-1] = nu_centers[0]
    pad[-1, 1:-1] = nu_centers[-1]
    pad[:, 0] = pad[:, 1]
    pad[:, -1] = pad[:, -2]
    return 0.25 * (pad[:-1, :-1] + pad[1:, :-1] + pad[:-1, 1:] + pad[1:, 1:])


def _viscous_parts(
    grid: Grid, material: MaterialParams, phi: np.ndarray, vel: MacVelocity
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(nu(phi) at centers, nu at corners, mac_deformation(vel)) of one state.

    The dissipation of a state and the variable-viscosity remainder of the
    step that starts from it both read these.
    """
    nu = viscosity(material, phi)
    return nu, _nu_at_corners(grid, nu), mac_deformation(grid, vel)


def dissipation(
    grid: Grid,
    mu: np.ndarray,
    theta: np.ndarray,
    material: MaterialParams,
    viscous: tuple,
) -> float:
    """D = (1/l_c)|grad mu|^2 + (2/(K l_c)) |sqrt(nu) D u|^2 + (kappa/l_h)|grad theta|^2.

    |sqrt(nu) D u|^2 = int nu(phi) (Dxx^2 + Dyy^2 + 2 Dxy^2) on the staggered
    grid; `viscous` is `_viscous_parts` of the state's (phi, vel).
    """
    gmx, gmy = gradient_cc(grid, mu)
    grad_mu_sq = float(np.sum(gmx**2 + gmy**2) * grid.cell_area)
    gtx, gty = gradient_cc(grid, theta)
    grad_th_sq = float(np.sum(gtx**2 + gty**2) * grid.cell_area)
    nu, nu_c, (dxx, dyy, dxy) = viscous
    diag = float(np.sum(nu * (dxx**2 + dyy**2)) * grid.cell_area)
    off = float(np.sum(_corner_weights(grid) * nu_c * 2.0 * dxy**2))
    return (
        grad_mu_sq / material.l_c
        + 2.0 * (diag + off) / (material.K_cap * material.l_c)
        + material.kappa * grad_th_sq / material.l_h
    )


def work_terms(
    grid: Grid,
    theta: np.ndarray,
    vel: MacVelocity,
    material: MaterialParams,
    q_faces: tuple[np.ndarray, np.ndarray] | None,
    z_centers: np.ndarray | None,
    buoy: tuple[np.ndarray, np.ndarray] | None,
    g_dot_u: np.ndarray | float,
) -> dict[str, float]:
    """Forcing power entering the energy budget, with the combining prefactors.

    Returns the four named contributions; each already carries 1/(K l_c) (the
    momentum pair) or 1/l_h (the heat pair). `buoy` is the buoyancy of the state
    and `g_dot_u` is g . u at the cell centers. With zero gravity both are
    identically zero (`buoy` is None), and `work_buoy` and `work_gu` stay 0.0
    without being summed.
    """
    kl = material.K_cap * material.l_c
    out = {"work_q": 0.0, "work_buoy": 0.0, "work_z": 0.0, "work_gu": 0.0}

    if q_faces is not None:
        qx, qy = q_faces
        out["work_q"] = float((np.sum(qx * vel.u) + np.sum(qy * vel.v)) * grid.cell_area) / kl

    if z_centers is not None:
        out["work_z"] = float(np.sum(z_centers * theta) * grid.cell_area) / material.l_h

    if any(material.g):
        bx, by = buoy
        out["work_buoy"] = float((np.sum(bx * vel.u) + np.sum(by * vel.v)) * grid.cell_area) / kl
        out["work_gu"] = float(np.sum(g_dot_u * theta) * grid.cell_area) / material.l_h
    return out


def energy_budget_residual(
    e_prev: float, e_next: float, dissipation_next: float, work_next: float, dt: float
) -> float:
    """Discrete defect of the energy inequality over one step.

    r = E(next) - E(prev) + dt D(next) - dt W(next); r <= tol is the discrete
    analogue of the continuous inequality (implicit-side quadrature in time).
    """
    return e_next - e_prev + dt * (dissipation_next - work_next)
