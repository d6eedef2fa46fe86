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
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, MacVelocity, _along, _grad_sq, face_difference, field_integral, h1_seminorm
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
    """Append-only per-step accounting, one row per completed step: `append`
    checks a row and `write_row` keeps it in `rows` (`LedgerCsvWriter`, in
    `snapshots`, writes it to the ledger CSV instead)."""

    rows: list[dict] = field(default_factory=list)
    _last_t: float | None = field(default=None, init=False, repr=False)

    def append(self, row: dict) -> None:
        """Write a row with every column and t above the last row's; `advance`,
        not this method, rejects a row holding NaN or inf."""
        missing = set(LEDGER_COLUMNS) - set(row)
        if missing:
            raise ValueError(f"ledger row missing columns: {sorted(missing)}")
        if self._last_t is not None and not row["t"] > self._last_t:
            raise ValueError("ledger rows must be strictly increasing in t")
        self.write_row({c: float(row[c]) for c in LEDGER_COLUMNS})
        self._last_t = float(row["t"])

    def write_row(self, row: dict) -> None:
        """Keep a checked row of floats."""
        self.rows.append(row)

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
    mode: str,
    material: MaterialParams,
    interface: float,
    integrals: tuple[float, float, float],
) -> float:
    """Total energy E of the coupled state (see module docstring for the display).

    `interface` is the state's interface energy (e_nl in nonlocal mode, else
    e_local) and `integrals` its `_energy_integrals`.
    """
    f_weight = 2.0 if mode == "nonlocal" else 1.0
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
    dxx = face_difference(vel.u, 0, grid.dx)
    dyy = face_difference(vel.v, 1, grid.dy)
    # du/dy and dv/dx at the corners (nx+1, ny+1) by one no-slip rule: the
    # component w tangential to the walls normal to `axis` has the ghost -w
    shear = []
    for axis, w, d in ((1, vel.u, grid.dy), (0, vel.v, grid.dx)):
        pad = np.concatenate((-_along(w, axis, None, 1), w, -_along(w, axis, -1, None)), axis)
        shear.append(face_difference(pad, axis, d))
        del pad
    dxy, dv_dx = shear
    dxy += dv_dx
    dxy *= 0.5
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
    out = np.add(pad[:-1, :-1], pad[1:, :-1])
    out += pad[:-1, 1:]
    out += pad[1:, 1:]
    out *= 0.25
    return out


def _viscous_parts(
    grid: Grid, material: MaterialParams, phi: np.ndarray, vel: MacVelocity
) -> tuple[np.ndarray | float, np.ndarray | float, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(nu(phi) at centers, nu at corners, mac_deformation(vel)) of one state.

    The dissipation of a state and the variable-viscosity remainder of the
    step that starts from it both read these. With nu_max == nu_min both
    viscosities are scalars: every element of the arrays would be nu_min
    (the blend term is 0.0) and its corner mean, and a scalar factor gives
    each product the bits of the array one.
    """
    if material.nu_max == material.nu_min:
        nu = material.nu_min
        return nu, 0.25 * (((nu + nu) + nu) + nu), mac_deformation(grid, vel)
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

    Squares and sums are formed in place, in the gradients this function
    computes and in one scratch array per deformation term; the parts in
    `viscous` are only read, since the step from the state reads them again.
    """
    grad_mu_sq = _grad_sq(grid, mu)
    grad_th_sq = _grad_sq(grid, theta)
    nu, nu_c, (dxx, dyy, dxy) = viscous
    sq = np.square(dxx)
    sq += np.square(dyy)
    sq *= nu
    diag = float(np.sum(sq) * grid.cell_area)
    sq = _corner_weights(grid) * nu_c
    sq *= 2.0
    sq *= np.square(dxy)
    off = float(np.sum(sq))
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
    and `g_dot_u` is g . u at the cell centers. When `buoy` is None (the
    caller's sign of zero gravity) the buoyancy pair is skipped: `work_buoy`
    and `work_gu` stay 0.0 without being summed.
    """
    kl = material.K_cap * material.l_c
    out = {"work_q": 0.0, "work_buoy": 0.0, "work_z": 0.0, "work_gu": 0.0}
    for name, force in (("work_q", q_faces), ("work_buoy", buoy)):
        if force is not None:  # the power of a face force
            fx, fy = force
            out[name] = float((np.sum(fx * vel.u) + np.sum(fy * vel.v)) * grid.cell_area) / kl
    if z_centers is not None:
        out["work_z"] = float(np.sum(z_centers * theta) * grid.cell_area) / material.l_h
    if buoy is not None:
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
