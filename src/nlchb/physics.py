"""Constitutive laws: double-well potential, viscosity, buoyancy, chemical potentials.

Also hosts the runtime validator that checks the structural assumptions the
well-posedness of the model rests on (kernel nonnegativity/symmetry, viscosity
bounds, potential convexity compensation, quadratic lower bound, polynomial
growth control) and reports fitted constants instead of silently rescaling
anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, centers_to_faces, laplacian_neumann
from .kernel import KernelGrid, kernel_norms

__all__ = [
    "PotentialParams",
    "MaterialParams",
    "viscosity",
    "buoyancy",
    "mu_nonlocal",
    "mu_local",
    "ValidationReport",
    "validate_assumptions",
]

#: F(s) = (1/4)(s^2 - 1)^2 in ascending-power coefficients
DOUBLE_WELL_COEFFS = (0.25, 0.0, -0.5, 0.0, 0.25)

#: range of s on which `validate_assumptions` samples F, and the growth
#: exponent p of |F'|^p <= c3 |F| + c4 it fits there
S_RANGE = (-3.0, 3.0)
GROWTH_P = 2.0


@dataclass(frozen=True)
class PotentialParams:
    """Polynomial bulk free-energy density F and the coefficient of F' in mu."""

    coeffs: tuple[float, ...] = DOUBLE_WELL_COEFFS
    eta_f: float = 1.0

    def __post_init__(self) -> None:
        c = tuple(float(v) for v in self.coeffs)
        object.__setattr__(self, "coeffs", c)
        deg = len(c) - 1
        while deg > 0 and c[deg] == 0.0:
            deg -= 1
        if deg < 2 or deg % 2 != 0:
            raise ValueError(f"potential degree must be even and >= 2, got {deg}")
        if c[deg] <= 0.0:
            raise ValueError("potential leading coefficient must be positive (coercivity)")
        if self.eta_f < 0.0:
            raise ValueError("eta_f must be nonnegative")
        object.__setattr__(self, "degree", deg)
        # coefficients of F, F' and F'' up to the leading one, built once with
        # polyder's j * c[j] (not fields: equality and hash keep to coeffs)
        lead = np.array(c[: deg + 1])
        object.__setattr__(self, "_f_coeffs", lead)
        df = lead[1:] * np.arange(1, len(lead))
        object.__setattr__(self, "_df_coeffs", df)
        object.__setattr__(self, "_ddf_coeffs", df[1:] * np.arange(1, len(df)))

    def f(self, s):
        return _horner(self._f_coeffs, s)

    def df(self, s):
        return _horner(self._df_coeffs, s)

    def ddf(self, s):
        return _horner(self._ddf_coeffs, s)


def _horner(coeffs: np.ndarray, s):
    """sum_k coeffs[k] s^k by Horner's rule, updating one array in place.

    The last coefficient is nonzero, so for finite s this has the bits of
    numpy's `polynomial.polyval`, which first adds s*0 to it and
    allocates a new array in every pass; zero coefficients above the degree
    change no bit there either.
    """
    if len(coeffs) == 1:
        return coeffs[0] + np.asarray(s, dtype=float) * 0.0
    out = np.multiply(s, coeffs[-1])
    out += coeffs[-2]
    for c in coeffs[-3::-1]:
        out *= s
        out += c
    return out


@dataclass(frozen=True)
class MaterialParams:
    """Physical constants of the coupled system."""

    K_cap: float = 1.0       # capillarity
    l_c: float = 1.0         # latent-heat coupling in mu
    l_h: float = 1.0         # latent-heat constant in the heat balance
    kappa: float = 1.0       # thermal conductivity
    nu_min: float = 1.0
    nu_max: float = 1.0
    nu_width: float = 1.0    # tanh blend width of the viscosity profile
    alpha0: float = 0.0
    alpha1: float = 0.0
    alpha2: float = 0.0
    g: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        for name in ("K_cap", "l_c", "l_h", "kappa"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.nu_min <= self.nu_max:
            raise ValueError("viscosity bounds must satisfy 0 < nu_min <= nu_max")
        if self.nu_width <= 0.0:
            raise ValueError("nu_width must be positive")
        object.__setattr__(self, "g", (float(self.g[0]), float(self.g[1])))

    @property
    def nu_bar(self) -> float:
        return 0.5 * (self.nu_min + self.nu_max)

    @property
    def nu_lipschitz(self) -> float:
        return 0.5 * (self.nu_max - self.nu_min) / self.nu_width


def viscosity(material: MaterialParams, s):
    """Smooth monotone blend between nu_min and nu_max; globally Lipschitz."""
    s = np.asarray(s, dtype=float)
    blend = 0.5 * (1.0 + np.tanh(s / material.nu_width))
    return material.nu_min + (material.nu_max - material.nu_min) * blend


def buoyancy(
    grid: Grid, material: MaterialParams, phi: np.ndarray, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Linearized-state body force (alpha0 + alpha1 phi + alpha2 theta) g on faces."""
    if phi.shape != grid.shape or theta.shape != grid.shape:
        raise ValueError("buoyancy fields must live on the given grid")
    coeff = material.alpha0 + material.alpha1 * phi + material.alpha2 * theta
    gx, gy = material.g
    return gx * centers_to_faces(coeff, 0), gy * centers_to_faces(coeff, 1)


def mu_nonlocal(
    phi: np.ndarray,
    theta: np.ndarray,
    kernel: KernelGrid,
    a: np.ndarray,
    potential: PotentialParams,
    material: MaterialParams,
    j_phi: np.ndarray,
) -> np.ndarray:
    """mu = a phi - J*phi + eta_f F'(phi) + l_c theta (pointwise, no smoothing),
    with `j_phi` = J*phi."""
    if phi.shape != kernel.grid.shape or theta.shape != kernel.grid.shape:
        raise ValueError("mu_nonlocal fields must live on the kernel grid")
    return a * phi - j_phi + potential.eta_f * potential.df(phi) + material.l_c * theta


def mu_local(
    grid: Grid,
    phi: np.ndarray,
    theta: np.ndarray,
    potential: PotentialParams,
    material: MaterialParams,
) -> np.ndarray:
    """mu = -Delta phi + eta_f F'(phi) + l_c theta (Neumann Laplacian)."""
    if phi.shape != grid.shape or theta.shape != grid.shape:
        raise ValueError("mu_local fields must live on the given grid")
    return -laplacian_neumann(grid, phi) + potential.eta_f * potential.df(phi) + material.l_c * theta


@dataclass
class ValidationReport:
    """Numeric check of the structural assumptions; reports, never rescales."""

    a_min: float
    a_max: float
    kernel_l1: float
    kernel_grad_l1: float
    c0: float                      # min of eta_f F''(s) + a(x); may be <= 0 (flagged)
    c1: float
    c2: float
    half_j_l1: float
    a4_satisfied: bool
    c3: float
    c4: float
    a5_feasible_on_range: bool
    nu_within_bounds: bool
    nu_lipschitz_bound: float
    flags: list[str] = field(default_factory=list)

    def lines(self) -> list[str]:
        ok = {True: "ok", False: "FLAG"}
        return [
            f"a_min = {self.a_min:.6e}  [{ok[self.a_min >= 0.0]}]",
            f"a_max = {self.a_max:.6e}",
            f"kernel_l1 = {self.kernel_l1:.6e}",
            f"kernel_grad_l1 = {self.kernel_grad_l1:.6e}",
            f"c0 (min F'' + a) = {self.c0:.6e}  [{ok[self.c0 > 0.0]}]",
            f"c1 = {self.c1:.6e}  vs  |J|_L1 / 2 = {self.half_j_l1:.6e}  [{ok[self.a4_satisfied]}]",
            f"c2 = {self.c2:.6e}",
            f"growth p = {GROWTH_P:g}, c3 = {self.c3:.6e}, c4 = {self.c4:.6e}"
            f"  [{ok[self.a5_feasible_on_range]}]",
            f"viscosity within bounds = {self.nu_within_bounds}"
            f" (Lipschitz <= {self.nu_lipschitz_bound:.6e})",
            f"s_range = [{S_RANGE[0]:g}, {S_RANGE[1]:g}]",
            "flags: " + (", ".join(self.flags) if self.flags else "none"),
        ]


def _fit_a4(potential: PotentialParams, half_j_l1: float) -> tuple[float, float, bool]:
    """Find (c1, c2) with F >= c1 s^2 - c2 and c1 above half the kernel mass.

    For potentials of degree >= 4 any c1 admits a finite c2 (the quartic term
    dominates), so c1 is pinned just above the required threshold. Degree-2
    potentials cap c1 at the leading coefficient.
    """
    lead = potential.coeffs[potential.degree]
    if potential.degree >= 4:
        c1 = max(1.25 * half_j_l1, 0.125) if half_j_l1 > 0.0 else 0.125
        satisfied = c1 > half_j_l1 or half_j_l1 == 0.0
    else:
        c1 = 0.999 * lead
        satisfied = c1 > half_j_l1
    # widen the scan until c1 s^2 - F(s) is decreasing at both ends
    S = 4.0
    while potential.degree >= 4 and (
        2.0 * c1 * S - potential.df(S) > 0.0 or -2.0 * c1 * S - potential.df(-S) < 0.0
    ):
        S *= 2.0
        if S > 1e8:
            break
    s = np.linspace(-S, S, 20001)
    c2 = float(np.max(c1 * s**2 - potential.f(s)))
    return float(c1), c2, bool(satisfied)


def _fit_a5(potential: PotentialParams, s: np.ndarray) -> tuple[float, float, bool]:
    """Least-violation fit of |F'|^p <= c3 |F| + c4 on the sampled range, p = GROWTH_P."""
    lhs = np.abs(potential.df(s)) ** GROWTH_P
    absF = np.abs(potential.f(s))
    small = absF <= 1.0
    c4 = float(lhs[small].max()) if small.any() else 0.0
    rest = ~small
    if rest.any():
        c3 = float(np.clip((lhs[rest] - c4) / absF[rest], 0.0, None).max())
    else:
        c3 = 0.0
    feasible = bool(np.all(lhs <= c3 * absF + c4 + 1e-9 * (1.0 + lhs.max())))
    return c3, c4, feasible


def validate_assumptions(
    kernel: KernelGrid | None,
    a: np.ndarray | None,
    potential: PotentialParams,
    material: MaterialParams,
) -> ValidationReport:
    """Check the model assumptions numerically and collect fitted constants.

    `a` is a(x) of `kernel` (`compute_a`); both are None in local mode. Never
    raises on a violated assumption: violations are flagged so limit
    studies can proceed with the physics unmodified.
    """
    s = np.linspace(*S_RANGE, 4001)
    flags: list[str] = []

    if kernel is not None:
        norms = kernel_norms(kernel)
        a_min = float(a.min())
        a_max = float(a.max())
        if a_min < 0.0:
            flags.append("a_negative")
    else:
        norms = {"l1": 0.0, "grad_l1": 0.0}
        a_min = a_max = 0.0

    ddf_min = float((potential.eta_f * potential.ddf(s)).min())
    c0 = ddf_min + a_min
    if c0 <= 0.0:
        flags.append("a3_nonpositive_c0")

    half_j_l1 = 0.5 * norms["l1"]
    c1, c2, a4_ok = _fit_a4(potential, half_j_l1)
    if not a4_ok:
        flags.append("a4_c1_below_half_l1")

    c3, c4, a5_ok = _fit_a5(potential, s)
    if not a5_ok:
        flags.append("a5_infeasible_on_range")

    nu = viscosity(material, np.linspace(-10.0, 10.0, 2001))
    nu_ok = bool(np.all(nu >= material.nu_min - 1e-12) and np.all(nu <= material.nu_max + 1e-12))
    if not nu_ok:
        flags.append("a2_viscosity_out_of_bounds")

    return ValidationReport(
        a_min=a_min,
        a_max=a_max,
        kernel_l1=norms["l1"],
        kernel_grad_l1=norms["grad_l1"],
        c0=c0,
        c1=c1,
        c2=c2,
        half_j_l1=half_j_l1,
        a4_satisfied=a4_ok,
        c3=c3,
        c4=c4,
        a5_feasible_on_range=a5_ok,
        nu_within_bounds=nu_ok,
        nu_lipschitz_bound=material.nu_lipschitz,
        flags=flags,
    )
