"""Compactly supported interaction kernels, their lattice sampling, and fast convolution.

The kernel family on the plane (d = 2) is
J_eps(z) = amp * eta(|z|/eps) / (eps^(2-gamma+d) |z|^gamma)
with a C^1 radial profile eta supported in [0, 1], calibrated so that

    integral_0^inf eta(s) s^(d+1-gamma) ds = 2 / C_d,
    C_d = integral over S^(d-1) of (sigma . e1)^2.

The sampled amplitude carries an extra factor 1/2 (GRADIENT_LIMIT_SCALE), fixed
so that the lattice quadratic form (a*phi, phi) - (phi, J*phi) reproduces the
Dirichlet seminorm (1/2) int |grad phi|^2 as eps -> 0; the acceptance suite
pins this normalization through the cos(pi x) cos(pi y) fixture.

Convolution is the midpoint-rule discretization of the domain-restricted
integral, evaluated by zero-padded circular FFT on a (2nx, 2ny) lattice
(exact: padding doubles the support so no wrap-around aliasing occurs). The
padded transform is pruned: the row passes skip the zero rows on the way in
and the discarded rows on the way out (see `convolve`).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, _pfft
from .quadrature import quad

__all__ = [
    "KernelResolutionWarning",
    "Mollifier",
    "KernelGrid",
    "compute_cd",
    "calibrate_mollifier",
    "sample_kernel",
    "convolve",
    "convolve_direct",
    "compute_a",
    "kernel_norms",
    "GRADIENT_LIMIT_SCALE",
    "PROFILES",
]

# Amplitude factor making the lattice quadratic form converge to the Dirichlet
# seminorm (1/2)||grad phi||^2 rather than twice it; see module docstring.
GRADIENT_LIMIT_SCALE = 0.5

# Direct-sum oracle cost guard.
DIRECT_MAX_CELLS = 4096

# Sampling policy constants (measured against the L1 and moment diagnostics):
# cells within AVG_RING_FRACTION*eps of the origin (capped) are cell-averaged,
# support-edge cells are cell-averaged only once eps spans >= RESOLVED_CELLS h.
AVG_RING_MAX = 3
AVG_RING_FRACTION = 0.25
RESOLVED_CELLS = 8.0
CELL_AVG_REL_TOL = 1e-9


class KernelResolutionWarning(UserWarning):
    """Raised (as a warning) when eps is under-resolved on the target grid."""


def _bump(s):
    return np.exp(-1.0 / (1.0 - s * s))


def _bump_prime(s):
    q = 1.0 - s * s
    return np.exp(-1.0 / q) * (-2.0 * s / (q * q))


def _quartic(s):
    q = 1.0 - s * s
    return q * q


def _quartic_prime(s):
    return -4.0 * s * (1.0 - s * s)


def _on_support(formula, x, lo: float | None, hi: float):
    """formula(x) where lo < x < hi (x < hi when lo is None), +0 elsewhere.

    A float (a quadrature node) runs the formula on that one number. For an
    array whose points all lie inside, as at the deep quadtree levels of
    `sample_kernel`, the formula runs on `x` itself, with no mask, gather or
    scatter. Squares are written s * s and powers np.power: those round a
    float as the array path does, and `**` does not.
    """
    if isinstance(x, float):
        return formula(x) if x < hi and (lo is None or x > lo) else 0.0
    x = np.asarray(x, dtype=float)
    inside = x < hi if lo is None else (x > lo) & (x < hi)
    if inside.all():
        return formula(x)
    out = np.zeros_like(x)
    out[inside] = formula(x[inside])
    return out


#: shape_id -> (profile, derivative); profiles are C^1, nonnegative, supported in [0, 1]
PROFILES = {
    shape: tuple(functools.partial(_on_support, f, lo=None, hi=1.0) for f in formulas)
    for shape, formulas in (("bump", (_bump, _bump_prime)), ("quartic", (_quartic, _quartic_prime)))
}


def compute_cd(d: int) -> float:
    """Surface integral of (sigma . e1)^2 over the unit sphere, by quadrature."""
    if d == 2:
        val, _ = quad(lambda t: np.cos(t) ** 2, 0.0, 2.0 * np.pi)
        return val
    if d == 3:
        # polar angle theta measured from e1; surface element 2 pi sin(theta)
        val, _ = quad(lambda t: 2.0 * np.pi * np.cos(t) ** 2 * np.sin(t), 0.0, np.pi)
        return val
    raise ValueError(f"unsupported dimension d={d}; expected 2 or 3")


@dataclass(frozen=True)
class Mollifier:
    """Calibrated radial profile eta(s) = c_eta * profile(s) of the planar kernel."""

    gamma: float
    shape_id: str
    c_eta: float

    def eta(self, s) -> np.ndarray:
        return self.c_eta * PROFILES[self.shape_id][0](s)

    def eta_prime(self, s) -> np.ndarray:
        return self.c_eta * PROFILES[self.shape_id][1](s)

    def renormalization_residual(self) -> float:
        """Relative defect of the calibration integral against 2/C_2."""
        target = 2.0 / compute_cd(2)
        val, _ = quad(lambda s: self.eta(s) * s ** (2 + 1 - self.gamma), 0.0, 1.0, limit=200)
        return abs(val - target) / target

    def kernel_value(self, r, eps: float) -> np.ndarray:
        """J_eps at radius r (amplitude already includes GRADIENT_LIMIT_SCALE)."""
        amp = GRADIENT_LIMIT_SCALE / eps ** (2.0 - self.gamma + 2)
        return _on_support(lambda r: amp * self.eta(r / eps) / np.power(r, self.gamma), r, 0.0, eps)

    def kernel_radial_derivative(self, r, eps: float) -> np.ndarray:
        """dJ_eps/dr away from the origin (used for the W^{1,1} seminorm)."""
        amp = GRADIENT_LIMIT_SCALE / eps ** (2.0 - self.gamma + 2)
        g = self.gamma

        def dj(r):
            s = r / eps
            return amp * (
                self.eta_prime(s) / eps / np.power(r, g) - g * self.eta(s) / np.power(r, g + 1.0)
            )

        return _on_support(dj, r, 0.0, eps)


def calibrate_mollifier(gamma: float, shape_id: str = "bump") -> Mollifier:
    """Fix c_eta so the renormalization integral equals 2/C_2.

    The integral is linear in c_eta, so the calibration is the unique
    positive root of a one-dimensional linear equation. `Mollifier` is
    frozen, so one calibration per (gamma, shape_id) is kept and shared
    by every model built with it (e.g. each member of an eps sweep), however
    the arguments are passed.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma={gamma} outside the admissible range (0, 1)")
    if shape_id not in PROFILES:
        raise ValueError(f"unknown mollifier shape {shape_id!r}; known: {sorted(PROFILES)}")
    return _calibrated(float(gamma), shape_id)


@functools.lru_cache(maxsize=32)
def _calibrated(gamma: float, shape_id: str) -> Mollifier:
    base, _ = PROFILES[shape_id]
    raw, err = quad(
        lambda s: base(s) * s ** (2 + 1 - gamma), 0.0, 1.0, limit=400, epsabs=1e-14, epsrel=1e-13
    )
    if not np.isfinite(raw) or raw <= 0.0 or err > 1e-9 * raw:
        raise RuntimeError(f"mollifier calibration quadrature did not converge (I={raw}, err={err})")
    c_eta = (2.0 / compute_cd(2)) / raw
    return Mollifier(gamma=gamma, shape_id=shape_id, c_eta=float(c_eta))


# 4x4 tensor Gauss-Legendre rule of the cell averaging: numpy's leggauss(4) bits, fixed
_GL_X = np.array([-0.8611363115940526, -0.33998104358485626, 0.33998104358485626, 0.8611363115940526])
_GL_W = np.array([0.34785484513745357, 0.6521451548625464, 0.6521451548625464, 0.34785484513745357])
_GL_W2 = (_GL_W[:, None] * _GL_W[None, :]) / 4.0
# deepest quadtree level that may still be split
CELL_AVG_MAX_DEPTH = 30
# child quadrant signs, in the order the children are summed
_CHILD_SX = np.array([-1.0, -1.0, 1.0, 1.0])
_CHILD_SY = np.array([-1.0, 1.0, -1.0, 1.0])


def _gauss_cells(
    mollifier: Mollifier, eps: float, cx: np.ndarray, cy: np.ndarray, hx: float, hy: float
) -> np.ndarray:
    """4x4 Gauss rule for the mean of J_eps over each hx-by-hy cell centred at (cx, cy)."""
    X = cx[:, None, None] + _GL_X[:, None] * hx / 2.0
    Y = cy[:, None, None] + _GL_X[None, :] * hy / 2.0
    vals = _GL_W2 * mollifier.kernel_value(np.hypot(X, Y), eps)
    return vals.reshape(len(cx), 16).sum(axis=1)


def _sum_children(v: np.ndarray) -> np.ndarray:
    """0.25 * (v0 + v1 + v2 + v3) per row of an (n, 4) array, summed left to right."""
    return 0.25 * (((v[:, 0] + v[:, 1]) + v[:, 2]) + v[:, 3])


def _cell_averages(
    mollifier: Mollifier,
    eps: float,
    cx: np.ndarray,
    cy: np.ndarray,
    hx: float,
    hy: float,
    floor: float,
) -> np.ndarray:
    """Adaptive quadtree averages of J_eps over hx-by-hy lattice cells centred at (cx, cy).

    A cell's coarse estimate is the Gauss rule on the cell, its refined
    estimate the mean of the rule on its four children. A cell is accepted
    when |refined - coarse| <= CELL_AVG_REL_TOL*|refined| + floor (the
    absolute floor lets cells where the profile underflows terminate) or at
    depth CELL_AVG_MAX_DEPTH; otherwise its value is the mean of its
    children's averages. The |z|^-gamma singularity keeps deep refinement
    localized to the origin path.

    The quadtree is refined one depth at a time: all pending cells of a depth
    have their children evaluated in one array call, the children of the
    rejected cells become the next depth's pending cells (their coarse
    estimates are the parent's child values), and the averages are folded
    back bottom-up in child order. The acceptance test, the depth cap and
    the summation order are those of the scalar cell-by-cell recursion
    (kept in tests/test_kernel.py as the oracle), whose values this
    reproduces.
    """
    coarse = _gauss_cells(mollifier, eps, cx, cy, hx, hy)
    levels = []  # per depth: (refined estimates, rejected mask)
    for depth in range(CELL_AVG_MAX_DEPTH + 1):
        ccx = (cx[:, None] + _CHILD_SX * hx / 4.0).ravel()
        ccy = (cy[:, None] + _CHILD_SY * hy / 4.0).ravel()
        hx, hy = hx / 2.0, hy / 2.0
        parts = _gauss_cells(mollifier, eps, ccx, ccy, hx, hy).reshape(-1, 4)
        refined = _sum_children(parts)
        split = ~(np.abs(refined - coarse) <= CELL_AVG_REL_TOL * np.abs(refined) + floor)
        if depth == CELL_AVG_MAX_DEPTH:
            split[:] = False
        levels.append((refined, split))
        if not split.any():
            break
        cx = ccx.reshape(-1, 4)[split].ravel()
        cy = ccy.reshape(-1, 4)[split].ravel()
        coarse = parts[split].ravel()

    avg = levels[-1][0]
    for refined, split in reversed(levels[:-1]):
        refined[split] = _sum_children(avg.reshape(-1, 4))
        avg = refined
    return avg


@dataclass(eq=False)
class KernelGrid:
    """J_eps of `mollifier` sampled on the (2nx, 2ny) displacement lattice in FFT layout.

    values[m % 2nx, l % 2ny] holds the kernel at displacement (m dx, l dy)
    for m in [-nx, nx), l in [-ny, ny); symmetry J(-z) = J(z) is exact by
    mirrored construction.
    """

    grid: Grid
    epsilon: float
    mollifier: Mollifier
    values: np.ndarray
    under_resolved: bool = False
    _spectrum: np.ndarray | None = field(default=None, repr=False)

    def spectrum(self) -> np.ndarray:
        if self._spectrum is None:
            self._spectrum = _pfft.r2c(self.values, (0, 1), True, 0, None, 1)  # rfft2
        return self._spectrum

    def l1(self) -> float:
        return float(np.sum(np.abs(self.values)) * self.grid.cell_area)


def sample_kernel(mollifier: Mollifier, epsilon: float, grid: Grid) -> KernelGrid:
    """Sample J_eps on the padded displacement lattice.

    Pointwise midpoint values in the bulk of the support keep the lattice
    second moment spectrally accurate; cells near the origin (where |z|^-gamma
    makes midpoint sampling misstate the cell mass) and, for resolved kernels,
    cells straddling the support circle receive adaptive cell averages.
    Lattice cells whose center lies outside the support are exactly zero.

    All averaged cells are refined together, level by level: each quadtree
    depth is one batched Gauss-rule evaluation (see `_cell_averages`). The
    acceptance test and the depth cap are those of the scalar cell-by-cell
    recursion, whose values this reproduces.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    h = max(grid.dx, grid.dy)
    under = epsilon < 2.0 * h
    if under:
        warnings.warn(
            f"kernel eps={epsilon} spans fewer than two cells (h={h}); "
            "sampled kernel is under-resolved",
            KernelResolutionWarning,
            stacklevel=2,
        )

    nx, ny = grid.nx, grid.ny
    dx, dy = grid.dx, grid.dy
    values = np.zeros((2 * nx, 2 * ny))

    ring = min(AVG_RING_MAX, int(AVG_RING_FRACTION * epsilon / h))
    edge_avg = epsilon >= RESOLVED_CELLS * h
    half_diag = 0.5 * np.hypot(dx, dy)
    # absolute tolerance floor: tiny fraction of the mid-support kernel value
    floor = 1e-10 * float(mollifier.kernel_value(epsilon / 2.0, epsilon))

    # first quadrant of displacement indices, then mirror for exact symmetry
    mi_max = min(nx, int(epsilon / dx) + 1)
    mj_max = min(ny, int(epsilon / dy) + 1)
    mi = np.arange(mi_max + 1)
    mj = np.arange(mj_max + 1)
    ZX, ZY = np.meshgrid(mi * dx, mj * dy, indexing="ij")
    R = np.hypot(ZX, ZY)
    quadrant = mollifier.kernel_value(R, epsilon)

    inside = R < epsilon
    in_ring = np.maximum(mi[:, None], mj[None, :]) <= ring
    on_edge = edge_avg & (R + half_diag > epsilon)
    avg = inside & (in_ring | on_edge)
    quadrant[avg] = _cell_averages(mollifier, epsilon, ZX[avg], ZY[avg], dx, dy, floor)

    # the index sets {m, -m} mod 2n of distinct m in [0, n] are disjoint
    for rows in (mi % (2 * nx), (-mi) % (2 * nx)):
        for cols in (mj % (2 * ny), (-mj) % (2 * ny)):
            values[np.ix_(rows, cols)] = quadrant

    return KernelGrid(
        grid=grid,
        epsilon=float(epsilon),
        mollifier=mollifier,
        values=values,
        under_resolved=under,
    )


def _check_same_grid(kernel: KernelGrid, values: np.ndarray) -> None:
    if values.shape != kernel.grid.shape:
        raise ValueError(
            f"field shape {values.shape} does not match kernel grid {kernel.grid.shape}"
        )


def convolve(kernel: KernelGrid, values: np.ndarray) -> np.ndarray:
    """(J * phi)(x) = int_Omega J(x - y) phi(y) dy by zero-padded FFT.

    The result is bitwise that of `irfft2(rfft2(pad) * spectrum)` on the
    (2nx, 2ny) zero-padded field, computed pass by pass: `rfft2` is an r2c
    pass along axis 1 and then a c2c pass along axis 0, `irfft2` the reverse.
    Each pass calls pocketfft as `scipy.fft.rfft`, `fft`, `ifft` and `irfft` call it.
    Rows nx..2nx-1 of the padded field are zero, so the r2c pass runs only on
    the nx rows of `values`; only rows < nx of the result are kept, so the
    c2r pass runs only on those. Both inverse passes are unnormalised and the
    1/(4 nx ny) of `irfft2` is applied once, at the end, as `irfft2` applies
    it; scaling each pass on its own changes the rounding.

    Two buffers carry every pass: the (nx, 2ny) zero-padded field, into which
    the c2r pass writes back, and the (2nx, ny + 1) spectrum, which the r2c
    pass fills in its first nx rows and the c2c passes transform in place.
    The spectrum is freed before the result, the scaled first ny columns of
    the padded field, is made, so a call holds at most the two buffers.
    """
    _check_same_grid(kernel, values)
    g = kernel.grid
    nx, ny = g.nx, g.ny
    pad = np.zeros((nx, 2 * ny))
    pad[:, :ny] = values
    spec = np.zeros((2 * nx, ny + 1), complex)
    _pfft.r2c(pad, (1,), True, 0, spec[:nx], 1)
    _pfft.c2c(spec, (0,), True, 0, spec, 1)
    spec *= kernel.spectrum()
    _pfft.c2c(spec, (0,), False, 0, spec, 1)
    _pfft.c2r(spec[:nx], (1,), 2 * ny, False, 0, pad, 1)
    del spec
    out = pad[:, :ny] * (1.0 / (4 * nx * ny))
    out *= g.cell_area
    return out


def convolve_direct(kernel: KernelGrid, values: np.ndarray) -> np.ndarray:
    """O(N^4) direct double sum; oracle for `convolve` on small grids."""
    _check_same_grid(kernel, values)
    g = kernel.grid
    if g.nx * g.ny > DIRECT_MAX_CELLS:
        raise ValueError(f"direct convolution limited to {DIRECT_MAX_CELLS} cells")
    K = kernel.values
    out = np.zeros(g.shape)
    ix = np.arange(g.nx)
    jy = np.arange(g.ny)
    for i in range(g.nx):
        rows = (i - ix) % (2 * g.nx)
        for j in range(g.ny):
            cols = (j - jy) % (2 * g.ny)
            out[i, j] = np.sum(K[np.ix_(rows, cols)] * values)
    return out * g.cell_area


def compute_a(kernel: KernelGrid) -> np.ndarray:
    """a(x) = int_Omega J(x - y) dy, i.e. the kernel convolved with 1."""
    a = convolve(kernel, np.ones(kernel.grid.shape))
    if float(a.min()) < -1e-14:
        raise ValueError(
            f"coefficient a(x) has negative values (min {a.min():.3e}); kernel sampling bug"
        )
    return a


def kernel_norms(kernel: KernelGrid) -> dict[str, float]:
    """Lattice W^{1,1}-type norms: {'l1': int |J|, 'grad_l1': int |grad J|}.

    Centered differences on the displacement lattice away from the origin
    ring; radial quadrature of |dJ/dr| of the kernel's calibrated mollifier
    over the near-origin disc where the lattice cannot resolve the singular
    slope.
    """
    g = kernel.grid
    l1 = kernel.l1()

    h = max(g.dx, g.dy)
    ring = min(AVG_RING_MAX, int(AVG_RING_FRACTION * kernel.epsilon / h)) + 1
    r0 = min((ring + 0.5) * h, kernel.epsilon)

    # profiles here are nonincreasing, so |J'| = -J' and the integrand is smooth
    dj = functools.partial(kernel.mollifier.kernel_radial_derivative, eps=kernel.epsilon)
    grad_inner, _ = quad(lambda r: 2.0 * np.pi * r * abs(float(dj(r))), 0.0, r0, limit=200)

    K = np.roll(kernel.values, (g.nx, g.ny), axis=(0, 1))  # fftshift
    zx = (np.arange(2 * g.nx) - g.nx)[:, None] * g.dx
    zy = (np.arange(2 * g.ny) - g.ny)[None, :] * g.dy
    outer = np.hypot(zx, zy) > r0
    gx = np.zeros_like(K)
    gy = np.zeros_like(K)
    gx[1:-1, :] = (K[2:, :] - K[:-2, :]) / (2.0 * g.dx)
    gy[:, 1:-1] = (K[:, 2:] - K[:, :-2]) / (2.0 * g.dy)
    grad_outer = float(np.sum(np.hypot(gx, gy)[outer]) * g.cell_area)

    return {"l1": l1, "grad_l1": grad_inner + grad_outer}
