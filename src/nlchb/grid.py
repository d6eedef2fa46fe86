"""Cell-centered rectangular grid, Neumann-compatible cosine transforms, and field integrals.

Scalar fields live at cell centers as (nx, ny) float64 arrays indexed [i, j]
with x first. Velocity components live on cell faces (MAC arrangement, see
`MacVelocity`). Scalar solves use the even-symmetric cosine basis, whose modes
are the exact eigenvectors of the 3-point Laplacian with homogeneous Neumann
boundary conditions realised by even ghost reflection; the no-slip velocity
solves use the sine bases of the interior faces. One 1-D formula,
`_eigenvalues_1d`, gives every table these solves divide by.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "MacVelocity",
    "dct2_transform",
    "dct2_inverse",
    "laplacian_neumann",
    "helmholtz_solve",
    "face_difference",
    "face_average",
    "centers_to_faces",
    "gradient_cc",
    "field_integral",
    "h1_seminorm",
]

MIN_CELLS = 8


def _load_pocketfft():
    """scipy's compiled pocketfft, loaded by file: the `scipy.fft` package would also
    load scipy.special, numpy.f2py and numpy.testing. Each transform passes it the
    arguments that scipy.fft's wrappers pass for norm None/"forward" and one worker."""
    scipy = importlib.util.find_spec("scipy")
    folder = os.path.join(os.path.dirname(scipy.origin), "fft", "_pocketfft") if scipy else None
    for suffix in importlib.machinery.EXTENSION_SUFFIXES if folder else ():
        path = os.path.join(folder, "pypocketfft" + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader("pypocketfft", path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location("pypocketfft", path, loader=loader))
            loader.exec_module(module)
            return module
    from scipy.fft._pocketfft import pypocketfft  # no such file: the same module, by package
    return pypocketfft


_pfft = _load_pocketfft()


def _eigenvalues_1d(k: np.ndarray, n: int, d: float) -> np.ndarray:
    """Eigenvalues of the 1-D 3-point -Delta on n cells of width d: cosine modes k from 0,
    sine modes from 1."""
    return (2.0 / d**2) * (1.0 - np.cos(np.pi * k / n))


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered discretization of [0, Lx] x [0, Ly]."""

    nx: int
    ny: int
    Lx: float
    Ly: float

    def __post_init__(self) -> None:
        if self.nx < MIN_CELLS or self.ny < MIN_CELLS:
            raise ValueError(
                f"grid must have at least {MIN_CELLS} cells per direction, "
                f"got {self.nx} x {self.ny}"
            )
        if not (self.Lx > 0.0 and self.Ly > 0.0):
            raise ValueError(f"domain lengths must be positive, got {self.Lx}, {self.Ly}")

    @property
    def dx(self) -> float:
        return self.Lx / self.nx

    @property
    def dy(self) -> float:
        return self.Ly / self.ny

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid (indexing='ij') of cell-center coordinates."""
        x = (np.arange(self.nx) + 0.5) * self.dx
        y = (np.arange(self.ny) + 0.5) * self.dy
        return np.meshgrid(x, y, indexing="ij")

    def laplacian_eigenvalues(self) -> np.ndarray:
        """Eigenvalues lambda[k, l] >= 0 of -Delta_N in the discrete cosine basis.

        These are the exact eigenvalues of the second-order 3-point stencil
        with even ghost reflection, so spectral division inverts the same
        operator the finite-difference residual checks use. The array is built
        once per grid and returned read-only; copy it before changing it.
        """
        lam = self.__dict__.get("_laplacian_eigenvalues")
        if lam is None:
            lx = _eigenvalues_1d(np.arange(self.nx), self.nx, self.dx)
            ly = _eigenvalues_1d(np.arange(self.ny), self.ny, self.dy)
            lam = lx[:, None] + ly[None, :]
            lam.flags.writeable = False
            object.__setattr__(self, "_laplacian_eigenvalues", lam)
        return lam

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape)


def make_grid(nx: int, ny: int, Lx: float, Ly: float) -> Grid:
    """Construct a validated grid (rejects undersized or non-positive input)."""
    return Grid(int(nx), int(ny), float(Lx), float(Ly))


@dataclass(eq=False)
class MacVelocity:
    """Staggered velocity: u on x-faces (nx+1, ny), v on y-faces (nx, ny+1).

    Normal components on the domain boundary are pinned to zero
    (no-penetration); the constructor enforces this.
    """

    grid: Grid
    u: np.ndarray | None = None
    v: np.ndarray | None = None

    def __post_init__(self) -> None:
        nx, ny = self.grid.nx, self.grid.ny
        if self.u is None:
            self.u = np.zeros((nx + 1, ny))
        if self.v is None:
            self.v = np.zeros((nx, ny + 1))
        if self.u.shape != (nx + 1, ny) or self.v.shape != (nx, ny + 1):
            raise ValueError("MAC component shapes do not match grid")
        self.enforce_boundary()

    def enforce_boundary(self) -> None:
        self.u[0, :] = 0.0
        self.u[-1, :] = 0.0
        self.v[:, 0] = 0.0
        self.v[:, -1] = 0.0

    def copy(self) -> "MacVelocity":
        return MacVelocity(self.grid, self.u.copy(), self.v.copy())

    def divergence(self) -> np.ndarray:
        """Discrete divergence at cell centers."""
        out = face_difference(self.u, 0, self.grid.dx)
        out += face_difference(self.v, 1, self.grid.dy)
        return out

    def max_speed(self) -> float:
        """max |u| over both face arrays of a finite velocity (`advance` checks
        that before the ledger row reads it), +0.0 at rest, with no |u| array."""
        u, v = self.u, self.v
        return float(max(u.max(), -u.min(), v.max(), -v.min())) + 0.0


def dct2_transform(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Forward cosine transform, into `out` when given; coefficient (0, 0) is nx*ny*mean.

    Normalization: pocketfft's unnormalized DCT-II, called as `scipy.fft.dctn`
    calls it, divided by 4, fixed so that constants map to the single (0, 0)
    coefficient with the documented scale. The input is not checked: NaN and
    inf carry through to the coefficients.
    """
    coeffs = _pfft.dct(values, 2, (0, 1), 0, out, 1)
    coeffs /= 4.0
    return coeffs


def dct2_inverse(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of `dct2_transform` (exact round trip up to rounding).

    `coeffs` is left unchanged: the transform runs in place on the scaled copy.
    """
    scaled = coeffs * 4.0
    return _pfft.dct(scaled, 3, (0, 1), 2, scaled, 1)


def laplacian_neumann(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Neumann Laplacian applied spectrally (zero-mean output by construction)."""
    coeffs = dct2_transform(values)
    coeffs *= grid.laplacian_eigenvalues()
    np.negative(coeffs, out=coeffs)  # -(lam c) has the bits of (-lam) c
    return dct2_inverse(coeffs)


@functools.lru_cache(maxsize=32)
def _helmholtz_denominator(grid: Grid, alpha: float, beta: float) -> np.ndarray:
    """alpha + beta * lambda, built once per (grid, alpha, beta) and returned read-only."""
    den = alpha + beta * grid.laplacian_eigenvalues()
    den.flags.writeable = False
    return den


def helmholtz_solve(grid: Grid, alpha: float, beta: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (alpha*I - beta*Delta_N) w = rhs by diagonal spectral division.

    The denominator alpha + beta * lambda is fixed for a run (alpha = 1/dt,
    beta = S or kappa). It is built once per (grid, alpha, beta) and kept
    read-only in `_helmholtz_denominator`, an LRU cache of 32 entries (a
    sweep holds one S per member) that nothing needs to reset.
    """
    if alpha <= 0.0:
        raise ValueError("helmholtz_solve requires alpha > 0 (singular on constants otherwise)")
    if beta < 0.0:
        raise ValueError("helmholtz_solve requires beta >= 0")
    coeffs = dct2_transform(rhs)
    coeffs /= _helmholtz_denominator(grid, alpha, beta)
    return dct2_inverse(coeffs)


@functools.lru_cache(maxsize=16)
def _sine_denominators(grid: Grid, alpha: float, nu: float) -> tuple[np.ndarray, np.ndarray]:
    """alpha + nu * lambda for the no-slip solves, with lambda the eigenvalues of
    -Delta on the interior x-faces (sine-I in x, sine-II in y) and on the
    interior y-faces (sine-II in x, sine-I in y).

    Built once per (grid, alpha, nu), i.e. once per run, and returned read-only.
    """
    lx = _eigenvalues_1d(np.arange(1, grid.nx + 1), grid.nx, grid.dx)
    ly = _eigenvalues_1d(np.arange(1, grid.ny + 1), grid.ny, grid.dy)
    den_u = alpha + nu * (lx[:-1, None] + ly[None, :])
    den_v = alpha + nu * (lx[:, None] + ly[None, :-1])
    den_u.flags.writeable = False
    den_v.flags.writeable = False
    return den_u, den_v


def _implicit_solve(den: np.ndarray, sine1_axis: int, rhs_int: np.ndarray) -> np.ndarray:
    """(alpha - nu Delta) on one face set, `den` its `_sine_denominators` entry: sine-I
    along `sine1_axis`, sine-II along the other, which the inverse transforms first."""
    types = (1, 2) if sine1_axis == 0 else (2, 1)
    chat = _pfft.dst(rhs_int, types[0], (0,), 0, None, 1)
    _pfft.dst(chat, types[1], (1,), 0, chat, 1)
    chat /= den
    _pfft.dst(chat, 3, (1 - sine1_axis,), 2, chat, 1)  # idst type 2
    return _pfft.dst(chat, 1, (sine1_axis,), 2, chat, 1)  # idst type 1


def _along(values: np.ndarray, axis: int, start: int | None, stop: int | None) -> np.ndarray:
    """The view values[start:stop] along `axis`."""
    return values[(slice(None),) * axis + (slice(start, stop),)]


def face_difference(values: np.ndarray, axis: int, d: float) -> np.ndarray:
    """(f[1:] - f[:-1]) / d along `axis`, built in one new array: centers to
    the interior faces normal to `axis`, or those faces to centers."""
    out = np.subtract(_along(values, axis, 1, None), _along(values, axis, None, -1))
    out /= d
    return out


def face_average(values: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """0.5 * (f[1:] + f[:-1]) along `axis`, into `out` when given."""
    out = np.add(_along(values, axis, 1, None), _along(values, axis, None, -1), out=out)
    out *= 0.5
    return out


def centers_to_faces(values: np.ndarray, axis: int) -> np.ndarray:
    """Interpolate a cell-centered field to the faces normal to `axis`; the
    two boundary faces copy their cell."""
    ends = _along(values, axis, None, 1), _along(values, axis, -1, None)
    return np.concatenate((ends[0], face_average(values, axis), ends[1]), axis=axis)


def gradient_cc(grid: Grid, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centered gradient at cell centers with even-reflection ghost cells.

    The boundary stencil (f[1]-f[0])/(2 dx) is the centered difference with
    the ghost value f[-1] := f[0]; second order for Neumann-compatible fields.
    The input is not checked: NaN and inf carry through to the gradient.
    """
    grads = []
    for axis, d in enumerate((grid.dx, grid.dy)):
        grad = np.empty(grid.shape)
        f, out = values.swapaxes(0, axis), grad.swapaxes(0, axis)
        np.subtract(f[2:], f[:-2], out=out[1:-1])
        np.subtract(f[1], f[0], out=out[0])
        np.subtract(f[-1], f[-2], out=out[-1])
        grad /= 2.0 * d
        grads.append(grad)
    return tuple(grads)


def _grad_sq(grid: Grid, values: np.ndarray) -> float:
    """int |grad values|^2 of `gradient_cc`, squared and summed in its arrays."""
    gx, gy = gradient_cc(grid, values)
    gx *= gx
    gy *= gy
    gx += gy
    return float(np.sum(gx) * grid.cell_area)


def field_integral(grid: Grid, values: np.ndarray) -> float:
    """Midpoint-rule integral over the domain."""
    return float(values.sum() * grid.cell_area)


def h1_seminorm(grid: Grid, values: np.ndarray) -> float:
    return float(np.sqrt(_grad_sq(grid, values)))
