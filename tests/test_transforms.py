"""nlchb's transforms against the public `scipy.fft` calls they replace, bit for bit.

nlchb calls scipy's compiled pocketfft itself (`grid._pfft`, loaded by file
so that the `scipy.fft` package is never imported) with the arguments that
scipy's wrappers pass it. The oracles below are the `scipy.fft` calls the
code made before; every comparison is on the raw 64-bit words, and inputs
that those calls left alone must still be left alone. The last test breaks
the file lookup and checks that the package fallback gives the same run.
"""

import functools
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy import fft as sfft

import nlchb.grid
from nlchb.cli import main
from nlchb.grid import MacVelocity, dct2_inverse, dct2_transform, face_difference, make_grid
from nlchb.kernel import calibrate_mollifier, convolve, sample_kernel
from nlchb.solver import _implicit_solve, _sine_denominators, project

from test_cli import FAST_RUN, write_cfg

ROOT = pathlib.Path(__file__).resolve().parent.parent
SHAPES = [(16, 16), (17, 24), (64, 64), (256, 128)]
SCALES = [1e-8, 1.0, 1e3]


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# ---------------------------------------------------------------- oracles


def scipy_dct2_transform(values):
    coeffs = sfft.dctn(values, type=2)
    coeffs /= 4.0
    return coeffs


def scipy_dct2_inverse(coeffs):
    return sfft.idctn(coeffs * 4.0, type=2, overwrite_x=True)


def scipy_project(grid, vel):
    coeffs = sfft.dctn(vel.divergence(), type=2, overwrite_x=True)
    coeffs /= 4.0
    np.negative(coeffs, out=coeffs)
    lam_safe = grid.laplacian_eigenvalues().copy()
    lam_safe[0, 0] = 1.0
    coeffs /= lam_safe
    coeffs[0, 0] = 0.0
    psi = scipy_dct2_inverse(coeffs)
    out = vel.copy()
    out.u[1:-1, :] -= face_difference(psi, 0, grid.dx)
    out.v[:, 1:-1] -= face_difference(psi, 1, grid.dy)
    return out


def scipy_implicit_solve(den, sine1_axis, rhs_int):
    types = (1, 2) if sine1_axis == 0 else (2, 1)
    chat = sfft.dst(rhs_int, type=types[0], axis=0)
    chat = sfft.dst(chat, type=types[1], axis=1, overwrite_x=True)
    chat /= den
    chat = sfft.idst(chat, type=2, axis=1 - sine1_axis, overwrite_x=True)
    return sfft.idst(chat, type=1, axis=sine1_axis, overwrite_x=True)


def scipy_convolve(kernel, values):
    nx, ny = kernel.grid.shape
    spec = sfft.fft(sfft.rfft(values, n=2 * ny, axis=1), n=2 * nx, axis=0, overwrite_x=True)
    spec *= sfft.rfft2(kernel.values)
    rows = sfft.ifft(spec, axis=0, norm="forward", overwrite_x=True)[:nx]
    out = sfft.irfft(rows, n=2 * ny, axis=1, norm="forward")[:, :ny]
    return out * (1.0 / (4 * nx * ny)) * kernel.grid.cell_area


@functools.lru_cache(maxsize=None)
def kernel_on(shape):
    return sample_kernel(calibrate_mollifier(0.5), 0.3, make_grid(*shape, 1.0, 1.3))


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
class TestSameBitsAsScipyFft:
    def test_cosine_transforms(self, shape):
        rng = np.random.default_rng(1)
        for scale in SCALES:
            values = scale * rng.standard_normal(shape)
            assert same_bits(dct2_transform(values), scipy_dct2_transform(values))
            coeffs = scale * rng.standard_normal(shape)
            kept = coeffs.copy()
            assert same_bits(dct2_inverse(coeffs), scipy_dct2_inverse(coeffs))
            assert same_bits(coeffs, kept)

    def test_project(self, shape):
        g = make_grid(*shape, 1.0, 1.3)
        rng = np.random.default_rng(2)
        for scale in SCALES:
            vel = MacVelocity(g, scale * rng.standard_normal((g.nx + 1, g.ny)),
                              scale * rng.standard_normal((g.nx, g.ny + 1)))
            new, old = project(g, vel), scipy_project(g, vel)
            assert same_bits(new.u, old.u) and same_bits(new.v, old.v)

    @pytest.mark.parametrize("alpha, nu", [(1.0 / 2e-5, 0.125), (1.0 / 1.7e-3, 1.0)])
    def test_implicit_solves_on_both_face_sets(self, shape, alpha, nu):
        # the interior views step_ns hands over: rows of u, columns of v
        g = make_grid(*shape, 1.0, 1.3)
        rng = np.random.default_rng(3)
        dens = _sine_denominators(g, alpha, nu)
        for scale in SCALES:
            faces = (scale * rng.standard_normal((g.nx + 1, g.ny)),
                     scale * rng.standard_normal((g.nx, g.ny + 1)))
            for axis, rhs_int in enumerate((faces[0][1:-1, :], faces[1][:, 1:-1])):
                kept = rhs_int.copy()
                expected = scipy_implicit_solve(dens[axis], axis, rhs_int)
                assert same_bits(_implicit_solve(dens[axis], axis, rhs_int), expected)
                assert same_bits(rhs_int, kept)

    def test_kernel_spectrum_and_convolve(self, shape):
        kernel = kernel_on(shape)
        assert same_bits(kernel.spectrum(), sfft.rfft2(kernel.values))
        rng = np.random.default_rng(4)
        for scale in SCALES:
            values = scale * (rng.standard_normal(shape) + 0.3)
            kept = values.copy()
            assert same_bits(convolve(kernel, values), scipy_convolve(kernel, values))
            assert same_bits(values, kept)


# Make the file lookup fail (scipy "lives" in an empty folder), then run.
FALLBACK_RUN = """
import importlib.machinery, importlib.util, os, sys
empty, cfg = sys.argv[1], sys.argv[2]
raw = importlib.util.find_spec

def find_spec(name, package=None):
    if name == "scipy":
        return importlib.machinery.ModuleSpec("scipy", None, origin=os.path.join(empty, "__init__.py"))
    return raw(name, package)

importlib.util.find_spec = find_spec
import nlchb.grid
from nlchb.cli import main
assert nlchb.grid._pfft is sys.modules["scipy.fft._pocketfft.pypocketfft"]
sys.exit(main(["run", cfg]))
"""


def checkpoint_payload(out_dir):
    blob = (out_dir / "checkpoint.bin").read_bytes()
    return blob[blob.index(b"\nend\n") + len(b"\nend\n"):]


def test_package_fallback_runs_the_same_bits(tmp_path):
    assert nlchb.grid._pfft is not sys.modules.get("scipy.fft._pocketfft.pypocketfft")
    direct, fallback = tmp_path / "direct", tmp_path / "fallback"
    empty = tmp_path / "empty"
    for d in (direct, fallback, empty):
        d.mkdir()
    assert main(["run", write_cfg(direct, FAST_RUN)]) == 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run([sys.executable, "-c", FALLBACK_RUN, str(empty), write_cfg(fallback, FAST_RUN)],
                           env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert checkpoint_payload(fallback / "out") == checkpoint_payload(direct / "out")
