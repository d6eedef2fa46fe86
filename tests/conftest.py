"""Shared fixtures: the standard spinodal-decomposition configuration.

These parameters are frozen; the acceptance suite depends on them.
"""

import sys

import numpy as np
import pytest

from nlchb.energy import _energy_integrals, e_local, e_nl, total_energy
from nlchb.grid import MacVelocity, make_grid
from nlchb.physics import MaterialParams, PotentialParams
from nlchb.solver import SimState

SPINODAL_ETA_F = 150.0
SPINODAL_GAMMA = 0.5


def spinodal_material():
    return MaterialParams(
        K_cap=0.05,
        l_c=0.5,
        l_h=0.5,
        kappa=1.0,
        nu_min=1.0,
        nu_max=1.0,
    )


def spinodal_potential():
    return PotentialParams(eta_f=SPINODAL_ETA_F)


def spinodal_phi0(grid, mean_offset=0.0):
    X, Y = grid.cell_centers()
    return 0.2 * np.cos(2.0 * np.pi * X) * np.cos(np.pi * Y) + mean_offset


def spinodal_state(grid):
    return SimState(
        t=0.0,
        step=0,
        phi=spinodal_phi0(grid),
        theta=grid.zeros(),
        vel=MacVelocity(grid),
    )


def smooth_flow_state(grid):
    """Smooth state with all three fields active (order-of-accuracy fixture)."""
    import numpy as np

    from nlchb.solver import project

    X, Y = grid.cell_centers()
    phi = 0.2 * np.cos(2.0 * np.pi * X) * np.cos(np.pi * Y)
    theta = 0.1 * np.cos(np.pi * X)
    vel = MacVelocity(grid)
    amp = 0.05
    xf = (np.arange(grid.nx + 1) * grid.dx)[:, None]
    yc = ((np.arange(grid.ny) + 0.5) * grid.dy)[None, :]
    vel.u[:, :] = amp * np.sin(np.pi * xf) ** 2 * 2.0 * np.pi * np.sin(np.pi * yc) * np.cos(np.pi * yc)
    xc = ((np.arange(grid.nx) + 0.5) * grid.dx)[:, None]
    yf = (np.arange(grid.ny + 1) * grid.dy)[None, :]
    vel.v[:, :] = -amp * 2.0 * np.pi * np.sin(np.pi * xc) * np.cos(np.pi * xc) * np.sin(np.pi * yf) ** 2
    vel.enforce_boundary()
    return SimState(t=0.0, step=0, phi=phi, theta=theta, vel=project(grid, vel))


def fields_energy(grid, phi, theta, vel, mode, potential, material, kernel=None, a=None):
    """E of the fields through `total_energy`, from e_nl (nonlocal) or e_local
    and `_energy_integrals` computed afresh: the reference a state's memo is
    checked against."""
    interface = e_nl(kernel, a, phi) if mode == "nonlocal" else e_local(grid, phi)
    integrals = _energy_integrals(grid, phi, theta, vel, potential)
    return total_energy(mode, material, interface, integrals)


@pytest.fixture(scope="session")
def grid64():
    return make_grid(64, 64, 1.0, 1.0)


@pytest.fixture(scope="session")
def grid32():
    return make_grid(32, 32, 1.0, 1.0)


def patch_everywhere(monkeypatch, raw, replacement):
    """Replace the function `raw` at every nlchb binding, module attributes and
    methods of the classes they hold."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "nlchb" or name.startswith("nlchb.")):
            classes = [v for v in vars(module).values() if isinstance(v, type)]
            for owner in [module, *classes]:
                for key, value in list(vars(owner).items()):
                    if value is raw:
                        monkeypatch.setattr(owner, key, replacement)


def count_calls(monkeypatch, raw):
    """Wrap the function `raw` at every nlchb binding (see `patch_everywhere`);
    returns the list of calls' arguments."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return raw(*args, **kwargs)

    patch_everywhere(monkeypatch, raw, counted)
    return calls
