"""nlchb: a 2D nonlocal two-phase-flow simulator with convective heat transfer.

Phase separation follows a nonlocal interface model (convolution-kernel free
energy) coupled to incompressible flow through capillary and buoyancy forces
and to a temperature field through a latent-heat balance. The package also
ships the experiment harness that measures the kernel-to-gradient limit of the
interface energy, of the diffusion operator, and of full solutions.
"""

from .config import ConfigError, RunConfig, parse_config
from .energy import (
    EnergyLedger,
    dissipation,
    e_local,
    e_nl,
    energy_budget_residual,
    total_energy,
)
from .grid import (
    Grid,
    MacVelocity,
    NonFiniteError,
    dct2_inverse,
    dct2_transform,
    field_reductions,
    gradient_cc,
    helmholtz_solve,
    laplacian_neumann,
    make_grid,
)
from .kernel import (
    KernelGrid,
    Mollifier,
    calibrate_mollifier,
    compute_a,
    compute_cd,
    convolve,
    convolve_direct,
    kernel_norms,
    sample_kernel,
)
from .limits import SweepReport, gamma_sweep, solution_sweep, weak_operator_check
from .physics import (
    MaterialParams,
    PotentialParams,
    ValidationReport,
    buoyancy,
    mu_local,
    mu_nonlocal,
    potential_eval,
    validate_assumptions,
    viscosity,
)
from .snapshots import read_snapshot, write_ppm, write_snapshot
from .solver import (
    BlowUpError,
    Forcing,
    Model,
    SimState,
    advance,
    integrate,
    project,
    step_ch,
    step_heat,
    step_ns,
    suggest_dt,
)

__version__ = "0.1.0"
