"""nlchb: a 2D nonlocal two-phase-flow simulator with convective heat transfer.

Phase separation follows a nonlocal interface model (convolution-kernel free
energy) coupled to incompressible flow through capillary and buoyancy forces
and to a temperature field through a latent-heat balance. The package also
ships the experiment harness that measures the kernel-to-gradient limit of the
interface energy, of the diffusion operator, and of full solutions.

The names below are what a script needs to parse a config, build a model,
step it and run the limit studies; everything else lives in the submodules.
"""

from .config import ConfigError, RunConfig, parse_config
from .energy import EnergyLedger
from .limits import gamma_sweep, solution_sweep, weak_operator_check
from .solver import BlowUpError, Forcing, Model, ModelSpec, SimState, integrate

__version__ = "0.1.0"
