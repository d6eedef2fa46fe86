"""Kernel-limit studies: energy convergence, weak operator limit, and full-solution sweeps.

Conventions: the sampled kernel family is normalized so that its lattice
quadratic form tends to the Dirichlet energy (1/2) int |grad phi|^2 as the
interaction length shrinks, and the bilinear operator form tends to
(1/2) int grad phi1 . grad phi2 accordingly. Solution sweeps compare nonlocal
runs against a local-mode reference; the end-time energy gap is evaluated
like-for-like through the local functional for both states, since the
nonlocal and local total-energy displays weight the bulk term differently.

Convergence is reported as the `abs_error` column of a kernel sweep (and the
distance columns of a solution sweep), never as fitted rates.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .energy import EnergyLedger, e_local, e_nl
from .grid import Grid, gradient_cc
from .kernel import calibrate_mollifier, compute_a, convolve, sample_kernel
from .physics import MaterialParams, PotentialParams
from .solver import BlowUpError, Model, ModelSpec, SimState, advance, integrate, suggest_dt

__all__ = [
    "SweepReport",
    "gamma_sweep",
    "weak_operator_check",
    "solution_sweep",
]


@dataclass
class SweepReport:
    """Per-epsilon table of scalars plus metadata; epsilons strictly decreasing."""

    kind: str
    eps: list[float]
    columns: dict[str, list[float]]
    target: float | None = None
    metadata: dict = field(default_factory=dict)
    valid: list[bool] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not all(a > b for a, b in zip(self.eps, self.eps[1:])):
            raise ValueError("eps values must be strictly decreasing")
        if not self.valid:
            self.valid = [True] * len(self.eps)

    def csv_lines(self) -> list[str]:
        lines = [f"# kind = {self.kind}"]
        for k in sorted(self.metadata):
            lines.append(f"# {k} = {self.metadata[k]}")
        if self.target is not None:
            lines.append(f"# target = {self.target!r}")
        names = sorted(self.columns)
        lines.append(",".join(["eps"] + names + ["valid"]))
        for i, eps in enumerate(self.eps):
            row = [repr(eps)] + [repr(self.columns[n][i]) for n in names]
            row.append("1" if self.valid[i] else "0")
            lines.append(",".join(row))
        return lines


def _check_eps_list(eps_list) -> list[float]:
    eps = [float(e) for e in eps_list]
    bad = [e for e in eps if not math.isfinite(e)]
    if bad:
        raise ValueError(f"eps must be finite, got {', '.join(map(str, bad))}")
    if not eps or not all(a > b for a, b in zip(eps, eps[1:])):
        raise ValueError("eps list must be nonempty and strictly decreasing")
    return eps


def _kernel_sweep(
    kind: str, grid: Grid, eps_list, gamma: float, shape_id: str, target: float, measure
) -> SweepReport:
    """Table over eps of the columns `measure(kernel, a)` returns, one kernel
    sampled per eps, plus `abs_error`: |first column - target|."""
    eps = _check_eps_list(eps_list)
    mollifier = calibrate_mollifier(gamma, shape_id=shape_id)
    columns: dict[str, list[float]] = {}
    resolved = []
    for e in eps:
        kernel = sample_kernel(mollifier, e, grid)
        for name, value in measure(kernel, compute_a(kernel)).items():
            columns.setdefault(name, []).append(value)
        resolved.append(not kernel.under_resolved)
    columns["abs_error"] = [abs(v - target) for v in next(iter(columns.values()))]
    return SweepReport(
        kind=kind,
        eps=eps,
        columns=columns,
        target=target,
        metadata={"gamma": gamma, "shape": shape_id, "nx": grid.nx, "ny": grid.ny},
        valid=resolved,
    )


def gamma_sweep(
    grid: Grid,
    phi_test: np.ndarray,
    eps_list,
    gamma: float,
    shape_id: str = "bump",
) -> SweepReport:
    """Interface-energy convergence table: E_nl^eps(phi) against E_l(phi)."""
    return _kernel_sweep(
        "gamma_sweep", grid, eps_list, gamma, shape_id, e_local(grid, phi_test),
        lambda kernel, a: {"e_nl": e_nl(kernel, a, phi_test)},
    )


def weak_operator_check(
    grid: Grid,
    phi1: np.ndarray,
    phi2: np.ndarray,
    eps_list,
    gamma: float,
    shape_id: str = "bump",
) -> SweepReport:
    """Bilinear operator form (a phi1 - J*phi1, phi2) against its gradient limit.

    The limit of the implemented form is (1/2) int grad phi1 . grad phi2.
    """
    g1x, g1y = gradient_cc(grid, phi1)
    g2x, g2y = gradient_cc(grid, phi2)
    target = 0.5 * float(np.sum(g1x * g2x + g1y * g2y) * grid.cell_area)

    def measure(kernel, a) -> dict[str, float]:
        f12 = float(np.sum((a * phi1 - convolve(kernel, phi1)) * phi2) * grid.cell_area)
        f21 = float(np.sum((a * phi2 - convolve(kernel, phi2)) * phi1) * grid.cell_area)
        return {"form": f12, "symmetry_defect": abs(f12 - f21)}

    return _kernel_sweep("weak_operator", grid, eps_list, gamma, shape_id, target, measure)


def _trapezoid_weights(n: int, dt: float) -> np.ndarray:
    w = np.full(n, dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _squared_gaps(a: SimState, b: SimState) -> tuple[float, float, float]:
    """Sums over the grid of the squared differences of phi, theta and u (both faces)."""
    return (
        float(np.sum((a.phi - b.phi) ** 2)),
        float(np.sum((a.theta - b.theta) ** 2)),
        float(np.sum((a.vel.u - b.vel.u) ** 2)) + float(np.sum((a.vel.v - b.vel.v) ** 2)),
    )


def solution_sweep(
    grid: Grid,
    potential: PotentialParams,
    material: MaterialParams,
    state0: SimState,
    eps_list,
    gamma: float = 0.5,
    shape_id: str = "bump",
    t_end: float = 0.5,
    dt: float | None = None,
    stabilization: float | None = None,
    safety: float = 0.4,
    sample_count: int = 200,
    ledgers: list[EnergyLedger | None] | None = None,
) -> SweepReport:
    """Run the nonlocal system per epsilon and a local reference; tabulate distances.

    All runs share identical initial data, dt, grid, and horizon. Reported per
    epsilon: space-time L2 distances of phi, theta, u to the reference
    (trapezoidal in time on the sampling grid), end-time L2 distances, and the
    end-time energy gap under the shared local functional. Diverged runs are
    marked invalid and their columns hold NaN. `ledgers` holds one ledger or None
    per epsilon: a member appends each step's row to its own, and a diverged
    member's ledger keeps the rows it made.

    One `integrate` call runs the reference, and after each of its steps every
    live member takes the same step with `advance`, so the distances
    accumulate as they go: the sweep holds one current state per run,
    whatever the number of samples.
    """
    eps = _check_eps_list(eps_list)

    spec = ModelSpec(
        grid, potential, material, gamma=gamma, shape_id=shape_id, stabilization=stabilization
    )
    ref_model = Model.build(replace(spec, mode="local", epsilon=eps[0]))
    models = [Model.build(replace(spec, epsilon=e)) for e in eps]
    if dt is None:  # the smallest eps sets dt
        dt = suggest_dt(models[-1], state0, safety)
    n_steps = max(1, int(round(t_end / dt)))
    sample_every = max(1, n_steps // max(2, sample_count))
    n_samples = 1 + n_steps // sample_every
    w = _trapezoid_weights(n_samples, sample_every * dt)
    area = grid.cell_area

    ledgers = ledgers or [None] * len(eps)
    # current state per member (None once it diverged) and its running sums
    # for the phi, theta and u distances
    states: list[SimState | None] = [copy.copy(state0) for _ in eps]
    sums = [[0.0, 0.0, 0.0] for _ in eps]
    step0, t_stop = state0.step, state0.t + n_steps * dt
    mass_phi0 = float(state0.phi.sum() * area)

    def sample(ref: SimState) -> None:
        """Add the distances at `ref` when its step is on the sampling grid."""
        i, off = divmod(ref.step - step0, sample_every)
        if not off:
            for state, s in zip(states, sums):
                if state is not None:
                    for j, gap in enumerate(_squared_gaps(state, ref)):
                        s[j] += w[i] * gap * area

    def step_members(ref: SimState) -> None:
        """Advance every live member by the step the reference just took."""
        for k, state in enumerate(states):
            if state is not None:
                try:
                    states[k] = advance(models[k], state, dt, ledger=ledgers[k])
                except BlowUpError:
                    states[k] = None
        sample(ref)

    sample(state0)
    start = [state0]  # handed to the reference run, so the members' first steps free it
    del state0
    try:
        ref = integrate(ref_model, start.pop(), dt, t_stop, on_step=step_members)
    except BlowUpError as exc:
        raise BlowUpError("local reference run diverged; sweep aborted", exc.state) from exc

    e_ref_local = ref_model.total_energy(ref)
    cols: dict[str, list[float]] = {
        k: []
        for k in (
            "dist_phi",
            "dist_theta",
            "dist_u",
            "end_dist_phi",
            "end_dist_theta",
            "end_dist_u",
            "energy_gap",
        )
    }
    for state, s in zip(states, sums):
        values = [float("nan")] * len(cols)
        if state is not None:
            e_local_fn = ref_model.total_energy(state)
            values = (
                [float(np.sqrt(x)) for x in s]
                + [float(np.sqrt(x * area)) for x in _squared_gaps(state, ref)]
                + [abs(e_local_fn - e_ref_local)]
            )
        for column, value in zip(cols.values(), values):
            column.append(value)

    return SweepReport(
        kind="solution_sweep",
        eps=eps,
        columns=cols,
        target=None,
        metadata={
            "gamma": gamma,
            "shape": shape_id,
            "nx": grid.nx,
            "ny": grid.ny,
            "dt": dt,
            "t_end": n_steps * dt,
            "n_steps": n_steps,
            "sample_every": sample_every,
            "mass_phi0": mass_phi0,
        },
        valid=[state is not None for state in states],
    )
