"""Spans recorded from outside nlchb, by wrapping its public functions.

A span is (name, start, end, parent, extra): `parent` is the index of the
enclosing span (-1 at top level) and `extra` a per-call quantity (points for
`kernel_value`, bytes moved for a transform). Spans stay in memory and are
written once, when the job ends.

A wrapper replaces the function at every `nlchb` module attribute bound to it,
because modules import functions by name (`energy` and `physics` hold their own
`convolve`). A target that no longer exists is reported as absent and skipped,
so the benchmark keeps running when a later change removes or renames it.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import warnings

# Always wrapped: the end-to-end timers. One span per model build, one per step.
TIMERS = [
    ("model.build", "nlchb.solver", "Model.build"),
    ("solver.advance", "nlchb.solver", "advance"),
]

# Wrapped only in a traced job: one span per call of each layer's public function.
LAYERS = [
    ("kernel.calibrate_mollifier", "nlchb.kernel", "calibrate_mollifier"),
    ("kernel.sample_kernel", "nlchb.kernel", "sample_kernel"),
    ("kernel.compute_a", "nlchb.kernel", "compute_a"),
    ("kernel.convolve", "nlchb.kernel", "convolve"),
    ("kernel.kernel_value", "nlchb.kernel", "Mollifier.kernel_value"),
    ("grid.helmholtz_solve", "nlchb.grid", "helmholtz_solve"),
    ("grid.laplacian_neumann", "nlchb.grid", "laplacian_neumann"),
    ("grid.laplacian_eigenvalues", "nlchb.grid", "Grid.laplacian_eigenvalues"),
    ("solver.step_ch", "nlchb.solver", "step_ch"),
    ("solver.step_heat", "nlchb.solver", "step_heat"),
    ("solver.step_ns", "nlchb.solver", "step_ns"),
    ("solver.project", "nlchb.solver", "project"),
    ("physics.chemical_potential", "nlchb.physics", "mu_nonlocal"),
    ("physics.chemical_potential", "nlchb.physics", "mu_local"),
    ("physics.validate_assumptions", "nlchb.physics", "validate_assumptions"),
    ("energy.total_energy", "nlchb.energy", "total_energy"),
    ("energy.e_nl", "nlchb.energy", "e_nl"),
    ("energy.dissipation", "nlchb.energy", "dissipation"),
    ("energy.work_terms", "nlchb.energy", "work_terms"),
    ("energy.ledger_append", "nlchb.energy", "EnergyLedger.append"),
    ("snapshots.write_snapshot", "nlchb.snapshots", "write_snapshot"),
    ("snapshots.write_ppm", "nlchb.snapshots", "write_ppm"),
    ("snapshots.csv_row", "nlchb.snapshots", "LedgerCsvWriter.write_row"),
    ("limits.sweep", "nlchb.limits", "solution_sweep"),
    ("config.parse_config", "nlchb.config", "parse_config"),
    ("cli.loop", "nlchb.cli", "_run_loop"),
]

# Transforms are counted on the scipy.fft module itself, and at any nlchb module
# attribute bound to them, so both `_fft.dctn(...)` and `from scipy.fft import
# dctn` are seen.
TRANSFORMS = ("rfft2", "irfft2", "dctn", "idctn", "dst", "idst")


def _points(args, kwargs, result) -> int:
    return int(getattr(result, "size", 1))


def _bytes_moved(args, kwargs, result) -> int:
    x = args[0] if args else kwargs.get("x")
    return int(getattr(x, "nbytes", 0)) + int(getattr(result, "nbytes", 0))


EXTRA = {"kernel.kernel_value": _points}


def _rebind(raw, wrapped) -> None:
    """Point every nlchb module attribute bound to `raw` at `wrapped`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "nlchb" or mod_name.startswith("nlchb.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is raw:
                setattr(mod, key, wrapped)


class Tracer:
    """Records spans for the functions it wraps; one per job process.

    Spans are kept column-wise in lists of numbers and strings, which the
    cyclic garbage collector does not track, so recording 10^5 spans does not
    slow the collector down for the rest of the process.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.extras: list[int] = []
        self.absent: list[str] = []
        self.wrapped: set[str] = set()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, extra=None):
        names, starts, ends, parents, extras = (
            self.names, self.starts, self.ends, self.parents, self.extras)
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            extras.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if extra is not None:
                extras[i] = extra(args, kwargs, result)
            return result

        self.wrapped.add(name)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _missing(self, target: str) -> None:
        self.absent.append(target)
        warnings.warn(f"{target} not found; its metrics are reported as absent", stacklevel=3)

    def patch(self, name: str, module_name: str, target: str) -> None:
        """Wrap `module.target` (a function or `Class.method`) at every binding."""
        module = sys.modules.get(module_name)
        owner_name, _, attr = target.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            self._missing(f"{module_name}.{target}")
            return
        extra = EXTRA.get(name)
        if owner_name:
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, extra)))
            else:
                setattr(owner, attr, self.wrap(name, raw, extra))
            return
        _rebind(raw, self.wrap(name, raw, extra))

    def patch_transforms(self) -> None:
        import scipy.fft

        for t in TRANSFORMS:
            fn = getattr(scipy.fft, t, None)
            if fn is None:
                self._missing(f"scipy.fft.{t}")
                continue
            wrapped = self.wrap(f"fft.{t}", fn, _bytes_moved)
            setattr(scipy.fft, t, wrapped)
            _rebind(fn, wrapped)

    def install(self, traced: bool) -> None:
        """Wrap the timers, and in a traced job every layer (nlchb imported)."""
        for entry in TIMERS + (LAYERS if traced else []):
            self.patch(*entry)
        if traced:
            self.patch_transforms()

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def spans(self) -> list[tuple]:
        """The spans as (name, start, end, parent, extra) rows."""
        return list(zip(self.names, self.starts, self.ends, self.parents, self.extras))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "extra"],
                       "spans": self.spans(), "absent": self.absent}, fh)


# Per-layer metrics as (metric, span name). STEP_COUNTS and STEP_MS are medians
# over steps of the calls, or of the time in ms, inside each `advance`; TOTAL_S
# are per-job sums in seconds.
STEP_COUNTS = [
    ("kernel.convolve.per_step", "kernel.convolve"),
    ("grid.helmholtz_solve.per_step", "grid.helmholtz_solve"),
    ("grid.laplacian_neumann.per_step", "grid.laplacian_neumann"),
    ("grid.laplacian_eigenvalues.per_step", "grid.laplacian_eigenvalues"),
    ("physics.chemical_potential.per_step", "physics.chemical_potential"),
    ("energy.total_energy.per_step", "energy.total_energy"),
    ("energy.e_nl.per_step", "energy.e_nl"),
] + [(f"fft.{t}.per_step", f"fft.{t}") for t in TRANSFORMS]

STEP_MS = [
    ("solver.step_ch.ms", "solver.step_ch"),
    ("solver.step_heat.ms", "solver.step_heat"),
    ("solver.step_ns.ms", "solver.step_ns"),
    ("solver.project.ms", "solver.project"),
    ("energy.dissipation.ms", "energy.dissipation"),
    ("energy.work_terms.ms", "energy.work_terms"),
    ("energy.ledger_append.ms", "energy.ledger_append"),
]

TOTAL_S = [
    ("kernel.sample_kernel.s", "kernel.sample_kernel"),
    ("kernel.calibrate_mollifier.s", "kernel.calibrate_mollifier"),
    ("kernel.compute_a.s", "kernel.compute_a"),
    ("physics.validate_assumptions.s", "physics.validate_assumptions"),
    ("snapshots.write_snapshot.s", "snapshots.write_snapshot"),
    ("snapshots.write_ppm.s", "snapshots.write_ppm"),
    ("config.parse_config.s", "config.parse_config"),
]

def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ancestor_of(spans: list[tuple], name: str) -> list[int]:
    """Index of the nearest enclosing span called `name` for every span (-1: none)."""
    out = []
    for i, s in enumerate(spans):
        if s[0] == name:
            out.append(i)
        else:
            out.append(out[s[3]] if s[3] >= 0 else -1)
    return out


def layer_metrics(spans: list[tuple]) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics of one job, and its exact call counts."""
    steps = [i for i, s in enumerate(spans) if s[0] == "solver.advance"]
    step_of = _ancestor_of(spans, "solver.advance")
    sweep_of = _ancestor_of(spans, "limits.sweep")
    child_s = [0.0] * len(spans)
    per_step: dict[str, dict[int, list[float]]] = {}
    for i, s in enumerate(spans):
        dur = s[2] - s[1]
        if s[3] >= 0:
            child_s[s[3]] += dur
        k = step_of[i]
        if k >= 0 and k != i:
            acc = per_step.setdefault(s[0], {}).setdefault(k, [0, 0.0, 0])
            acc[0] += 1
            acc[1] += dur
            acc[2] += s[4]

    def over_steps(name: str, field: int, scale: float = 1.0) -> float:
        by_step = per_step.get(name, {})
        return _median([by_step[k][field] * scale if k in by_step else 0.0 for k in steps])

    m: dict[str, float] = {}
    for metric, name in STEP_COUNTS:
        m[metric] = over_steps(name, 0)
    for metric, name in STEP_MS:
        m[metric] = over_steps(name, 1, 1e3)
    m["fft.mb_moved_per_step"] = _median(
        [sum(per_step.get(f"fft.{t}", {}).get(k, [0, 0.0, 0])[2] for t in TRANSFORMS) / 1e6
         for k in steps])
    m["solver.advance.self_ms"] = _median(
        [(spans[k][2] - spans[k][1] - child_s[k]) * 1e3 for k in steps])

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def durs(name: str) -> list[float]:
        return [spans[i][2] - spans[i][1] for i in by_name.get(name, [])]

    for metric, name in TOTAL_S:
        m[metric] = sum(durs(name))
    m["kernel.convolve.ms"] = _median(
        [(spans[i][2] - spans[i][1]) * 1e3 for i in by_name.get("kernel.convolve", [])
         if step_of[i] >= 0])
    m["snapshots.csv_row.us"] = _median([d * 1e6 for d in durs("snapshots.csv_row")])
    m["kernel.kernel_value.calls"] = len(by_name.get("kernel.kernel_value", []))
    m["kernel.kernel_value.points"] = sum(spans[i][4] for i in by_name.get("kernel.kernel_value", []))
    inner = sum(spans[i][2] - spans[i][1] for i, s in enumerate(spans)
                if s[0] in ("model.build", "solver.advance") and sweep_of[i] >= 0
                and step_of[i] in (-1, i))
    m["limits.sweep.self_s"] = sum(durs("limits.sweep")) - inner if "limits.sweep" in by_name else 0.0
    m["cli.loop.self_s"] = sum(spans[i][2] - spans[i][1] - child_s[i] for i in by_name.get("cli.loop", []))

    counts = {
        "kernel.convolve.calls": len(by_name.get("kernel.convolve", [])),
        "kernel.kernel_value.calls": int(m["kernel.kernel_value.calls"]),
        "kernel.kernel_value.points": int(m["kernel.kernel_value.points"]),
    }
    for t in TRANSFORMS:
        counts[f"fft.{t}.calls"] = len(by_name.get(f"fft.{t}", []))
    return m, counts


# The span each metric is computed from; a metric whose span was never wrapped
# is reported as absent.
SOURCE = {metric: name for metric, name in STEP_COUNTS + STEP_MS + TOTAL_S}
SOURCE.update({
    "fft.mb_moved_per_step": "fft.dctn",
    "solver.advance.self_ms": "solver.advance",
    "kernel.convolve.ms": "kernel.convolve",
    "snapshots.csv_row.us": "snapshots.csv_row",
    "kernel.kernel_value.calls": "kernel.kernel_value",
    "kernel.kernel_value.points": "kernel.kernel_value",
    "limits.sweep.self_s": "limits.sweep",
    "cli.loop.self_s": "cli.loop",
})
