"""One benchmark job: a fresh process that runs one workload once and checks it.

Usage: python3 perfbench/job.py SPEC.json

SPEC holds the workload name, the seed, whether the job is traced, the job
directory and whether to use the tiny sizes of the self-test. The job builds its
inputs from the seed, wraps the nlchb functions it times (see tracing.py), calls
the public entry point (`nlchb.cli.main` or `nlchb.limits.solution_sweep`),
checks the outputs and writes `result.json` into the job directory. nlchb must
be importable (the parent puts `src` on PYTHONPATH).
"""

from __future__ import annotations

import csv
import json
import math
import os
import resource
import sys
import time

from tracing import SOURCE, Tracer, layer_metrics

# numpy is imported inside the functions that use it, so that importing it is
# timed with nlchb in run_job, as part of wall_s.

# Workload sizes. The tiny sizes make the same jobs run in about a second.
WORKLOADS = {
    "convection-256": {
        "kind": "run", "config": "configs/convection.cfg",
        # dt fixed near the auto value (2.03e-5, the viscous bound) so the step count is exact
        "set": {"grid": {"nx": 256, "ny": 256}, "solver": {"dt": 2e-5, "cadence": 25}},
        "steps": 50, "seeded": "run_seed",
        "tiny": {"grid": {"nx": 16, "ny": 16}, "solver": {"dt": 2e-4, "cadence": 2}, "steps": 5},
    },
    "spinodal-64": {
        "kind": "run", "config": "configs/spinodal.cfg", "set": {}, "seeded": "perturbation",
        "monotone_energy": True,
        "tiny": {"grid": {"nx": 16, "ny": 16}, "solver": {"t_end": 0.004}},
    },
    "sweep-eps-64": {
        "kind": "sweep", "config": "configs/spinodal.cfg", "set": {},
        "eps": [0.2, 0.1, 0.05], "t_end": 0.025, "seeded": "perturbation",
        "tiny": {"grid": {"nx": 16, "ny": 16}, "eps": [0.4, 0.3, 0.2], "t_end": 0.004},
    },
}

PERTURBATION = 1e-3  # amplitude of the seeded noise added to the spinodal cosine
INVARIANT_TOL = 1e-10  # mass drift and max |div u| (ROADMAP aim 3)


def with_overrides(text: str, overrides: dict[str, dict]) -> str:
    """Drop the overridden keys from `text` and append them in fresh sections."""
    keep, section = [], None
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if body.startswith("[") and body.endswith("]"):
            section = body[1:-1].strip().lower()
        elif "=" in body and body.partition("=")[0].strip().lower() in overrides.get(section, {}):
            continue
        keep.append(line)
    for sec, kv in overrides.items():
        keep.append(f"[{sec}]")
        keep.extend(f"{k} = {v}" for k, v in kv.items())
    return "\n".join(keep) + "\n"


def job_overrides(spec: dict, w: dict) -> dict[str, dict]:
    """Config overrides for this job: sizes, seed, inputs and output directory."""
    ov: dict[str, dict] = {sec: dict(kv) for sec, kv in w["set"].items()}
    if spec["tiny"]:
        for sec, kv in w["tiny"].items():
            if isinstance(kv, dict):
                ov.setdefault(sec, {}).update(kv)
    steps = w["tiny"].get("steps", w.get("steps")) if spec["tiny"] else w.get("steps")
    if steps is not None:
        ov["solver"]["t_end"] = repr(steps * float(ov["solver"]["dt"]))
    if w["seeded"] == "run_seed":
        ov.setdefault("run", {})["seed"] = spec["seed"]
    ov.setdefault("output", {})["directory"] = "out"
    return ov


def perturbed(state, seed: int):
    """The spinodal state plus seeded zero-mean noise; mass is unchanged."""
    import numpy as np

    rng = np.random.default_rng(seed)
    noise = PERTURBATION * (rng.random(state.phi.shape) - 0.5)
    state.phi = state.phi + (noise - noise.mean())
    return state


def l2(*arrays) -> float:
    import numpy as np

    return float(math.sqrt(sum(float(np.sum(a * a)) for a in arrays)))


def check_run(rc: int, outdir: str, mass0: float, w: dict) -> tuple[list[str], dict]:
    import numpy as np
    from nlchb.snapshots import read_snapshot

    errors = []
    if rc != 0:
        return [f"exit code {rc}"], {}
    state, meta = read_snapshot(os.path.join(outdir, "checkpoint.bin"))
    fields = {"phi": state.phi, "theta": state.theta, "u": state.vel.u, "v": state.vel.v}
    for name, arr in fields.items():
        if not np.all(np.isfinite(arr)):
            errors.append(f"checkpoint field {name} not finite")
    with open(os.path.join(outdir, "ledger.csv"), newline="", encoding="utf-8") as fh:
        rows = [{k: float(v) for k, v in r.items()} for r in csv.DictReader(fh)]
    if len(rows) != state.step or state.step == 0:
        errors.append(f"ledger has {len(rows)} rows for {state.step} steps")
    if not all(math.isfinite(v) for r in rows for v in r.values()):
        errors.append("ledger has non-finite entries")
    if rows:
        drift = max(abs(r["mass_phi"] - mass0) for r in rows)
        div = max(r["max_div_u"] for r in rows)
        if not drift <= INVARIANT_TOL:
            errors.append(f"mass drift {drift:.3e} > {INVARIANT_TOL}")
        if not div <= INVARIANT_TOL:
            errors.append(f"max |div u| {div:.3e} > {INVARIANT_TOL}")
        if w.get("monotone_energy"):
            energy = [r["E_total"] for r in rows]
            rises = [b - a for a, b in zip(energy, energy[1:]) if b > a]
            if rises:
                errors.append(f"E_total rises {len(rises)} times, by up to {max(rises):.3e}")
    summary = {
        "phi_l2": l2(state.phi),
        "theta_l2": l2(state.theta),
        "u_l2": l2(state.vel.u, state.vel.v),
        "E_total": rows[-1]["E_total"] if rows else float("nan"),
    }
    return errors, summary


def check_sweep(report) -> tuple[list[str], dict]:
    errors = []
    if not all(report.valid):
        errors.append(f"sweep members invalid: {report.valid}")
    summary = {}
    for name in sorted(report.columns):
        for eps, value in zip(report.eps, report.columns[name]):
            summary[f"{name}@{eps:g}"] = float(value)
            if not math.isfinite(value):
                errors.append(f"sweep column {name} at eps {eps:g} not finite")
    return errors, summary


def samples_mb(report) -> float | None:
    """Memory held by the kept samples of all members, computed from array sizes."""
    md = report.metadata
    try:
        nx, ny, n_steps, every = md["nx"], md["ny"], md["n_steps"], md["sample_every"]
    except KeyError:
        return None
    per_sample = (2 * nx * ny + (nx + 1) * ny + nx * (ny + 1)) * 8
    return (1 + n_steps // every) * per_sample * (len(report.eps) + 1) / 1e6


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


def run_job(spec: dict) -> dict:
    root, jobdir = spec["root"], spec["jobdir"]
    w = WORKLOADS[spec["workload"]]
    tracer = Tracer()

    # a user's command pays for importing numpy, scipy and nlchb: part of wall_s
    t_import = time.perf_counter()
    import nlchb.cli
    import nlchb.config
    import nlchb.limits
    from nlchb.snapshots import write_snapshot
    import_s = time.perf_counter() - t_import

    with open(os.path.join(root, w["config"]), encoding="utf-8") as fh:
        base_text = fh.read()
    overrides = job_overrides(spec, w)
    text = with_overrides(base_text, overrides)
    config = nlchb.config.parse_config(text, base_dir=jobdir)
    state0 = config.initial_state()
    if w["seeded"] == "perturbation":
        state0 = perturbed(state0, spec["seed"])
    mass0 = float(state0.phi.sum() * config.grid.cell_area)

    if w["kind"] == "run":
        if w["seeded"] == "perturbation":
            write_snapshot(os.path.join(jobdir, "input.bin"), state0, config.grid)
            overrides.setdefault("initial", {}).update(phi_preset="file", phi_file="input.bin")
        cfg_path = os.path.join(jobdir, "job.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(with_overrides(base_text, overrides))
        os.environ.pop("NLCHB_OUTPUT_DIR", None)
        os.chdir(jobdir)

    tracer.install(spec["trace"])
    sizes = w["tiny"] if spec["tiny"] else w
    t0 = time.perf_counter()
    if w["kind"] == "run":
        rc = nlchb.cli.main(["run", "job.cfg"])
    else:
        # ledgers off and samples kept: the defaults of solution_sweep
        report = nlchb.limits.solution_sweep(
            config.grid, config.potential, config.material, state0, sizes["eps"],
            gamma=config.gamma, shape_id=config.shape_id, t_end=sizes["t_end"])
    wall = import_s + time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    extra = {"cli.import_s": import_s}
    if w["kind"] == "run":
        errors, summary = check_run(rc, os.path.join(jobdir, "out"), mass0, w)
        extra["snapshots.bytes_written"] = dir_bytes(os.path.join(jobdir, "out"))
        extra["limits.samples_mb"] = 0.0
    else:
        errors, summary = check_sweep(report)
        extra["snapshots.bytes_written"] = 0
        extra["limits.samples_mb"] = samples_mb(report)

    result = {
        "errors": errors,
        "summary": summary,
        "wall_s": wall,
        "setup_s": sum(tracer.durations("model.build")),
        "builds": len(tracer.durations("model.build")),
        "step_ms": [d * 1e3 for d in tracer.durations("solver.advance")],
        "peak_rss_mb": peak_rss_mb,
        "absent": tracer.absent,
    }
    if spec["trace"]:
        layer, counts = layer_metrics(tracer.spans())
        layer.update({k: v for k, v in extra.items() if v is not None})
        result["absent_metrics"] = sorted(
            [m for m, src in SOURCE.items() if src not in tracer.wrapped]
            + [k for k, v in extra.items() if v is None])
        result["layer"] = layer
        result["counts"] = counts
        tracer.dump(os.path.join(jobdir, "spans.json"))
    return result


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run_job(spec)
    with open(os.path.join(spec["jobdir"], "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
