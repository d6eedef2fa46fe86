"""Run configuration: sectioned key-value format, total validation, state builders.

Format: `[section]` headers and `key = value` lines; `#` starts a comment; no
nesting. Parsing is total: the result is either a fully validated RunConfig or
a ConfigError carrying the complete list of problems (never just the first).
Unknown sections and keys are rejected (typo safety). Defaults reproduce the
standard spinodal-decomposition fixture on the unit square, so an empty file
is a valid configuration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .grid import Grid, MacVelocity, make_grid
from .physics import MaterialParams, PotentialParams
from .snapshots import read_snapshot
from .solver import Forcing, Model, SimState

__all__ = ["ConfigError", "RunConfig", "parse_config", "DEFAULT_CONFIG_TEXT"]


class ConfigError(ValueError):
    """Carries every validation problem found in a config."""

    def __init__(self, errors: list[str]):
        super().__init__("invalid configuration:\n  " + "\n  ".join(errors))
        self.errors = errors


#: section -> key -> (default string, kind)
SCHEMA: dict[str, dict[str, tuple[str, str]]] = {
    "grid": {
        "nx": ("64", "int"),
        "ny": ("64", "int"),
        "lx": ("1.0", "float"),
        "ly": ("1.0", "float"),
    },
    "physics": {
        "k_cap": ("0.05", "float"),
        "l_c": ("0.5", "float"),
        "l_h": ("0.5", "float"),
        "kappa": ("1.0", "float"),
        "nu_min": ("1.0", "float"),
        "nu_max": ("1.0", "float"),
        "nu_width": ("1.0", "float"),
        "alpha0": ("0.0", "float"),
        "alpha1": ("0.0", "float"),
        "alpha2": ("0.0", "float"),
        "g_x": ("0.0", "float"),
        "g_y": ("0.0", "float"),
        "eta_f": ("150.0", "float"),
        "f_coeffs": ("0.25, 0.0, -0.5, 0.0, 0.25", "floats"),
    },
    "kernel": {
        "mode": ("nonlocal", "choice:nonlocal,local"),
        "epsilon": ("0.2", "float"),
        "gamma": ("0.5", "float"),
        "shape": ("bump", "choice:bump,quartic"),
    },
    "solver": {
        "dt": ("auto", "float_or_auto"),
        "t_end": ("0.5", "float"),
        "stabilization": ("auto", "float_or_auto"),
        "safety": ("0.4", "float"),
        "cadence": ("50", "int"),
    },
    "initial": {
        "phi_preset": ("spinodal", "choice:spinodal,constant,random,file"),
        "phi_amplitude": ("0.2", "float"),
        "phi_mean": ("0.0", "float"),
        "phi_value": ("0.0", "float"),
        "phi_file": ("", "str"),
        "theta_preset": ("zero", "choice:zero,constant,file"),
        "theta_value": ("0.0", "float"),
        "theta_file": ("", "str"),
        "u_preset": ("zero", "choice:zero,file"),
        "u_file": ("", "str"),
    },
    "forcing": {
        "q_preset": ("zero", "choice:zero,constant,file"),
        "q_x": ("0.0", "float"),
        "q_y": ("0.0", "float"),
        "q_file": ("", "str"),
        "z_preset": ("zero", "choice:zero,constant,single_mode,file"),
        "z_value": ("0.0", "float"),
        "z_amplitude": ("0.0", "float"),
        "z_kx": ("1", "int"),
        "z_ky": ("0", "int"),
        "z_file": ("", "str"),
    },
    "output": {
        "directory": ("out", "str"),
        "write_snapshots": ("true", "bool"),
        "write_images": ("true", "bool"),
        "write_csv": ("true", "bool"),
    },
    "run": {
        "seed": ("0", "int"),
    },
}

DEFAULT_CONFIG_TEXT = "\n".join(
    f"[{section}]\n" + "\n".join(f"{k} = {v[0]}" for k, v in keys.items()) + "\n"
    for section, keys in SCHEMA.items()
)


def _convert(kind: str, raw: str):
    if kind == "int":
        return int(raw)
    if kind == "float_or_auto" and raw.lower() == "auto":
        return None
    if kind in ("float", "floats", "float_or_auto"):
        parts = raw.replace(",", " ").split() if kind == "floats" else [raw]
        values = [float(p) for p in parts]
        if not np.isfinite(values).all():
            raise ValueError(f"must be finite, got {raw!r}")
        return tuple(values) if kind == "floats" else values[0]
    if kind == "bool":
        low = raw.lower()
        if low in ("true", "yes", "1", "on"):
            return True
        if low in ("false", "no", "0", "off"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if kind.startswith("choice:"):
        options = kind.split(":", 1)[1].split(",")
        if raw not in options:
            raise ValueError(f"must be one of {options}, got {raw!r}")
        return raw
    return raw


@dataclass
class RunConfig:
    """Validated run configuration with builders for the solver objects."""

    grid: Grid
    potential: PotentialParams
    material: MaterialParams
    mode: str
    epsilon: float
    gamma: float
    shape_id: str
    dt: float | None
    t_end: float
    stabilization: float | None
    safety: float
    cadence: int
    initial: dict
    forcing_spec: dict
    output: dict
    seed: int
    raw_text: str = ""
    base_dir: str = "."

    def build_model(self) -> Model:
        return Model.build(
            self.grid,
            self.potential,
            self.material,
            mode=self.mode,
            epsilon=self.epsilon,
            gamma=self.gamma,
            shape_id=self.shape_id,
            stabilization=self.stabilization,
        )

    def _from_file(self, spec: dict, key: str) -> SimState:
        """The snapshot named by `spec[key]`, relative to the config's directory."""
        return read_snapshot(os.path.join(self.base_dir, spec[key]), self.grid)[0]

    def initial_state(self) -> SimState:
        g = self.grid
        ini = self.initial
        preset = ini["phi_preset"]
        if preset == "spinodal":
            X, Y = g.cell_centers()
            phi = ini["phi_amplitude"] * np.cos(2.0 * np.pi * X / g.Lx) * np.cos(
                np.pi * Y / g.Ly
            ) + ini["phi_mean"]
        elif preset == "constant":
            phi = np.full(g.shape, ini["phi_value"])
        elif preset == "random":
            rng = np.random.default_rng(self.seed)
            phi = ini["phi_mean"] + ini["phi_amplitude"] * (rng.random(g.shape) - 0.5)
            phi -= phi.mean() - ini["phi_mean"]
        else:
            phi = self._from_file(ini, "phi_file").phi

        if ini["theta_preset"] == "zero":
            theta = g.zeros()
        elif ini["theta_preset"] == "constant":
            theta = np.full(g.shape, ini["theta_value"])
        else:
            theta = self._from_file(ini, "theta_file").theta

        vel = self._from_file(ini, "u_file").vel if ini["u_preset"] == "file" else MacVelocity(g)
        return SimState(t=0.0, step=0, phi=phi, theta=theta, vel=vel)

    def forcing(self) -> Forcing:
        g = self.grid
        fs = self.forcing_spec
        q = None
        z = None
        if fs["q_preset"] == "constant":
            q = (
                np.full((g.nx + 1, g.ny), fs["q_x"]),
                np.full((g.nx, g.ny + 1), fs["q_y"]),
            )
        elif fs["q_preset"] == "file":
            vel = self._from_file(fs, "q_file").vel
            q = (vel.u, vel.v)
        if fs["z_preset"] == "constant":
            z = np.full(g.shape, fs["z_value"])
        elif fs["z_preset"] == "single_mode":
            X, Y = g.cell_centers()
            z = fs["z_amplitude"] * np.cos(np.pi * fs["z_kx"] * X / g.Lx) * np.cos(
                np.pi * fs["z_ky"] * Y / g.Ly
            )
        elif fs["z_preset"] == "file":
            z = self._from_file(fs, "z_file").theta
        return Forcing(q=q, z=z)


def _parse_lines(text: str, errors: list[str]) -> dict[str, dict[str, str]]:
    values: dict[str, dict[str, str]] = {s: {} for s in SCHEMA}
    section = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in SCHEMA:
                errors.append(f"line {lineno}: unknown section [{name}]")
                section = None
            else:
                section = name
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {raw_line.strip()!r}")
            continue
        key, _, raw_value = line.partition("=")
        key = key.strip().lower()
        raw_value = raw_value.strip()
        if section is None:
            errors.append(f"line {lineno}: key {key!r} outside any known section")
            continue
        if key not in SCHEMA[section]:
            errors.append(f"line {lineno}: unknown key {key!r} in section [{section}]")
            continue
        if key in values[section]:
            errors.append(f"line {lineno}: duplicate key {key!r} in section [{section}]")
            continue
        values[section][key] = raw_value
    return values


def parse_config(text: str, base_dir: str = ".") -> RunConfig:
    """Parse and validate; raises ConfigError with the complete error list."""
    errors: list[str] = []
    raw = _parse_lines(text, errors)

    parsed: dict[str, dict] = {}
    for section, keys in SCHEMA.items():
        parsed[section] = {}
        for key, (default, kind) in keys.items():
            raw_value = raw[section].get(key, default)
            try:
                parsed[section][key] = _convert(kind, raw_value)
            except ValueError as exc:
                errors.append(f"[{section}] {key}: {exc}")
                parsed[section][key] = _convert(kind, default)

    def build(label: str, make):
        """make(), or None with its ValueError added to the errors under `label`."""
        try:
            return make()
        except ValueError as exc:
            errors.append(f"{label}: {exc}")

    gp, p = parsed["grid"], parsed["physics"]
    grid = build("[grid]", lambda: make_grid(gp["nx"], gp["ny"], gp["lx"], gp["ly"]))
    potential = build(
        "[physics] potential", lambda: PotentialParams(coeffs=p["f_coeffs"], eta_f=p["eta_f"])
    )
    material = build(
        "[physics]",
        lambda: MaterialParams(
            K_cap=p["k_cap"],
            l_c=p["l_c"],
            l_h=p["l_h"],
            kappa=p["kappa"],
            nu_min=p["nu_min"],
            nu_max=p["nu_max"],
            nu_width=p["nu_width"],
            alpha0=p["alpha0"],
            alpha1=p["alpha1"],
            alpha2=p["alpha2"],
            g=(p["g_x"], p["g_y"]),
        ),
    )

    k = parsed["kernel"]
    if k["mode"] == "nonlocal":
        if not 0.0 < k["gamma"] < 1.0:
            errors.append(
                f"[kernel] gamma: must lie in (0, 1) for the planar kernel family, got {k['gamma']}"
            )
        if k["epsilon"] <= 0.0:
            errors.append(f"[kernel] epsilon: must be positive, got {k['epsilon']}")

    s = parsed["solver"]
    if s["dt"] is not None and s["dt"] <= 0.0:
        errors.append(f"[solver] dt: must be positive or 'auto', got {s['dt']}")
    if s["t_end"] <= 0.0:
        errors.append(f"[solver] t_end: must be positive, got {s['t_end']}")
    if not 0.0 < s["safety"] <= 1.0:
        errors.append(f"[solver] safety: must lie in (0, 1], got {s['safety']}")
    if s["cadence"] < 1:
        errors.append(f"[solver] cadence: must be >= 1, got {s['cadence']}")
    if s["stabilization"] is not None and s["stabilization"] < 0.0:
        errors.append(f"[solver] stabilization: must be nonnegative or 'auto'")

    for section, name in (
        ("initial", "phi"), ("initial", "theta"), ("initial", "u"), ("forcing", "q"), ("forcing", "z")
    ):
        if parsed[section][f"{name}_preset"] == "file":
            key, path = f"{name}_file", parsed[section][f"{name}_file"]
            if not path:
                errors.append(f"[{section}] {key}: required when {name}_preset = file")
            elif not os.path.exists(os.path.join(base_dir, path)):
                errors.append(f"[{section}] {key}: file not found: {path}")

    if errors:
        raise ConfigError(errors)

    return RunConfig(
        grid=grid,
        potential=potential,
        material=material,
        mode=k["mode"],
        epsilon=k["epsilon"],
        gamma=k["gamma"],
        shape_id=k["shape"],
        dt=s["dt"],
        t_end=s["t_end"],
        stabilization=s["stabilization"],
        safety=s["safety"],
        cadence=s["cadence"],
        initial=parsed["initial"],
        forcing_spec=parsed["forcing"],
        output=parsed["output"],
        seed=parsed["run"]["seed"],
        raw_text=text,
        base_dir=base_dir,
    )
