"""The benchmark times nlchb by wrapping functions it names in perfbench/tracing.py.

A renamed or removed target is reported there as absent and its metrics read 0,
so the benchmark would keep running blind. The first tests resolve every target
the way the tracer does, without wrapping anything; the next pins the kernel
counts the tracer reads from `Mollifier.kernel_value`; the last ones run
`perfbench/job.py` itself on each workload's tiny sizes.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files under perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_timer_and_layer_target_resolves(tracing):
    missing = []
    for _, module_name, target in tracing.TIMERS + tracing.LAYERS:
        owner_name, _, attr = target.rpartition(".")
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or vars(owner).get(attr) is None:
            missing.append(f"{module_name}.{target}")
    assert missing == []


def test_model_build_is_a_classmethod(tracing):
    # the tracer rewraps a classmethod as one; a plain function would lose cls
    from nlchb.solver import Model

    assert ("model.build", "nlchb.solver", "Model.build") in tracing.TIMERS
    assert isinstance(vars(Model)["build"], classmethod)


def test_spinodal_build_and_validation_count_through_kernel_value(monkeypatch):
    # perfbench counts kernel work by wrapping Mollifier.kernel_value; these are
    # the counts its traced spinodal-64 runs record, so sampling that bypassed
    # the method would show here instead of silently reading 0 there
    from conftest import count_calls

    from nlchb.config import parse_config
    from nlchb.kernel import Mollifier, _calibrated
    from nlchb.physics import validate_assumptions
    from nlchb.solver import Model

    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "spinodal.cfg")
    with open(path, encoding="utf-8") as fh:
        config = parse_config(fh.read(), base_dir=os.path.dirname(path))
    _calibrated.cache_clear()
    calls = count_calls(monkeypatch, Mollifier.kernel_value)
    model = Model.build(config)
    validate_assumptions(model.kernel, model.a, config.potential, config.material)
    assert len(calls) == 34
    assert sum(np.size(args[1]) for args in calls) == 134197
    assert _calibrated.cache_info().misses == 1


@pytest.mark.parametrize("workload", ["convection-256", "spinodal-64", "sweep-eps-64"])
def test_job_runs_each_workload_at_tiny_sizes(tmp_path, workload):
    # perfbench/job.py calls parse_config, the RunConfig fields, write_snapshot,
    # nlchb.cli.main and solution_sweep as the benchmark does; run it untraced
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    spec = {"workload": workload, "seed": 0, "trace": False, "tiny": True,
            "root": root, "jobdir": str(tmp_path)}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    src = os.path.join(root, "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("NLCHB_OUTPUT_DIR", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "job.py"), str(spec_path)],
        cwd=root, env=env, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["errors"] == []
    assert result["absent"] == []
