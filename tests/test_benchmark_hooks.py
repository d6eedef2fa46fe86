"""The benchmark times nlchb by wrapping functions it names in perfbench/tracing.py.

A renamed or removed target is reported there as absent and its metrics read 0,
so the benchmark would keep running blind. The first tests resolve every target
the way the tracer does, without wrapping anything; the last pins the kernel
counts the tracer reads from `Mollifier.kernel_value`.
"""

import importlib
import importlib.util
import os
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

    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "spinodal.cfg")
    with open(path, encoding="utf-8") as fh:
        config = parse_config(fh.read(), base_dir=os.path.dirname(path))
    _calibrated.cache_clear()
    calls = count_calls(monkeypatch, Mollifier.kernel_value)
    model = config.build_model()
    validate_assumptions(model.kernel, model.a, config.potential, config.material)
    assert len(calls) == 34
    assert sum(np.size(args[1]) for args in calls) == 134197
    assert _calibrated.cache_info().misses == 1
