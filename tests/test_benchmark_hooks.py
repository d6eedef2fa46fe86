"""The benchmark times nlchb by wrapping functions it names in perfbench/tracing.py.

A renamed or removed target is reported there as absent and its metrics read 0,
so the benchmark would keep running blind. These tests resolve every target the
way the tracer does, without wrapping anything.
"""

import importlib
import importlib.util
import os
import sys

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
