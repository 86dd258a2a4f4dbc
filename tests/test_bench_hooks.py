"""The traced benchmark's hooks still fit the package.

``perfbench/spans.py`` patches the package's functions and methods by name,
and its ``record`` wrapper calls ``tensor.active_graph``, so renaming or
deleting one of them would break only the traced benchmark run.  This
installs that instrumentation as shipped (read through ``sys.path``),
records and differentiates one op through it, removes it, and checks that
every attribute it patched is the original again.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

import cpnet
from cpnet import tensor as T

PACKAGE = Path(cpnet.__file__).parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def package_attributes() -> dict:
    """"owner.attribute" -> value for every module of the package and every
    class those modules define."""
    found = {}
    mods = [importlib.import_module(f"cpnet.{p.stem}") for p in sorted(PACKAGE.glob("*.py"))
            if p.stem != "__init__"]
    for mod in [cpnet] + mods:  # cpnet's own attributes include the loaded submodules
        classes = [v for v in vars(mod).values()
                   if isinstance(v, type) and v.__module__ == mod.__name__]
        for owner, prefix in [(mod, mod.__name__)] + [(c, f"{mod.__name__}.{c.__qualname__}")
                                                       for c in classes]:
            found.update((f"{prefix}.{attr}", value) for attr, value in vars(owner).items())
    return found


def test_traced_benchmark_patches_the_package_and_restores_it(spans):
    before = package_attributes()
    tracer = spans.Tracer()
    inst = spans.Instrumentation(tracer)
    inst.install()
    try:
        during = package_attributes()
        x = T.Parameter("x", np.arange(3.0))
        with T.Graph() as g:
            loss = T.sum_all(T.mul(x, x))
        grads = g.backward(loss)
    finally:
        inst.remove()
    after = package_attributes()

    patched = sorted(k for k in before if during[k] is not before[k])
    assert "cpnet.tensor.record" in patched and "cpnet.tensor.Graph.backward" in patched
    assert sum(k.startswith("cpnet.tensor.") for k in patched) >= len(
        spans.MAIN_OPS + spans.OTHER_OPS)
    assert during.keys() == before.keys() == after.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert np.array_equal(grads[x], 2 * x.data)
    # the op, its backward and the sweep itself were traced
    traced = {tracer.names[nid] for nid in tracer.name}
    assert traced == {"tensor.other", "tensor.other.bwd", "tensor.backward"}
