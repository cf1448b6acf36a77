"""API-surface quality gates: exports resolve, public items are documented."""

from __future__ import annotations

import importlib
import inspect

import pytest

MODULES = [
    "repro",
    "repro.analysis",
    "repro.analysis.chart",
    "repro.analysis.complexity",
    "repro.analysis.coverage",
    "repro.analysis.render",
    "repro.analysis.sequences",
    "repro.analysis.timeline",
    "repro.analysis.verification",
    "repro.baselines",
    "repro.baselines.optimal",
    "repro.baselines.rendezvous",
    "repro.cli",
    "repro.core",
    "repro.core.known_k_full",
    "repro.core.known_k_logspace",
    "repro.core.known_n_full",
    "repro.core.messages",
    "repro.core.targets",
    "repro.core.unknown",
    "repro.embedding",
    "repro.embedding.deploy",
    "repro.embedding.general",
    "repro.embedding.tree",
    "repro.errors",
    "repro.registry",
    "repro.spec",
    "repro.mc",
    "repro.mc.checker",
    "repro.mc.oracle",
    "repro.mc.parallel",
    "repro.mc.properties",
    "repro.mc.selftest",
    "repro.mc.state",
    "repro.experiments",
    "repro.experiments.comparison",
    "repro.experiments.figures",
    "repro.experiments.impossibility",
    "repro.experiments.lower_bound",
    "repro.experiments.report",
    "repro.experiments.runner",
    "repro.experiments.serialize",
    "repro.experiments.statistics",
    "repro.experiments.sweep",
    "repro.experiments.table1",
    "repro.ring",
    "repro.ring.configuration",
    "repro.ring.network",
    "repro.ring.placement",
    "repro.sim",
    "repro.sim.actions",
    "repro.sim.agent",
    "repro.sim.engine",
    "repro.sim.metrics",
    "repro.sim.scheduler",
    "repro.sim.trace",
    "repro.store",
    "repro.store.cache",
    "repro.store.jsonl",
    "repro.store.records",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_imports_and_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} has no module docstring"


@pytest.mark.parametrize("module_name", MODULES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    for name in exported:
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_callables_are_documented(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    undocumented = []
    for name in exported:
        obj = getattr(module, name)
        if obj.__module__ != module_name if hasattr(obj, "__module__") else True:
            continue  # re-export: documented at its home module
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if not inspect.getdoc(obj):
                undocumented.append(name)
    assert not undocumented, (
        f"{module_name}: public items without docstrings: {undocumented}"
    )


def test_version_attribute():
    import repro

    assert repro.__version__
    parts = repro.__version__.split(".")
    assert len(parts) == 3 and all(part.isdigit() for part in parts)


def test_top_level_star_import_is_clean():
    namespace = {}
    exec("from repro import *", namespace)  # noqa: S102 - deliberate
    assert "run_experiment" in namespace
    assert "Placement" in namespace
