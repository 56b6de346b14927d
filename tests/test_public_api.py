"""API-contract tests: every exported name exists and is documented.

These keep the public surface honest: every name in each package's
``__all__`` must resolve, and every public callable/class must carry a
docstring — the documentation deliverable, enforced.
"""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.util",
    "repro.trace",
    "repro.workload",
    "repro.placement",
    "repro.arch",
    "repro.oracle",
    "repro.experiments",
    "repro.tools",
    "repro.service",
]

MODULES = [
    "repro.util.rng", "repro.util.stats", "repro.util.tables",
    "repro.util.ascii_chart", "repro.util.validate",
    "repro.trace.record", "repro.trace.stream", "repro.trace.io",
    "repro.trace.analysis", "repro.trace.temporal", "repro.trace.transform",
    "repro.workload.address_space", "repro.workload.shaping",
    "repro.workload.channels", "repro.workload.generator",
    "repro.workload.patterns", "repro.workload.targets",
    "repro.workload.applications", "repro.workload.calibration",
    "repro.workload.custom",
    "repro.placement.base", "repro.placement.balance",
    "repro.placement.clustering", "repro.placement.metrics",
    "repro.placement.algorithms", "repro.placement.dynamic",
    "repro.placement.quality", "repro.placement.exhaustive",
    "repro.placement.io",
    "repro.arch.config", "repro.arch.stats", "repro.arch.cache",
    "repro.arch.directory", "repro.arch.kernel", "repro.arch.simulator",
    "repro.arch.thrashing", "repro.arch.models", "repro.arch.markov",
    "repro.arch.contention",
    "repro.oracle.reference", "repro.oracle.invariants",
    "repro.oracle.compare",
    "repro.experiments.runner", "repro.experiments.tables",
    "repro.experiments.figures", "repro.experiments.report",
    "repro.experiments.ablations", "repro.experiments.stability",
    "repro.experiments.claims", "repro.experiments.cache",
    "repro.experiments.export", "repro.experiments.html",
    "repro.experiments.cli", "repro.experiments.api",
    "repro.tools.workload_cli", "repro.tools.place_cli",
    "repro.tools.simulate_cli", "repro.tools.serve_cli",
    "repro.service.http", "repro.service.manager",
    "repro.service.server", "repro.service.client",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_package_all_resolves(package):
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{package}.__all__ exports missing {name}"


@pytest.mark.parametrize("module_name", MODULES)
def test_module_importable_and_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), (
        f"{module_name} lacks a module docstring"
    )


@pytest.mark.parametrize("module_name", MODULES)
def test_public_objects_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if obj.__module__ != module_name:
                continue  # re-export; documented at its home
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
    assert not undocumented, (
        f"{module_name}: public items without docstrings: {undocumented}"
    )


@pytest.mark.parametrize("module_name", MODULES)
def test_public_classes_document_their_methods(module_name):
    """Public methods of public classes must have docstrings."""
    module = importlib.import_module(module_name)
    offenders = []
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if not inspect.isclass(obj) or obj.__module__ != module_name:
            continue
        for method_name, method in inspect.getmembers(obj, inspect.isfunction):
            if method_name.startswith("_"):
                continue
            if method.__qualname__.split(".")[0] != obj.__name__:
                continue  # inherited
            if not (method.__doc__ and method.__doc__.strip()):
                offenders.append(f"{name}.{method_name}")
    assert not offenders, f"{module_name}: undocumented methods: {offenders}"
