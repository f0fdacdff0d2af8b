"""Shared fixtures: the builtin benchmark partition and derived artifacts.

Session scope keeps the acceptance gate fast; every consumer treats these
as read-only.
"""
import pytest
from hypothesis import HealthCheck, settings

from gridcoord import grid_model as gm
from gridcoord.powerflow_models import build_dso_model
from gridcoord.projection import coupling_region
from suite_helpers import CRITERION_LINES, MODEL_KINDS

settings.register_profile(
    "suite", deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(set(CRITERION_LINES)):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def benchmark_partition():
    return gm.load_builtin_benchmark()


@pytest.fixture(scope="session")
def benchmark_dso_models(benchmark_partition):
    """{(dso_index, kind): PolyhedralModel} for both feeders, both models."""
    part = benchmark_partition
    return {(link.dso_index, kind): build_dso_model(case, link, kind)
            for case, link in zip(part.dsos, part.links)
            for kind in MODEL_KINDS}


@pytest.fixture(scope="session")
def benchmark_fors(benchmark_dso_models):
    """{(dso_index, kind): exact coupling-space Polyhedron}."""
    return {key: coupling_region(model)
            for key, model in benchmark_dso_models.items()}
