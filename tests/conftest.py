"""Shared fixtures for the test-suite.

The fixtures centralise the objects almost every test needs — the paper's 4x4
architecture, task graph and mapping — so individual tests stay short and the
expensive constructions are reused where safe (the architecture is function
scoped because ONIs carry mutable receiver state).

A per-test watchdog ends the run, with every thread's stack on stderr, when a
test hangs, so a hang fails the suite instead of stalling it.
"""

from __future__ import annotations

import faulthandler
import os
import sys

import pytest
from hypothesis import HealthCheck, settings

from repro.allocation import AllocationEvaluator

# The fixtures used inside @given blocks are immutable parameter bundles or
# freshly derived models, so not resetting them between generated examples is
# safe; the deadline is disabled because a few property tests evaluate the full
# objective chain, whose first call pays a pre-computation cost.
settings.register_profile(
    "repro",
    suppress_health_check=[HealthCheck.function_scoped_fixture],
    deadline=None,
)
settings.load_profile("repro")
from repro.application import paper_mapping, paper_task_graph
from repro.config import GeneticParameters, OnocConfiguration
from repro.topology import RingOnocArchitecture

#: Seconds one test (setup, call and teardown) may take before the watchdog
#: dumps every thread's stack and exits the run; the slowest test takes ~4 s.
TEST_WATCHDOG_SECONDS = 120.0

_WATCHDOG_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # A copy of the real stderr, taken while output capture is suspended:
    # during a test fd 2 points at the capture file, which a run the
    # watchdog exits never prints.
    config.stash[_WATCHDOG_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_WATCHDOG_STDERR])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(
        TEST_WATCHDOG_SECONDS, exit=True, file=item.config.stash[_WATCHDOG_STDERR]
    )
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def configuration() -> OnocConfiguration:
    """The default configuration (paper parameter values, fast GA sizing)."""
    return OnocConfiguration()


@pytest.fixture
def architecture(configuration: OnocConfiguration) -> RingOnocArchitecture:
    """The paper's 4x4 ring architecture with 8 wavelengths."""
    return RingOnocArchitecture.grid(4, 4, wavelength_count=8, configuration=configuration)


@pytest.fixture
def small_architecture(configuration: OnocConfiguration) -> RingOnocArchitecture:
    """A 2x2 ring with 4 wavelengths for exhaustive/enumeration tests."""
    return RingOnocArchitecture.grid(2, 2, wavelength_count=4, configuration=configuration)


@pytest.fixture
def task_graph():
    """The paper's virtual application (Fig. 5)."""
    return paper_task_graph()


@pytest.fixture
def mapping(architecture):
    """The paper's task placement on the 16-core ring."""
    return paper_mapping(architecture)


@pytest.fixture
def evaluator(architecture, task_graph, mapping) -> AllocationEvaluator:
    """An allocation evaluator for the paper setup with 8 wavelengths."""
    return AllocationEvaluator(architecture, task_graph, mapping)


@pytest.fixture
def smoke_ga() -> GeneticParameters:
    """A tiny GA sizing for tests that run the optimiser."""
    return GeneticParameters.smoke_test()
