"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import sys

import pytest
from hypothesis import settings

# Every Hypothesis test draws the same examples on every run, from a seed its
# own source fixes, so the suite is never red by lottery.  Fresh examples are
# a separate hunt: ``--hypothesis-profile=hunt --hypothesis-seed=<n>`` (CI
# passes its run id); each find lands as an ``@example`` on its test, the
# record that outlives the git-ignored ``.hypothesis/`` directory.
settings.register_profile("tier1", derandomize=True)
settings.register_profile("hunt", derandomize=False, print_blob=True)
settings.load_profile("tier1")

# Allow running the tests from a source checkout without installation.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core.strategies import StrategyConfig  # noqa: E402
from repro.network.topology import NetworkConfig  # noqa: E402
from repro.workloads.stock import StockWorkload  # noqa: E402
from repro.workloads.synthetic import SyntheticWorkload  # noqa: E402


@pytest.fixture
def fast_network() -> NetworkConfig:
    """A quick symmetric network so simulations stay fast in unit tests."""
    return NetworkConfig.symmetric(1_000_000.0, latency=0.001, name="test-fast")


@pytest.fixture
def slow_network() -> NetworkConfig:
    """A modem-class symmetric network (the paper's setting)."""
    return NetworkConfig.paper_symmetric()


@pytest.fixture
def asymmetric_network() -> NetworkConfig:
    """An asymmetric network with N=100 (the Figure 9 setting)."""
    return NetworkConfig.paper_asymmetric(asymmetry=100.0)


@pytest.fixture
def small_workload() -> SyntheticWorkload:
    """A small Figure 7 style workload used by many execution tests."""
    return SyntheticWorkload(
        row_count=12,
        input_record_bytes=400,
        argument_fraction=0.5,
        result_bytes=200,
        selectivity=0.5,
    )


@pytest.fixture(scope="session")
def stock_db():
    """A small stock-market database shared across read-only tests."""
    return StockWorkload(company_count=15, seed=7).build(default_config=StrategyConfig())


@pytest.fixture
def strategy_configs():
    return [
        StrategyConfig.naive(),
        StrategyConfig.semi_join(),
        StrategyConfig.client_site_join(),
    ]
