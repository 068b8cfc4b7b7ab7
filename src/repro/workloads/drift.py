"""Drifting-network scenarios for the adaptive runtime subsystem.

The paper's experiments run on links whose bandwidth is fixed and known.  A
production client — a phone moving between cells, a cable modem sharing its
segment — sees bandwidth *drift while the query runs*.  These scenario
constructors produce :class:`~repro.network.topology.NetworkConfig` objects
whose links follow piecewise-constant bandwidth schedules; the configured
(base) bandwidths are what a static planner believes, the schedule is what
the link actually delivers.
"""

from __future__ import annotations

from typing import Tuple

from repro.network.topology import NetworkConfig


def drifting_bandwidth_network(
    base: NetworkConfig,
    drift_at_seconds: float,
    downlink_factor: float = 1.0,
    uplink_factor: float = 1.0,
    name: str = "",
) -> NetworkConfig:
    """``base`` whose bandwidths jump by the given factors at ``drift_at_seconds``.

    Factors below 1 model degradation (congestion, a weaker signal), factors
    above 1 an improving link.  A factor of exactly 1 leaves that direction
    stable.
    """
    if drift_at_seconds < 0:
        raise ValueError("drift_at_seconds must be non-negative")
    if downlink_factor <= 0 or uplink_factor <= 0:
        raise ValueError("drift factors must be positive")
    downlink_schedule: Tuple[Tuple[float, float], ...] = ()
    uplink_schedule: Tuple[Tuple[float, float], ...] = ()
    if downlink_factor != 1.0:
        downlink_schedule = ((drift_at_seconds, base.downlink_bandwidth * downlink_factor),)
    if uplink_factor != 1.0:
        uplink_schedule = ((drift_at_seconds, base.uplink_bandwidth * uplink_factor),)
    return base.with_drift(
        downlink_schedule=downlink_schedule,
        uplink_schedule=uplink_schedule,
        name=name or f"{base.name}+drift@{drift_at_seconds:g}s",
    )


def fading_uplink_scenario(
    drift_at_seconds: float = 30.0,
    fade_factor: float = 0.1,
    asymmetry: float = 100.0,
) -> NetworkConfig:
    """The benchmark scenario: the paper's N=100 link whose uplink fades.

    The uplink — already the bottleneck on the asymmetric network — drops to
    ``fade_factor`` of its configured bandwidth at ``drift_at_seconds``.  A
    static plan tuned for the configured uplink then drowns in per-message
    overhead; an adaptive execution re-batches to amortise it.
    """
    base = NetworkConfig.paper_asymmetric(asymmetry=asymmetry)
    return drifting_bandwidth_network(
        base,
        drift_at_seconds=drift_at_seconds,
        uplink_factor=fade_factor,
        name=f"fading-uplink-N{asymmetry:g}@{drift_at_seconds:g}s",
    )
