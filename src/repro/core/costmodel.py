"""The paper's bandwidth cost model (Section 3.2).

The model characterises a single client-site UDF application over a relation
by seven parameters:

====  =========================================================================
A     size of the argument columns / total size of an input record
D     number of distinct argument tuples / cardinality of the input relation
S     selectivity of the pushable predicates
P     size of the projected output record / size of the output record before
      pushable projections (column selectivity of the projections)
I     size of one input record, in bytes
R     size of one UDF result, in bytes
N     network asymmetry: downlink bandwidth / uplink bandwidth
====  =========================================================================

Per-tuple bytes shipped (paper, Section 3.2.1):

* semi-join downlink:          ``D * A * I``
* semi-join uplink (weighted): ``N * D * R``
* client-site join downlink:   ``I``
* client-site join uplink:     ``N * (I + R) * P * S``

The cost of a strategy is the **maximum** of its two per-link costs — the
link closer to saturation determines the turnaround of the join — and the
preferred strategy is the one with the smaller bottleneck cost.  The module
also exposes the analytic crossover points used to check the figures: the
selectivity at which a client-site join's uplink starts to dominate its
downlink (the "knee" of Figure 8), and the result size / selectivity at which
the two strategies break even (the 1.0-crossings of Figures 8-10).

**Batch extension.**  The paper ships one message per tuple; the batched
executor ships ``batch_size`` rows per message, so each row additionally
carries an amortised share ``message_overhead_bytes / batch_size`` of the
fixed per-message framing cost on every link it crosses.  The extension is
controlled by two extra parameters (``message_overhead_bytes``, default 0,
and ``batch_size``, default 1); with the defaults every formula reduces to
the paper's pure bandwidth model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.core.strategies import ExecutionStrategy


@dataclass(frozen=True)
class CostParameters:
    """The seven parameters of the Section 3.2 cost model (plus batching).

    ``message_overhead_bytes`` (``H``) is the fixed framing cost of one
    network message; ``batch_size`` (``b``) is the number of rows shipped per
    message, so every row is charged ``H / b`` per message it rides in.  The
    defaults (``H = 0``, ``b = 1``) recover the paper's pure bandwidth model.
    """

    argument_fraction: float  # A
    distinct_fraction: float  # D
    selectivity: float  # S
    projection_fraction: float  # P
    input_record_bytes: float  # I
    result_bytes: float  # R
    asymmetry: float = 1.0  # N
    message_overhead_bytes: float = 0.0  # H
    batch_size: float = 1.0  # b

    def __post_init__(self) -> None:
        if self.message_overhead_bytes < 0:
            raise ValueError("message_overhead_bytes (H) must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size (b) must be at least 1")
        if not 0.0 <= self.argument_fraction <= 1.0:
            raise ValueError("argument_fraction (A) must be in [0, 1]")
        if not 0.0 < self.distinct_fraction <= 1.0:
            raise ValueError("distinct_fraction (D) must be in (0, 1]")
        if not 0.0 <= self.selectivity <= 1.0:
            raise ValueError("selectivity (S) must be in [0, 1]")
        if self.projection_fraction < 0.0:
            raise ValueError("projection_fraction (P) must be non-negative")
        if self.input_record_bytes <= 0:
            raise ValueError("input_record_bytes (I) must be positive")
        if self.result_bytes < 0:
            raise ValueError("result_bytes (R) must be non-negative")
        if self.asymmetry <= 0:
            raise ValueError("asymmetry (N) must be positive")

    # Short aliases matching the paper's notation, for readable formulas.
    @property
    def A(self) -> float:  # noqa: N802
        return self.argument_fraction

    @property
    def D(self) -> float:  # noqa: N802
        return self.distinct_fraction

    @property
    def S(self) -> float:  # noqa: N802
        return self.selectivity

    @property
    def P(self) -> float:  # noqa: N802
        return self.projection_fraction

    @property
    def I(self) -> float:  # noqa: N802, E743
        return self.input_record_bytes

    @property
    def R(self) -> float:  # noqa: N802
        return self.result_bytes

    @property
    def N(self) -> float:  # noqa: N802
        return self.asymmetry

    @property
    def overhead_per_tuple(self) -> float:
        """Amortised per-message framing bytes charged to each shipped row."""
        return self.message_overhead_bytes / self.batch_size

    def with_selectivity(self, selectivity: float) -> "CostParameters":
        return replace(self, selectivity=selectivity)

    def with_result_bytes(self, result_bytes: float) -> "CostParameters":
        return replace(self, result_bytes=result_bytes)

    def with_batch_size(self, batch_size: float) -> "CostParameters":
        return replace(self, batch_size=batch_size)

    def with_message_overhead(self, message_overhead_bytes: float) -> "CostParameters":
        return replace(self, message_overhead_bytes=message_overhead_bytes)

    @classmethod
    def paper_experiment(
        cls,
        input_record_bytes: float,
        argument_fraction: float,
        result_bytes: float,
        selectivity: float,
        asymmetry: float = 1.0,
        distinct_fraction: float = 1.0,
    ) -> "CostParameters":
        """Parameters in the form the paper's experiments state them.

        The experiments fix ``P`` implicitly through the relation
        ``P * (I + R) = I * (1 - A) + R`` — only the non-argument columns and
        the results are returned by the client-site join.
        """
        projection = (input_record_bytes * (1.0 - argument_fraction) + result_bytes) / (
            input_record_bytes + result_bytes
        )
        return cls(
            argument_fraction=argument_fraction,
            distinct_fraction=distinct_fraction,
            selectivity=selectivity,
            projection_fraction=projection,
            input_record_bytes=input_record_bytes,
            result_bytes=result_bytes,
            asymmetry=asymmetry,
        )


@dataclass(frozen=True)
class StrategyCost:
    """Per-tuple bandwidth costs of one strategy."""

    strategy: ExecutionStrategy
    downlink_bytes: float
    uplink_bytes: float
    weighted_uplink_bytes: float

    @property
    def bottleneck_bytes(self) -> float:
        """The paper's cost: the larger of downlink and (asymmetry-weighted) uplink."""
        return max(self.downlink_bytes, self.weighted_uplink_bytes)

    @property
    def bottleneck_link(self) -> str:
        return "downlink" if self.downlink_bytes >= self.weighted_uplink_bytes else "uplink"


class CostModel:
    """Analytic comparison of semi-join and client-site join (and naive)."""

    def __init__(self, parameters: CostParameters) -> None:
        self.parameters = parameters

    # -- per-strategy costs ----------------------------------------------------------

    def semi_join_cost(self) -> StrategyCost:
        p = self.parameters
        h = p.overhead_per_tuple
        downlink = p.D * (p.A * p.I + h)
        uplink = p.D * (p.R + h)
        return StrategyCost(
            strategy=ExecutionStrategy.SEMI_JOIN,
            downlink_bytes=downlink,
            uplink_bytes=uplink,
            weighted_uplink_bytes=p.N * uplink,
        )

    def client_site_join_cost(self) -> StrategyCost:
        p = self.parameters
        h = p.overhead_per_tuple
        downlink = p.I + h
        # The client answers every record batch with exactly one reply
        # message, surviving rows or not, so the reply overhead share is not
        # scaled by the selectivity.
        uplink = (p.I + p.R) * p.P * p.S + h
        return StrategyCost(
            strategy=ExecutionStrategy.CLIENT_SITE_JOIN,
            downlink_bytes=downlink,
            uplink_bytes=uplink,
            weighted_uplink_bytes=p.N * uplink,
        )

    def naive_cost(self) -> StrategyCost:
        """The naive strategy ships what the semi-join ships but without
        duplicate elimination; its real penalty (per-tuple latency) is not a
        bandwidth effect and is modelled by the concurrency analysis instead."""
        p = self.parameters
        h = p.overhead_per_tuple
        downlink = p.A * p.I + h
        uplink = p.R + h
        return StrategyCost(
            strategy=ExecutionStrategy.NAIVE,
            downlink_bytes=downlink,
            uplink_bytes=uplink,
            weighted_uplink_bytes=p.N * uplink,
        )

    def cost(self, strategy: ExecutionStrategy) -> StrategyCost:
        if strategy is ExecutionStrategy.SEMI_JOIN:
            return self.semi_join_cost()
        if strategy is ExecutionStrategy.CLIENT_SITE_JOIN:
            return self.client_site_join_cost()
        return self.naive_cost()

    # -- comparisons ------------------------------------------------------------------

    def relative_time(self) -> float:
        """Predicted (client-site join time) / (semi-join time).

        This is the quantity plotted on the y-axis of Figures 8, 9 and 10.
        """
        semi = self.semi_join_cost().bottleneck_bytes
        client = self.client_site_join_cost().bottleneck_bytes
        if semi <= 0:
            return math.inf if client > 0 else 1.0
        return client / semi

    def preferred_strategy(self) -> ExecutionStrategy:
        """The strategy with the smaller bottleneck cost (ties go to the semi-join)."""
        if self.client_site_join_cost().bottleneck_bytes < self.semi_join_cost().bottleneck_bytes:
            return ExecutionStrategy.CLIENT_SITE_JOIN
        return ExecutionStrategy.SEMI_JOIN

    def all_costs(self) -> Dict[ExecutionStrategy, StrategyCost]:
        return {strategy: self.cost(strategy) for strategy in ExecutionStrategy}

    def overlapped_cost(self, strategy: ExecutionStrategy, overlap_window: float) -> float:
        """Per-tuple cost with up to ``overlap_window`` batches in flight.

        The overlap-aware extension of the bottleneck rule: with W request
        batches outstanding the two link transfers combine as their *max*
        (the overlapped share) plus the non-overlapped remainder amortised
        over the window::

            cost(W) = max(down, up) + (down + up - max(down, up)) / W

        ``W = 1`` is synchronous shipping — the links take turns, so their
        costs *add* (the naive strategy's round-trip behaviour); as ``W``
        grows the cost approaches the paper's pure ``max()`` bottleneck,
        which is what the pipelined strategies already assume.
        """
        if overlap_window < 1:
            raise ValueError("overlap_window must be at least 1")
        cost = self.cost(strategy)
        down = cost.downlink_bytes
        up = cost.weighted_uplink_bytes
        overlapped = max(down, up)
        return overlapped + (down + up - overlapped) / overlap_window

    def overlap_speedup(self, strategy: ExecutionStrategy, overlap_window: float) -> float:
        """Predicted (synchronous time) / (time with ``overlap_window`` batches)."""
        synchronous = self.overlapped_cost(strategy, 1.0)
        overlapped = self.overlapped_cost(strategy, overlap_window)
        if overlapped <= 0:
            return 1.0
        return synchronous / overlapped

    def batching_speedup(self, strategy: ExecutionStrategy, batch_size: float) -> float:
        """Predicted (batch of 1 time) / (batch of ``batch_size`` time).

        Compares the strategy's bottleneck cost at ``batch_size`` 1 against
        the same strategy at ``batch_size``, holding every other parameter
        fixed.  Meaningful only when ``message_overhead_bytes`` is non-zero
        (otherwise the ratio is 1: the paper model has no per-message cost).
        """
        single = CostModel(self.parameters.with_batch_size(1.0)).cost(strategy)
        batched = CostModel(self.parameters.with_batch_size(batch_size)).cost(strategy)
        if batched.bottleneck_bytes <= 0:
            return 1.0
        return single.bottleneck_bytes / batched.bottleneck_bytes

    # -- analytic crossover points -------------------------------------------------------

    def csj_knee_selectivity(self) -> float:
        """Selectivity at which the client-site join's uplink overtakes its downlink.

        Below this selectivity the CSJ curve of Figure 8 is flat (downlink
        bound); above it the curve rises linearly (uplink bound).  The paper
        quotes ``I / (N * P * (R + I))`` for this point.
        """
        p = self.parameters
        denominator = p.N * p.P * (p.R + p.I)
        if denominator <= 0:
            return math.inf
        return min(1.0, p.I / denominator)

    def breakeven_selectivity(self) -> Optional[float]:
        """Selectivity at which CSJ and semi-join costs are equal, if any.

        In the uplink-bound regime the CSJ uplink cost ``N*(I+R)*P*S`` equals
        the semi-join bottleneck at ``S* = SJ_cost / (N*(I+R)*P)``.  Returns
        ``None`` when the CSJ is cheaper for every selectivity in [0, 1] or
        more expensive for every selectivity (downlink already above the
        semi-join cost).
        """
        p = self.parameters
        semi = self.semi_join_cost().bottleneck_bytes
        csj_downlink = p.I
        if csj_downlink >= semi:
            return None  # CSJ never cheaper, regardless of selectivity
        slope = p.N * (p.I + p.R) * p.P
        if slope <= 0:
            return None
        breakeven = semi / slope
        return breakeven if breakeven <= 1.0 else None

    def breakeven_result_size(self) -> Optional[float]:
        """Result size at which CSJ and semi-join costs are equal (Figure 10).

        Solving ``max(I, N*S*P'*(I+R)) = max(D*A*I, N*D*R)`` for R with the
        experiments' convention ``P*(I+R) = I*(1-A) + R``.  Returns ``None``
        when no positive crossover exists (e.g. S = 1 with A < 1).
        """
        p = self.parameters
        non_argument_bytes = p.I * (1.0 - p.A)
        # In the uplink-bound regime for both strategies:
        #   N * S * (non_arguments + R)  =  N * D * R
        #   =>  R * (D - S) = S * non_arguments
        if p.D <= p.S:
            return None
        candidate = p.S * non_argument_bytes / (p.D - p.S)
        # Validate that both sides are indeed uplink-bound at the candidate.
        at_candidate = CostModel(self.parameters.with_result_bytes(candidate))
        semi = at_candidate.semi_join_cost()
        client = at_candidate.client_site_join_cost()
        if semi.bottleneck_link == "uplink" and client.bottleneck_link == "uplink":
            return candidate
        # Otherwise fall back to a numeric scan (downlink-bound corner cases).
        return self._numeric_breakeven_result_size()

    def _numeric_breakeven_result_size(self, upper: float = 1e7) -> Optional[float]:
        low, high = 0.0, upper
        ratio_low = CostModel(self.parameters.with_result_bytes(low)).relative_time()
        ratio_high = CostModel(self.parameters.with_result_bytes(high)).relative_time()
        if (ratio_low - 1.0) * (ratio_high - 1.0) > 0:
            return None
        for _ in range(200):
            mid = (low + high) / 2.0
            ratio_mid = CostModel(self.parameters.with_result_bytes(mid)).relative_time()
            if (ratio_low - 1.0) * (ratio_mid - 1.0) <= 0:
                high = mid
                ratio_high = ratio_mid
            else:
                low = mid
                ratio_low = ratio_mid
        return (low + high) / 2.0

    def __repr__(self) -> str:
        p = self.parameters
        return (
            f"CostModel(A={p.A:g}, D={p.D:g}, S={p.S:g}, P={p.P:g}, "
            f"I={p.I:g}, R={p.R:g}, N={p.N:g})"
        )
