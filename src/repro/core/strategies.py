"""Execution strategies for client-site UDFs and their configuration."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Tuple, Union, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adaptive.controller import (
        BatchControllerBank,
        BatchSizeController,
        OverlapWindowController,
    )
    from repro.adaptive.reoptimizer import ReOptimizer
    from repro.adaptive.store import StatisticsStore
    from repro.adaptive.switcher import SwitchPolicy


class ExecutionStrategy(enum.Enum):
    """The three ways the paper executes a client-site UDF over a relation.

    * ``NAIVE`` — treat the UDF like a server-site black box that happens to
      make a remote call: one synchronous round trip per input tuple
      (Section 2.1).
    * ``SEMI_JOIN`` — ship only (duplicate-free) argument columns to the
      client and join the returned results back onto the buffered records;
      a sender/receiver pair with a bounded pipeline hides network latency
      (Sections 2.3.1 and 3.1.1).
    * ``CLIENT_SITE_JOIN`` — ship whole records to the client, evaluate the
      UDF there together with any pushable predicates and projections, and
      ship only the surviving, projected rows back (Sections 2.3.2 and 3.1.3).
    """

    NAIVE = "naive"
    SEMI_JOIN = "semi_join"
    CLIENT_SITE_JOIN = "client_site_join"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class StrategyConfig:
    """Tunable knobs of the execution strategies.

    Parameters
    ----------
    strategy:
        Which algorithm to run.
    concurrency_factor:
        The pipeline concurrency factor of the semi-join (Section 3.1.2):
        the maximum number of argument tuples in flight between sender and
        receiver.  ``None`` lets the engine pick the analytic optimum B·T.
    batch_size:
        Number of rows per network message for every strategy: argument
        tuples per downlink message for the semi-join and naive strategies,
        whole records per downlink message for the client-site join.  The
        client mirrors the batching on the uplink (one result/record batch
        per request message).  The paper pipelines single tuples; batches
        model the "set-oriented" extension and amortise the fixed
        per-message overhead (latency share and framing bytes) over
        ``batch_size`` rows.  A value of 1 reproduces the paper's
        tuple-at-a-time wire behaviour exactly.
    batch_size_overrides:
        Per-UDF batch sizes overriding the plan-wide ``batch_size``: a
        mapping from UDF name (case-insensitive) to rows per message,
        normalised internally to a sorted tuple so configs stay hashable.
        An explicit override also pins that UDF's batch size against the
        adaptive controller.
    batch_controller:
        A :class:`~repro.adaptive.controller.BatchSizeController` — or a
        :class:`~repro.adaptive.controller.BatchControllerBank` of per-UDF
        controllers — consulted *between batches* instead of the static
        ``batch_size``: each strategy asks it for the size of the next batch
        and reports observed progress, so the batch size adapts mid-query to
        measured throughput.  With a bank, every UDF climbs its own
        independent ladder.  ``None`` (the default) keeps the static
        behaviour.  The controller is runtime state, excluded from equality
        and hashing.
    switch_policy:
        A :class:`~repro.adaptive.switcher.SwitchPolicy` arming *mid-query
        strategy switching*: the UDF operator then runs the input in
        segments, re-costs the remaining rows under every strategy at each
        segment boundary from observed selectivity/bandwidth, and — with the
        policy's hysteresis — hands the unprocessed tail to a different
        strategy executor.  ``strategy`` becomes the *initial* strategy.
        ``None`` (the default) commits to ``strategy`` for the whole query.
    eliminate_duplicates:
        Whether the semi-join sender suppresses argument duplicates
        (Section 3.2.2).  Disabling this is an ablation knob.
    sort_by_arguments:
        Whether the server sorts the input on the argument columns before
        shipping.  For the semi-join this groups duplicates so the receiver
        performs a merge join; for the client-site join it lets the client's
        result cache avoid duplicate invocations without affecting bytes.
    server_result_cache:
        Whether the naive strategy caches results of duplicate argument
        tuples on the server ([HN97]); irrelevant to the semi-join (which
        deduplicates anyway) and to the client-site join (which ships whole
        records regardless).
    push_predicates / push_projections:
        Whether the client-site join pushes pushable predicates and
        projections to the client (Section 2.3.2).  Both default to True;
        turning them off is used by ablation benchmarks.
    """

    strategy: ExecutionStrategy = ExecutionStrategy.SEMI_JOIN
    concurrency_factor: Optional[int] = None
    batch_size: int = 1
    batch_size_overrides: Union[
        Mapping[str, int], Tuple[Tuple[str, int], ...]
    ] = ()
    #: The in-flight *batch window* of the overlapped shipping protocol: how
    #: many request batches may be outstanding on the wire at once, for every
    #: strategy.  ``None`` keeps each strategy's historical default — the
    #: naive strategy ships synchronously (window 1), the semi-join and the
    #: client-site join stream freely (their overlap is governed by the tuple
    #: pipeline and the downlink respectively).  An explicit window also pins
    #: the strategy against the adaptive overlap controller.
    overlap_window: Optional[int] = None
    #: An :class:`~repro.adaptive.controller.OverlapWindowController` that
    #: adapts the in-flight window *mid-query* on observed throughput, the
    #: way ``batch_controller`` adapts the batch size.  Consulted only when
    #: ``overlap_window`` is unset.  Runtime state, excluded from equality
    #: and hashing.
    overlap_controller: Optional["OverlapWindowController"] = field(
        default=None, compare=False
    )
    batch_controller: Optional[
        Union["BatchSizeController", "BatchControllerBank"]
    ] = field(default=None, compare=False)
    switch_policy: Optional["SwitchPolicy"] = None
    #: A :class:`~repro.adaptive.reoptimizer.ReOptimizer` arming *mid-query
    #: re-optimization*: the whole client-site UDF chain then runs inside one
    #: :class:`~repro.core.execution.adaptive.PlanMigrationOperator` that may
    #: migrate to a structurally different plan (UDF application order and
    #: per-UDF strategies) at segment boundaries.  Runtime state, excluded
    #: from equality and hashing.
    reoptimizer: Optional["ReOptimizer"] = field(default=None, compare=False)
    #: The database's :class:`~repro.adaptive.store.StatisticsStore`, when
    #: the caller wants runtime adaptation warm-started from cross-query
    #: priors (observed (UDF, predicate) selectivities).  Runtime state,
    #: excluded from equality and hashing.
    statistics: Optional["StatisticsStore"] = field(default=None, compare=False)
    eliminate_duplicates: bool = True
    sort_by_arguments: bool = True
    server_result_cache: bool = True
    push_predicates: bool = True
    push_projections: bool = True

    def __post_init__(self) -> None:
        if self.concurrency_factor is not None and self.concurrency_factor < 1:
            raise ValueError("concurrency_factor must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.overlap_window is not None and self.overlap_window < 1:
            raise ValueError("overlap_window must be at least 1")
        # Normalise the overrides (possibly a dict) to a sorted tuple of
        # (lower-case name, size) pairs so the frozen config stays hashable.
        normalised = tuple(
            sorted(
                (name.lower(), int(size))
                for name, size in (
                    self.batch_size_overrides.items()
                    if isinstance(self.batch_size_overrides, Mapping)
                    else self.batch_size_overrides
                )
            )
        )
        for name, size in normalised:
            if size < 1:
                raise ValueError(f"batch size override for {name!r} must be at least 1")
        object.__setattr__(self, "batch_size_overrides", normalised)
        # The same pairs as a mapping (not a field: derived, so it stays out
        # of equality and hashing): strategies resolve an override per batch
        # and per shipped row.
        object.__setattr__(self, "_override_sizes", dict(normalised))

    # -- batch sizing --------------------------------------------------------------

    def _override_for(self, udf_name: Optional[str]) -> Optional[int]:
        overrides = self._override_sizes
        if not overrides or udf_name is None:
            return None
        return overrides.get(udf_name.lower())

    def batch_size_for(self, udf_name: Optional[str] = None) -> int:
        """The *static* batch size for ``udf_name`` (override, else plan-wide)."""
        override = self._override_for(udf_name)
        return self.batch_size if override is None else override

    def has_batch_override(self, udf_name: str) -> bool:
        return self._override_for(udf_name) is not None

    def controller_for(self, udf_name: Optional[str] = None) -> Optional["BatchSizeController"]:
        """The adaptive controller governing ``udf_name``, if any.

        Resolves a :class:`~repro.adaptive.controller.BatchControllerBank` to
        the named UDF's own controller (created on first use); a plain
        controller is shared plan-wide.  An explicit per-UDF batch-size
        override pins that UDF against adaptation, so ``None`` is returned.
        """
        if self._override_for(udf_name) is not None:
            return None
        controller = self.batch_controller
        if controller is None:
            return None
        resolve = getattr(controller, "controller_for", None)
        if resolve is not None:
            return resolve(udf_name)
        return controller

    def next_batch_size(self, udf_name: Optional[str] = None) -> int:
        """The batch size to use for the *next* batch.

        An explicit per-UDF override is pinned; otherwise an attached
        adaptive controller (or the UDF's own controller from a bank)
        decides; otherwise the static plan-wide size.  Strategies call this
        at every batch boundary.
        """
        override = self._override_for(udf_name)
        if override is not None:
            return override
        controller = self.controller_for(udf_name)
        if controller is not None:
            return controller.current()
        return self.batch_size

    # -- overlap (in-flight batch window) --------------------------------------------

    def next_overlap_window(self, udf_name: Optional[str] = None) -> Optional[int]:
        """The in-flight batch window to use for the next batch, if any.

        An explicit ``overlap_window`` is pinned; otherwise an attached
        :class:`~repro.adaptive.controller.OverlapWindowController` decides;
        otherwise ``None`` — each strategy then applies its own default
        (synchronous for naive, free streaming for semi-join and client-site
        join).  Strategies re-read this at every batch boundary, so the
        window tracks the controller mid-query.
        """
        if self.overlap_window is not None:
            return self.overlap_window
        if self.overlap_controller is not None:
            return self.overlap_controller.current()
        return None

    def overlap_controller_for(
        self, udf_name: Optional[str] = None
    ) -> Optional["OverlapWindowController"]:
        """The window controller to feed observations, unless pinned."""
        if self.overlap_window is not None:
            return None
        return self.overlap_controller

    # -- convenience constructors --------------------------------------------------

    @classmethod
    def naive(
        cls,
        server_result_cache: bool = True,
        batch_size: int = 1,
        overlap_window: Optional[int] = None,
    ) -> "StrategyConfig":
        return cls(
            strategy=ExecutionStrategy.NAIVE,
            server_result_cache=server_result_cache,
            batch_size=batch_size,
            overlap_window=overlap_window,
        )

    @classmethod
    def semi_join(
        cls,
        concurrency_factor: Optional[int] = None,
        batch_size: int = 1,
        eliminate_duplicates: bool = True,
        sort_by_arguments: bool = True,
        overlap_window: Optional[int] = None,
    ) -> "StrategyConfig":
        return cls(
            strategy=ExecutionStrategy.SEMI_JOIN,
            concurrency_factor=concurrency_factor,
            batch_size=batch_size,
            eliminate_duplicates=eliminate_duplicates,
            sort_by_arguments=sort_by_arguments,
            overlap_window=overlap_window,
        )

    @classmethod
    def client_site_join(
        cls,
        push_predicates: bool = True,
        push_projections: bool = True,
        sort_by_arguments: bool = True,
        batch_size: int = 1,
        overlap_window: Optional[int] = None,
    ) -> "StrategyConfig":
        return cls(
            strategy=ExecutionStrategy.CLIENT_SITE_JOIN,
            push_predicates=push_predicates,
            push_projections=push_projections,
            sort_by_arguments=sort_by_arguments,
            batch_size=batch_size,
            overlap_window=overlap_window,
        )

    def with_strategy(self, strategy: ExecutionStrategy) -> "StrategyConfig":
        return replace(self, strategy=strategy)

    def with_concurrency(self, concurrency_factor: int) -> "StrategyConfig":
        return replace(self, concurrency_factor=concurrency_factor)

    def with_batch_size(self, batch_size: int) -> "StrategyConfig":
        return replace(self, batch_size=batch_size)

    def with_batch_overrides(self, overrides: Mapping[str, int]) -> "StrategyConfig":
        return replace(self, batch_size_overrides=dict(overrides))

    def with_batch_controller(
        self, controller: Optional[Union["BatchSizeController", "BatchControllerBank"]]
    ) -> "StrategyConfig":
        return replace(self, batch_controller=controller)

    def with_overlap_window(self, overlap_window: Optional[int]) -> "StrategyConfig":
        return replace(self, overlap_window=overlap_window)

    def with_overlap_controller(
        self, controller: Optional["OverlapWindowController"]
    ) -> "StrategyConfig":
        return replace(self, overlap_controller=controller)

    def with_switch_policy(self, policy: Optional["SwitchPolicy"]) -> "StrategyConfig":
        return replace(self, switch_policy=policy)

    def with_reoptimizer(self, reoptimizer: Optional["ReOptimizer"]) -> "StrategyConfig":
        return replace(self, reoptimizer=reoptimizer)

    def with_statistics(self, statistics: Optional["StatisticsStore"]) -> "StrategyConfig":
        return replace(self, statistics=statistics)
