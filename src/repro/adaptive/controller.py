"""Mid-query adaptive batch sizing.

The batched executor (PR 1) ships ``StrategyConfig.batch_size`` rows per
network message — a *static*, plan-wide knob the optimizer picks from
configured network parameters.  The :class:`BatchSizeController` replaces it
with a closed feedback loop: the execution strategies ask the controller for
the batch size *before forming each batch* and report the observed progress
(rows acknowledged, simulated seconds elapsed) *after each reply*, so the
batch size hill-climbs on measured rows/second while the query runs.

The climber works on a multiplicative ladder (…, b/2, b, 2b, …):

* measurements are aggregated into *windows* of at least
  ``window_batches`` batches and ``window_rows`` rows, so one noisy
  round trip cannot flip a decision;
* each window's throughput updates an exponentially weighted estimate for
  the batch size it ran at; the next size is whichever of {b/2, b, 2b} has
  the best estimate, probing unexplored neighbours in the current climb
  direction first;
* once settled, the controller periodically re-probes a neighbour
  (``reprobe_after`` stable windows, alternating up/down) so an optimum that
  *moved* — a link whose bandwidth drifted mid-query — is rediscovered;
* a throughput *collapse* at the current size (a window under
  :data:`COLLAPSE_FRACTION` of its previous estimate) discards all estimates:
  the network has visibly changed, so remembered throughputs are stale.

The controller is deliberately transport-agnostic: it never touches the
simulator.  Strategies feed it observations via :meth:`observe_rows` with
the current simulated clock, and it tracks inter-arrival times itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


#: A window running under this fraction of its batch size's previous estimate
#: is a collapse: the link drifted, remembered throughputs are stale.
COLLAPSE_FRACTION = 0.5


@dataclass(frozen=True)
class BatchDecision:
    """One completed measurement window and the size chosen after it."""

    batch_size: int
    rows: int
    seconds: float
    next_batch_size: int


class BatchSizeController:
    """Hill-climbs the per-message batch size on observed rows/second."""

    def __init__(
        self,
        initial_batch_size: int = 8,
        min_batch_size: int = 1,
        max_batch_size: int = 256,
        window_batches: int = 2,
        window_rows: int = 32,
        smoothing: float = 0.5,
        reprobe_after: int = 6,
        collapse_backoff: bool = False,
    ) -> None:
        if min_batch_size < 1:
            raise ValueError("min_batch_size must be at least 1")
        if max_batch_size < min_batch_size:
            raise ValueError("max_batch_size must be >= min_batch_size")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        self.min_batch_size = min_batch_size
        self.max_batch_size = max_batch_size
        self.window_batches = max(1, window_batches)
        self.window_rows = max(1, window_rows)
        self.smoothing = smoothing
        self.reprobe_after = max(2, reprobe_after)
        #: On a collapse, immediately step one rung *down* instead of staying
        #: put.  Under multi-tenant cross-traffic a collapse usually means
        #: the flow's trunk share shrank — backing off the window/batch frees
        #: the trunk faster than waiting for fresh neighbour probes.
        self.collapse_backoff = collapse_backoff

        self._size = self._clamp(initial_batch_size)
        self._direction = 1  # +1 probing upward, -1 probing downward
        self._throughput: Dict[int, float] = {}
        self._stable_windows = 0
        self._reprobe_up_next = True

        # Current measurement window.
        self._window_rows_seen = 0
        self._window_seconds = 0.0
        self._window_batch_count = 0
        self._last_observation_at: Optional[float] = None

        #: Completed windows, in order — the convergence trace benchmarks plot.
        self.decisions: List[BatchDecision] = []
        #: Total rows/batches the controller has been told about.
        self.rows_observed = 0
        self.batches_observed = 0
        #: Collapse resets performed (a drifted link invalidated all estimates).
        self.collapse_count = 0

    # -- the two calls strategies make -------------------------------------------------

    def current(self) -> int:
        """The batch size to use for the next batch."""
        return self._size

    def observe_rows(self, rows: int, now: float) -> None:
        """Report that a batch of ``rows`` input rows was acknowledged at ``now``.

        ``now`` is the simulated (or wall) clock; the controller measures the
        time between consecutive observations, which at steady state is the
        pipeline's per-batch service time regardless of how many batches are
        in flight.
        """
        if rows <= 0:
            return
        self.rows_observed += rows
        self.batches_observed += 1
        if self._last_observation_at is None:
            # First reply of an operator: no baseline to measure against.
            self._last_observation_at = now
            return
        elapsed = now - self._last_observation_at
        self._last_observation_at = now
        if elapsed < 0:
            return
        self._window_rows_seen += rows
        self._window_seconds += elapsed
        self._window_batch_count += 1
        if (
            self._window_batch_count >= self.window_batches
            and self._window_rows_seen >= min(self.window_rows, 2 * self._size)
            and self._window_seconds > 0
        ):
            self._decide()

    def begin_operation(self, now: float) -> None:
        """Reset the inter-arrival clock at the start of a remote operation.

        Without this, the idle gap between two remote operators on the same
        connection would be charged to the first batch of the second one.
        """
        self._last_observation_at = now

    # -- decision logic ---------------------------------------------------------------

    def _decide(self) -> None:
        throughput = self._window_rows_seen / self._window_seconds
        previous = self._throughput.get(self._size)
        if (
            previous is not None
            and previous > 0
            and throughput < previous * COLLAPSE_FRACTION
        ):
            # The same batch size suddenly runs far slower than it used to:
            # the link drifted, every remembered estimate is stale.
            self._throughput = {self._size: throughput}
            self._stable_windows = 0
            self.collapse_count += 1
            if self.collapse_backoff:
                down = self._clamp(max(1, self._size // 2))
                if down != self._size:
                    self.decisions.append(
                        BatchDecision(
                            batch_size=self._size,
                            rows=self._window_rows_seen,
                            seconds=self._window_seconds,
                            next_batch_size=down,
                        )
                    )
                    self._direction = -1
                    self._size = down
                    self._window_rows_seen = 0
                    self._window_seconds = 0.0
                    self._window_batch_count = 0
                    return
        elif previous is None:
            self._throughput[self._size] = throughput
        else:
            alpha = self.smoothing
            self._throughput[self._size] = (1.0 - alpha) * previous + alpha * throughput

        next_size = self._choose_next()
        self.decisions.append(
            BatchDecision(
                batch_size=self._size,
                rows=self._window_rows_seen,
                seconds=self._window_seconds,
                next_batch_size=next_size,
            )
        )
        if next_size == self._size:
            self._stable_windows += 1
        else:
            self._direction = 1 if next_size > self._size else -1
            self._stable_windows = 0
        self._size = next_size
        self._window_rows_seen = 0
        self._window_seconds = 0.0
        self._window_batch_count = 0

    def _choose_next(self) -> int:
        size = self._size
        up = self._clamp(size * 2)
        down = self._clamp(max(1, size // 2))

        # Probe unexplored territory in the direction we were climbing.
        if self._direction > 0 and up != size and up not in self._throughput:
            return up
        if self._direction < 0 and down != size and down not in self._throughput:
            return down
        # Then any unexplored neighbour at all.
        if up != size and up not in self._throughput:
            return up
        if down != size and down not in self._throughput:
            return down

        # All neighbours known: move to the best estimate.
        candidates = {down, size, up}
        best = max(candidates, key=lambda candidate: self._throughput.get(candidate, 0.0))
        if best != size:
            return best

        # Settled.  Re-probe a neighbour now and then so a drifted optimum is
        # rediscovered; alternate directions to watch both sides.
        if self._stable_windows >= self.reprobe_after:
            self._stable_windows = 0
            probe = up if self._reprobe_up_next and up != size else down
            self._reprobe_up_next = not self._reprobe_up_next
            if probe != size:
                self._throughput.pop(probe, None)
                return probe
        return size

    def _clamp(self, value: int) -> int:
        return max(self.min_batch_size, min(self.max_batch_size, int(value)))

    # -- introspection ----------------------------------------------------------------

    @property
    def converged_batch_size(self) -> int:
        """The best-performing size seen so far (current size before any data)."""
        if not self._throughput:
            return self._size
        return max(self._throughput, key=lambda size: self._throughput[size])

    def throughput_estimate(self, batch_size: int) -> Optional[float]:
        return self._throughput.get(batch_size)

    def size_trace(self) -> Tuple[int, ...]:
        """The sequence of batch sizes the controller moved through."""
        trace: List[int] = []
        for decision in self.decisions:
            if not trace or trace[-1] != decision.batch_size:
                trace.append(decision.batch_size)
        if not trace or trace[-1] != self._size:
            trace.append(self._size)
        return tuple(trace)

    def __repr__(self) -> str:
        return (
            f"BatchSizeController(size={self._size}, windows={len(self.decisions)}, "
            f"rows={self.rows_observed})"
        )


class OverlapWindowController(BatchSizeController):
    """Hill-climbs the overlapped shipping protocol's in-flight batch window.

    Reuses the batch-size climber unchanged — the knob is the number of
    request batches outstanding on the wire
    (:class:`~repro.core.execution.overlap.InFlightWindow` capacity) instead
    of the rows per batch, and the signal is the same observed rows/second
    the strategies already report at every acknowledged batch.  A window too
    small leaves the links idle between round trips (the Figure 6 cliff at
    low concurrency factors); a window past the pipeline's B·T product only
    adds buffering; the climber finds the knee from measurements, and its
    collapse/re-probe machinery re-finds it when the link drifts.

    The ladder is deliberately small (windows are counted in batches, and a
    few batches already cover most pipelines), and the defaults start at a
    modest double-buffered window so the first measurement window is neither
    synchronous nor unbounded.
    """

    def __init__(
        self,
        initial_window: int = 2,
        min_window: int = 1,
        max_window: int = 64,
        **kwargs,
    ) -> None:
        super().__init__(
            initial_batch_size=initial_window,
            min_batch_size=min_window,
            max_batch_size=max_window,
            **kwargs,
        )

    def __repr__(self) -> str:
        return (
            f"OverlapWindowController(window={self.current()}, "
            f"windows={len(self.decisions)}, rows={self.rows_observed})"
        )


class BatchControllerBank:
    """Per-UDF adaptive batch-size controllers with independent ladders.

    A plan-wide :class:`BatchSizeController` blends every remote UDF's
    throughput signal into one ladder: a drift seen by one UDF collapses the
    estimates of all of them, and two UDFs with different per-row byte costs
    fight over a single batch size.  The bank gives each UDF its *own*
    controller, created lazily on first use by ``factory`` (which is where
    per-UDF warm starts from the statistics store come from), so one UDF's
    collapse-reset or climb never disturbs another's ladder.

    The bank mirrors the aggregate introspection surface of a single
    controller (``batches_observed``, ``converged_batch_size``,
    ``size_trace``), so the executor's metrics and the runtime observer work
    unchanged whether a config carries a controller or a bank.
    """

    def __init__(self, factory: Optional[Callable[[str], "BatchSizeController"]] = None) -> None:
        self._factory = factory if factory is not None else (lambda name: BatchSizeController())
        #: Controllers by lower-cased UDF name, in creation order.
        self.controllers: Dict[str, BatchSizeController] = {}

    def controller_for(self, udf_name: Optional[str] = None) -> BatchSizeController:
        """The named UDF's controller, created on first use."""
        key = (udf_name or "").lower()
        controller = self.controllers.get(key)
        if controller is None:
            controller = self._factory(key)
            self.controllers[key] = controller
        return controller

    # -- aggregate introspection (the single-controller protocol) ----------------------

    @property
    def batches_observed(self) -> int:
        return sum(controller.batches_observed for controller in self.controllers.values())

    @property
    def rows_observed(self) -> int:
        return sum(controller.rows_observed for controller in self.controllers.values())

    @property
    def converged_batch_size(self) -> int:
        """The converged size of the controller that saw the most rows.

        For the common single-UDF query this is exactly that UDF's converged
        size; for multi-UDF plans it is the dominant operator's, which is what
        a plan-wide warm start should begin from.
        """
        best: Optional[BatchSizeController] = None
        for controller in self.controllers.values():
            if best is None or controller.rows_observed > best.rows_observed:
                best = controller
        if best is None:
            return BatchSizeController().current()
        return best.converged_batch_size

    def converged_sizes(self) -> Dict[str, int]:
        """Per-UDF converged batch sizes, for UDFs that observed any batch."""
        return {
            name: controller.converged_batch_size
            for name, controller in self.controllers.items()
            if controller.batches_observed > 0
        }

    def size_trace(self) -> Tuple[int, ...]:
        """Concatenated per-UDF traces, in controller creation order."""
        trace: List[int] = []
        for controller in self.controllers.values():
            trace.extend(controller.size_trace())
        return tuple(trace)

    def __repr__(self) -> str:
        return f"BatchControllerBank(udfs={sorted(self.controllers)})"
