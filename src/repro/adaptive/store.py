"""The feedback store: calibrated statistics that persist across queries.

A :class:`StatisticsStore` lives on the :class:`~repro.server.engine.Database`
and accumulates :class:`~repro.adaptive.observer.QueryObservation` records.
From them it maintains exponentially weighted estimates of

* per-link effective bandwidth (and queueing delay),
* per-UDF measured cost per call, observed predicate selectivity, and
  observed distinct-argument fraction,
* the batch size adaptive executions converged to,

and exposes them in the vocabulary the planning layer speaks: a *calibrated*
:class:`~repro.network.topology.NetworkConfig`, calibrated
:class:`~repro.core.optimizer.cost.CostSettings`, and ``udf_cost`` /
``udf_selectivity`` lookups the cost estimator consults.  The optimizer's
second query on a network therefore plans with measured — not configured —
parameters, in the spirit of statistics-driven plan estimates
(``StatInfo``-style feedback in classical systems).
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING, Union

from repro.adaptive.observer import QueryObservation
from repro.network.topology import NetworkConfig
from repro.relational.schema import column_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.optimizer.cost import CostSettings
    from repro.relational.expressions import Expression

#: On-disk format version of :meth:`StatisticsStore.save` snapshots.
STORE_VERSION = 1


def canonical_predicate_key(predicate: Union["Expression", str, None]) -> str:
    """A predicate's *application-order-independent* identity key.

    Observed selectivities must survive plan-shape changes: under a reordered
    UDF plan the same predicate is pushed at a different operator, its
    conjuncts may arrive in a different order, and a key derived from "where
    it ran" diverges from the key the estimator asks for.  The key is a
    property of *what* the predicate is
    (:attr:`~repro.relational.expressions.Expression.canonical_key`: top-level
    AND conjuncts flattened and sorted), worked out on the tree by whoever
    holds it.  A plain string is such a key already and is looked up as
    given; no predicate is the empty key.
    """
    if predicate is None:
        return ""
    return predicate if isinstance(predicate, str) else predicate.canonical_key


def _column_key(name: object) -> str:
    """The store's key for a column: bare name, case-folded."""
    return column_key(str(name)).strip()


def canonical_join_key(columns: Iterable[str]) -> str:
    """A join predicate's order/qualification-independent identity key.

    The observer sees an executed join operator's ``left_keys``/``right_keys``
    (often qualified); the estimator asks with the predicate's referenced
    columns.  Sorting the de-duplicated bare names makes both spellings meet
    at the same key.
    """
    return "|".join(sorted({_column_key(name) for name in columns if str(name).strip()}))


class _Ewma:
    """A tiny exponentially weighted moving average."""

    __slots__ = ("value", "samples", "alpha")

    def __init__(self, alpha: float) -> None:
        self.value: Optional[float] = None
        self.samples = 0
        self.alpha = alpha

    def update(self, sample: float) -> None:
        self.samples += 1
        if self.value is None:
            self.value = sample
        else:
            self.value = (1.0 - self.alpha) * self.value + self.alpha * sample

    def to_state(self) -> List[object]:
        return [self.value, self.samples]

    @classmethod
    def from_state(cls, state: object, alpha: float) -> "_Ewma":
        estimate = cls(alpha)
        if not isinstance(state, (list, tuple)) or len(state) != 2:
            raise ValueError(f"malformed EWMA state: {state!r}")
        value, samples = state
        if value is not None and not isinstance(value, (int, float)):
            raise ValueError(f"malformed EWMA value: {value!r}")
        estimate.value = float(value) if value is not None else None
        estimate.samples = int(samples)
        return estimate


class StatisticsStore:
    """Observed-statistics feedback shared by every query on a database.

    ``smoothing`` is the EWMA weight of the newest observation: 1.0 keeps
    only the latest query's numbers, small values change estimates slowly.
    """

    def __init__(self, smoothing: float = 0.5, contention_aware: bool = False) -> None:
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        self.smoothing = smoothing
        #: When set, bandwidth estimates fold in sender-side queueing time
        #: (:attr:`LinkObservation.achieved_bandwidth`): on a shared trunk
        #: the queueing is other tenants' traffic, so the calibrated network
        #: reflects the *share* this store's queries actually get — plans and
        #: controllers then adapt to contention, not just to the raw link.
        self.contention_aware = contention_aware
        self.queries_observed = 0

        self._downlink_bandwidth = _Ewma(smoothing)
        self._uplink_bandwidth = _Ewma(smoothing)
        self._downlink_queueing = _Ewma(smoothing)
        self._uplink_queueing = _Ewma(smoothing)
        # Per-server-site bandwidth estimates (scale-out topologies): each
        # site's channel calibrates independently, so replica choice can be
        # priced from what *that* site's link actually delivered.
        self._site_bandwidths: Dict[str, Tuple[_Ewma, _Ewma]] = {}
        self._udf_cost: Dict[str, _Ewma] = {}
        # Observed UDF selectivities are keyed by (UDF, canonical predicate):
        # ``Score(V) >= 100`` and ``Score(V) >= 160`` select different
        # fractions of the same UDF's results, and blending them under the
        # UDF's name would miscalibrate both.
        self._udf_selectivity: Dict[Tuple[str, str], _Ewma] = {}
        # The same observations keyed by canonical predicate identity alone.
        # Under a reordered UDF plan a predicate spanning several UDFs is
        # pushed at a different operator than the estimator credits it to;
        # the (UDF, predicate) key then diverges and only the plan-shape-
        # independent predicate identity still matches.
        self._predicate_identity_selectivity: Dict[str, _Ewma] = {}
        self._udf_distinct_fraction: Dict[str, _Ewma] = {}
        self._predicate_selectivity: Dict[str, _Ewma] = {}
        # Observed equi-join selectivities keyed by canonical join key
        # (sorted bare join-column names): measured output/cross-product
        # ratios the estimator prefers over the 1/max(V(A), V(B)) formula.
        self._join_selectivity: Dict[str, _Ewma] = {}
        # Observed distinct-value evidence per bare column name, derived from
        # column-vs-literal equality filters (selectivity ≈ 1/V(A)).  Feeds
        # :meth:`column_distinct_evidence`, which overrides the neutral
        # "every value distinct" default for columns without exact statistics.
        self._column_distinct: Dict[str, _Ewma] = {}
        self._batch_size = _Ewma(smoothing)
        self._udf_batch_size: Dict[str, _Ewma] = {}

    # -- recording ---------------------------------------------------------------------

    def record(self, observation: QueryObservation, site: Optional[str] = None) -> None:
        """Fold one query's observation into the running estimates.

        With ``site`` the link measurements calibrate that *server site's*
        per-site bandwidth estimates instead of the single-connection ones —
        a scatter-gather query observes one channel per site, and blending a
        degraded replica's bandwidth into the global estimate would
        miscalibrate every other site.  UDF costs, selectivities, and batch
        sizes are site-independent and always feed the shared tables.
        """
        self.queries_observed += 1
        if site is None:
            down_slot = (self._downlink_bandwidth, self._downlink_queueing)
            up_slot = (self._uplink_bandwidth, self._uplink_queueing)
        else:
            pair = self._site_bandwidths.get(site)
            if pair is None:
                pair = self._site_bandwidths[site] = (
                    _Ewma(self.smoothing),
                    _Ewma(self.smoothing),
                )
            down_slot = (pair[0], _Ewma(self.smoothing))
            up_slot = (pair[1], _Ewma(self.smoothing))
        for link, bandwidth, queueing in (
            (observation.downlink,) + down_slot,
            (observation.uplink,) + up_slot,
        ):
            if link is None:
                continue
            observed = (
                link.achieved_bandwidth
                if self.contention_aware
                else link.effective_bandwidth
            )
            if observed is not None:
                bandwidth.update(observed)
            if link.message_count > 0:
                queueing.update(link.mean_queueing_seconds)

        for name, udf in observation.udfs.items():
            key = name.lower()
            cost = udf.measured_cost_per_call
            if cost is not None:
                self._udf_cost.setdefault(key, _Ewma(self.smoothing)).update(cost)
            selectivity = udf.observed_selectivity
            if selectivity is not None:
                canonical = canonical_predicate_key(udf.predicate)
                self._udf_selectivity.setdefault(
                    (key, canonical), _Ewma(self.smoothing)
                ).update(selectivity)
                if canonical:
                    self._predicate_identity_selectivity.setdefault(
                        canonical, _Ewma(self.smoothing)
                    ).update(selectivity)
            distinct = udf.observed_distinct_fraction
            if distinct is not None:
                self._udf_distinct_fraction.setdefault(key, _Ewma(self.smoothing)).update(
                    distinct
                )

        for predicate in observation.predicates:
            selectivity = predicate.observed_selectivity
            if selectivity is not None:
                self._predicate_selectivity.setdefault(
                    predicate.predicate, _Ewma(self.smoothing)
                ).update(selectivity)
                column = getattr(predicate, "equality_column", None)
                if column is not None and selectivity > 0.0:
                    # selectivity of "col = literal" ≈ 1/V(col): invert for
                    # distinct-count evidence, capped at the observed input.
                    distinct = min(1.0 / selectivity, float(max(predicate.input_rows, 1)))
                    self._column_distinct.setdefault(
                        _column_key(column), _Ewma(self.smoothing)
                    ).update(distinct)

        for join in getattr(observation, "joins", ()):
            selectivity = join.observed_selectivity
            if selectivity is not None:
                key = canonical_join_key(join.columns)
                if key:
                    self._join_selectivity.setdefault(
                        key, _Ewma(self.smoothing)
                    ).update(selectivity)

        if observation.converged_batch_size is not None:
            self._batch_size.update(float(observation.converged_batch_size))
        for name, size in observation.udf_batch_sizes.items():
            self._udf_batch_size.setdefault(name.lower(), _Ewma(self.smoothing)).update(
                float(size)
            )

    # -- calibrated lookups (the protocol the cost estimator speaks) -------------------

    def udf_cost(self, name: str, default: float) -> float:
        """Measured seconds per call for ``name``, or ``default`` if unobserved."""
        estimate = self._udf_cost.get(name.lower())
        if estimate is None or estimate.value is None:
            return default
        return estimate.value

    def udf_selectivity(
        self, name: str, default: float, predicate: Optional[str] = None
    ) -> float:
        """Observed selectivity of ``name`` filtered by ``predicate``, or ``default``.

        With ``predicate`` the lookup goes by canonical predicate key: an
        exact (UDF, predicate) observation wins, else any observation of the
        *same predicate identity* — whichever operator the plan that ran it
        happened to push it at (a reordered UDF plan pushes a multi-UDF
        predicate at a different operator than the estimator credits it to).
        Without it (legacy callers and reporting), the estimate is returned
        only when the UDF has been observed under exactly one predicate —
        when several have been seen, picking any of them would silently blend
        unrelated filters, so the declared default wins.
        """
        key = name.lower()
        if predicate is not None:
            canonical = canonical_predicate_key(predicate)
            estimate = self._udf_selectivity.get((key, canonical))
            if estimate is None or estimate.value is None:
                estimate = (
                    self._predicate_identity_selectivity.get(canonical)
                    if canonical
                    else None
                )
            if estimate is None or estimate.value is None:
                return default
            return min(1.0, max(0.0, estimate.value))
        matches = [
            estimate
            for (udf, _), estimate in self._udf_selectivity.items()
            if udf == key and estimate.value is not None
        ]
        if len(matches) != 1:
            return default
        return min(1.0, max(0.0, matches[0].value))

    def selectivity_prior(
        self, name: str, predicate: Optional[str]
    ) -> Optional[float]:
        """The observed prior for (``name``, ``predicate``), or None if unobserved.

        Unlike :meth:`udf_selectivity` this distinguishes "never observed"
        from any declared default, which is what warm starts need: a repeat
        query should only skip the evidence floor when an earlier run really
        measured this predicate.
        """
        sentinel = object()
        prior = self.udf_selectivity(name, sentinel, predicate=predicate or "")
        if prior is sentinel:
            return None
        return prior

    def udf_selectivities(self, name: str) -> Dict[str, float]:
        """All observed selectivities of ``name``, keyed by predicate text."""
        key = name.lower()
        return {
            predicate: min(1.0, max(0.0, estimate.value))
            for (udf, predicate), estimate in self._udf_selectivity.items()
            if udf == key and estimate.value is not None
        }

    def udf_distinct_fraction(self, name: str, default: float) -> float:
        estimate = self._udf_distinct_fraction.get(name.lower())
        if estimate is None or estimate.value is None:
            return default
        return min(1.0, max(0.0, estimate.value))

    def predicate_selectivity(self, predicate: str, default: float) -> float:
        estimate = self._predicate_selectivity.get(predicate)
        if estimate is None or estimate.value is None:
            return default
        return min(1.0, max(0.0, estimate.value))

    def join_selectivity(self, columns: Iterable[str], default: object = None) -> object:
        """Observed selectivity of the equi-join over ``columns``, or ``default``.

        ``columns`` may come qualified (operator join keys) or bare (predicate
        references); both resolve to the same canonical key.
        """
        estimate = self._join_selectivity.get(canonical_join_key(columns))
        if estimate is None or estimate.value is None:
            return default
        return min(1.0, max(0.0, estimate.value))

    def column_distinct_evidence(self) -> Dict[str, float]:
        """Observed distinct-value counts per bare column name.

        Derived from measured equality-filter selectivities (V(A) ≈ 1/s).
        The cost estimator overlays these onto table statistics for columns
        that have no exact statistics, replacing the neutral "every value is
        distinct" default with evidence.
        """
        return {
            name: max(1.0, estimate.value)
            for name, estimate in self._column_distinct.items()
            if estimate.value is not None
        }

    def forget_columns(self, columns: Iterable[str]) -> None:
        """Drop evidence derived from the named columns.

        Called when a table is dropped or replaced: its columns' observed
        distinct counts and any join selectivities touching them describe
        data that no longer exists.
        """
        stale = {_column_key(name) for name in columns}
        for name in stale:
            self._column_distinct.pop(name, None)
        for key in [
            key
            for key in self._join_selectivity
            if stale.intersection(key.split("|"))
        ]:
            del self._join_selectivity[key]

    # -- calibrated planning inputs -----------------------------------------------------

    @property
    def observed_downlink_bandwidth(self) -> Optional[float]:
        return self._downlink_bandwidth.value

    @property
    def observed_uplink_bandwidth(self) -> Optional[float]:
        return self._uplink_bandwidth.value

    def calibrated_network(self, configured: NetworkConfig) -> NetworkConfig:
        """``configured`` with bandwidths replaced by observed effective values."""
        downlink = self._downlink_bandwidth.value
        uplink = self._uplink_bandwidth.value
        if downlink is None and uplink is None:
            return configured
        return replace(
            configured,
            downlink_bandwidth=downlink if downlink else configured.downlink_bandwidth,
            uplink_bandwidth=uplink if uplink else configured.uplink_bandwidth,
            name=f"{configured.name}+observed",
        )

    def observed_site_bandwidth(
        self, site: str
    ) -> Tuple[Optional[float], Optional[float]]:
        """(downlink, uplink) bytes/s observed for ``site``, or Nones."""
        pair = self._site_bandwidths.get(site)
        if pair is None:
            return (None, None)
        return (pair[0].value, pair[1].value)

    def calibrated_network_for_site(
        self, site: str, configured: NetworkConfig
    ) -> NetworkConfig:
        """``configured`` recalibrated from ``site``'s own observations.

        Falls back per direction: the site's observed bandwidth, else the
        global (single-connection) observation, else the configured value —
        so an unvisited replica is still priced from whatever the system has
        learned about links in general.
        """
        site_down, site_up = self.observed_site_bandwidth(site)
        downlink = site_down if site_down else self._downlink_bandwidth.value
        uplink = site_up if site_up else self._uplink_bandwidth.value
        if downlink is None and uplink is None:
            return configured
        return replace(
            configured,
            downlink_bandwidth=downlink if downlink else configured.downlink_bandwidth,
            uplink_bandwidth=uplink if uplink else configured.uplink_bandwidth,
            name=f"{configured.name}+observed@{site}",
        )

    @property
    def site_ids(self) -> List[str]:
        """Server sites with at least one recorded observation."""
        return sorted(self._site_bandwidths)

    def calibrated_cost_settings(self, settings: "CostSettings") -> "CostSettings":
        """``settings`` seeded with the converged batch size, once one is known.

        Pinning ``batch_size`` makes the optimizer cost plans at the batch
        size adaptive execution converged to (and skip the candidate sweep),
        which is exactly the "second query plans with measured parameters"
        behaviour the feedback loop is for.
        """
        preferred = self.preferred_batch_size()
        if preferred is None or settings.batch_size != 1.0:
            return settings
        return settings.with_batch_size(float(preferred))

    def preferred_batch_size(self, default: Optional[int] = None) -> Optional[int]:
        """The batch size adaptive runs converged to (rounded), if any."""
        if self._batch_size.value is None:
            return default
        return max(1, int(round(self._batch_size.value)))

    def preferred_batch_size_for(
        self, udf_name: str, default: Optional[int] = None
    ) -> Optional[int]:
        """The batch size adaptive runs of the named UDF converged to.

        Falls back to the plan-wide preferred size (then ``default``) when
        this particular UDF has never run under a per-UDF controller — a new
        UDF still warm-starts from what the environment taught us.
        """
        estimate = self._udf_batch_size.get(udf_name.lower())
        if estimate is None or estimate.value is None:
            return self.preferred_batch_size(default)
        return max(1, int(round(estimate.value)))

    # -- persistence -------------------------------------------------------------------

    def to_state(self, fingerprint: Optional[str] = None) -> Dict[str, object]:
        """The store's full calibrated state as a JSON-serialisable dict."""
        return {
            "version": STORE_VERSION,
            "fingerprint": fingerprint,
            "smoothing": self.smoothing,
            "contention_aware": self.contention_aware,
            "queries_observed": self.queries_observed,
            "downlink_bandwidth": self._downlink_bandwidth.to_state(),
            "uplink_bandwidth": self._uplink_bandwidth.to_state(),
            "downlink_queueing": self._downlink_queueing.to_state(),
            "uplink_queueing": self._uplink_queueing.to_state(),
            "site_bandwidths": {
                site: [pair[0].to_state(), pair[1].to_state()]
                for site, pair in sorted(self._site_bandwidths.items())
            },
            "udf_cost": {
                name: estimate.to_state()
                for name, estimate in sorted(self._udf_cost.items())
            },
            "udf_selectivity": [
                [udf, predicate, estimate.to_state()]
                for (udf, predicate), estimate in sorted(self._udf_selectivity.items())
            ],
            "predicate_identity_selectivity": {
                key: estimate.to_state()
                for key, estimate in sorted(
                    self._predicate_identity_selectivity.items()
                )
            },
            "udf_distinct_fraction": {
                name: estimate.to_state()
                for name, estimate in sorted(self._udf_distinct_fraction.items())
            },
            "predicate_selectivity": {
                key: estimate.to_state()
                for key, estimate in sorted(self._predicate_selectivity.items())
            },
            "join_selectivity": {
                key: estimate.to_state()
                for key, estimate in sorted(self._join_selectivity.items())
            },
            "column_distinct": {
                name: estimate.to_state()
                for name, estimate in sorted(self._column_distinct.items())
            },
            "batch_size": self._batch_size.to_state(),
            "udf_batch_size": {
                name: estimate.to_state()
                for name, estimate in sorted(self._udf_batch_size.items())
            },
        }

    def save(self, path: str, fingerprint: Optional[str] = None) -> None:
        """Persist the calibrated state to ``path`` (atomic JSON snapshot).

        ``fingerprint`` identifies the workload the statistics describe
        (schemas + UDF registry); :meth:`restore` refuses a snapshot whose
        fingerprint differs, so stale statistics never warm-start a changed
        database.
        """
        payload = json.dumps(self.to_state(fingerprint), indent=2, sort_keys=True)
        tmp_path = path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        os.replace(tmp_path, path)

    def restore(self, path: str, fingerprint: Optional[str] = None) -> bool:
        """Load persisted state from ``path`` into this store, in place.

        Returns True on success.  A missing, corrupt, version-mismatched, or
        fingerprint-mismatched snapshot leaves the store untouched, emits a
        warning (except for the missing-file case, which is the normal cold
        start), and returns False — persistence failures must never take the
        database down.
        """
        if not os.path.exists(path):
            return False
        try:
            with open(path, "r", encoding="utf-8") as handle:
                state = json.load(handle)
            if not isinstance(state, dict):
                raise ValueError("snapshot is not an object")
            version = state.get("version")
            if version != STORE_VERSION:
                raise ValueError(
                    f"snapshot version {version!r} != supported {STORE_VERSION}"
                )
            saved_fingerprint = state.get("fingerprint")
            if (
                fingerprint is not None
                and saved_fingerprint is not None
                and saved_fingerprint != fingerprint
            ):
                warnings.warn(
                    f"statistics snapshot {path!r} was captured for a different "
                    "workload (schema or UDF registry changed); starting cold",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return False
            self._apply_state(state)
        except (OSError, ValueError, TypeError, KeyError) as exc:
            warnings.warn(
                f"ignoring unreadable statistics snapshot {path!r}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            return False
        return True

    @classmethod
    def load(
        cls,
        path: str,
        fingerprint: Optional[str] = None,
        smoothing: float = 0.5,
        contention_aware: bool = False,
    ) -> "StatisticsStore":
        """A store warm-started from ``path``, or a cold one when unusable."""
        store = cls(smoothing=smoothing, contention_aware=contention_aware)
        store.restore(path, fingerprint)
        return store

    def _apply_state(self, state: Dict[str, object]) -> None:
        """Replace this store's estimates with a validated snapshot's.

        Everything is parsed into local variables first so a malformed
        snapshot raises before any estimate is overwritten.
        """
        alpha = self.smoothing

        def ewma(value: object) -> _Ewma:
            return _Ewma.from_state(value, alpha)

        def ewma_map(value: object) -> Dict[str, _Ewma]:
            if not isinstance(value, dict):
                raise ValueError(f"expected an object, got {value!r}")
            return {str(key): ewma(item) for key, item in value.items()}

        downlink = ewma(state.get("downlink_bandwidth", [None, 0]))
        uplink = ewma(state.get("uplink_bandwidth", [None, 0]))
        downlink_queueing = ewma(state.get("downlink_queueing", [None, 0]))
        uplink_queueing = ewma(state.get("uplink_queueing", [None, 0]))
        sites_state = state.get("site_bandwidths", {})
        if not isinstance(sites_state, dict):
            raise ValueError("site_bandwidths must be an object")
        sites = {
            str(site): (ewma(pair[0]), ewma(pair[1]))
            for site, pair in sites_state.items()
        }
        selectivity_state = state.get("udf_selectivity", [])
        if not isinstance(selectivity_state, list):
            raise ValueError("udf_selectivity must be a list")
        udf_selectivity = {
            (str(entry[0]), str(entry[1])): ewma(entry[2])
            for entry in selectivity_state
        }
        udf_cost = ewma_map(state.get("udf_cost", {}))
        identity = ewma_map(state.get("predicate_identity_selectivity", {}))
        distinct_fraction = ewma_map(state.get("udf_distinct_fraction", {}))
        predicate_selectivity = ewma_map(state.get("predicate_selectivity", {}))
        join_selectivity = ewma_map(state.get("join_selectivity", {}))
        column_distinct = ewma_map(state.get("column_distinct", {}))
        batch_size = ewma(state.get("batch_size", [None, 0]))
        udf_batch_size = ewma_map(state.get("udf_batch_size", {}))

        self.queries_observed = int(state.get("queries_observed", 0))
        self._downlink_bandwidth = downlink
        self._uplink_bandwidth = uplink
        self._downlink_queueing = downlink_queueing
        self._uplink_queueing = uplink_queueing
        self._site_bandwidths = sites
        self._udf_cost = udf_cost
        self._udf_selectivity = udf_selectivity
        self._predicate_identity_selectivity = identity
        self._udf_distinct_fraction = distinct_fraction
        self._predicate_selectivity = predicate_selectivity
        self._join_selectivity = join_selectivity
        self._column_distinct = column_distinct
        self._batch_size = batch_size
        self._udf_batch_size = udf_batch_size

    # -- reporting ---------------------------------------------------------------------

    def summary(self) -> str:
        lines: List[str] = [f"statistics over {self.queries_observed} queries:"]
        if self._downlink_bandwidth.value is not None:
            lines.append(f"  downlink ~{self._downlink_bandwidth.value:.0f} B/s")
        if self._uplink_bandwidth.value is not None:
            lines.append(f"  uplink ~{self._uplink_bandwidth.value:.0f} B/s")
        selectivity_udfs = {udf for udf, _ in self._udf_selectivity}
        for key in sorted(set(self._udf_cost) | selectivity_udfs):
            bits = []
            cost = self._udf_cost.get(key)
            if cost is not None and cost.value is not None:
                bits.append(f"{cost.value * 1000:.3f} ms/call")
            for predicate, value in sorted(self.udf_selectivities(key).items()):
                label = f" [{predicate}]" if predicate else ""
                bits.append(f"selectivity{label} {value:.2f}")
            lines.append(f"  udf {key}: " + ", ".join(bits))
        preferred = self.preferred_batch_size()
        if preferred is not None:
            lines.append(f"  preferred batch size {preferred}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"StatisticsStore(queries={self.queries_observed})"


class TenantStatistics:
    """Per-tenant :class:`StatisticsStore` isolation.

    Under multi-tenancy one shared store would let tenant A's bulk scans
    pollute tenant B's calibrated bandwidth and selectivities.  This registry
    lazily creates one store (and one matching
    :class:`~repro.adaptive.observer.RuntimeObserver`) per tenant id, all
    with the same smoothing/contention settings, so each tenant's feedback
    loop closes over its own traffic only.
    """

    def __init__(self, smoothing: float = 0.5, contention_aware: bool = False) -> None:
        self.smoothing = smoothing
        self.contention_aware = contention_aware
        self._stores: Dict[str, StatisticsStore] = {}
        self._observers: Dict[str, object] = {}

    def for_tenant(self, tenant_id: str) -> StatisticsStore:
        store = self._stores.get(tenant_id)
        if store is None:
            store = StatisticsStore(
                smoothing=self.smoothing, contention_aware=self.contention_aware
            )
            self._stores[tenant_id] = store
        return store

    def observer_for(self, tenant_id: str) -> "object":
        observer = self._observers.get(tenant_id)
        if observer is None:
            from repro.adaptive.observer import RuntimeObserver

            observer = RuntimeObserver(self.for_tenant(tenant_id))
            self._observers[tenant_id] = observer
        return observer

    @property
    def tenant_ids(self) -> List[str]:
        return sorted(self._stores)

    def __repr__(self) -> str:
        return f"TenantStatistics(tenants={len(self._stores)})"
