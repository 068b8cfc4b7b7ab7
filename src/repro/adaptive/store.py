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

from repro.adaptive.observer import QueryObservation, RuntimeObserver
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

    def update(self, sample: Optional[float]) -> bool:
        """Fold one sample in; True when the value moved (the count always does)."""
        if sample is None:  # nothing was measured
            return False
        self.samples += 1
        previous = self.value
        if previous is None:
            self.value = sample
            return True
        self.value = (1.0 - self.alpha) * previous + self.alpha * sample
        return self.value != previous

    def to_state(self) -> List[object]:
        return [self.value, self.samples]

    def restored(self, state: object) -> "_Ewma":
        """A fresh estimate holding one validated ``[value, samples]`` state."""
        estimate = _Ewma(self.alpha)
        if not isinstance(state, (list, tuple)) or len(state) != 2:
            raise ValueError(f"malformed EWMA state: {state!r}")
        value, samples = state
        if value is not None and not isinstance(value, (int, float)):
            raise ValueError(f"malformed EWMA value: {value!r}")
        estimate.value = float(value) if value is not None else None
        estimate.samples = int(samples)
        return estimate


class _Estimates:
    """EWMA estimates by key: one keyed table of the feedback state.

    It owns what every table needs: an estimate is created by its first
    sample (``None`` is not one), an unobserved key reads as the caller's
    default, a table of fractions clamps its reads to [0, 1], and a snapshot
    section is validated whole before it replaces anything.  A ``pair_keys``
    table is keyed by a pair of strings and saved as a list of ``[first,
    second, state]`` (a JSON object's keys are single strings).
    """

    __slots__ = ("alpha", "clamp", "pair_keys", "entries")

    def __init__(self, alpha: float, clamp: bool = False, pair_keys: bool = False) -> None:
        self.alpha = alpha
        self.clamp = clamp
        self.pair_keys = pair_keys
        self.entries: Dict[object, _Ewma] = {}

    def observe(self, key: object, sample: Optional[float]) -> bool:
        """Fold one sample into ``key``'s estimate; True when a value moved."""
        if sample is None:  # nothing was measured: no estimate is created
            return False
        estimate = self.entries.get(key)
        if estimate is None:
            estimate = self.entries[key] = _Ewma(self.alpha)
        return estimate.update(sample)

    def value(self, key: object, default: object = None) -> object:
        estimate = self.entries.get(key)
        if estimate is None or estimate.value is None:
            return default
        return min(1.0, max(0.0, estimate.value)) if self.clamp else estimate.value

    def observed(self) -> Dict[object, float]:
        """Every key that has a value, as :meth:`value` reads it."""
        return {
            key: self.value(key)
            for key, estimate in self.entries.items()
            if estimate.value is not None
        }

    def to_state(self) -> object:
        states = [(key, estimate.to_state()) for key, estimate in sorted(self.entries.items())]
        return [[*key, state] for key, state in states] if self.pair_keys else dict(states)

    def restored(self, state: object) -> "_Estimates":
        """A fresh table like this one holding one validated snapshot section."""
        if not isinstance(state, list if self.pair_keys else dict):
            shape = "a list" if self.pair_keys else "an object"
            raise ValueError(f"expected {shape}, got {state!r}")
        if self.pair_keys:
            items = [((str(entry[0]), str(entry[1])), entry[2]) for entry in state]
        else:
            items = [(str(key), item) for key, item in state.items()]
        table = _Estimates(self.alpha, self.clamp, self.pair_keys)
        cell = _Ewma(self.alpha)
        table.entries = {key: cell.restored(item) for key, item in items}
        return table


#: The feedback state, declared once.  Each name is a section of
#: ``statistics.json`` and — with a leading underscore — an attribute of the
#: store; ``__init__``, ``to_state`` and ``_apply_state`` walk these two
#: declarations, ``record`` takes the samples and the look-ups read them.
#: The single estimates: effective bandwidth and queueing delay of the one
#: client connection, and the batch size adaptive executions converged to.
_SCALARS = (
    "downlink_bandwidth",
    "uplink_bandwidth",
    "downlink_queueing",
    "uplink_queueing",
    "batch_size",
)
#: The keyed tables: name -> whether reads clamp to [0, 1].
_TABLES = {
    # Measured seconds per call, by UDF.
    "udf_cost": False,
    # Observed UDF selectivities, keyed by (UDF, canonical predicate):
    # ``Score(V) >= 100`` and ``Score(V) >= 160`` select different fractions
    # of the same UDF's results, and blending them under the UDF's name would
    # miscalibrate both.
    "udf_selectivity": True,
    # The same observations keyed by canonical predicate identity alone.
    # Under a reordered UDF plan a predicate spanning several UDFs is pushed
    # at a different operator than the estimator credits it to; the (UDF,
    # predicate) key then diverges and only the plan-shape-independent
    # predicate identity still matches.
    "predicate_identity_selectivity": True,
    # The paper's D (distinct arguments / input rows), by UDF.
    "udf_distinct_fraction": True,
    # Server-side filters, by canonical predicate key.
    "predicate_selectivity": True,
    # Equi-joins by canonical join key (sorted bare join-column names):
    # measured output/cross-product ratios the estimator prefers over the
    # 1/max(V(A), V(B)) formula.
    "join_selectivity": True,
    # Distinct-value evidence per bare column name, derived from
    # column-vs-literal equality filters (selectivity ≈ 1/V(A)); overrides
    # the neutral "every value distinct" default for columns without exact
    # statistics.
    "column_distinct": False,
    # The batch size adaptive runs converged to, by UDF.
    "udf_batch_size": False,
}
_PAIR_KEYED = ("udf_selectivity",)


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
        for name in _SCALARS:
            setattr(self, "_" + name, _Ewma(smoothing))
        for name, clamp in _TABLES.items():
            setattr(self, "_" + name, _Estimates(smoothing, clamp, name in _PAIR_KEYED))
        # Per-server-site (downlink, uplink) bandwidth estimates (scale-out
        # topologies): each site's channel calibrates independently, so
        # replica choice can be priced from what *that* site's link delivered.
        self._site_bandwidths: Dict[str, Tuple[_Ewma, _Ewma]] = {}
        # The write rule (:meth:`needs_save`): the (path, fingerprint) the
        # planning state was last saved to or restored from, and whether a
        # number the planner reads has moved since.
        self._written: Optional[Tuple[str, Optional[str]]] = None
        self._estimates_moved = True

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
        # The first observation moves planning state by itself: the engine
        # calibrates only a store that has observed something.
        moved = self.queries_observed == 0
        self.queries_observed += 1
        if site is None:
            bandwidths = (self._downlink_bandwidth, self._uplink_bandwidth)
            queueing = (self._downlink_queueing, self._uplink_queueing)
        else:
            bandwidths = self._site_bandwidths.get(site)
            if bandwidths is None:
                bandwidths = (_Ewma(self.smoothing), _Ewma(self.smoothing))
                self._site_bandwidths[site] = bandwidths
                moved = True
            queueing = (None, None)  # a site's queueing delay is not kept
        links = (observation.downlink, observation.uplink)
        for link, bandwidth, delay in zip(links, bandwidths, queueing):
            if link is None:
                continue
            moved |= bandwidth.update(
                link.achieved_bandwidth if self.contention_aware else link.effective_bandwidth
            )
            if delay is not None and link.message_count > 0:
                moved |= delay.update(link.mean_queueing_seconds)

        for name, udf in observation.udfs.items():
            key = name.lower()
            moved |= self._udf_cost.observe(key, udf.measured_cost_per_call)
            moved |= self._udf_distinct_fraction.observe(key, udf.observed_distinct_fraction)
            canonical = canonical_predicate_key(udf.predicate)
            moved |= self._udf_selectivity.observe((key, canonical), udf.observed_selectivity)
            if canonical:
                moved |= self._predicate_identity_selectivity.observe(
                    canonical, udf.observed_selectivity
                )

        for predicate in observation.predicates:
            selectivity = predicate.observed_selectivity
            moved |= self._predicate_selectivity.observe(predicate.predicate, selectivity)
            if predicate.equality_column is not None and selectivity:
                # selectivity of "col = literal" ≈ 1/V(col): invert for
                # distinct-count evidence, capped at the observed input.
                distinct = min(1.0 / selectivity, float(max(predicate.input_rows, 1)))
                moved |= self._column_distinct.observe(
                    _column_key(predicate.equality_column), distinct
                )

        for join in observation.joins:
            key = canonical_join_key(join.columns)
            if key:
                moved |= self._join_selectivity.observe(key, join.observed_selectivity)

        if observation.converged_batch_size is not None:
            moved |= self._batch_size.update(float(observation.converged_batch_size))
        for name, size in observation.udf_batch_sizes.items():
            moved |= self._udf_batch_size.observe(name.lower(), float(size))
        if moved:
            self._estimates_moved = True

    # -- calibrated lookups (the protocol the cost estimator speaks) -------------------

    def udf_cost(self, name: str, default: float) -> float:
        """Measured seconds per call for ``name``, or ``default`` if unobserved."""
        return self._udf_cost.value(name.lower(), default)

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
        if predicate is None:
            matches = list(self.udf_selectivities(name).values())
            return matches[0] if len(matches) == 1 else default
        canonical = canonical_predicate_key(predicate)
        if canonical:
            default = self._predicate_identity_selectivity.value(canonical, default)
        return self._udf_selectivity.value((name.lower(), canonical), default)

    def selectivity_prior(
        self, name: str, predicate: Optional[str]
    ) -> Optional[float]:
        """The observed prior for (``name``, ``predicate``), or None if unobserved.

        Unlike :meth:`udf_selectivity` this distinguishes "never observed"
        from any declared default, which is what warm starts need: a repeat
        query should only skip the evidence floor when an earlier run really
        measured this predicate.
        """
        return self.udf_selectivity(name, None, predicate=predicate or "")

    def udf_selectivities(self, name: str) -> Dict[str, float]:
        """All observed selectivities of ``name``, keyed by predicate text."""
        key = name.lower()
        return {
            predicate: value
            for (udf, predicate), value in self._udf_selectivity.observed().items()
            if udf == key
        }

    def udf_distinct_fraction(self, name: str, default: float) -> float:
        return self._udf_distinct_fraction.value(name.lower(), default)

    def predicate_selectivity(self, predicate: str, default: float) -> float:
        return self._predicate_selectivity.value(predicate, default)

    def join_selectivity(self, columns: Iterable[str], default: object = None) -> object:
        """Observed selectivity of the equi-join over ``columns``, or ``default``.

        ``columns`` may come qualified (operator join keys) or bare (predicate
        references); both resolve to the same canonical key.
        """
        return self._join_selectivity.value(canonical_join_key(columns), default)

    def column_distinct_evidence(self) -> Dict[str, float]:
        """Observed distinct-value counts per bare column name.

        Derived from measured equality-filter selectivities (V(A) ≈ 1/s).
        The cost estimator overlays these onto table statistics for columns
        that have no exact statistics, replacing the neutral "every value is
        distinct" default with evidence.
        """
        return {
            name: max(1.0, value) for name, value in self._column_distinct.observed().items()
        }

    def forget_columns(self, columns: Iterable[str]) -> None:
        """Drop evidence derived from the named columns.

        Called when a table is dropped or replaced: its columns' observed
        distinct counts and any join selectivities touching them describe
        data that no longer exists.
        """
        stale = {_column_key(name) for name in columns}
        distinct = self._column_distinct.entries
        joins = self._join_selectivity.entries
        doomed = [key for key in joins if stale.intersection(key.split("|"))]
        if doomed or not stale.isdisjoint(distinct):
            self._estimates_moved = True
        for name in stale:
            distinct.pop(name, None)
        for key in doomed:
            del joins[key]

    # -- calibrated planning inputs -----------------------------------------------------

    @property
    def observed_downlink_bandwidth(self) -> Optional[float]:
        return self._downlink_bandwidth.value

    @property
    def observed_uplink_bandwidth(self) -> Optional[float]:
        return self._uplink_bandwidth.value

    def observed_site_bandwidth(
        self, site: Optional[str]
    ) -> Tuple[Optional[float], Optional[float]]:
        """(downlink, uplink) bytes/s observed for ``site``, or Nones."""
        pair = self._site_bandwidths.get(site)
        if pair is None:
            return (None, None)
        return (pair[0].value, pair[1].value)

    def calibrated_network(
        self, configured: NetworkConfig, site: Optional[str] = None
    ) -> NetworkConfig:
        """``configured`` with bandwidths replaced by observed effective values.

        With ``site`` it falls back per direction: the site's observed
        bandwidth, else the global (single-connection) observation, else the
        configured value — so an unvisited replica is still priced from
        whatever the system has learned about links in general.
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
            name=f"{configured.name}+observed" + ("" if site is None else f"@{site}"),
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
        size = self._udf_batch_size.value(udf_name.lower())
        if size is None:
            return self.preferred_batch_size(default)
        return max(1, int(round(size)))

    # -- persistence -------------------------------------------------------------------

    def to_state(self, fingerprint: Optional[str] = None) -> Dict[str, object]:
        """The store's full calibrated state as a JSON-serialisable dict."""
        state: Dict[str, object] = {
            "version": STORE_VERSION,
            "fingerprint": fingerprint,
            "smoothing": self.smoothing,
            "contention_aware": self.contention_aware,
            "queries_observed": self.queries_observed,
            "site_bandwidths": {
                site: [pair[0].to_state(), pair[1].to_state()]
                for site, pair in sorted(self._site_bandwidths.items())
            },
        }
        for name in (*_SCALARS, *_TABLES):
            state[name] = getattr(self, "_" + name).to_state()
        return state

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
        self._written = (path, fingerprint)
        self._estimates_moved = False

    def needs_save(self, path: str, fingerprint: Optional[str] = None) -> bool:
        """Whether ``path`` may hold planning state other than this store's.

        Planning state is the snapshot without its counters
        (``queries_observed`` past the first and every estimate's sample
        count).  It differs when an estimate moved since the last
        :meth:`save` or :meth:`restore`, or when that was another path or
        fingerprint.  A query that leaves every estimate bit-identical
        needs no write: the counters on disk only lag.
        """
        return self._estimates_moved or self._written != (path, fingerprint)

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
            if state.get("version") != STORE_VERSION:
                raise ValueError(
                    f"snapshot version {state.get('version')!r} != supported {STORE_VERSION}"
                )
            saved = state.get("fingerprint")
            if fingerprint is not None and saved is not None and saved != fingerprint:
                warnings.warn(
                    f"statistics snapshot {path!r} was captured for a different "
                    "workload (schema or UDF registry changed); starting cold",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return False
            self._apply_state(state)
            self._written = (path, saved)
            self._estimates_moved = False
        except (OSError, ValueError, TypeError, KeyError, IndexError) as exc:
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

        Everything is parsed into a cold store first (an absent section
        stays unobserved there), so a malformed snapshot raises before any
        estimate of this one is overwritten.
        """
        parsed = StatisticsStore(self.smoothing, self.contention_aware)
        parsed.queries_observed = int(state.get("queries_observed", 0))
        for name in (*_SCALARS, *_TABLES):
            if name in state:
                setattr(parsed, "_" + name, getattr(parsed, "_" + name).restored(state[name]))
        sites = state.get("site_bandwidths", {})
        if not isinstance(sites, dict):
            raise ValueError("site_bandwidths must be an object")
        cell = _Ewma(self.smoothing)
        parsed._site_bandwidths = {
            str(site): (cell.restored(pair[0]), cell.restored(pair[1]))
            for site, pair in sites.items()
        }
        vars(self).update(vars(parsed))

    # -- reporting ---------------------------------------------------------------------

    def summary(self) -> str:
        lines: List[str] = [f"statistics over {self.queries_observed} queries:"]
        if self._downlink_bandwidth.value is not None:
            lines.append(f"  downlink ~{self._downlink_bandwidth.value:.0f} B/s")
        if self._uplink_bandwidth.value is not None:
            lines.append(f"  uplink ~{self._uplink_bandwidth.value:.0f} B/s")
        selectivity_udfs = {udf for udf, _ in self._udf_selectivity.entries}
        for key in sorted(set(self._udf_cost.entries) | selectivity_udfs):
            bits = []
            cost = self._udf_cost.value(key)
            if cost is not None:
                bits.append(f"{cost * 1000:.3f} ms/call")
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


class StatisticsOverlay:
    """The statistics protocol answered from a store, except where fresher.

    Whoever knows a newer number than the cross-query ``store`` for one of
    :data:`STATISTICS_PROTOCOL`'s methods answers that method — a subclass by
    defining it, a caller by passing it as ``fresher`` (method name ->
    callable) — and everything else falls through to the store.  An absent
    store is an empty one: every look-up then reads as its default.
    """

    def __init__(self, store: Optional[StatisticsStore] = None, **fresher: object) -> None:
        self._store = store if store is not None else StatisticsStore()
        vars(self).update(fresher)

    def __getattr__(self, name: str) -> object:
        return getattr(self._store, name)


class TenantStatistics:
    """Per-tenant :class:`StatisticsStore` isolation.

    Under multi-tenancy one shared store would let tenant A's bulk scans
    pollute tenant B's calibrated bandwidth and selectivities.  This registry
    lazily creates one :class:`~repro.adaptive.observer.RuntimeObserver` per
    tenant id, each owning its own store, all with the same
    smoothing/contention settings, so each tenant's feedback loop closes over
    its own traffic only.
    """

    def __init__(self, smoothing: float = 0.5, contention_aware: bool = False) -> None:
        self.smoothing = smoothing
        self.contention_aware = contention_aware
        self._observers: Dict[str, RuntimeObserver] = {}

    def for_tenant(self, tenant_id: str) -> StatisticsStore:
        return self.observer_for(tenant_id).store

    def observer_for(self, tenant_id: str) -> RuntimeObserver:
        observer = self._observers.get(tenant_id)
        if observer is None:
            observer = self._observers[tenant_id] = RuntimeObserver(
                StatisticsStore(smoothing=self.smoothing, contention_aware=self.contention_aware)
            )
        return observer

    @property
    def tenant_ids(self) -> List[str]:
        return sorted(self._observers)

    def __repr__(self) -> str:
        return f"TenantStatistics(tenants={len(self._observers)})"
