"""The System X facade: build designs once, execute queries against them.

:class:`SystemX` owns a simulated disk, a buffer pool, and the artifacts
of whichever physical designs were requested.  Resource sizes scale with
the data's scale factor so that the paper's 500 MB buffer pool and 1.5 GB
sort/join memory (configured for SF 10) keep their *relative* size: a run
at SF 0.05 gets 0.5 % of each, preserving spill and caching behaviour.

``execute`` isolates each query on a fresh ledger and converts the
measured counts to simulated seconds with the shared
:class:`~repro.simio.stats.CostModel`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import (Callable, Dict, Iterator, List, Optional, Sequence, Set,
                    Tuple)

import numpy as np

from ..core.config import validate_layout
from ..core.host import (
    PAPER_BUFFER_POOL_BYTES,
    EngineHost,
    scaled_bytes,
    split_bytes,
)
from ..errors import ChecksumError, CorruptPageError, PlanError
from ..obs import Trace, Tracer
from ..plan.logical import StarQuery
from ..result import ResultSet
from ..simio.stats import CostBreakdown, CostModel, QueryStats
from ..simio.stats import PAPER_2008
from ..ssb.generator import SsbData
from .designs import Artifacts, DesignBuilder, DesignKind
from .operators import SpillAccountant, qualified, seq_scan
from .planner import RowPlanner
from .statistics import CatalogStatistics

#: Paper configuration at SF 10 (Section 6.2), scaled by sf/10 at runtime.
PAPER_JOIN_MEMORY_BYTES = 3 * 512 * 1024 * 1024  # "1.5 GB maximum memory"


@dataclass
class RowStoreRun:
    """Outcome of one query execution."""

    result: ResultSet
    stats: QueryStats
    cost: CostBreakdown
    #: per-phase span tree; verified to sum exactly to ``stats``
    trace: Optional[Trace] = None
    #: which shards ran / were eliminated (sharded executions only)
    shard_report: Optional[object] = None

    @property
    def seconds(self) -> float:
        """Simulated seconds on the paper's hardware."""
        return self.cost.total_seconds


class SystemX(EngineHost):
    """A commercial-style row store over the simulated disk.

    Parameters
    ----------
    data:
        The generated SSB database.
    designs:
        Which physical designs to materialize (each costs load time and
        simulated disk space); defaults to all five.
    cost_model:
        Converts measured work into simulated seconds.
    buffer_pool_bytes / join_memory_bytes:
        Override the sf-scaled defaults (mostly for ablation benches).
    zone_maps:
        Consult per-page min/max synopses before heap scans, skipping
        pages that cannot satisfy the pushed-down predicates.  Off by
        default (the paper's System X reads every page).
    shards:
        Scatter-gather sharding: split the fact table into this many
        self-contained shards, each a complete child ``SystemX`` on its
        own disk array (see ``docs/sharding.md``).  1 (default) keeps
        the unchanged single-stack path.
    writes:
        Opt in to snapshot reads over pending writes.  System X has no
        per-query config object, so this engine-level flag plays the
        role :attr:`~repro.core.config.ExecutionConfig.writes` plays for
        the column store: with it off (default), a query against an
        engine holding pending writes raises
        :class:`~repro.errors.WriteError` rather than answering wrong.
    """

    _storage_attrs = EngineHost._storage_attrs + (
        "statistics", "artifacts", "_built")
    _run_class = RowStoreRun
    _writes_switch = "SystemX(writes=)"
    # rebound in the class body: perfbench/tracing.py wraps methods per
    # class, so each traced one must live in SystemX.__dict__
    move = EngineHost.move

    def __init__(
        self,
        data: SsbData,
        designs: Optional[Sequence[DesignKind]] = None,
        cost_model: CostModel = PAPER_2008,
        buffer_pool_bytes: Optional[int] = None,
        join_memory_bytes: Optional[int] = None,
        zone_maps: bool = False,
        shards: int = 1,
        writes: bool = False,
        move_threshold_rows: Optional[int] = None,
        fault_injector=None,
    ) -> None:
        validate_layout(shards, move_threshold_rows)
        super().__init__(data, cost_model, buffer_pool_bytes,
                         fault_injector)
        self.zone_maps = zone_maps
        self.shards = shards
        self.writes = writes
        #: automatic tuple-mover policy: drain the WOS before a query
        #: when net pending rows exceed this (None = manual moves only).
        #: Engine-level, like ``writes`` — System X has no per-query
        #: config object.
        self.move_threshold_rows = move_threshold_rows
        if join_memory_bytes is None:
            join_memory_bytes = scaled_bytes(PAPER_JOIN_MEMORY_BYTES, data)
        self.join_memory_bytes = join_memory_bytes
        # ANALYZE at load time: the planner orders joins from these
        self.statistics = CatalogStatistics(data.tables)
        self.artifacts = Artifacts()
        self._built: set = set()
        builder = DesignBuilder(self.disk, data)
        builder.build_dimensions(self.artifacts)
        for design in (designs if designs is not None else list(DesignKind)):
            self.add_design(design)

    def add_design(self, design: DesignKind) -> None:
        """Materialize one design's artifacts (idempotent; propagated to
        shard children when sharding is active)."""
        if design in self._built:
            return
        builder = DesignBuilder(self.disk, self.data)
        if design in (DesignKind.TRADITIONAL, DesignKind.TRADITIONAL_BITMAP):
            builder.build_traditional(self.artifacts)
        if design is DesignKind.TRADITIONAL_BITMAP:
            builder.build_bitmaps(self.artifacts)
        if design is DesignKind.MATERIALIZED_VIEWS:
            builder.build_materialized_views(self.artifacts)
        if design is DesignKind.VERTICAL_PARTITIONING:
            builder.build_vertical_partitions(self.artifacts)
        if design is DesignKind.INDEX_ONLY:
            builder.build_indexes(self.artifacts)
        self._built.add(design)
        for child in self._shard_engines():
            child.add_design(design)

    def _sibling(self, data: SsbData,
                 shards: Optional[int] = None) -> "SystemX":
        return SystemX(data, designs=self.designs,
                       cost_model=self.cost_model,
                       buffer_pool_bytes=split_bytes(self._pool_bytes,
                                                     shards),
                       join_memory_bytes=split_bytes(self.join_memory_bytes,
                                                     shards),
                       zone_maps=self.zone_maps,
                       fault_injector=(None if shards
                                       else self.disk.fault_injector))

    @property
    def designs(self) -> List[DesignKind]:
        return sorted(self._built, key=lambda d: d.value)

    def _require_design(self, design: DesignKind) -> None:
        if design not in self._built:
            raise PlanError(
                f"design {design.value} was not built; available: "
                f"{[d.value for d in self.designs]}"
            )

    def execute(
        self,
        query: StarQuery,
        design: DesignKind,
        prune_partitions: bool = True,
        vp_join: str = "hash",
        vp_super_tuples: bool = False,
        cold_pool: bool = True,
        cancellation=None,
        _visibility=None,
    ) -> RowStoreRun:
        """Run ``query`` under ``design`` on a fresh ledger.

        ``vp_join`` applies to the vertical-partitioning design only:
        ``"hash"`` (System X's actual behaviour) or ``"merge"`` (the
        sort-free merge join the paper says System X could not be coaxed
        into, Section 6.2.2).  ``vp_super_tuples=True`` stores the
        vertical partitions as header-free, position-implicit "super
        tuples" scanned block-at-a-time — the storage/executor
        improvements the paper's conclusion lists (built lazily on first
        use).  ``cold_pool=False`` keeps whatever the buffer pool holds
        from previous runs — the paper's warm-pool measurement protocol
        (Section 6.1).  ``cancellation`` installs a cooperative
        :class:`~repro.serve.resilience.CancellationToken` checked at
        page boundaries (typed
        :class:`~repro.errors.QueryCancelledError`).

        When the engine holds pending writes the run becomes a snapshot
        read pinned at the current epoch (see ``docs/writes.md``):
        pending deletes hide fact tuples from scans in place, and
        visible WOS fact inserts add a ``wos-merge`` partial combined
        through the scatter-gather merger.  Requires the engine-level
        ``writes`` flag; a read-only engine with pending writes raises
        :class:`~repro.errors.WriteError` rather than answering wrong.
        """
        self._require_design(design)
        return self._execute(
            query, (design, prune_partitions, vp_join, vp_super_tuples),
            self, cold_pool, cancellation, _visibility)

    def _execute_single(self, query: StarQuery, options: tuple,
                        cold_pool: bool, cancellation,
                        visibility) -> RowStoreRun:
        design, prune_partitions, vp_join, vp_super_tuples = options
        if vp_super_tuples and not self.artifacts.vp_super_heaps:
            DesignBuilder(self.disk, self.data) \
                .build_super_vertical_partitions(self.artifacts)
        run, _planner = self._run(
            lambda planner: planner.run(query, design,
                                        prune_partitions=prune_partitions,
                                        vp_join=vp_join,
                                        vp_super_tuples=vp_super_tuples),
            cold_pool, cancellation, visibility)
        return run

    def execute_recording(self, query: StarQuery, cold_pool: bool = True,
                          cancellation=None
                          ) -> Tuple[RowStoreRun, np.ndarray,
                                     Dict[str, np.ndarray]]:
        """A traditional run that also records surviving rids and key
        sets (:meth:`RowPlanner.run_recording`): ``(run, rids, key_sets)``.
        It bypasses the execute prelude, so callers record only with no
        pending writes and one shard."""
        self._ensure_unpartitioned_heap()
        run, planner = self._run(
            lambda planner: planner.run_recording(query), cold_pool,
            cancellation)
        return run, planner.recorded_rids, planner.recorded_key_sets

    def run_from_rids(self, query: StarQuery, rids: np.ndarray,
                      recheck_columns: Set[str]) -> ResultSet:
        """:meth:`RowPlanner.run_from_rids` on the current ledger,
        untraced."""
        with _no_redundant_copy():
            return self._planner().run_from_rids(query, rids,
                                                 recheck_columns)

    def dimension_keys(self, query: StarQuery, dim: str) -> np.ndarray:
        """``dim``'s keys surviving ``query``'s predicates, sorted — one
        heap scan charged to the current ledger."""
        key_col = query.key_of(dim)
        parts = [
            np.asarray(batch.column(qualified(dim, key_col)))
            for batch in seq_scan(self.artifacts.heaps[dim], self.pool, dim,
                                  [key_col], query.dimension_predicates(dim),
                                  zone_maps=self.zone_maps)
        ]
        keys = (np.concatenate(parts).astype(np.int64)
                if parts else np.zeros(0, dtype=np.int64))
        keys.sort()
        return keys

    def _ensure_unpartitioned_heap(self) -> None:
        if "lineorder" in self.artifacts.heaps:
            return
        # one-time load; its write I/O belongs to no query's ledger
        with self.disk.charged_to(QueryStats()):
            DesignBuilder(self.disk, self.data) \
                .build_fact_unpartitioned(self.artifacts)

    def _planner(self, tracer: Optional[Tracer] = None,
                 visibility=None) -> RowPlanner:
        spill = SpillAccountant(self.disk, self.join_memory_bytes)
        return RowPlanner(self.pool, self.artifacts, self.data, spill,
                          statistics=self.statistics, tracer=tracer,
                          zone_maps=self.zone_maps, visibility=visibility)

    def _run(self, body: Callable[[RowPlanner], ResultSet], cold_pool: bool,
             cancellation, visibility=None
             ) -> Tuple[RowStoreRun, RowPlanner]:
        """The single-stack run prelude: a fresh ledger, a cold (or
        warm) pool, a traced planner and the caller's cancellation token
        around ``body(planner)``; returns the run and the planner."""
        stats = QueryStats()
        self.disk.stats = stats
        # default: start from a cold pool so measurements are
        # order-independent (the pool is 0.5% of the data, mirroring the
        # paper's 500 MB at SF 10, so warmth barely shifts results)
        if cold_pool:
            self.pool.clear()
        else:
            self.disk.reset_head()
        tracer = Tracer(stats, self.cost_model)
        planner = self._planner(tracer, visibility)
        saved_cancellation = self.disk.cancellation
        if cancellation is not None:
            self.disk.cancellation = cancellation
        try:
            with _no_redundant_copy():
                result = body(planner)
        finally:
            self.disk.cancellation = saved_cancellation
        trace = tracer.finish(stats)
        return RowStoreRun(result, stats, self.cost_model.cost(stats),
                           trace=trace), planner

    def explain(self, query: StarQuery, design: DesignKind,
                prune_partitions: bool = True, analyze: bool = False) -> str:
        """Describe the plan ``design`` would execute for ``query``
        (Section 6.2.1's plan shapes), without perturbing any ledger.

        ``analyze=True`` additionally runs the query on a throwaway
        ledger and appends the observed per-phase span tree."""
        from .explain import explain as _explain, render_span_section

        self._require_design(design)
        text = _explain(self.data, self.artifacts, query, design,
                        prune_partitions=prune_partitions)
        if analyze:
            with self.disk.charged_to(QueryStats()):
                run = self.execute(query, design,
                                   prune_partitions=prune_partitions)
            text += "\n" + render_span_section(run.trace)
        return text


@contextmanager
def _no_redundant_copy() -> Iterator[None]:
    """The row store keeps one copy of every artifact — there is no
    redundant projection to re-plan against, so a persistent corrupt
    page is final (but typed, never a wrong result)."""
    try:
        yield
    except ChecksumError as error:
        raise CorruptPageError(
            error.file, error.page_no, error.disk_no,
            detail="row-store artifacts have no redundant copy",
        ) from error


__all__ = ["SystemX", "RowStoreRun", "PAPER_BUFFER_POOL_BYTES",
           "PAPER_JOIN_MEMORY_BYTES"]
