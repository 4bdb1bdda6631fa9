"""The engine host: everything both engines do around their storage.

The paper varies only storage layout and execution technique and holds
the rest equal.  :class:`EngineHost` is that "rest", written once for
:class:`~repro.colstore.engine.CStore` and
:class:`~repro.rowstore.engine.SystemX`:

* the execute prelude — the automatic tuple-mover policy, refusing a
  read-only run while writes are pending, the WOS-merge branch
  (:meth:`_execute_merge`) and the scatter-gather branch
  (:meth:`_execute_sharded`);
* the shard-set cache (:meth:`shard_children`, keyed by shard count);
* the write store lifecycle (``insert``/``delete``/``pending_writes``/
  ``write_epoch``/``snapshot_tables``);
* the tuple mover (:meth:`move`) and cold-start recovery
  (:meth:`recover`), both built on one shadow-rebuild-and-adopt path.

An engine supplies four things:

* ``_sibling(data, shards=None)`` — a new engine with the same physical
  design over other data: a tuple-mover shadow (``shards=None``) or one
  of ``shards`` shard children;
* ``_storage_attrs`` — the attributes adopting a shadow swaps in;
* a run-options tuple — the positional arguments its ``execute`` takes
  after the query, handed back to ``execute`` (WOS merge) and to its
  single-stack run ``_execute_single`` (shard children);
* ``_run_class`` — the run record its executions return.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import WriteError
from ..obs import Span, Trace, Tracer, span_context
from ..plan.logical import StarQuery
from ..simio.buffer_pool import BufferPool
from ..simio.disk import SimulatedDisk
from ..simio.stats import CostModel, QueryStats
from ..ssb.generator import SsbData
from ..storage.table import Table

#: The paper's 500 MB buffer pool at SF 10 (Section 6); engines scale it
#: with the data so spill and caching behaviour keep their relative size.
PAPER_BUFFER_POOL_BYTES = 500 * 1024 * 1024
PAPER_SCALE_FACTOR = 10.0
MIN_POOL_BYTES = 8 * 32 * 1024


def scaled_bytes(paper_bytes: int, data: SsbData) -> int:
    """``paper_bytes`` (sized for SF 10) scaled to ``data``'s scale."""
    scale = data.scale_factor / PAPER_SCALE_FACTOR
    return max(MIN_POOL_BYTES, int(paper_bytes * scale))


def split_bytes(nbytes: int, shards: Optional[int]) -> int:
    """One shard child's share of ``nbytes`` (all of it for a shadow)."""
    if shards is None:
        return nbytes
    return max(MIN_POOL_BYTES, nbytes // shards)


class EngineHost:
    """Shared base of ``CStore`` and ``SystemX`` (see the module doc)."""

    #: attributes :meth:`_adopt_shadow` takes over from a shadow engine
    _storage_attrs: Tuple[str, ...] = ("data", "disk", "pool")
    #: run record type returned by ``execute``
    _run_class: type
    #: how a caller turns on snapshot reads (for the read-only refusal)
    _writes_switch: str

    def __init__(self, data: SsbData, cost_model: CostModel,
                 buffer_pool_bytes: Optional[int], fault_injector) -> None:
        self.data = data
        self.cost_model = cost_model
        if buffer_pool_bytes is None:
            buffer_pool_bytes = scaled_bytes(PAPER_BUFFER_POOL_BYTES, data)
        self._pool_bytes = buffer_pool_bytes
        #: shard count -> [(FactShard, child engine)], built lazily
        self._shard_sets: Dict[int, List[Tuple[object, "EngineHost"]]] = {}
        #: lazily created delta store (first accepted write); None means
        #: this engine has never seen a write
        self._writes = None
        #: write epoch the current base storage (and its zone-map
        #: sidecars) reflects; bumped by the tuple mover
        self.base_epoch = 0
        #: the tables this engine was opened with — cold-start replay
        #: always re-applies the journal against these, never against a
        #: possibly-moved current base, so recovery is idempotent
        self._genesis_tables: Dict[str, Table] = dict(data.tables)
        self.disk = SimulatedDisk()
        # installed before any load so shadow rebuilds are fault-injectable
        self.disk.fault_injector = fault_injector
        self.pool = BufferPool(self.disk, buffer_pool_bytes)

    # ------------------------------------------------------------------ #
    # engine hooks
    # ------------------------------------------------------------------ #
    def _sibling(self, data: SsbData,
                 shards: Optional[int] = None) -> "EngineHost":
        """Same design, other data: a tuple-mover shadow over ``data``
        (``shards=None``: the same resources and fault injector) or one
        of ``shards`` shard children (its share of the memory, no
        injector)."""
        raise NotImplementedError

    def _execute_single(self, query: StarQuery, options: tuple,
                        cold_pool: bool, cancellation, visibility):
        """Run ``query`` on this engine's own storage stack."""
        raise NotImplementedError

    def _refresh_sidecars(self, report, tracer: Optional[Tracer]) -> None:
        """Recovery's last step: re-derive zone-map sidecars whose epoch
        stamp trails the recovered epoch (no-op by default)."""

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _execute(self, query: StarQuery, options: tuple, policy,
                 cold_pool: bool, cancellation, visibility):
        """The execute prelude.  ``policy`` carries ``writes``,
        ``move_threshold_rows`` and ``shards`` (the column store's
        :class:`~repro.core.config.ExecutionConfig`, the row store
        itself)."""
        ws = self._writes
        if (visibility is None and ws is not None and policy.writes
                and policy.move_threshold_rows is not None
                and ws.pending_rows() > policy.move_threshold_rows):
            # automatic tuple-mover policy: drain on its own ledger so
            # the query's ledger only ever carries query work
            self.move()
        if visibility is None and ws is not None and ws.has_pending():
            if not policy.writes:
                raise WriteError(
                    f"engine holds pending writes; enable "
                    f"{self._writes_switch} or run the tuple mover first"
                )
            vis = ws.visibility()
            if vis.needs_merge:
                return self._execute_merge(query, options, cold_pool,
                                           cancellation, vis)
            visibility = vis
        if policy.shards > 1:
            return self._execute_sharded(query, options, policy.shards,
                                         cold_pool, cancellation, visibility)
        return self._execute_single(query, options, cold_pool, cancellation,
                                    visibility)

    def shard_children(self, shards: int
                       ) -> List[Tuple[object, "EngineHost"]]:
        """The ``shards``-way shard set: each entry pairs a
        :class:`~repro.shard.partition.FactShard` with a complete child
        engine on its own simulated disk array.  Built once per shard
        count and reused across queries (the shards *are* the physical
        design, not per-query scratch state)."""
        existing = self._shard_sets.get(shards)
        if existing is not None:
            return existing
        from ..shard.partition import ShardScheme, partition_data

        scheme = (ShardScheme.RANGE
                  if self.data.lineorder.sort_order.sorted_prefix_of(
                      "orderdate")
                  else ShardScheme.HASH)
        children = [(shard, self._sibling(shard.data, shards))
                    for shard in partition_data(self.data, shards, scheme)]
        self._shard_sets[shards] = children
        return children

    def _shard_engines(self) -> Iterator["EngineHost"]:
        """Every shard child built so far, across shard counts."""
        for children in self._shard_sets.values():
            for _shard, child in children:
                yield child

    def _execute_sharded(self, query: StarQuery, options: tuple,
                         shards: int, cold_pool: bool, cancellation,
                         visibility=None):
        from ..shard.executor import scatter_gather

        children = self.shard_children(shards)

        def execute_one(k: int, shard_query: StarQuery):
            child_vis = None
            if visibility is not None and visibility.needs_patching:
                # slice the database-wide deleted mask down to this
                # shard's fact rows (shard positions index the unsharded
                # fact table)
                from ..write.store import Visibility

                shard = children[k][0]
                mask = visibility.fact_deleted[shard.positions]
                if bool(mask.any()):
                    child_vis = Visibility(
                        epoch=visibility.epoch, store=visibility.store,
                        fact_deleted=mask)
            # straight to the child's single stack: the options (the
            # column store's config) still ask for ``shards`` shards
            return children[k][1]._execute_single(
                shard_query, options, cold_pool, cancellation, child_vis)

        result, stats, trace, report = scatter_gather(
            query, [shard.synopsis for shard, _engine in children],
            self.data.date, execute_one, self.cost_model)
        return self._run_class(result, stats, self.cost_model.cost(stats),
                               trace=trace, shard_report=report)

    def _execute_merge(self, query: StarQuery, options: tuple,
                       cold_pool: bool, cancellation, vis):
        """Base run plus a WOS delta partial, combined like one more
        shard.  The scatter rewrite makes the partials mergeable (AVG as
        SUM+COUNT, hidden row counts for scalar MIN/MAX), and the merged
        trace carries the delta's compute under a ``wos-merge`` span."""
        from ..shard.executor import gather, shard_plan
        from ..write.delta import delta_partial

        spec = shard_plan(query)
        base_run = self.execute(spec.shard_query, *options,
                                cold_pool=cold_pool,
                                cancellation=cancellation, _visibility=vis)
        delta_stats = QueryStats()
        partial = delta_partial(spec.shard_query, vis.delta_tables(),
                                delta_stats)
        result = gather(query, spec, [base_run.result, partial])
        merged = QueryStats(**base_run.stats.snapshot())
        merged.merge(delta_stats)
        spans = [
            Span("base-store", QueryStats(**base_run.stats.snapshot()),
                 base_run.cost, children=[base_run.trace.root]),
            Span("wos-merge", QueryStats(**delta_stats.snapshot()),
                 self.cost_model.cost(delta_stats)),
        ]
        root = Span("query", QueryStats(**merged.snapshot()),
                    self.cost_model.cost(merged), children=spans)
        trace = Trace(root).verify(merged)
        return self._run_class(result, merged, self.cost_model.cost(merged),
                               trace=trace,
                               shard_report=base_run.shard_report)

    # ------------------------------------------------------------------ #
    # writes: WOS delegation
    # ------------------------------------------------------------------ #
    def _write_store(self):
        if self._writes is None:
            from ..write.store import WriteStore

            self._writes = WriteStore(dict(self.data.tables))
            # journal faults come from the same injector as data faults
            self._writes.journal.disk.fault_injector = \
                self.disk.fault_injector
        return self._writes

    def insert(self, table: str, rows, stats: Optional[QueryStats] = None,
               tracer: Optional[Tracer] = None) -> int:
        """Validate, journal, and buffer ``rows`` into the WOS.
        All-or-nothing; returns rows accepted."""
        if stats is None:
            stats = QueryStats()
        return self._write_store().insert(table, rows, stats, tracer)

    def delete(self, table: str, predicates,
               stats: Optional[QueryStats] = None,
               tracer: Optional[Tracer] = None) -> int:
        """Mark matching rows deleted as of a fresh epoch (dimension
        deletes are RESTRICTed while referenced).  Returns rows marked."""
        if stats is None:
            stats = QueryStats()
        return self._write_store().delete(table, predicates, stats, tracer)

    def pending_writes(self) -> int:
        """Rows the tuple mover would merge right now (0 = clean)."""
        return 0 if self._writes is None else self._writes.pending_rows()

    def snapshot_tables(self):
        """The tables a reference oracle should replay: the current base
        merged with any pending delta (post-move, the adopted base)."""
        if self._writes is None:
            return self.data.tables
        return self._writes.effective_tables()

    @property
    def write_epoch(self) -> int:
        return 0 if self._writes is None else self._writes.epoch

    # ------------------------------------------------------------------ #
    # the tuple mover and cold-start recovery
    # ------------------------------------------------------------------ #
    def move(self, stats: Optional[QueryStats] = None,
             tracer: Optional[Tracer] = None) -> int:
        """The tuple mover: drain the WOS into fresh base storage.

        Builds a complete shadow engine from the effective tables (the
        cold-rebuild order, so post-move reads are byte-identical to a
        rebuild), retrying transient write faults with the journal's
        backoff schedule, then swaps it in atomically and advances the
        merge horizon.  All shadow-build I/O is charged to ``stats``
        under a ``tuple-move`` span.  On failure the serving store is
        untouched.  Returns the number of rows merged.
        """
        ws = self._writes
        if ws is None or not ws.has_pending():
            return 0
        if stats is None:
            stats = QueryStats()
        from ..simio.faults import (CRASH_AFTER_MOVE_SWAP,
                                    CRASH_BEFORE_MOVE_SWAP, crash_point)

        moved = ws.pending_rows()
        effective = ws.effective_tables()
        with span_context(tracer, "tuple-move"):
            shadow = self._rebuild_from_effective(effective, ws.epoch, stats,
                                                  crash_points=True)
            stats.merge(shadow.disk.stats)
            # the move record is the swap's commit point: a crash before
            # it leaves orphan shadow pages recovery discards, a crash
            # after it is a completed move recovery rolls forward
            crash_point(self.disk.fault_injector, CRASH_BEFORE_MOVE_SWAP)
            ws.journal.append({"op": "move", "epoch": ws.epoch,
                               "rows": moved}, stats, tracer)
            crash_point(self.disk.fault_injector, CRASH_AFTER_MOVE_SWAP)
            self._adopt_shadow(shadow)
            ws.complete_move(effective)
            self.base_epoch = ws.epoch
            stats.moves += 1
        return moved

    def _rebuild_from_effective(self, effective: Dict[str, Table],
                                epoch: int, stats: QueryStats,
                                crash_points: bool = False) -> "EngineHost":
        """Build (and epoch-stamp) a complete shadow engine from the
        effective tables, retrying transient write faults with the
        journal's backoff schedule.  Shared by the tuple mover and by
        cold-start recovery; only the mover arms the mid-shadow kill
        point (recovery re-running this path must not re-crash)."""
        from ..errors import TransientIOError, WriteFaultError
        from ..simio.buffer_pool import _backoff_us
        from ..simio.faults import CRASH_MID_MOVE_SHADOW, crash_point
        from ..synopsis import stamp_sidecars
        from ..write.journal import MAX_WRITE_RETRIES

        data = replace(self.data, **effective)
        for attempt in range(1, MAX_WRITE_RETRIES + 1):
            try:
                shadow = self._sibling(data)
                if crash_points:
                    # dies with shadow pages built but unstamped and no
                    # move record: pure orphans, discarded on recovery
                    crash_point(self.disk.fault_injector,
                                CRASH_MID_MOVE_SHADOW)
                # stamp the shadow's sidecars with the merged epoch
                # so the scrubber can tell drift from pending delta
                stamp_sidecars(shadow.disk, epoch)
                return shadow
            except TransientIOError as exc:
                stats.io_retries += 1
                stats.retry_backoff_us += _backoff_us(attempt)
                if attempt == MAX_WRITE_RETRIES:
                    raise WriteFaultError(
                        f"tuple move failed after {MAX_WRITE_RETRIES} "
                        f"shadow-build attempts: {exc}"
                    ) from exc

    def _adopt_shadow(self, shadow: "EngineHost") -> None:
        """Atomically swap the shadow engine's storage in as our own."""
        for attr in self._storage_attrs:
            setattr(self, attr, getattr(shadow, attr))
        self._shard_sets = {}
        self.disk.stats = QueryStats()

    def recover(self, journal=None, committed_lsn: Optional[int] = None,
                stats: Optional[QueryStats] = None,
                tracer: Optional[Tracer] = None):
        """Cold-start crash recovery; returns a
        :class:`~repro.write.recovery.RecoveryReport` (see
        ``docs/writes.md``, "Crash recovery").

        Replays ``journal`` (default: this engine's own, when it has ever
        written) against the *genesis* tables — never the current,
        possibly-moved base, which is what makes recovering twice a
        no-op — then adopts the recovered write store (pending rows
        serve as ordinary snapshot reads).  When a rolled-forward move
        advanced the merge horizon past the epoch the serving storage
        reflects, base storage is rebuilt from the recovered effective
        tables through the tuple mover's shadow-build path (kill points
        disarmed: recovery never re-crashes).  Finally stale zone-map
        sidecars are re-derived (:meth:`_refresh_sidecars`).

        All I/O is charged to ``stats`` through the cost model.  A clean
        start (no journal, or an empty one) touches nothing and reports
        all zeros.
        """
        from ..write.recovery import RecoveryReport, recover_store

        if stats is None:
            stats = QueryStats()
        if journal is None and self._writes is not None:
            journal = self._writes.journal
        if journal is None:
            return RecoveryReport()  # never wrote: nothing to recover
        ws, report = recover_store(dict(self._genesis_tables), journal,
                                   committed_lsn, stats, tracer)
        ws.journal.disk.fault_injector = self.disk.fault_injector
        self._writes = ws
        if ws.horizon > 0 and self.base_epoch != ws.horizon:
            # a committed move's pages died with the process: roll it
            # forward by rebuilding from the recovered effective tables
            effective = {n: ws.base_table(n) for n in ws.table_names()}
            with span_context(tracer, "recovery-rebuild"):
                shadow = self._rebuild_from_effective(effective, ws.horizon,
                                                      stats)
                stats.merge(shadow.disk.stats)
                self._adopt_shadow(shadow)
            self.base_epoch = ws.horizon
        self._refresh_sidecars(report, tracer)
        return report

    def storage_bytes(self) -> int:
        """Total simulated disk occupied by all built storage."""
        return self.disk.total_bytes


__all__ = ["EngineHost", "MIN_POOL_BYTES", "PAPER_BUFFER_POOL_BYTES",
           "PAPER_SCALE_FACTOR", "scaled_bytes", "split_bytes"]
