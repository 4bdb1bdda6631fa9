"""Morsel-driven parallel execution for the column store.

The paper's C-Store numbers are single-threaded, and the simulated cost
model must stay exactly reproducible, so parallelism here is built
around one invariant: **a parallel run performs the same logical work,
charges the same simulated I/O, and produces the same rows as the
serial run** — only wall-clock changes.

Design
------
Each parallelizable operator (predicate scan, hash-probe scan, value
fetch, aggregation) splits its position space into horizontal *morsels*
whose boundaries snap to the scanned column's block starts, so every
storage block belongs to exactly one morsel.  Workers never touch the
shared buffer pool: each runs against a :class:`TracePool` — a
charge-free facade that reads page bytes straight from the simulated
disk, records the access trace, and accumulates CPU charges on a
private :class:`~repro.simio.stats.QueryStats` ledger.

At the per-operator barrier the coordinator replays the recorded traces
*in morsel order* through the real buffer pool.  Because morsels are
block-aligned and ascending, the concatenated trace is page-for-page
the sequence a serial scan would have issued, so LRU behaviour, seek
accounting, per-stripe-disk attribution and hit/miss counts all come
out identical to ``workers=1``.  The private CPU ledgers are merged at
the same point.  No locks are needed anywhere: workers share only
immutable inputs.

Merging is exact: position lists reassemble with
:func:`~repro.colstore.positions.concat_windows` (bit-identical to the
serial representation), and aggregates merge through the exact-int64
accumulator semantics of :mod:`repro.plan.aggregates`.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, \
    Tuple, TypeVar

import numpy as np

from ..core.config import ExecutionConfig
from ..errors import ReproError

if TYPE_CHECKING:  # import cycle: obs is engine-agnostic
    from ..obs import Tracer
from ..simio.buffer_pool import BufferPool, fill_page
from ..simio.stats import QueryStats
from ..storage.colfile import ColumnFile
from .operators.aggregate import (
    GroupReduction,
    grouped_aggregate,
    merge_group_reductions,
    merge_scalar_reductions,
    partial_scalar_aggregate,
    scalar_aggregate,
)
from .operators.fetch import fetch_values
from .operators.scan import (
    block_window,
    predicate_positions,
    probe_positions,
)
from .positions import EMPTY, Positions, concat_windows, slice_window

T = TypeVar("T")


class TracePool:
    """A worker's private view of the buffer pool.

    Reads page bytes directly from the simulated disk **without
    charging any I/O** — instead every access is appended to ``trace``
    so the coordinator can replay it through the real pool at the
    barrier.  CPU-side charges made by operators land on the private
    ``stats`` ledger and are merged at the same point.

    Reads go through the same fault-aware
    :func:`~repro.simio.buffer_pool.fill_page` loop as the buffer
    pool's miss path: transient faults are retried (on the private
    ledger), checksums are verified, and each trace entry carries the
    number of physical attempts so the replay can bill the retries.
    The fault injector's per-page transient budgets are consumed by the
    worker's reads (the injector is thread-safe), so the replay reads
    succeed.
    """

    def __init__(self, pool: BufferPool) -> None:
        self._disk = pool.disk
        self.stats = QueryStats()
        self.trace: List[Tuple[str, int, int]] = []

    def read_page(self, name: str, page_no: int) -> bytes:
        payload, attempts = fill_page(self._disk, name, page_no,
                                      self.stats, charge=False)
        self.trace.append((name, page_no, attempts))
        return payload

    def scan_pages(self, name: str, start: int = 0,
                   stop: Optional[int] = None):
        f = self._disk.file(name)
        end = f.num_pages if stop is None else min(stop, f.num_pages)
        for page_no in range(start, end):
            yield self.read_page(name, page_no)


class MorselEngine:
    """Runs operators morsel-at-a-time on a thread pool.

    One engine serves one query execution; the planner creates it when
    ``config.workers > 1`` and closes it when the plan finishes.  Every
    public method is a drop-in replacement for its serial counterpart:
    same arguments (minus the pool, which the engine owns), same return
    value, same simulated I/O.
    """

    def __init__(self, pool: BufferPool, config: ExecutionConfig,
                 tracer: Optional["Tracer"] = None) -> None:
        self.pool = pool
        self.config = config
        self.workers = config.workers
        #: optional span tracer; when set, each barrier records one leaf
        #: span per morsel (private CPU ledger + replayed I/O), in morsel
        #: order, under whatever span the coordinator has open
        self.tracer = tracer
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers,
            thread_name_prefix="morsel",
        )

    def close(self) -> None:
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "MorselEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # morsel geometry
    # ------------------------------------------------------------------ #
    def _windows(self, colfile: ColumnFile, lo: int, hi: int
                 ) -> List[Tuple[int, int]]:
        """Split [lo, hi) into block-aligned windows of ``colfile``.

        Boundaries snap *up* to the next block start so each block is
        scanned by exactly one worker — the invariant that makes the
        concatenated page trace equal the serial one.
        """
        span = hi - lo
        if span <= 0:
            return []
        k = self.workers
        starts = colfile.block_starts
        ideal = [lo + (span * i) // k for i in range(1, k)]
        idx = np.searchsorted(starts, ideal, side="left")
        cuts = sorted({int(starts[i]) for i in idx if i < len(starts)})
        cuts = [c for c in cuts if lo < c < hi]
        edges = [lo] + cuts + [hi]
        return list(zip(edges[:-1], edges[1:]))

    # ------------------------------------------------------------------ #
    # barrier: run morsels, replay traces in order, merge ledgers
    # ------------------------------------------------------------------ #
    def _map(self, task: Callable[..., Tuple[T, TracePool]],
             items: Sequence) -> List[T]:
        # morsel-boundary cancellation check: a cancelled query stops
        # before fanning out another wave of workers (workers also stop
        # at page boundaries via the disk's own check)
        cancellation = self.pool.disk.cancellation
        if cancellation is not None:
            cancellation.check(self.pool.stats)
        futures = [self._executor.submit(task, item) for item in items]
        outs: List[Tuple[T, TracePool]] = []
        first_error: Optional[ReproError] = None
        for f in futures:  # submission (morsel) order
            try:
                outs.append(f.result())
            except ReproError as error:
                # Keep draining: the barrier must wait for every worker
                # anyway, and the surviving morsels' traces still replay
                # so the ledger reflects the I/O actually performed.
                # Morsel order makes "first" deterministic for a given
                # fault schedule.
                if first_error is None:
                    first_error = error
        for morsel_no, (_result, tp) in enumerate(outs):
            before = self.pool.stats.snapshot()
            for name, page_no, attempts in tp.trace:
                self.pool.replay_read(name, page_no, attempts)
            self.pool.stats.merge(tp.stats)
            if self.tracer is not None:
                # one leaf per morsel: its private CPU ledger plus the
                # I/O its trace just billed, recorded in morsel order
                self.tracer.leaf(f"morsel:{morsel_no}",
                                 self.pool.stats.diff(before))
        if first_error is not None:
            raise first_error
        return [result for result, _tp in outs]

    def _map_compute(self, task: Callable[[QueryStats, T], object],
                     items: Sequence[T]) -> List:
        """Barrier for CPU-only morsels (no page access to replay)."""
        cancellation = self.pool.disk.cancellation
        if cancellation is not None:
            cancellation.check(self.pool.stats)

        def run(item: T):
            local = QueryStats()
            return task(local, item), local

        futures = [self._executor.submit(run, item) for item in items]
        outs = [f.result() for f in futures]
        for morsel_no, (_result, local) in enumerate(outs):
            self.pool.stats.merge(local)
            if self.tracer is not None:
                self.tracer.leaf(f"morsel:{morsel_no}", local)
        return [result for result, _local in outs]

    # ------------------------------------------------------------------ #
    # parallel operators
    # ------------------------------------------------------------------ #
    def predicate_scan(self, colfile: ColumnFile, pred_domain,
                       restrict: Optional[Tuple[int, int]] = None
                       ) -> Positions:
        """Morsel-parallel :func:`~.operators.scan.predicate_positions`."""
        first, last, lo, hi = block_window(colfile, restrict)
        windows = self._windows(colfile, lo, hi) if last >= first else []
        if len(windows) <= 1:
            return predicate_positions(colfile, self.pool, pred_domain,
                                       self.config, restrict=restrict)

        def task(window: Tuple[int, int]):
            tp = TracePool(self.pool)
            return predicate_positions(colfile, tp, pred_domain,
                                       self.config, restrict=window), tp

        parts = self._map(task, windows)
        return concat_windows(parts, lo, hi)

    def probe_scan(self, colfile: ColumnFile, key_set: np.ndarray,
                   restrict: Optional[Tuple[int, int]] = None) -> Positions:
        """Morsel-parallel :func:`~.operators.scan.probe_positions`."""
        first, last, lo, hi = block_window(colfile, restrict)
        windows = self._windows(colfile, lo, hi) if last >= first else []
        if len(windows) <= 1:
            return probe_positions(colfile, self.pool, key_set,
                                   self.config, restrict=restrict)

        def task(window: Tuple[int, int]):
            tp = TracePool(self.pool)
            return probe_positions(colfile, tp, key_set, self.config,
                                   restrict=window), tp

        parts = self._map(task, windows)
        return concat_windows(parts, lo, hi)

    def fetch(self, colfile: ColumnFile, positions: Positions) -> np.ndarray:
        """Morsel-parallel :func:`~.operators.fetch.fetch_values`.

        Windows snap to *this* column's block starts (columns differ in
        block geometry), so no block is ever read by two workers.
        """
        bounds = positions.bounds()
        if bounds is None:
            return fetch_values(colfile, self.pool, positions, self.config)
        windows = self._windows(colfile, bounds[0], bounds[1])
        if len(windows) <= 1:
            return fetch_values(colfile, self.pool, positions, self.config)

        def task(window: Tuple[int, int]):
            tp = TracePool(self.pool)
            sub = slice_window(positions, window[0], window[1])
            if sub.count == 0:
                return np.zeros(0, dtype=colfile.dtype), tp
            return fetch_values(colfile, tp, sub, self.config), tp

        parts = self._map(task, windows)
        return np.concatenate(parts)

    def grouped(self, group_arrays: Sequence[np.ndarray],
                agg_arrays: Sequence[np.ndarray],
                funcs: Optional[Sequence[str]] = None
                ) -> Tuple[np.ndarray, List[GroupReduction]]:
        """Morsel-parallel grouped aggregation over materialized arrays.

        Each morsel groups its chunk independently; partials merge
        through the exact-int64 accumulator semantics, so the result is
        bit-identical to a single grouped pass.
        """
        if funcs is None:
            funcs = ["sum"] * len(agg_arrays)
        n = len(group_arrays[0]) if group_arrays else 0
        chunks = self._even_chunks(n)
        if len(chunks) <= 1:
            return grouped_aggregate(group_arrays, agg_arrays,
                                     self.pool.stats, self.config, funcs)

        def task(local: QueryStats, chunk: Tuple[int, int]):
            lo, hi = chunk
            return grouped_aggregate(
                [a[lo:hi] for a in group_arrays],
                [a[lo:hi] for a in agg_arrays],
                local, self.config, funcs,
            )

        parts = self._map_compute(task, chunks)
        return merge_group_reductions(funcs, parts)

    def scalar(self, values_list: Sequence[np.ndarray],
               funcs: Optional[Sequence[str]] = None) -> List:
        """Morsel-parallel scalar (no GROUP BY) aggregation."""
        if funcs is None:
            funcs = ["sum"] * len(values_list)
        n = len(values_list[0]) if values_list else 0
        chunks = self._even_chunks(n)
        if len(chunks) <= 1:
            return scalar_aggregate(values_list, self.pool.stats,
                                    self.config, funcs)

        def task(local: QueryStats, chunk: Tuple[int, int]):
            lo, hi = chunk
            return partial_scalar_aggregate(
                [v[lo:hi] for v in values_list], local, self.config, funcs)

        parts = self._map_compute(task, chunks)
        return merge_scalar_reductions(funcs, parts)

    def _even_chunks(self, n: int) -> List[Tuple[int, int]]:
        """Row-index chunks for CPU-only morsels over fetched arrays."""
        if n <= 0:
            return []
        k = min(self.workers, n)
        if k <= 1:
            return [(0, n)]
        edges = [(n * i) // k for i in range(k + 1)]
        return [(edges[i], edges[i + 1]) for i in range(k)]


def make_engine(pool: BufferPool, config: ExecutionConfig,
                tracer: Optional["Tracer"] = None
                ) -> Optional[MorselEngine]:
    """An engine when the config asks for parallelism, else None (the
    serial code paths stay exactly as they were)."""
    if config.workers <= 1:
        return None
    return MorselEngine(pool, config, tracer=tracer)


__all__ = ["TracePool", "MorselEngine", "make_engine"]
