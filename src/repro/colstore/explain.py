"""EXPLAIN (analyze-style) for the column store.

Because the invisible join decides its strategies at run time (phase 1
detects whether surviving dimension keys are contiguous), EXPLAIN
executes the query and reports the decisions actually taken — which
dimensions were rewritten to between predicates, the hash fallbacks,
the surviving-position count, and the materialization mode.
"""

from __future__ import annotations

from typing import List, Optional

from ..plan.logical import StarQuery
from ..storage.colfile import CompressionLevel
from ..core.config import ExecutionConfig
from ..core.invisible_join import JoinStrategy
from ..obs import Tracer, render_trace
from .planner import ColumnPlanner, StoreContext


def explain(
    ctx: StoreContext,
    query: StarQuery,
    config: ExecutionConfig,
    level: Optional[CompressionLevel] = None,
) -> str:
    """Execute ``query`` and render the plan with observed decisions."""
    tracer = Tracer(ctx.pool.stats)
    planner = ColumnPlanner(ctx, config, level, tracer=tracer)
    result = planner.run(query)
    trace = tracer.finish(planner.stats)
    lines: List[str] = [
        f"EXPLAIN {query.name} [column store, config {config.label}, "
        f"level {planner.level.value}]",
    ]
    if not config.late_materialization:
        lines += _explain_early(planner, query)
    else:
        lines += _explain_late(planner, query, config)
    lines.append(_aggregate_line(query))
    if query.order_by:
        keys = ", ".join(
            f"{k.key} {'asc' if k.ascending else 'desc'}"
            for k in query.order_by)
        lines.append(f"  sort result by {keys}")
    stats = planner.stats
    total = stats.pages_read + stats.buffer_hits
    rate = stats.buffer_hits / total if total else 0.0
    # ``total`` counts every page *request*; only the misses went to disk.
    lines.append(
        f"  buffer pool: {total} page request(s), "
        f"{stats.pages_read} miss(es) read from disk, "
        f"{stats.buffer_hits} hit(s) ({rate:.1%} hit rate)")
    if (stats.io_retries or stats.checksum_failures
            or stats.pages_quarantined or stats.recoveries):
        lines.append(
            f"  fault recovery: {stats.io_retries} retried read(s) "
            f"({stats.retry_backoff_us} us backoff), "
            f"{stats.checksum_failures} checksum failure(s), "
            f"{stats.pages_quarantined} page(s) quarantined, "
            f"{stats.recoveries} projection failover(s)")
    if config.workers > 1:
        lines.append(f"  morsel parallelism: {config.workers} worker(s)")
    lines.append(f"  => {len(result)} result row(s)")
    lines.append("  span tree (simulated seconds):")
    lines.extend(
        "  " + line for line in render_trace(trace).splitlines()[1:])
    return "\n".join(lines)


def _explain_late(planner: ColumnPlanner, query: StarQuery,
                  config: ExecutionConfig) -> List[str]:
    join = planner.last_join
    join_name = ("invisible join" if config.invisible_join
                 else "late materialized hash join")
    lines = [f"  {join_name}, block iteration "
             f"{'on' if config.block_iteration else 'off'}"]
    lines.append("  phase 1 — dimension filtering:")
    for dim_name, f in sorted(join.filters.items()):
        preds = query.dimension_predicates(dim_name)
        pred_text = " AND ".join(str(p) for p in preds) or "(none)"
        if f.strategy is JoinStrategy.NONE:
            verdict = "no predicates; extraction only"
        elif f.strategy is JoinStrategy.BETWEEN:
            lo, hi = f.key_bounds
            verdict = (f"contiguous keys -> BETWEEN rewrite: "
                       f"{query.fk_of(dim_name)} in [{lo}, {hi}]")
        else:
            size = 0 if f.key_set is None else len(f.key_set)
            verdict = f"hash set of {size} key(s)"
        lines.append(f"    {dim_name}: {pred_text}")
        lines.append(f"      -> {f.positions.count} row(s) "
                     f"({f.selectivity:.2%}); {verdict}")
    fact_preds = query.fact_predicates()
    lines.append("  phase 2 — fact predicate application (pipelined, "
                 "position lists intersected):")
    for p in fact_preds:
        lines.append(f"    fact predicate {p}")
    for dim_name, f in sorted(join.filters.items()):
        if f.strategy is JoinStrategy.BETWEEN:
            lines.append(f"    rewritten join predicate on "
                         f"{query.fk_of(dim_name)}")
        elif f.strategy is JoinStrategy.HASH:
            lines.append(f"    hash probe on {query.fk_of(dim_name)}")
    lines.append(f"    => {planner.last_survivors} surviving position(s)")
    group_dims = sorted({g.table for g in query.group_by
                         if g.table != query.fact_table})
    if group_dims:
        lines.append("  phase 3 — extraction at surviving positions:")
        for dim in group_dims:
            attrs = ", ".join(query.group_by_of(dim))
            side = join.dims[dim]
            how = ("direct array lookup (contiguous keys)"
                   if side.contiguous_from is not None and
                   config.invisible_join
                   else "key lookup join")
            lines.append(f"    {dim}.{attrs} via {how}")
    return lines


def _explain_early(planner: ColumnPlanner, query: StarQuery) -> List[str]:
    cols = ", ".join(query.fact_columns_needed())
    lines = [
        "  early materialization: read full columns, construct tuples "
        "first",
        f"  read fact columns [{cols}]; construct "
        f"{planner.ctx.projection(query.fact_table, planner.level).num_rows}"
        " tuple(s)",
    ]
    for p in query.fact_predicates():
        lines.append(f"  row-wise filter: {p}")
    for dim in query.dimensions_used():
        preds = query.dimension_predicates(dim)
        pred_text = " AND ".join(str(p) for p in preds) or "no predicates"
        lines.append(f"  row-wise hash join with {dim} ({pred_text})")
    return lines


def _aggregate_line(query: StarQuery) -> str:
    aggs = ", ".join(f"{a.func}(...) as {a.alias}" for a in query.aggregates)
    if query.group_by:
        groups = ", ".join(f"{g.table}.{g.column}" for g in query.group_by)
        return f"  vectorized aggregate: {aggs} group by ({groups})"
    return f"  vectorized aggregate: {aggs} (no grouping)"


__all__ = ["explain"]
