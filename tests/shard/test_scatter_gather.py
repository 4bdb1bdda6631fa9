"""The scatter-gather contract: ``shards=N`` is row-identical to
``shards=1`` with an additive merged ledger and a verified span tree."""

from dataclasses import replace

import pytest

from repro.core.config import ExecutionConfig
from repro.errors import PlanError
from repro.rowstore.designs import DesignKind
from repro.rowstore.engine import SystemX
from repro.simio.stats import QueryStats
from repro.sql import parse_query
from repro.ssb.queries import ALL_QUERIES

SHARDS = 4


@pytest.fixture(scope="module")
def sharded_rs(ssb_data):
    return SystemX(ssb_data, designs=[DesignKind.TRADITIONAL],
                   shards=SHARDS)


def _assert_merged_run(run, shards=SHARDS):
    """The trace/ledger half of the contract, on any sharded run."""
    shard_spans = [s for s in run.trace.root.children
                   if s.name.startswith("shard:")]
    assert [s.name for s in shard_spans] == \
        [f"shard:{k}" for k in range(shards)]
    assert run.trace.root.children[0].name == "shard-elimination"
    run.trace.verify(run.stats)  # raises TraceInvariantError on breach
    summed = QueryStats()
    for span in run.trace.root.children:
        summed.merge(span.stats)
    assert summed.snapshot() == run.stats.snapshot()
    report = run.shard_report
    assert sorted(report.executed + report.eliminated) == \
        list(range(shards))
    # eliminated shards must be charged nothing
    for k in report.eliminated:
        # children[0] is shard-elimination, shard:K sits at index k+1
        assert not run.trace.root.children[k + 1].stats.nonzero()


# --------------------------------------------------------------------- #
# row identity across the whole benchmark, both engines
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.name)
@pytest.mark.parametrize("workers", (1, 4))
def test_colstore_rows_identical(cstore, query, workers):
    config = replace(ExecutionConfig.baseline(), workers=workers)
    base = cstore.execute(query, config)
    run = cstore.execute(query, replace(config, shards=SHARDS))
    assert run.result.rows == base.result.rows
    assert run.result.columns == base.result.columns
    _assert_merged_run(run)


@pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.name)
def test_rowstore_rows_identical(system_x, sharded_rs, query):
    base = system_x.execute(query, DesignKind.TRADITIONAL)
    run = sharded_rs.execute(query, DesignKind.TRADITIONAL)
    assert run.result.rows == base.result.rows
    assert run.result.columns == base.result.columns
    _assert_merged_run(run)


# --------------------------------------------------------------------- #
# shard elimination
# --------------------------------------------------------------------- #
def test_selective_year_executes_a_strict_subset(cstore):
    """Q1.2 restricts one month — at four orderdate-range shards at most
    one can hold it, and the synopsis probes must be charged."""
    query = next(q for q in ALL_QUERIES if q.name == "Q1.2")
    run = cstore.execute(
        query, replace(ExecutionConfig.baseline(), shards=SHARDS))
    assert run.shard_report.eliminated
    assert len(run.shard_report.executed) < SHARDS
    assert run.stats.synopsis_probes > 0


def test_unselective_query_executes_every_shard(cstore):
    """Q2.1 has no date predicate: nothing justifies skipping a shard."""
    query = next(q for q in ALL_QUERIES if q.name == "Q2.1")
    run = cstore.execute(
        query, replace(ExecutionConfig.baseline(), shards=SHARDS))
    assert run.shard_report.executed == tuple(range(SHARDS))


def test_all_shards_eliminated_yields_the_empty_aggregate(cstore):
    """A predicate no shard can satisfy: zero I/O, still the exact
    row ``shards=1`` produces for an empty input."""
    sql = ("SELECT sum(lo.revenue) AS r, count(*) AS n "
           "FROM lineorder AS lo WHERE lo.quantity < 1")
    query = parse_query(sql)  # quantity >= 1 always
    base = cstore.execute(query, ExecutionConfig.baseline())
    run = cstore.execute(
        query, replace(ExecutionConfig.baseline(), shards=SHARDS))
    assert run.shard_report.executed == ()
    assert run.result.rows == base.result.rows
    assert run.stats.pages_read == 0
    _assert_merged_run(run)


# --------------------------------------------------------------------- #
# merge semantics beyond the SSB suite
# --------------------------------------------------------------------- #
ADHOC = (
    # AVG must be scattered as SUM+COUNT, never averaged per shard
    "SELECT avg(lo.revenue) AS a FROM lineorder AS lo",
    # scalar MIN/MAX with a selective filter: some shards come back empty
    # and their 0-normalized extremes must not win the merge
    "SELECT min(lo.revenue) AS lo_r, max(lo.revenue) AS hi_r, "
    "count(*) AS n FROM lineorder AS lo, date AS d "
    "WHERE lo.orderdate = d.datekey AND d.year = 1997",
    # grouped AVG alongside other aggregates
    "SELECT d.year, avg(lo.discount) AS a, sum(lo.revenue) AS s "
    "FROM lineorder AS lo, date AS d WHERE lo.orderdate = d.datekey "
    "GROUP BY d.year ORDER BY d.year",
    # grouped, no ORDER BY: the gather's canonical order must match the
    # single-stack engines' canonical order
    "SELECT d.year, count(*) AS n FROM lineorder AS lo, date AS d "
    "WHERE lo.orderdate = d.datekey GROUP BY d.year",
)


@pytest.mark.parametrize("sql", ADHOC)
def test_adhoc_merge_semantics(cstore, sql):
    query = parse_query(sql)
    base = cstore.execute(query, ExecutionConfig.baseline())
    run = cstore.execute(
        query, replace(ExecutionConfig.baseline(), shards=SHARDS))
    assert run.result.rows == base.result.rows
    _assert_merged_run(run)


# --------------------------------------------------------------------- #
# configuration plumbing
# --------------------------------------------------------------------- #
def test_config_rejects_bad_shard_count():
    with pytest.raises(PlanError):
        replace(ExecutionConfig.baseline(), shards=0)


def test_rowstore_ctor_rejects_bad_shard_count(ssb_data):
    # the same validator ExecutionConfig uses, so the same bad values
    for bad in ({"shards": 0}, {"move_threshold_rows": 0}):
        with pytest.raises(PlanError):
            SystemX(ssb_data, designs=[DesignKind.TRADITIONAL], **bad)


def test_shard_children_built_once(cstore):
    config = replace(ExecutionConfig.baseline(), shards=SHARDS)
    query = next(q for q in ALL_QUERIES if q.name == "Q1.1")
    cstore.execute(query, config)
    first = cstore.shard_children(SHARDS)
    cstore.execute(query, config)
    assert cstore.shard_children(SHARDS) is first


def test_added_design_propagates_to_shard_children(ssb_data):
    engine = SystemX(ssb_data, designs=[DesignKind.TRADITIONAL],
                     shards=SHARDS)
    query = next(q for q in ALL_QUERIES if q.name == "Q2.1")
    engine.execute(query, DesignKind.TRADITIONAL)  # builds the children
    engine.add_design(DesignKind.MATERIALIZED_VIEWS)
    run = engine.execute(query, DesignKind.MATERIALIZED_VIEWS)
    base = SystemX(ssb_data, designs=[DesignKind.MATERIALIZED_VIEWS]) \
        .execute(query, DesignKind.MATERIALIZED_VIEWS)
    assert run.result.rows == base.result.rows
