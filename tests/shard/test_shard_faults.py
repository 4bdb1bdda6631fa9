"""Fault isolation across shards: a corrupt page in one shard either
fails typed or fails over inside that shard — it never poisons siblings
and never produces a silently wrong merged result."""

from dataclasses import replace

import pytest

from repro.colstore.engine import CStore
from repro.core.config import ExecutionConfig
from repro.errors import CorruptPageError
from repro.rowstore.designs import DesignKind
from repro.rowstore.engine import SystemX
from repro.ssb.queries import ALL_QUERIES

SHARDS = 4
CONFIG = ExecutionConfig.baseline()
SHARDED = replace(CONFIG, shards=SHARDS)


def _query(name):
    return next(q for q in ALL_QUERIES if q.name == name)


def _quarantine_fact_column(disk, column):
    """Fence page 0 of every file of one fact column (all levels, so no
    redundant projection can cover it)."""
    victims = [name for name in disk.files()
               if name.startswith("lineorder.") and name.endswith(column)]
    assert victims
    for name in victims:
        disk.quarantine(name, 0)
    return victims


@pytest.fixture()
def store(ssb_data):
    # function-scoped: these tests fence pages, so the session engine
    # fixtures must not be used here
    return CStore(ssb_data)


def test_corrupt_shard_fails_typed_without_poisoning_siblings(store):
    q11, q12 = _query("Q1.1"), _query("Q1.2")
    clean_q12 = store.execute(q12, SHARDED).result.rows
    children = store.shard_children(SHARDS)
    # Q1.1 (year 1993) executes shard 0; Q1.2 (Jan 1994) does not
    _quarantine_fact_column(children[0][1].disk, ".quantity")
    with pytest.raises(CorruptPageError) as info:
        store.execute(q11, SHARDED)
    assert "quantity" in info.value.file
    # the sibling shards are untouched: a query the synopses route past
    # the damaged shard still runs, correctly
    run = store.execute(q12, SHARDED)
    assert 0 not in run.shard_report.executed
    assert run.result.rows == clean_q12


def test_shard_failover_via_redundant_projection(ssb_data, store):
    """Redundancy *inside* a shard works exactly as it does unsharded:
    the damaged projection's shard fails over, siblings never notice."""
    q11 = _query("Q1.1")
    clean = store.execute(q11, SHARDED).result.rows
    children = store.shard_children(SHARDS)
    victim = children[0][1]
    victim.add_projection("lineorder", ("partkey",))
    fenced = [name for name in victim.disk.files()
              if "orderdate_quantity_discount" in name
              and name.startswith("lineorder.")]
    assert fenced
    for name in fenced:
        victim.disk.quarantine(name, 0)
    run = store.execute(q11, SHARDED)
    assert run.result.rows == clean
    assert run.stats.recoveries > 0
    # the recovery is attributed to the damaged shard's span
    shard0 = next(s for s in run.trace.root.children
                  if s.name == "shard:0")
    assert shard0.stats.recoveries == run.stats.recoveries


def test_rowstore_shard_corruption_is_typed(ssb_data):
    engine = SystemX(ssb_data, designs=[DesignKind.TRADITIONAL],
                     shards=SHARDS)
    q11, q12 = _query("Q1.1"), _query("Q1.2")
    clean_q12 = engine.execute(q12, DesignKind.TRADITIONAL).result.rows
    children = engine.shard_children(SHARDS)
    # the row store has no redundant copies: corruption in an executed
    # shard must surface typed, never as a wrong merged row
    heap_files = [name for name in children[0][1].disk.files()
                  if name.startswith("heap.lineorder")
                  and not name.endswith(".zm")]
    assert heap_files
    for name in heap_files:
        children[0][1].disk.quarantine(name, 0)
    with pytest.raises(CorruptPageError):
        engine.execute(q11, DesignKind.TRADITIONAL)
    run = engine.execute(q12, DesignKind.TRADITIONAL)
    assert 0 not in run.shard_report.executed
    assert run.result.rows == clean_q12
