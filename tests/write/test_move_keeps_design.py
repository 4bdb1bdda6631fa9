"""The tuple mover, recovery's rebuild and shard children all build
"the same design over other data": projections added with
``add_projection`` (and loaded row-MV flights) must survive a move and a
recovery rebuild, and must reach every shard child."""

from dataclasses import replace

from repro.colstore.engine import CStore
from repro.core.config import ExecutionConfig
from repro.reference import execute as reference_execute
from repro.ssb.queries import query_by_name
from repro.storage.colfile import CompressionLevel
from repro.write.recovery import CrashHarness
from tests.write.dml import write_mix

EXTRA = "lineorder.max.partkey"
Q1_1 = query_by_name("Q1.1")
WRITES = replace(ExecutionConfig.baseline(), writes=True)


def _store(data, fault_injector=None):
    store = CStore(data, levels=(CompressionLevel.MAX,),
                   fault_injector=fault_injector)
    store.add_projection("lineorder", ("partkey",))
    return store


def _projection_names(store):
    return {p.name for ps in store._projections.values() for p in ps}


def test_move_and_shard_children_keep_added_projection(wdata):
    store = _store(wdata)
    store.load_row_mv(2)
    inserts, predicates = write_mix(wdata)
    store.insert("lineorder", inserts)
    store.delete("lineorder", predicates)
    expected = reference_execute(store.snapshot_tables(), Q1_1).rows
    assert store.move() > 0
    assert EXTRA in _projection_names(store)
    assert sorted(store._row_mv) == [2]
    assert store.execute(Q1_1, WRITES).result.rows == expected
    for _shard, child in store.shard_children(2):
        assert EXTRA in _projection_names(child)
    sharded = store.execute(Q1_1, replace(WRITES, shards=2))
    assert sharded.result.rows == expected


def test_added_projection_reaches_built_shard_children(wdata):
    store = CStore(wdata, levels=(CompressionLevel.MAX,))
    children = store.shard_children(2)
    store.add_projection("lineorder", ("partkey",))
    for _shard, child in children:
        assert EXTRA in _projection_names(child)


def test_recovery_rebuild_keeps_added_projection(wdata):
    # the harness re-opens a fresh engine (projection re-added) and
    # replays the journal; the rolled-forward move's rebuild must not
    # drop the projection again
    harness = CrashHarness(wdata, make_engine=_store)
    inserts, _predicates = write_mix(wdata)
    harness.insert("lineorder", inserts)
    assert harness.move() > 0
    report = harness.crash_and_recover()
    assert report.moves_rolled_forward == 1
    assert EXTRA in _projection_names(harness.engine)
    expected = reference_execute(harness.engine.snapshot_tables(),
                                 Q1_1).rows
    assert harness.engine.execute(Q1_1, WRITES).result.rows == expected
