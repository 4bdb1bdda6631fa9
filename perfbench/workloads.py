"""The three workloads, driven only through the program's public API.

``cs-read`` and ``rs-read`` replay the 13 SSB queries on one engine in
a closed loop with one client; ``serve-mixed`` puts both engines behind
one :class:`~repro.serve.QueryService` and mixes cached SQL reads, DML,
tuple moves and a cold restart.  The data always comes from
``DEFAULT_SEED``; the workload seed drives query order, variants and
DML content.  Every answer is checked against the reference oracle
outside the timed sections.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.ssb.generator as generator
from repro import (CStore, DesignKind, ExecutionConfig, SystemX,
                   parse_query, reference_execute)
from repro.plan.logical import ColumnRef, CompareOp, Comparison
from repro.serve import QueryService, ServiceConfig
from repro.simio.stats import QueryStats
from repro.ssb.queries import ALL_QUERIES
from repro.ssb.sql_text import SQL_TEXT
from repro.storage.colfile import CompressionLevel
from repro.write.store import WriteStore

#: scale factor per workload; the serving mix runs smaller so that
#: several move/rebuild cycles fit in one run
SCALE = {"cs-read": 0.05, "rs-read": 0.05, "serve-mixed": 0.02}

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3

#: passes over the 13 queries (reads) or cycles (serving) that make the
#: fixed prefix: exact-repeat counts and the traced run cover only it
PREFIX_PASSES = {"cs-read": 2, "rs-read": 1, "serve-mixed": 1}

#: an untraced run goes on past ``seconds`` until it has this many
#: samples, so that p95 has ten reads beyond it and p90 ten batches
MIN_READS = 200
MIN_DML = 100

#: reads per client per read phase.  The row-store client's phase ends
#: within the column-store client's (0.3-1.0 s against 1.1-1.7 s at
#: SF 0.02 on a 2-core host), so the median read is a column-store read
#: rather than one at the edge between the two engines' latency ranges.
READS_PER_PHASE = {"cs": 50, "rs": 15}

#: popularity skew of the read stream: YCSB's zipfian constant (Cooper
#: et al., "Benchmarking Cloud Serving Systems with YCSB", SoCC 2010)
ZIPF_S = 0.99

#: a variant narrows an SSB query to TAX_WINDOW consecutive values of
#: ``lo.tax`` (uniform over 0..8); every such window is one variant
TAX_WINDOW = 6
TAX_VALUES = 9

#: the write mix of ``benchmarks/bench_writes.py``: each cycle clones
#: this fraction of the fact table as inserts ...
INSERT_FRACTION = 0.01
#: ... and deletes the rows with quantity below this (here: clones only)
DELETE_BELOW_QUANTITY = 4

#: DML batches per cycle, alternating insert and delete (bench_writes
#: applies one insert batch, then one delete); two cycles, and with them
#: two tuple moves, reach the MIN_DML floor
DML_PER_CYCLE = MIN_DML // 2

CS_SESSION_CONFIG = ExecutionConfig(writes=True, zone_maps=True, shards=2)


@dataclass(frozen=True)
class Plan:
    """How much one workload run does."""

    #: measure at least this long; None runs exactly the prefix
    seconds: Optional[float]
    setups: int = 1
    min_reads: int = 0
    min_dml: int = 0

    def done(self, rounds: int, prefix: int, elapsed: float, reads: int,
             dml: Optional[int] = None) -> bool:
        """Whether to stop after ``rounds`` whole passes or cycles;
        ``dml`` is None for a workload that writes nothing."""
        if rounds < prefix:
            return False
        if self.seconds is None:
            return True
        return (elapsed >= self.seconds and reads >= self.min_reads
                and (dml is None or dml >= self.min_dml))


@dataclass
class Outcome:
    """What one workload run measured."""

    setup_s: List[float] = field(default_factory=list)
    read_ms: List[float] = field(default_factory=list)
    read_wall_s: float = 0.0
    dml_ms: List[float] = field(default_factory=list)
    move_s: List[float] = field(default_factory=list)
    recover_s: float = 0.0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: exact-repeat counts over the fixed prefix
    counts: Dict[str, object] = field(default_factory=dict)
    #: QueryStats-derived per-layer counts over the fixed prefix
    layer_counts: Dict[str, float] = field(default_factory=dict)
    #: serve-mixed only: reads per source and DML batches, whole run
    mix: Dict[str, int] = field(default_factory=dict)


class PrefixLedger:
    """Exact-repeat counts over the prefix reads, in a fixed order."""

    def __init__(self) -> None:
        self.records: List[list] = []
        self.sim_seconds: List[float] = []
        self.stats = QueryStats()
        self.sources: Dict[str, int] = {}

    def add(self, label: str, run, source: str = "engine") -> None:
        self.records.append([label, source, sorted(vars(run.stats).items())])
        self.sim_seconds.append(run.seconds)
        self.stats.merge(run.stats)
        self.sources[source] = self.sources.get(source, 0) + 1

    def counts(self) -> Dict[str, object]:
        digest = hashlib.sha256(
            json.dumps(self.records, sort_keys=True).encode()).hexdigest()
        return {
            "ledger.sim_s": math.fsum(self.sim_seconds),
            "query_stats_digest": digest[:16],
            "prefix_reads": len(self.records),
            "sources": dict(sorted(self.sources.items())),
        }

    def layer_counts(self) -> Dict[str, float]:
        s = self.stats
        touched = s.pages_read + s.buffer_hits
        reads = len(self.records)
        hits = self.sources.get("cache-exact", 0) \
            + self.sources.get("cache-refilter", 0)
        return {
            "ledger.sim_s": math.fsum(self.sim_seconds),
            "simio.pages_read": s.pages_read,
            "simio.buffer_hits": s.buffer_hits,
            "simio.pool_hit_ratio":
                s.buffer_hits / touched if touched else 0.0,
            "synopsis.probes": s.synopsis_probes,
            "synopsis.blocks_skipped": s.blocks_skipped,
            "write.delta_rows_merged": s.delta_rows_merged,
            "serve.exact_hits": self.sources.get("cache-exact", 0),
            "serve.subsumption_hits": self.sources.get("cache-refilter", 0),
            "serve.cache_hit_ratio": hits / reads if reads else 0.0,
        }


def _timed_setup(recorder, repeats: int, build: Callable[[], object]
                 ) -> Tuple[object, List[float]]:
    """Run ``build`` ``repeats`` times; keep the last result."""
    times: List[float] = []
    built = None
    for _ in range(repeats):
        built = None  # free the previous set-up before timing the next
        start = time.perf_counter()
        with recorder.span("bench.setup"):
            built = build()
        times.append(time.perf_counter() - start)
    return built, times


# --------------------------------------------------------------------- #
# cs-read / rs-read
# --------------------------------------------------------------------- #
def _build_engine(kind: str):
    data = generator.generate(SCALE[kind])
    if kind == "cs-read":
        return CStore(data, levels=(CompressionLevel.MAX,))
    return SystemX(data, designs=(DesignKind.TRADITIONAL,))


def run_engine_reads(kind: str, seed: int, plan: Plan, recorder
                     ) -> Outcome:
    """One engine, the 13 SSB queries in a seeded shuffle per pass,
    cold pool per query, one closed-loop client.

    Whole passes repeat until ``plan`` is done."""
    out = Outcome()
    engine, out.setup_s = _timed_setup(recorder, plan.setups,
                                       lambda: _build_engine(kind))
    if kind == "cs-read":
        config = ExecutionConfig.baseline()

        def execute(query):
            return engine.execute(query, config)
    else:
        def execute(query):
            return engine.execute(query, DesignKind.TRADITIONAL)

    oracle = {q.name: reference_execute(engine.snapshot_tables(), q)
              for q in ALL_QUERIES}
    rng = random.Random(seed)
    prefix = PrefixLedger()
    answers: List[Tuple[str, object]] = []
    passes = 0
    loop_start = time.perf_counter()
    while True:
        order = list(ALL_QUERIES)
        rng.shuffle(order)
        for query in order:
            out.attempted += 1
            start = time.perf_counter()
            try:
                with recorder.span("bench.read"):
                    run = execute(query)
            except Exception as error:  # counted, reported, run goes on
                out.failures.append(
                    f"{query.name}: {type(error).__name__}: {error}")
                continue
            out.read_ms.append((time.perf_counter() - start) * 1e3)
            answers.append((query.name, run.result))
            if passes < PREFIX_PASSES[kind]:
                prefix.add(query.name, run)
        passes += 1
        elapsed = time.perf_counter() - loop_start
        if plan.done(passes, PREFIX_PASSES[kind], elapsed, len(out.read_ms)):
            break
    out.read_wall_s = elapsed
    for name, result in answers:
        if not result.same_rows(oracle[name]):
            out.failures.append(
                f"{name}: rows differ from the reference oracle")
    out.counts = prefix.counts()
    out.layer_counts = prefix.layer_counts()
    return out


# --------------------------------------------------------------------- #
# serve-mixed
# --------------------------------------------------------------------- #
@dataclass
class _Served:
    data: object
    cstore: CStore
    system_x: SystemX
    service: QueryService


def _build_engines(data) -> Tuple[CStore, SystemX]:
    return (CStore(data, levels=(CompressionLevel.MAX,)),
            SystemX(data, designs=(DesignKind.TRADITIONAL,), writes=True))


def _build_served() -> _Served:
    data = generator.generate(SCALE["serve-mixed"])
    cstore, system_x = _build_engines(data)
    # the shard set is part of the column store's physical design for
    # the cs client; build it before serving, as a restart would
    cstore.shard_children(CS_SESSION_CONFIG.shards)
    service = QueryService(cstore=cstore, system_x=system_x,
                           config=ServiceConfig(cache=True))
    return _Served(data, cstore, system_x, service)


def _variant_sql(name: str, low_tax: Optional[int]) -> str:
    """SSB query ``name``, narrowed to the ``TAX_WINDOW`` tax values
    from ``low_tax`` on when ``low_tax`` is given.

    No SSB query restricts ``tax``, so a variant is answerable by
    re-filtering the cached positions of its base query.  Tax is uniform
    over 0..8, so every variant keeps about two thirds of the rows."""
    sql = " ".join(SQL_TEXT[name].split()).rstrip(";").strip()
    if low_tax is None:
        return sql + ";"
    cut = sql.find(" GROUP BY ")
    extra = (f" AND lo.tax BETWEEN {low_tax} "
             f"AND {low_tax + TAX_WINDOW - 1}")
    if cut < 0:
        return sql + extra + ";"
    return sql[:cut] + extra + sql[cut:] + ";"


def _catalog() -> List[str]:
    """SSB queries plus tax-narrowed variants, in Zipf rank order: the
    13 queries in SSB order, then their variants window by window, so
    the paper's 13 queries take about two thirds of the reads.

    The order is fixed, so the mix of cheap and costly queries, and
    with it the expected work per read, is the same for every seed."""
    windows = [None] + list(range(TAX_VALUES - TAX_WINDOW + 1))
    return [_variant_sql(q.name, low) for low in windows
            for q in ALL_QUERIES]


def zipf_deck(slots: int, reads: int) -> List[int]:
    """Slot indices for one phase: each slot appears in proportion to
    its Zipf weight, rounded by largest remainder to ``reads`` in all.

    Drawing the phase's multiset by quota rather than independently
    keeps the mix of cheap and costly reads, and the number of repeats
    the cache can serve, the same for every seed; the seed shuffles the
    order."""
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(slots)]
    total = sum(weights)
    shares = [reads * w / total for w in weights]
    quota = [int(share) for share in shares]
    by_remainder = sorted(range(slots), key=lambda i: quota[i] - shares[i])
    for i in by_remainder[:reads - sum(quota)]:
        quota[i] += 1
    return [i for i in range(slots) for _ in range(quota[i])]


class _Client:
    """One closed-loop client thread's stream over the shared catalog."""

    def __init__(self, session, catalog: List[str], rng: random.Random
                 ) -> None:
        self.session = session
        self.catalog = catalog
        self.rng = rng
        #: (sql, ServiceRun or None, error or None, latency ms)
        self.done: List[tuple] = []

    def read_phase(self, reads: int, recorder) -> None:
        deck = zipf_deck(len(self.catalog), reads)
        self.rng.shuffle(deck)
        for slot in deck:
            sql = self.catalog[slot]
            start = time.perf_counter()
            try:
                with recorder.span("bench.read"):
                    run = self.session.execute_sql(sql)
            except Exception as error:  # counted, reported, run goes on
                self.done.append((sql, None, error, 0.0))
                continue
            self.done.append((sql, run, None,
                              (time.perf_counter() - start) * 1e3))


def _clone_rows(table, positions, first_orderkey: int) -> List[Dict]:
    """Insert dicts copying the fact rows at ``positions``, renumbered
    to fresh order keys so that deletes can target only clones."""
    columns = table.columns()
    rows = []
    for offset, pos in enumerate(positions):
        row = {}
        for col in columns:
            value = col.data[pos]
            if col.dictionary is not None:
                row[col.name] = col.dictionary.decode(np.array([value]))[0]
            else:
                row[col.name] = int(value)
        row["orderkey"] = first_orderkey + offset
        rows.append(row)
    return rows


class _DmlStream:
    """Seeded DML batches; keeps the acknowledged log for the oracle.

    Even batches insert clones of random fact rows, odd batches delete
    the clones with quantity below ``DELETE_BELOW_QUANTITY``.  Deletes
    leave the genesis rows alone, so the read work does not shrink as
    the run goes on."""

    def __init__(self, data, rng: random.Random) -> None:
        self.fact = data.lineorder
        self.rng = rng
        self.genesis_max = int(self.fact.column("orderkey").data.max())
        self.next_orderkey = self.genesis_max + 1
        inserts_per_cycle = (DML_PER_CYCLE + 1) // 2
        self.insert_rows = max(1, round(
            self.fact.num_rows * INSERT_FRACTION / inserts_per_cycle))
        #: acknowledged operations, replayed by the recovery oracle
        self.acked: List[tuple] = []

    def clones(self) -> List[Dict]:
        positions = [self.rng.randrange(self.fact.num_rows)
                     for _ in range(self.insert_rows)]
        rows = _clone_rows(self.fact, positions, self.next_orderkey)
        self.next_orderkey += len(rows)
        return rows

    def next_batch(self, index: int) -> Tuple[str, object]:
        if index % 2:
            return "delete", [
                Comparison(ColumnRef("lineorder", "quantity"), CompareOp.LT,
                           DELETE_BELOW_QUANTITY),
                Comparison(ColumnRef("lineorder", "orderkey"), CompareOp.GT,
                           self.genesis_max)]
        return "insert", self.clones()


class _Oracle:
    """Reference answers memoized per (write epoch, SQL)."""

    def __init__(self) -> None:
        self._memo: Dict[Tuple[int, str], object] = {}

    def check(self, served: _Served, clients: List[_Client],
              starts: List[int], out: Outcome) -> None:
        """Check each client's reads from its index in ``starts`` on."""
        epoch = served.cstore.write_epoch
        tables = None
        for client, start in zip(clients, starts):
            for sql, run, error, _ms in client.done[start:]:
                if error is not None:
                    out.failures.append(f"{client.session.name}: "
                                        f"{type(error).__name__}: {error}")
                    continue
                key = (epoch, sql)
                if key not in self._memo:
                    if tables is None:
                        tables = served.cstore.snapshot_tables()
                    self._memo[key] = reference_execute(
                        tables, parse_query(sql))
                if not run.result.same_rows(self._memo[key]):
                    out.failures.append(
                        f"{client.session.name}: rows differ from the "
                        f"reference at epoch {epoch}: {sql}")


def _reference_store(data, acked: List[tuple]) -> WriteStore:
    """Exactly the acknowledged operations, replayed onto fresh genesis
    tables (the never-crashed oracle for recovery)."""
    ws = WriteStore(dict(data.tables))
    scratch = QueryStats()
    for op in acked:
        if op[0] == "insert":
            ws.insert(op[1], op[2], scratch)
        elif op[0] == "delete":
            ws.delete(op[1], op[2], scratch)
        else:
            ws.complete_move(ws.effective_tables())
    return ws


def _clone_keys(tables, genesis_max: int) -> np.ndarray:
    keys = tables["lineorder"].column("orderkey").data
    return np.sort(keys[keys > genesis_max])


def run_serve_mixed(seed: int, plan: Plan, recorder) -> Outcome:
    """Two closed-loop clients (one per engine) through one service,
    then a crash and a cold restart from the genesis data plus the
    surviving journals."""
    out = Outcome()
    served, out.setup_s = _timed_setup(recorder, plan.setups, _build_served)
    data = served.data
    journals, committed, unacked, acked = _serve(served, seed, plan,
                                                 recorder, out)
    # the crash: ``served`` holds the last reference to the old service,
    # its engines and its cache; nothing of them survives into the restart
    del served
    gc.collect()
    _cold_restart(data, journals, committed, unacked, acked, recorder, out)
    return out


def _serve(served: _Served, seed: int, plan: Plan, recorder, out: Outcome
           ) -> Tuple[Dict[str, object], Dict[str, int], List[Dict],
                      List[tuple]]:
    """The serving cycles, then one never-acknowledged batch.

    Each cycle is barrier-separated phases: clean reads, DML batches,
    reads merged over the pending delta, a tuple move.  Returns the
    journals that survive the crash, each one's last acknowledged
    record, the unacknowledged rows and the acknowledged operations."""
    service = served.service
    rng = random.Random(seed)
    reads = _catalog()
    clients = [
        _Client(service.session("cs-client", engine="cs",
                                config=CS_SESSION_CONFIG),
                reads, random.Random(rng.random())),
        _Client(service.session("rs-client", engine="rs"),
                reads, random.Random(rng.random())),
    ]
    dml = _DmlStream(served.data, random.Random(rng.random()))
    oracle = _Oracle()
    prefix = PrefixLedger()
    journal_pages = 0
    cycles = 0
    loop_start = time.perf_counter()
    while True:
        for phase in ("clean", "merged"):
            phase_start = [len(c.done) for c in clients]
            threads = [threading.Thread(target=c.read_phase,
                                        args=(READS_PER_PHASE[
                                            c.session.engine], recorder))
                       for c in clients]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            out.read_wall_s += time.perf_counter() - start
            oracle.check(served, clients, phase_start, out)
            if phase == "clean":
                for index in range(DML_PER_CYCLE):
                    kind, payload = dml.next_batch(index)
                    ledger = QueryStats()
                    out.attempted += 1
                    start = time.perf_counter()
                    try:
                        with recorder.span("bench.dml"):
                            if kind == "insert":
                                service.insert("lineorder", payload, ledger)
                            else:
                                service.delete("lineorder", payload, ledger)
                    except Exception as error:  # counted, run goes on
                        out.failures.append(
                            f"dml {kind}: {type(error).__name__}: {error}")
                        continue
                    out.dml_ms.append((time.perf_counter() - start) * 1e3)
                    dml.acked.append((kind, "lineorder", payload))
                    if cycles < PREFIX_PASSES["serve-mixed"]:
                        journal_pages += ledger.journal_pages
        ledger = QueryStats()
        out.attempted += 1
        start = time.perf_counter()
        try:
            with recorder.span("bench.move"):
                service.move(ledger)
        except Exception as error:  # counted, run goes on
            out.failures.append(f"move: {type(error).__name__}: {error}")
        else:
            out.move_s.append(time.perf_counter() - start)
            dml.acked.append(("move",))
            if cycles < PREFIX_PASSES["serve-mixed"]:
                journal_pages += ledger.journal_pages
        if cycles < PREFIX_PASSES["serve-mixed"]:
            for client in clients:
                for index, (sql, run, _e, _ms) in enumerate(client.done):
                    if run is not None:
                        prefix.add(f"{client.session.name}:{index}:{sql}",
                                   run, run.source)
        cycles += 1
        if plan.done(cycles, PREFIX_PASSES["serve-mixed"],
                     time.perf_counter() - loop_start,
                     sum(len(c.done) for c in clients), len(out.dml_ms)):
            break

    for client in clients:
        out.attempted += len(client.done)
        out.read_ms.extend(ms for _sql, run, _e, ms in client.done
                           if run is not None)
        for _sql, run, _e, _ms in client.done:
            if run is not None:
                out.mix[run.source] = out.mix.get(run.source, 0) + 1
    out.mix["dml"] = len(out.dml_ms)
    out.counts = prefix.counts()
    out.layer_counts = prefix.layer_counts()
    out.layer_counts["write.journal_pages"] = journal_pages

    # the redo journal has no public accessor on the engines; it is the
    # one file that survives the crash
    journals = {"cs": served.cstore._writes.journal,
                "rs": served.system_x._writes.journal}
    committed = {name: j.records for name, j in journals.items()}
    unacked = dml.clones()
    service.insert("lineorder", unacked)
    service.close()
    return journals, committed, unacked, dml.acked


def _cold_restart(data, journals: Dict[str, object],
                  committed: Dict[str, int], unacked: List[Dict],
                  acked: List[tuple], recorder, out: Outcome) -> None:
    """Rebuild both engines from the genesis data and replay each
    surviving journal up to its last acknowledged record; check acked
    writes are present, the unacked batch absent, and every SSB query
    right."""
    ledger = QueryStats()
    out.attempted += 1
    start = time.perf_counter()
    with recorder.span("bench.recover"):
        cstore, system_x = _build_engines(data)
        cstore.recover(journals["cs"], committed["cs"], ledger)
        system_x.recover(journals["rs"], committed["rs"], ledger)
    out.recover_s = time.perf_counter() - start
    out.layer_counts["write.journal_replay_pages"] = \
        ledger.journal_replay_pages
    out.layer_counts["write.recovered_batches"] = ledger.recovered_batches

    genesis_max = int(data.lineorder.column("orderkey").data.max())
    expected = _reference_store(data, acked).effective_tables()
    want = _clone_keys(expected, genesis_max)
    lost = {r["orderkey"] for r in unacked}
    for name, engine in (("cs", cstore), ("rs", system_x)):
        got = _clone_keys(engine.snapshot_tables(), genesis_max)
        if lost & set(got.tolist()):
            out.failures.append(
                f"recovered {name}: an unacknowledged write survived")
        elif not np.array_equal(got, want):
            out.failures.append(f"recovered {name}: acked clone rows differ "
                                f"({len(got)} rows, expected {len(want)})")
    for query in ALL_QUERIES:
        reference = reference_execute(expected, query)
        for name, execute in (
                ("cs", lambda q: cstore.execute(
                    q, ExecutionConfig(writes=True))),
                ("rs", lambda q: system_x.execute(
                    q, DesignKind.TRADITIONAL))):
            out.attempted += 1
            try:
                run = execute(query)
            except Exception as error:  # counted, run goes on
                out.failures.append(f"recovered {name}: {query.name}: "
                                    f"{type(error).__name__}: {error}")
                continue
            if not run.result.same_rows(reference):
                out.failures.append(
                    f"recovered {name}: {query.name} differs from the "
                    f"reference")


def run_workload(name: str, seed: int, plan: Plan, recorder) -> Outcome:
    if name == "serve-mixed":
        return run_serve_mixed(seed, plan, recorder)
    return run_engine_reads(name, seed, plan, recorder)


WORKLOADS = ("cs-read", "rs-read", "serve-mixed")
