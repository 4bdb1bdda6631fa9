"""Property test: pairwise subsumption over the whole SSB flight.

For every ordered pair (cached, requested) of the 13 SSB queries, on
both engines: cache exactly one query's positions, then ask for every
other query.  Whatever the cache decides — exact hit, subsumption
re-filter, or miss — the result rows must be identical to a cold direct
engine run, and the set of pairs that re-filter must be exactly the
pairs whose predicates are genuinely contained:

    Q4.2 within Q4.1   (symbolic: identical dimension constraints)
    Q4.3 within Q4.1   (key sets: US suppliers in AMERICA, MFGR#14
                        parts in {MFGR#1, MFGR#2})
    Q4.3 within Q4.2   (same containments, plus matching year sets)
    Q3.4 within Q3.3   (key sets: Dec1997 dates in year 1992..1997)

Any extra pair would mean the cache served rows it could not prove
correct; any missing pair would mean subsumption never fires.

The ledgers of each pair's seeding miss (a recording run) and of its
re-filter are pinned to ``subsumption_ledgers.json``: refactors of the
engine entry points behind them must not move a single counter.
"""

import json
from pathlib import Path

import pytest

from repro.rowstore.designs import DesignKind
from repro.serve import QueryService, ServiceConfig
from repro.ssb.queries import ALL_QUERIES, query_by_name

EXPECTED_PAIRS = {
    ("Q4.1", "Q4.2"),
    ("Q4.1", "Q4.3"),
    ("Q4.2", "Q4.3"),
    ("Q3.3", "Q3.4"),
}


@pytest.fixture(scope="module")
def baselines(cstore, system_x):
    """Cold direct-engine results for every query on both engines."""
    cold = {}
    for query in ALL_QUERIES:
        cold[("cs", query.name)] = cstore.execute(query).result
        cold[("rs", query.name)] = system_x.execute(
            query, DesignKind.TRADITIONAL).result
    return cold


@pytest.mark.parametrize("engine", ["cs", "rs"])
def test_pairwise_subsumption_is_exact_and_row_identical(
        engine, cstore, system_x, baselines):
    observed = set()
    for cached_query in ALL_QUERIES:
        service = QueryService(
            cstore=cstore, system_x=system_x,
            config=ServiceConfig(cache_admit_seconds=0.0))
        session = service.session(engine=engine)
        seeded = session.execute(cached_query)
        assert seeded.source == "engine"
        assert seeded.result.same_rows(
            baselines[(engine, cached_query.name)])
        # freeze the cache: later engine runs must not be admitted, so
        # every hit below is attributable to cached_query alone
        service.cache.admit_seconds = float("inf")
        for requested in ALL_QUERIES:
            run = session.execute(requested)
            assert run.result.same_rows(
                baselines[(engine, requested.name)]), (
                f"{engine}: {requested.name} served from "
                f"{cached_query.name} deviates ({run.source})")
            if requested is cached_query:
                assert run.source == "cache-exact"
            elif run.source == "cache-refilter":
                observed.add((cached_query.name, requested.name))
            else:
                assert run.source == "engine"
        service.close()
    assert observed == EXPECTED_PAIRS


PINNED_LEDGERS = json.loads(
    Path(__file__).with_name("subsumption_ledgers.json").read_text())


@pytest.mark.parametrize("engine", ["cs", "rs"])
@pytest.mark.parametrize("cached,requested", sorted(EXPECTED_PAIRS))
def test_recording_and_refilter_ledgers_are_pinned(
        engine, cached, requested, cstore, system_x):
    service = QueryService(cstore=cstore, system_x=system_x,
                           config=ServiceConfig(cache_admit_seconds=0.0))
    session = service.session(engine=engine)
    seeded = session.execute(query_by_name(cached))
    run = session.execute(query_by_name(requested))
    service.close()
    assert (seeded.source, run.source) == ("engine", "cache-refilter")
    for label, served in (("seed", seeded), ("refilter", run)):
        pinned = PINNED_LEDGERS[f"{engine} {cached}->{requested} {label}"]
        assert sorted(vars(served.stats).items()) == sorted(pinned.items()), \
            f"{engine} {cached}->{requested}: {label} ledger moved"
        assert served.trace.verify(served.stats)
