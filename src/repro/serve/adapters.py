"""Engine adapters: one uniform surface the service drives both engines
through.

Each adapter maps a session to a cache scope and an engine call, wraps
what a run records into a cache payload, and works out which constraints
of a requested query differ from a cached entry's.  The engines do the
work: (a) execute a query, (b) record the surviving fact positions (or
rids) of a run, (c) compute a dimension's surviving key set for the
subsumption fallback, and (d) answer a subsumed query from a cached
position (or rid) list, re-applying only the differing constraints
(``CStore.run_from_positions``, ``SystemX.run_from_rids``).

All work these calls do is charged to whatever ledger the engine's
simulated disk currently points at; the service aims it at the
requesting query's ledger before calling in, so re-filters and key-set
probes are priced as honestly as full scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set, Tuple

import numpy as np

from ..colstore.engine import CStore
from ..colstore.positions import (
    ArrayPositions,
    BitmapPositions,
    RangePositions,
)
from ..plan.logical import StarQuery
from ..result import ResultSet
from ..rowstore.designs import DesignKind
from ..rowstore.engine import SystemX
from ..storage.colfile import CompressionLevel
from .semcache import PositionEntry, normalize_query
from .session import Session


# ---------------------------------------------------------------------- #
# cached payloads
# ---------------------------------------------------------------------- #
@dataclass
class CsPositions:
    """Column-store payload: surviving positions of one fact projection."""

    projection: str
    level: CompressionLevel
    positions: object  # RangePositions | BitmapPositions | ArrayPositions

    @property
    def nbytes(self) -> int:
        pos = self.positions
        if isinstance(pos, RangePositions):
            return 32
        if isinstance(pos, BitmapPositions):
            return 32 + int(pos.bits.nbytes)
        if isinstance(pos, ArrayPositions):
            return 32 + int(pos.positions.nbytes)
        return 32 + 8 * pos.count


@dataclass
class RsRids:
    """Row-store payload: surviving rids of the unpartitioned fact heap."""

    rids: np.ndarray

    @property
    def nbytes(self) -> int:
        return 32 + int(self.rids.nbytes)


def _differing(query: StarQuery, entry: PositionEntry
               ) -> Tuple[Set[str], Set[str]]:
    """The fact columns whose predicates, and the dimensions whose
    constraints, differ from the cached entry's: what a re-filter must
    re-apply (everything else the cached positions already satisfy)."""
    requested = normalize_query(query).by_column()
    cached = entry.signature.by_column()
    fact = query.fact_table
    columns = {p.column for p in query.fact_predicates()
               if requested[(fact, p.column)] != cached.get((fact, p.column))}

    def constraints(by_column: Dict, dim: str) -> Dict:
        return {c: k for (t, c), k in by_column.items() if t == dim}

    dims = {dim for dim in query.dimensions_used()
            if constraints(requested, dim) != constraints(cached, dim)}
    return columns, dims


class _Adapter:
    """What both adapters share: key sets from their ``dim_key_set``."""

    def key_sets(self, query: StarQuery, session: Session,
                 dim_cache: Dict) -> Dict[str, np.ndarray]:
        """Surviving key sets of every predicated dimension (recorded
        alongside a position entry for the subsumption fallback)."""
        return {
            dim: np.array(self.dim_key_set(query, session, dim, dim_cache))
            for dim in query.dimensions_used()
            if query.dimension_predicates(dim)
        }


# ---------------------------------------------------------------------- #
# column store
# ---------------------------------------------------------------------- #
class ColumnStoreAdapter(_Adapter):
    """Drives a :class:`CStore` for the service."""

    kind = "cs"

    def __init__(self, engine: CStore) -> None:
        self.engine = engine

    def level(self, session: Session) -> CompressionLevel:
        if session.level is not None:
            return session.level
        return (CompressionLevel.MAX if session.config.compression
                else CompressionLevel.NONE)

    def scope(self, session: Session) -> Tuple:
        # zone maps and sharding never change results, but scoping on
        # them keeps cached ledgers/traces comparable within one
        # setting (and isolates each shard set's cache)
        return ("cs", session.config.label, self.level(session).value,
                "zm" if session.config.zone_maps else "",
                f"sh{session.config.shards}")

    def shard_count(self, session: Session) -> int:
        return session.config.shards

    def share_key(self, query: StarQuery, session: Session) -> Tuple:
        level = self.level(session)
        return ("cs", level.value,
                self.engine.best_projection(query, level).name)

    def recordable(self, session: Session) -> bool:
        # early-materialization plans have no surviving-position set;
        # sharded runs have none either (positions would be shard-local
        # and the gather discards them) — both still get the result
        # cache
        return (session.config.late_materialization
                and session.config.shards == 1)

    def execute(self, query: StarQuery, session: Session,
                warm: bool = False, cancellation=None):
        return self.engine.execute(query, session.config, session.level,
                                   cold_pool=not warm,
                                   cancellation=cancellation)

    def execute_recording(self, query: StarQuery, session: Session,
                          warm: bool = False, cancellation=None):
        run = self.execute(query, session, warm=warm,
                           cancellation=cancellation)
        payload = None
        if run.survivors is not None and run.projection_name is not None:
            payload = CsPositions(run.projection_name, self.level(session),
                                  run.survivors)
        return run, payload, None  # key sets are computed on admission

    # -------------------------------------------------------------- #
    def _dim_rows(self, query: StarQuery, session: Session, dim: str,
                  dim_cache: Dict):
        rows = dim_cache.get(dim)
        if rows is None:
            rows = self.engine.dimension_rows(query, dim, session.config,
                                              session.level)
            dim_cache[dim] = rows
        return rows

    def dim_key_set(self, query: StarQuery, session: Session, dim: str,
                    dim_cache: Dict) -> np.ndarray:
        """The requested query's surviving keys for ``dim``, sorted."""
        return self._dim_rows(query, session, dim, dim_cache).keys

    def refilter(self, query: StarQuery, session: Session,
                 entry: PositionEntry, dim_cache: Dict) -> ResultSet:
        """Answer ``query`` from a subsuming entry's cached positions
        (rows identical to a cold run)."""
        payload: CsPositions = entry.payload
        columns, dims = _differing(query, entry)
        return self.engine.run_from_positions(
            query, session.config, session.level, payload.projection,
            payload.positions, columns, dims,
            lambda dim: self._dim_rows(query, session, dim, dim_cache))


# ---------------------------------------------------------------------- #
# row store
# ---------------------------------------------------------------------- #
class RowStoreAdapter(_Adapter):
    """Drives a :class:`SystemX` for the service."""

    kind = "rs"

    def __init__(self, engine: SystemX) -> None:
        self.engine = engine

    def scope(self, session: Session) -> Tuple:
        return ("rs", session.design.value,
                "zm" if self.engine.zone_maps else "",
                f"sh{self.engine.shards}")

    def shard_count(self, session: Session) -> int:
        return self.engine.shards

    def recordable(self, session: Session) -> bool:
        # positions are recorded as rids of the whole-fact heap, which
        # only the traditional plan shape maps onto cleanly — and only
        # unsharded (the recording scan would bypass the shard stacks);
        # other sessions still get the result cache
        return (session.design is DesignKind.TRADITIONAL
                and self.engine.shards == 1)

    def share_key(self, query: StarQuery, session: Session) -> Tuple:
        return ("rs", session.design.value)

    def execute(self, query: StarQuery, session: Session,
                warm: bool = False, cancellation=None):
        return self.engine.execute(query, session.design,
                                   cold_pool=not warm,
                                   cancellation=cancellation)

    def execute_recording(self, query: StarQuery, session: Session,
                          warm: bool = False, cancellation=None):
        run, rids, key_sets = self.engine.execute_recording(
            query, cold_pool=not warm, cancellation=cancellation)
        return run, RsRids(rids), key_sets

    def dim_key_set(self, query: StarQuery, session: Session, dim: str,
                    dim_cache: Dict) -> np.ndarray:
        keys = dim_cache.get(dim)
        if keys is None:
            keys = self.engine.dimension_keys(query, dim)
            dim_cache[dim] = keys
        return keys

    def refilter(self, query: StarQuery, session: Session,
                 entry: PositionEntry, dim_cache: Dict) -> ResultSet:
        """Answer ``query`` by rid-fetching a subsuming entry's rows."""
        columns, _dims = _differing(query, entry)
        return self.engine.run_from_rids(query, entry.payload.rids, columns)


__all__ = ["ColumnStoreAdapter", "RowStoreAdapter", "CsPositions",
           "RsRids"]
