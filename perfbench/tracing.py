"""Spans around calls into the program's layers, taken from outside it.

The benchmark never edits ``src/``: a traced run wraps the public
functions and methods named in :data:`SPAN_TARGETS` at every place the
program looks them up, records one span per call in memory, and undoes
the wrapping when it ends.  A span is ``[name, start_ns, end_ns,
parent, request]``; ``request`` is the id of the outermost span open on
the calling thread, so every span of one benchmark operation (a read, a
DML batch, a move, a set-up) shares it.

Self time is a span's duration minus the part of it its children cover.
A generator (``HeapFile.scan_batches``) is charged per ``next()`` call:
each resumption is its own span, so time the consumer spends between
batches is not counted as scan time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, List, Sequence, Tuple

#: span name -> "module:attribute" or "module:Class.method".  Functions
#: are replaced in every loaded ``repro`` module that bound them by
#: name, so ``from .codec import choose_codec`` call sites see the
#: wrapper too.
SPAN_TARGETS: Dict[str, str] = {
    # set-up and storage build
    "ssb.generate": "repro.ssb.generator:generate",
    "CStore.__init__": "repro.colstore.engine:CStore.__init__",
    "SystemX.__init__": "repro.rowstore.engine:SystemX.__init__",
    "SystemX.add_design": "repro.rowstore.engine:SystemX.add_design",
    "Projection.create": "repro.storage.projection:Projection.create",
    "HeapFile.load": "repro.storage.heapfile:HeapFile.load",
    "choose_codec": "repro.storage.encodings.codec:choose_codec",
    "Codec.frame": "repro.storage.encodings.codec:Codec.frame",
    # decode and page access
    "decode_payload": "repro.storage.encodings.codec:decode_payload",
    "decode_payload_runs":
        "repro.storage.encodings.codec:decode_payload_runs",
    "unpack_bits": "repro.storage.encodings.bitpack:unpack_bits",
    "ColumnFile.read_block": "repro.storage.colfile:ColumnFile.read_block",
    "ColumnFile.fetch": "repro.storage.colfile:ColumnFile.fetch",
    "HeapFile.scan_batches": "repro.storage.heapfile:HeapFile.scan_batches",
    "BufferPool.read_page": "repro.simio.buffer_pool:BufferPool.read_page",
    "fill_page": "repro.simio.buffer_pool:fill_page",
    # column-store operators
    "CStore.execute": "repro.colstore.engine:CStore.execute",
    "ColumnPlanner.run": "repro.colstore.planner:ColumnPlanner.run",
    "predicate_positions":
        "repro.colstore.operators.scan:predicate_positions",
    "probe_positions": "repro.colstore.operators.scan:probe_positions",
    "fetch_values": "repro.colstore.operators.fetch:fetch_values",
    "grouped_aggregate":
        "repro.colstore.operators.aggregate:grouped_aggregate",
    "factorize_groups": "repro.colstore.operators.aggregate:factorize_groups",
    "InvisibleJoin.run": "repro.core.invisible_join:InvisibleJoin.run",
    "CStore.shard_children": "repro.colstore.engine:CStore.shard_children",
    # row-store operators
    "SystemX.execute": "repro.rowstore.engine:SystemX.execute",
    "HashAggregator.consume":
        "repro.rowstore.operators:HashAggregator.consume",
    "HashTable.probe": "repro.rowstore.operators:HashTable.probe",
    # writes, tuple mover, recovery
    "WriteStore.insert": "repro.write.store:WriteStore.insert",
    "WriteStore.delete": "repro.write.store:WriteStore.delete",
    "RedoJournal.append": "repro.write.journal:RedoJournal.append",
    "CStore.move": "repro.colstore.engine:CStore.move",
    "SystemX.move": "repro.rowstore.engine:SystemX.move",
    "recover_store": "repro.write.recovery:recover_store",
    # serving
    "QueryService.submit": "repro.serve.service:QueryService.submit",
    "AdmissionController.acquire":
        "repro.serve.service:AdmissionController.acquire",
    "SemanticCache.lookup_result":
        "repro.serve.semcache:SemanticCache.lookup_result",
    "ColumnStoreAdapter.refilter":
        "repro.serve.adapters:ColumnStoreAdapter.refilter",
    "RowStoreAdapter.refilter":
        "repro.serve.adapters:RowStoreAdapter.refilter",
    "sql.parse_statement": "repro.sql.parser:parse_statement",
    "sql.bind": "repro.sql.binder:bind",
}

#: the one call wrapped for a count, not a span: the scatter-gather
#: merger returns which shards the synopses eliminated
SHARD_REPORT_TARGET = "repro.shard.executor:scatter_gather"

#: per-layer time metric -> the spans whose *self* time it sums
LAYER_TIMES: Dict[str, Tuple[str, ...]] = {
    "ssb.generate_s": ("ssb.generate",),
    "storage.encodings.choose_codec_s": ("choose_codec", "Codec.frame"),
    "storage.encodings.decode_s": ("decode_payload", "decode_payload_runs"),
    "storage.encodings.unpack_bits_s": ("unpack_bits",),
    "storage.projection_create_s": ("Projection.create",),
    "storage.heap_load_s": ("HeapFile.load",),
    "storage.column_fetch_s": ("ColumnFile.read_block", "ColumnFile.fetch"),
    "storage.heap_scan_s": ("HeapFile.scan_batches",),
    "simio.read_page_s": ("BufferPool.read_page",),
    "simio.fill_page_s": ("fill_page",),
    "colstore.planner_run_s": ("ColumnPlanner.run",),
    "colstore.predicate_positions_s": ("predicate_positions",
                                       "probe_positions"),
    "colstore.fetch_values_s": ("fetch_values",),
    "colstore.grouped_aggregate_s": ("grouped_aggregate",),
    "colstore.factorize_groups_s": ("factorize_groups",),
    "core.invisible_join_s": ("InvisibleJoin.run",),
    "rowstore.hashagg_consume_s": ("HashAggregator.consume",),
    "rowstore.hash_probe_s": ("HashTable.probe",),
    "rowstore.build_s": ("SystemX.add_design",),
    "shard.children_build_s": ("CStore.shard_children",),
    "write.insert_s": ("WriteStore.insert",),
    "write.delete_s": ("WriteStore.delete",),
    "write.journal_append_s": ("RedoJournal.append",),
    "write.move_self_s": ("CStore.move", "SystemX.move"),
    "write.replay_s": ("recover_store",),
    "serve.admission_wait_s": ("AdmissionController.acquire",),
    "serve.cache_lookup_s": ("SemanticCache.lookup_result",),
    "serve.cache_refilter_s": ("ColumnStoreAdapter.refilter",
                               "RowStoreAdapter.refilter"),
    "sql.parse_bind_s": ("sql.parse_statement", "sql.bind"),
}

#: per-layer call-count metric -> the spans whose calls it counts
LAYER_CALLS: Dict[str, Tuple[str, ...]] = {
    "storage.encodings.choose_codec_calls": ("choose_codec",),
    "storage.encodings.frame_calls": ("Codec.frame",),
    "storage.encodings.decode_calls": ("decode_payload",
                                       "decode_payload_runs"),
    "storage.encodings.unpack_bits_calls": ("unpack_bits",),
    "simio.read_page_calls": ("BufferPool.read_page",),
    "rowstore.hashagg_consume_calls": ("HashAggregator.consume",),
}


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return module, owner, attr


class SpanRecorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        #: [name, start_ns, end_ns, parent index or -1, request id]
        self.spans: List[list] = []
        self.shards_eliminated = 0
        self._local = threading.local()
        #: client threads record concurrently; a span's index is its
        #: position in ``spans``, so reading it and appending is atomic
        self._append_lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []

    # -------------------------------------------------------------- #
    # recording
    # -------------------------------------------------------------- #
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        request = self.spans[stack[0]][4] if stack else -1
        record = [name, 0, 0, parent, request]
        with self._append_lock:
            index = len(self.spans)
            self.spans.append(record)
        if request < 0:
            record[4] = index
        stack.append(index)
        record[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            stack.pop()

    def _wrap(self, name: str, func: Callable) -> Callable:
        span = self.span
        if inspect.isgeneratorfunction(func):
            @functools.wraps(func)
            def generator_wrapper(*args, **kwargs):
                inner = func(*args, **kwargs)
                while True:
                    with span(name):
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                    yield item
            return generator_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with span(name):
                return func(*args, **kwargs)
        return wrapper

    def _count_shards(self, func: Callable) -> Callable:
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            out = func(*args, **kwargs)
            self.shards_eliminated += len(out[3].eliminated)
            return out
        return wrapper

    # -------------------------------------------------------------- #
    # patching
    # -------------------------------------------------------------- #
    def _replace_function(self, target: str, make: Callable) -> None:
        module, owner, attr = _resolve(target)
        original = getattr(owner, attr)
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    self._undo.append(
                        functools.partial(setattr, mod, name, original))

    def _replace_method(self, target: str, span_name: str) -> None:
        _module, owner, attr = _resolve(target)
        raw = owner.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(span_name, raw.__func__))
        else:
            wrapped = self._wrap(span_name, raw)
        setattr(owner, attr, wrapped)
        self._undo.append(functools.partial(setattr, owner, attr, raw))

    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` restores them."""
        for name, target in SPAN_TARGETS.items():
            _module, owner, _attr = _resolve(target)
            if inspect.isclass(owner):
                self._replace_method(target, name)
            else:
                self._replace_function(
                    target, functools.partial(self._wrap, name))
        self._replace_function(SHARD_REPORT_TARGET, self._count_shards)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -------------------------------------------------------------- #
    # analysis
    # -------------------------------------------------------------- #
    def self_times(self) -> Dict[str, Tuple[float, float, int]]:
        """``{span name: (self seconds, total seconds, calls)}``.

        Total time counts a recursive call once: only spans with no
        ancestor of the same name add to it."""
        children: Dict[int, List[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span[3] >= 0:
                children[span[3]].append(index)
        out: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0, 0])
        for index, (name, start, end, parent, _rid) in enumerate(self.spans):
            covered = _covered_ns(
                [(self.spans[c][1], self.spans[c][2])
                 for c in children.get(index, ())])
            row = out[name]
            row[0] += (end - start - covered) / 1e9
            row[2] += 1
            if not _has_ancestor_named(self.spans, parent, name):
                row[1] += (end - start) / 1e9
        return {name: (row[0], row[1], int(row[2]))
                for name, row in out.items()}

    def write(self, path: str) -> None:
        """Write every span as one JSON array per line, once."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for index, (name, start, end, parent, rid) in \
                    enumerate(self.spans):
                handle.write(json.dumps(
                    [index, parent, rid, name, start, end]) + "\n")


def _covered_ns(intervals: Sequence[Tuple[int, int]]) -> int:
    """Length of the union of ``intervals``."""
    covered = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is not None:
            start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return covered


def _has_ancestor_named(spans: List[list], parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(table: Dict[str, Tuple[float, float, int]]
                  ) -> Dict[str, float]:
    """The per-layer time and call metrics from :meth:`self_times`."""
    metrics: Dict[str, float] = {}
    for metric, names in LAYER_TIMES.items():
        metrics[metric] = sum(table.get(n, (0.0, 0.0, 0))[0] for n in names)
    for metric, names in LAYER_CALLS.items():
        metrics[metric] = sum(table.get(n, (0.0, 0.0, 0))[2] for n in names)
    return metrics


class NullRecorder:
    """The untraced run's recorder: spans cost one attribute lookup."""

    shards_eliminated = 0
    _null = nullcontext()

    def span(self, name: str):
        return self._null


__all__ = ["SpanRecorder", "NullRecorder", "SPAN_TARGETS", "LAYER_TIMES",
           "LAYER_CALLS", "layer_metrics"]
