"""The append-only redo journal behind every accepted write.

Writes are priced like everything else in the reproduction: each accepted
batch is serialized to JSON, chunked into 32 KB pages, and appended to a
journal file on a *dedicated* simulated disk — dedicated so the journal
survives the tuple mover swapping the engine's data disk underneath it,
and so journal I/O lands on the ledger of the write that caused it rather
than whichever query happens to be running.

Appends share the read path's failure model: the disk's fault injector
may fail an ``append_page`` transiently, and the journal retries with the
*same* bounded backoff schedule the buffer pool uses for reads (the
constants are imported, not copied, so the two schedules can never
drift).  A page that keeps failing past the retry bound raises
:class:`~repro.errors.WriteFaultError`; the caller is guaranteed that no
write-store state was mutated.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from ..errors import TransientIOError, WriteFaultError
from ..obs import Tracer, span_context
from ..simio.buffer_pool import MAX_READ_RETRIES, _backoff_us
from ..simio.disk import PAGE_SIZE, SimulatedDisk
from ..simio.faults import (CRASH_AFTER_JOURNAL_APPEND,
                            CRASH_BEFORE_JOURNAL_APPEND, crash_point)
from ..simio.stats import QueryStats

#: Write retries share the read path's bound — one knob, two paths.
MAX_WRITE_RETRIES = MAX_READ_RETRIES

#: The single journal file on the journal's private disk.
JOURNAL_FILE = "journal.redo"


class RedoJournal:
    """An append-only JSON record log on its own simulated disk."""

    def __init__(self) -> None:
        self.disk = SimulatedDisk()
        self.disk.create(JOURNAL_FILE)
        #: number of records appended (not pages; a record may span pages)
        self.records = 0

    @property
    def num_pages(self) -> int:
        return self.disk.file(JOURNAL_FILE).num_pages

    @property
    def lsn(self) -> int:
        """The LSN of the last appended record (1-based record ordinal)."""
        return self.records

    def append(self, record: Dict, stats: QueryStats,
               tracer: Optional[Tracer] = None) -> int:
        """Serialize ``record``, append it page by page, return page count.

        All journal I/O (including failed attempts and their backoff) is
        charged to ``stats``.  Raises :class:`WriteFaultError` after
        :data:`MAX_WRITE_RETRIES` consecutive failures on one page; pages
        already appended stay appended (a torn record tail is detectable
        and harmless — the record was never acknowledged).

        The two journal kill points bracket this method's I/O:
        ``crash:before-journal-append`` dies with nothing of the record
        durable, ``crash:after-journal-append`` dies with the record
        fully durable but the caller never acknowledged.
        """
        crash_point(self.disk.fault_injector, CRASH_BEFORE_JOURNAL_APPEND)
        payload = json.dumps(record, sort_keys=True,
                             separators=(",", ":")).encode("ascii")
        chunks = [payload[i:i + PAGE_SIZE]
                  for i in range(0, len(payload), PAGE_SIZE)]
        with self.disk.charged_to(stats), \
                span_context(tracer, "journal-append"):
            for chunk in chunks:
                self._append_with_retry(chunk, stats)
            stats.journal_pages += len(chunks)
        self.records += 1
        crash_point(self.disk.fault_injector, CRASH_AFTER_JOURNAL_APPEND)
        return len(chunks)

    def truncate_pages(self, keep_pages: int) -> None:
        """Physically drop every journal page past ``keep_pages``.

        Recovery uses this to erase a torn tail so that a second recovery
        of the same journal sees a clean end — truncation is what makes
        replay idempotent.
        """
        f = self.disk.file(JOURNAL_FILE)
        del f.pages[keep_pages:]
        del f.checksums[keep_pages:]

    def _append_with_retry(self, chunk: bytes, stats: QueryStats) -> None:
        for attempt in range(1, MAX_WRITE_RETRIES + 1):
            try:
                self.disk.append_page(JOURNAL_FILE, chunk)
                return
            except TransientIOError as exc:
                stats.io_retries += 1
                stats.retry_backoff_us += _backoff_us(attempt)
                if attempt == MAX_WRITE_RETRIES:
                    raise WriteFaultError(
                        f"journal append to {JOURNAL_FILE!r} failed after "
                        f"{MAX_WRITE_RETRIES} attempts: {exc}"
                    ) from exc


__all__ = ["RedoJournal", "JOURNAL_FILE", "MAX_WRITE_RETRIES"]
