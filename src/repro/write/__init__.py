"""repro.write — delta store, MVCC snapshots, and the tuple mover's API.

See ``docs/writes.md``.  The package makes both engines writable without
touching their read-optimized formats: writes buffer in a row-format WOS
(:class:`WriteStore`) behind a priced redo journal (:class:`RedoJournal`);
snapshot reads pin an epoch and merge base pages with the delta
(:class:`Visibility`, :func:`delta_partial`); the engines' tuple movers
drain the WOS into fresh base pages and advance the merge horizon.
Cold-start crash recovery (:mod:`repro.write.recovery`) replays the
journal after a simulated crash — see ``docs/writes.md``, "Crash
recovery", and the durability verifier ``python -m repro.write.verify``.
"""

from .delta import delta_partial
from .journal import JOURNAL_FILE, MAX_WRITE_RETRIES, RedoJournal
from .recovery import (
    CrashHarness,
    RecoveryReport,
    recover_store,
    scan_journal,
)
from .store import (
    FACT_TABLE,
    VALIDATED_FOREIGN_KEYS,
    Visibility,
    WosRow,
    WriteStore,
    projection_deleted_positions,
)

__all__ = [
    "WriteStore",
    "Visibility",
    "WosRow",
    "RedoJournal",
    "delta_partial",
    "FACT_TABLE",
    "VALIDATED_FOREIGN_KEYS",
    "JOURNAL_FILE",
    "MAX_WRITE_RETRIES",
    "projection_deleted_positions",
    "CrashHarness",
    "RecoveryReport",
    "recover_store",
    "scan_journal",
]
