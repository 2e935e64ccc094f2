"""Run observability: live JSONL journal, metrics tailer, checkpoint/resume.

Three pieces, one artifact directory (``run_dir``):

* :mod:`repro.observe.journal` — :class:`RunRecorder` hooks into the event
  core and appends one record per typed event to ``journal.jsonl``, plus
  a full-state snapshot per closed round under ``snapshots/``.
* :mod:`repro.observe.metrics` — :class:`JournalTailer` follows a live or
  finished journal; :class:`MetricsStore` keeps rolling aggregates
  (throughput, staleness quantiles, drop rate, accuracy, controller
  trajectories).  CLI: ``python -m repro watch <run_dir>``.
* :mod:`repro.observe.snapshot` — resumable core snapshots;
  ``repro run --resume <run_dir>`` continues a stopped run bit-identically.

Plus :mod:`repro.observe.profile` — the :class:`HotPathProfiler` per-phase
wall counters the event core feeds while a run executes; recorded runs
journal the summary as a ``profile`` record which ``repro watch --summary``
surfaces as a ``hotpath:`` line.
"""

from repro.observe.journal import JOURNAL_SCHEMA_VERSION, RunRecorder, journal_path
from repro.observe.metrics import JournalTailer, MetricsStore, read_journal
from repro.observe.profile import PROFILE_PHASES, HotPathProfiler, format_hotpath
from repro.observe.snapshot import (
    SNAPSHOT_SCHEMA_VERSION,
    latest_snapshot,
    load_snapshot,
    model_hash,
    restore_core,
    save_snapshot,
    snapshot_core,
)

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "RunRecorder",
    "journal_path",
    "JournalTailer",
    "MetricsStore",
    "read_journal",
    "SNAPSHOT_SCHEMA_VERSION",
    "snapshot_core",
    "restore_core",
    "save_snapshot",
    "load_snapshot",
    "latest_snapshot",
    "model_hash",
    "PROFILE_PHASES",
    "HotPathProfiler",
    "format_hotpath",
]
