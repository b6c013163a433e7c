"""Persistent result store for characterization runs (SQLite-backed).

The CLI's ad-hoc JSONL artifacts (``runs.jsonl`` histories, worst-case
database exports) work for one-shot runs; a long-running
characterization service needs a real store.  This package provides it:

* :class:`ResultStore` — one SQLite file with typed tables for run-cost
  records, worst-case test records (deduplicated on test + condition)
  and service jobs;
* :class:`StoreRunHistory` — a ``RunHistory``-shaped adapter so the
  existing ``obs compare`` / ``obs report`` machinery reads the store
  through its ``--db`` flag without new comparison code;
* ``repro store import`` (CLI) — migrates existing JSONL history into
  the store, inheriting the tolerant loader's crash-forgiveness.

The schema (:mod:`repro.store.schema`) is versioned and written in the
SQL subset SQLite shares with PostgreSQL, so scaling the store up is a
connection-string change, not a rewrite.  See ``docs/service.md``.
"""

from repro.store.db import (
    ACTIVE_JOB_STATES,
    JOB_STATES,
    JsonlImportResult,
    ResultStore,
    StoreRunHistory,
)
from repro.store.schema import SCHEMA_VERSION, ensure_schema, schema_version

__all__ = [
    "ACTIVE_JOB_STATES",
    "JOB_STATES",
    "JsonlImportResult",
    "ResultStore",
    "SCHEMA_VERSION",
    "StoreRunHistory",
    "ensure_schema",
    "schema_version",
]
