"""SQLite-backed characterization result store.

:class:`ResultStore` is the persistence layer behind the
characterization service and the ``--db`` variants of the ``obs``
commands.  It holds three kinds of records (see
:mod:`repro.store.schema`): run-cost records, worst-case test records
and service jobs.

Concurrency model: the store opens one short-lived connection per
operation.  That keeps the class thread-safe without sharing
connections across the service's handler and worker threads (SQLite
serializes writers itself; a 30 s busy timeout absorbs contention), and
it is exactly the discipline a Postgres port would replace with a
connection pool.
"""

from __future__ import annotations

import json
import sqlite3
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.core.database import WorstCaseDatabase
from repro.obs.history import RUN_KIND, HistoryLoad, RunHistory
from repro.store.schema import SCHEMA_VERSION, ensure_schema

#: Job states, in lifecycle order.  ``queued`` and ``running`` are the
#: non-terminal states a restarted server marks as failed.
JOB_STATES = ("queued", "running", "completed", "failed", "cancelled")
ACTIVE_JOB_STATES = ("queued", "running")


class ResultStore:
    """One SQLite file holding runs, worst-case records and jobs."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._connect() as conn:
            self.schema_version = ensure_schema(conn)

    @contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        conn = sqlite3.connect(str(self.path), timeout=30.0)
        try:
            yield conn
            conn.commit()
        finally:
            conn.close()

    # -- runs ------------------------------------------------------------------

    def append_run(self, record: Dict[str, object]) -> None:
        """Store one run record (the ``runs.jsonl`` line, as a row).

        The full record is kept as a JSON document; the indexed columns
        are projections for querying.  Append order is preserved (the
        rowid), matching the JSONL history's file order.
        """
        cpu_s = record.get("cpu_s")
        with self._connect() as conn:
            conn.execute(
                "INSERT INTO runs (run, campaign, command, ts, wall_s, "
                "cpu_s, measurements, record) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    str(record.get("run", "")),
                    str(record.get("campaign", "") or ""),
                    str(record.get("command", "") or ""),
                    float(record.get("ts", 0.0) or 0.0),
                    float(record.get("wall_s", 0.0) or 0.0),
                    float(cpu_s) if isinstance(cpu_s, (int, float)) else None,
                    int(record.get("measurements", 0) or 0),
                    json.dumps(record, sort_keys=True),
                ),
            )

    def runs(self) -> List[Dict[str, object]]:
        """Every stored run record, in append order."""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT record FROM runs ORDER BY id"
            ).fetchall()
        return [json.loads(row[0]) for row in rows]

    def run_names(self) -> List[str]:
        """Distinct run names, in first-appearance order."""
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT run FROM runs GROUP BY run ORDER BY MIN(id)"
            ).fetchall()
        return [row[0] for row in rows]

    def find_run(self, name: str) -> Optional[Dict[str, object]]:
        """The most recent record named ``name`` (``None`` if absent)."""
        with self._connect() as conn:
            row = conn.execute(
                "SELECT record FROM runs WHERE run = ? ORDER BY id DESC",
                (name,),
            ).fetchone()
        return json.loads(row[0]) if row else None

    def latest_run(self) -> Optional[Dict[str, object]]:
        """The most recently appended run record."""
        with self._connect() as conn:
            row = conn.execute(
                "SELECT record FROM runs ORDER BY id DESC"
            ).fetchone()
        return json.loads(row[0]) if row else None

    def run_history(self) -> "StoreRunHistory":
        """A :class:`repro.obs.history.RunHistory`-shaped view of ``runs``.

        This is what lets ``obs compare --db`` / ``obs report --db``
        reuse the JSONL comparison code unchanged.
        """
        return StoreRunHistory(self)

    def import_runs_jsonl(
        self, path: Union[str, Path]
    ) -> "JsonlImportResult":
        """Migrate a ``runs.jsonl`` history into the store.

        Uses the history's tolerant loader, so the migration inherits
        its forgiveness: torn lines are counted and skipped,
        unknown-schema records are kept.  Append order is preserved.
        """
        loaded = RunHistory(path).load()
        for record in loaded.records:
            self.append_run(record)
        return JsonlImportResult(
            imported=len(loaded.records),
            dropped_lines=loaded.dropped_lines,
            unknown_schema=loaded.unknown_schema,
        )

    # -- worst-case records ----------------------------------------------------

    def import_wcdb_payload(
        self, payload: Dict[str, object], scope: str = ""
    ) -> int:
        """Import a worst-case database export (``export_payload`` shape).

        Deduplication key is ``(scope, test_name, condition)``: the same
        test at the same operating point appears once per scope.  On a
        duplicate, the *worse* record wins — a larger WCR replaces a
        smaller one, and a functional failure always replaces a
        parametric record (mirroring the paper's "store the worst case"
        intent).  Returns the number of rows inserted or updated.
        """
        changed = 0
        rows = list(payload.get("records") or [])
        rows += list(payload.get("functional_failures") or [])
        with self._connect() as conn:
            for summary in rows:
                changed += self._upsert_wc_record(conn, summary, scope)
        return changed

    def import_wcdb(self, database: WorstCaseDatabase, scope: str = "") -> int:
        """Import a live :class:`WorstCaseDatabase` (same dedup rules)."""
        return self.import_wcdb_payload(database.export_payload(), scope=scope)

    @staticmethod
    def _upsert_wc_record(
        conn: sqlite3.Connection, summary: Dict[str, object], scope: str
    ) -> int:
        condition = json.dumps(summary.get("condition") or {}, sort_keys=True)
        test_name = str(summary.get("test_name") or "")
        is_failure = 1 if summary.get("functional_failure") else 0
        wcr = summary.get("wcr")
        existing = conn.execute(
            "SELECT wcr, functional_failure FROM worst_case_records "
            "WHERE scope = ? AND test_name = ? AND condition = ?",
            (scope, test_name, condition),
        ).fetchone()
        if existing is not None:
            old_wcr, old_failure = existing
            keep_new = (
                (is_failure and not old_failure)
                or (
                    is_failure == old_failure
                    and wcr is not None
                    and (old_wcr is None or float(wcr) > float(old_wcr))
                )
            )
            if not keep_new:
                return 0
        conn.execute(
            "INSERT INTO worst_case_records (scope, test_name, condition, "
            "technique, cycles, measured_value, wcr, wcr_class, "
            "functional_failure, note) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?) "
            "ON CONFLICT (scope, test_name, condition) DO UPDATE SET "
            "technique = excluded.technique, cycles = excluded.cycles, "
            "measured_value = excluded.measured_value, wcr = excluded.wcr, "
            "wcr_class = excluded.wcr_class, "
            "functional_failure = excluded.functional_failure, "
            "note = excluded.note",
            (
                scope,
                test_name,
                condition,
                str(summary.get("technique") or ""),
                summary.get("cycles"),
                summary.get("measured_value"),
                wcr,
                summary.get("wcr_class"),
                is_failure,
                str(summary.get("note") or ""),
            ),
        )
        return 1

    def export_wcdb_payload(self, scope: Optional[str] = None) -> Dict[str, object]:
        """Rebuild the ``WorstCaseDatabase.export_payload`` shape.

        Parametric records come ranked worst-first (ties keep insertion
        order, like :meth:`WorstCaseDatabase.ranked`), functional
        failures in insertion order.  ``scope=None`` exports everything.
        """
        where, params = "", ()
        if scope is not None:
            where, params = "AND scope = ?", (scope,)
        with self._connect() as conn:
            records = conn.execute(
                "SELECT test_name, condition, technique, cycles, "
                "measured_value, wcr, wcr_class, functional_failure, note "
                f"FROM worst_case_records WHERE functional_failure = 0 {where} "
                "ORDER BY wcr DESC, id",
                params,
            ).fetchall()
            failures = conn.execute(
                "SELECT test_name, condition, technique, cycles, "
                "measured_value, wcr, wcr_class, functional_failure, note "
                f"FROM worst_case_records WHERE functional_failure = 1 {where} "
                "ORDER BY id",
                params,
            ).fetchall()
        return {
            "records": [self._wc_summary(row) for row in records],
            "functional_failures": [self._wc_summary(row) for row in failures],
        }

    @staticmethod
    def _wc_summary(row) -> Dict[str, object]:
        (test_name, condition, technique, cycles, measured_value, wcr,
         wcr_class, functional_failure, note) = row
        return {
            "test_name": test_name,
            "technique": technique,
            "cycles": cycles,
            "condition": json.loads(condition),
            "measured_value": measured_value,
            "wcr": wcr,
            "wcr_class": wcr_class,
            "functional_failure": bool(functional_failure),
            "note": note,
        }

    def wc_record_count(self, scope: Optional[str] = None) -> int:
        """Stored worst-case rows (failures included)."""
        where, params = "", ()
        if scope is not None:
            where, params = "WHERE scope = ?", (scope,)
        with self._connect() as conn:
            row = conn.execute(
                f"SELECT COUNT(*) FROM worst_case_records {where}", params
            ).fetchone()
        return int(row[0])

    # -- jobs ------------------------------------------------------------------

    def create_job(
        self,
        job_id: str,
        spec: Dict[str, object],
        job_dir: str = "",
        state: str = "queued",
        request_id: str = "",
    ) -> Dict[str, object]:
        """Insert a new job row; returns it as a dict."""
        if state not in JOB_STATES:
            raise ValueError(f"unknown job state {state!r}")
        with self._connect() as conn:
            conn.execute(
                "INSERT INTO jobs (job_id, state, spec, created_ts, job_dir, "
                "request_id) VALUES (?, ?, ?, ?, ?, ?)",
                (job_id, state, json.dumps(spec, sort_keys=True),
                 time.time(), job_dir, request_id),
            )
        job = self.get_job(job_id)
        assert job is not None
        return job

    def update_job(self, job_id: str, **fields: object) -> None:
        """Update job columns (``state``, ``started_ts``, ``error``, ...)."""
        allowed = {
            "state", "started_ts", "finished_ts", "exit_code", "error",
            "job_dir", "request_id",
        }
        unknown = set(fields) - allowed
        if unknown:
            raise ValueError(f"unknown job fields: {sorted(unknown)}")
        state = fields.get("state")
        if state is not None and state not in JOB_STATES:
            raise ValueError(f"unknown job state {state!r}")
        if not fields:
            return
        names = sorted(fields)
        assignments = ", ".join(f"{name} = ?" for name in names)
        with self._connect() as conn:
            conn.execute(
                f"UPDATE jobs SET {assignments} WHERE job_id = ?",
                tuple(fields[name] for name in names) + (job_id,),
            )

    def get_job(self, job_id: str) -> Optional[Dict[str, object]]:
        """One job row as a dict (spec parsed), or ``None``."""
        with self._connect() as conn:
            row = conn.execute(
                f"SELECT {_JOB_COLUMNS} FROM jobs WHERE job_id = ?",
                (job_id,),
            ).fetchone()
        return _job_row_to_dict(row) if row else None

    def list_jobs(
        self, states: Optional[List[str]] = None
    ) -> List[Dict[str, object]]:
        """All jobs (optionally filtered by state), oldest first."""
        query = f"SELECT {_JOB_COLUMNS} FROM jobs"
        params: tuple = ()
        if states:
            placeholders = ", ".join("?" for _ in states)
            query += f" WHERE state IN ({placeholders})"
            params = tuple(states)
        query += " ORDER BY created_ts, job_id"
        with self._connect() as conn:
            rows = conn.execute(query, params).fetchall()
        return [_job_row_to_dict(row) for row in rows]

    def fail_interrupted_jobs(
        self, error: str = "interrupted by server restart"
    ) -> List[str]:
        """Mark every queued/running job failed; returns their ids.

        Called by the service on startup: those jobs' worker threads
        died with the previous process, so the rows would otherwise
        claim progress forever.
        """
        interrupted = [
            str(job["job_id"])
            for job in self.list_jobs(states=list(ACTIVE_JOB_STATES))
        ]
        now = time.time()
        with self._connect() as conn:
            conn.execute(
                "UPDATE jobs SET state = 'failed', error = ?, "
                "finished_ts = ? WHERE state IN ('queued', 'running')",
                (error, now),
            )
        return interrupted


_JOB_COLUMNS = (
    "job_id, state, spec, created_ts, started_ts, finished_ts, "
    "exit_code, error, job_dir, request_id"
)


def _job_row_to_dict(row) -> Dict[str, object]:
    (job_id, state, spec, created_ts, started_ts, finished_ts, exit_code,
     error, job_dir, request_id) = row
    return {
        "job_id": job_id,
        "state": state,
        "spec": json.loads(spec),
        "created_ts": created_ts,
        "started_ts": started_ts,
        "finished_ts": finished_ts,
        "exit_code": exit_code,
        "error": error,
        "job_dir": job_dir,
        "request_id": request_id,
    }


class JsonlImportResult:
    """Outcome of a ``runs.jsonl`` migration."""

    def __init__(
        self, imported: int, dropped_lines: int, unknown_schema: int
    ) -> None:
        self.imported = imported
        self.dropped_lines = dropped_lines
        self.unknown_schema = unknown_schema

    def describe(self) -> str:
        parts = [f"{self.imported} record(s) imported"]
        if self.dropped_lines:
            parts.append(f"{self.dropped_lines} malformed line(s) skipped")
        if self.unknown_schema:
            parts.append(
                f"{self.unknown_schema} unknown-schema record(s) kept"
            )
        return ", ".join(parts)


class StoreRunHistory:
    """:class:`ResultStore` adapter with the ``RunHistory`` interface.

    ``obs compare``/``obs report`` accept either a
    JSONL history or this adapter; the comparison logic
    (:func:`repro.obs.history.compare_runs`) never knows which backend
    it is reading.
    """

    def __init__(self, store: ResultStore) -> None:
        self.store = store
        self.path = store.path  # compare_runs names this in errors

    def append(self, record: Dict[str, object]) -> None:
        self.store.append_run(record)

    def load(self) -> HistoryLoad:
        records = [
            record
            for record in self.store.runs()
            if record.get("kind") == RUN_KIND or "run" in record
        ]
        return HistoryLoad(records=records)

    def next_default_name(self) -> str:
        return f"run-{len(self.store.runs())}"

    def find(self, name: str) -> Optional[Dict[str, object]]:
        return self.store.find_run(name)

    def latest(self) -> Optional[Dict[str, object]]:
        return self.store.latest_run()


__all__ = [
    "ACTIVE_JOB_STATES",
    "JOB_STATES",
    "JsonlImportResult",
    "ResultStore",
    "SCHEMA_VERSION",
    "StoreRunHistory",
]
