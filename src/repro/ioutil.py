"""Crash-safe file primitives shared by the JSONL stores.

Three writers persist campaign state as it happens — the ``runs.jsonl``
run history, the farm's checkpoint store, and the worst-case database
export.  All of them feed the :mod:`repro.store` migration path, so a
torn line or half-written file is not just a local nuisance: it is a
corrupt record a later ``repro store import`` would have to forgive.
This module centralizes the two disciplines that prevent torn data
(the same ones ``benchmarks/conftest.py`` applies to BENCH records):

* **appends** — :func:`durable_append_line`: write the whole line, then
  ``flush`` + ``os.fsync`` so the line either exists completely after a
  crash or not at all (JSONL framing makes a missing trailing line
  recoverable; a buffered half-line is not distinguishable from data);
* **rewrites** — :func:`atomic_write_text`: write to a same-directory
  temp file and ``os.replace`` it over the target, so readers never see
  a truncated file even if the writer dies mid-write.

Reads go through :func:`read_jsonl`, so traces, ``runs.jsonl``,
checkpoints and broker spools agree on what a blank, torn or non-object
line is; each consumer keeps only its record-level rules.

Deliberately dependency-free (stdlib only, no ``repro`` imports) so any
layer — ``repro.obs``, ``repro.farm``, ``repro.core``, ``repro.store``
— can use it without import cycles.
"""

from __future__ import annotations

import json
import os
from itertools import islice
from pathlib import Path
from typing import IO, Any, Dict, Generator, Optional, Tuple, Union


def fsync_handle(handle: IO[str]) -> None:
    """Flush python *and* OS buffers for an open text handle.

    Files without a real descriptor (``io.StringIO`` in tests, pipes on
    exotic platforms) just flush — the durability guarantee is
    best-effort there, matching what the OS can offer.
    """
    handle.flush()
    try:
        os.fsync(handle.fileno())
    except (OSError, ValueError, AttributeError):
        pass


def durable_append_line(handle: IO[str], line: str) -> None:
    """Append one newline-terminated record and make it durable.

    Accepts the record with or without its trailing newline (JSONL
    records never embed one); writing line + terminator in a single call
    keeps the torn-write window to one buffer flush instead of two.
    """
    if not line.endswith("\n"):
        line += "\n"
    handle.write(line)
    fsync_handle(handle)


def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """Replace ``path`` with ``text`` atomically (write-temp + rename).

    The temp file lives next to the target (``os.replace`` must not
    cross filesystems) and is named per-pid so concurrent writers cannot
    collide on the staging file.  Returns the target path.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    staging = target.with_name(target.name + f".tmp{os.getpid()}")
    with staging.open("w") as handle:
        handle.write(text)
        fsync_handle(handle)
    os.replace(staging, target)
    return target


def read_jsonl(
    path: Union[str, Path],
    offset: int = 0,
    limit: Optional[int] = None,
    complete_lines_only: bool = False,
) -> Generator[Tuple[int, Optional[Dict[str, Any]]], None, int]:
    """Stream ``(line_number, record)`` pairs from a JSONL file.

    ``line_number`` is 1-based.  Blank lines are skipped.  A line that
    is torn, not JSON, not UTF-8 or not a JSON object yields ``None`` as
    its record, so each caller decides whether to count, warn or raise.
    Memory stays proportional to one line, never to the file size.

    ``offset`` and ``limit`` count *file lines* (blank ones included),
    so a page boundary is stable while the file grows.  With
    ``complete_lines_only`` a final line missing its newline is left
    unconsumed: it is the record in flight, and a tailing reader picks
    it up whole on its next read.  The generator returns (as
    ``StopIteration.value``) the offset of the next page.  A missing
    file raises :class:`OSError` on the first ``next``.
    """
    stop = None if limit is None else offset + max(limit, 0)
    consumed = offset
    with open(path, "rb") as handle:
        for index, line in enumerate(islice(handle, offset, stop), offset):
            if complete_lines_only and not line.endswith(b"\n"):
                break
            consumed = index + 1
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except (ValueError, RecursionError):
                record = None
            yield consumed, record if isinstance(record, dict) else None
    return consumed
