"""Atomic, durable file writes: the one seam every writer goes through.

:func:`atomic_replace` writes a temp file next to the target, fsyncs
it, renames it over the target and fsyncs the directory, so after a
crash the target holds the old bytes or the new ones, never a mix, and
a returned write survives power loss.  Checkpoints, worker results,
spec files, cache entries, metrics and compacted journals all go
through here; heartbeats use ``sync=False`` (atomic, not durable).
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any


def sync_dir(path: str) -> None:
    """fsync directory ``path`` so the renames inside it are durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_replace(path: str, data: bytes, *, sync: bool = True) -> None:
    """Replace ``path`` with ``data`` atomically (durably unless
    ``sync=False``).  On failure the temp file is removed and ``path``
    keeps its previous content."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            if sync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if sync:
        sync_dir(directory)


def atomic_write_json(path: str, payload: Any) -> None:
    """Durably write ``payload`` as indented, key-sorted JSON."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    atomic_replace(path, text.encode())
