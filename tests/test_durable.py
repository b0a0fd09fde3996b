"""The durable-write seam: every writer renames atomically, fsyncs the
parent directory after the rename (heartbeats excepted: they are
advisory and never fsync), and a failed write leaves the old file and
no temp file behind."""

from __future__ import annotations

import errno
import os
import stat

import pytest

from repro.checkpoint.durable import atomic_write_json
from repro.checkpoint.snapshot import save_object
from repro.supervisor import Journal, ResultCache, RunRecord, write_heartbeat
from repro.supervisor.queue import cached_done


def _checkpoint(d, version):
    path = os.path.join(d, "checkpoint.snap")
    save_object({"version": version}, path)
    return path


def _result(d, version):
    record = RunRecord(run_id="r", kind="hpl", params={})
    return cached_done(d, record, {"gflops": float(version)})["result_path"]


def _spec(d, version):
    path = os.path.join(d, "spec.json")
    atomic_write_json(path, {"run_id": "r", "attempt": version})
    return path


def _cache(d, version):
    cache = ResultCache(os.path.join(d, "cache"), version="v1")
    return cache.put("hpl", {"n": 4}, {"gflops": float(version)})


def _compact(d, version):
    path = os.path.join(d, "journal.jsonl")
    if version == 1:
        j = Journal(path)
        j.open_fresh(meta={"k": 1})
        j.append({"type": "add", "run_id": "a", "kind": "hpl", "params": {}})
        j.append({"type": "cancel", "run_id": "a"})
        j.close()
    else:
        Journal.compact(path)
    return path


def _heartbeat(d, version):
    path = os.path.join(d, "heartbeat.json")
    write_heartbeat(path, pid=1, attempt=version, sim_time_s=0.5 * version)
    return path


DURABLE = [_checkpoint, _result, _spec, _cache, _compact]
WRITERS = [*DURABLE, _heartbeat]


class _FsyncSpy:
    """Records every fsync as ``(kind, inode)`` plus, for directories,
    the bytes ``target`` held at that instant."""

    def __init__(self, monkeypatch, target: str = "", fail: bool = False):
        self.calls: list[tuple[str, int, bytes | None]] = []
        self.target = target
        self.fail = fail
        real = os.fsync

        def fsync(fd):
            st = os.fstat(fd)
            kind = "dir" if stat.S_ISDIR(st.st_mode) else "file"
            content = None
            if kind == "dir" and os.path.exists(self.target):
                with open(self.target, "rb") as fh:
                    content = fh.read()
            self.calls.append((kind, st.st_ino, content))
            if self.fail:
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            real(fd)

        monkeypatch.setattr(os, "fsync", fsync)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _tmp_files(d):
    return [
        os.path.join(root, name)
        for root, _, names in os.walk(d)
        for name in names
        if name.endswith(".tmp")
    ]


@pytest.mark.parametrize("writer", WRITERS, ids=lambda w: w.__name__.strip("_"))
def test_writer_goes_through_the_seam(writer, tmp_path, monkeypatch):
    d = str(tmp_path)
    path = writer(d, 1)
    old = _read(path)
    spy = _FsyncSpy(monkeypatch, target=path)
    assert writer(d, 2) == path
    new = _read(path)
    assert new != old
    if writer is _heartbeat:
        assert spy.calls == []
        return
    parent = os.stat(os.path.dirname(path)).st_ino
    dir_syncs = [c for c in spy.calls if c[0] == "dir" and c[1] == parent]
    assert dir_syncs, "parent directory never fsynced"
    # After the rename: the directory fsync already sees the new bytes.
    assert dir_syncs[-1][2] == new
    assert _tmp_files(d) == []


@pytest.mark.parametrize("writer", DURABLE, ids=lambda w: w.__name__.strip("_"))
def test_failed_fsync_keeps_the_old_file(writer, tmp_path, monkeypatch):
    d = str(tmp_path)
    path = writer(d, 1)
    old = _read(path)
    _FsyncSpy(monkeypatch, fail=True)
    with pytest.raises(OSError):
        writer(d, 2)
    assert _read(path) == old
    assert _tmp_files(d) == []
