"""Journal, recovery, and result-cache unit tests.

The crash-safety satellite: torn last lines are clean resumes, anything
worse is a *clear* error — never a crash, never a silent skip.  Plus the
deterministic result cache: hits must be byte-identical and free.
"""

from __future__ import annotations

import errno
import importlib.util
import json
import os
import threading
import time

import pytest

from repro.supervisor import (
    DONE,
    PENDING,
    RUNNING,
    Journal,
    JournalError,
    MeasurementService,
    ResultCache,
    RetryPolicy,
    RunSpec,
    ServiceClient,
    ServiceCore,
    ServiceError,
    StorageError,
    spec_digest,
)

#: Small, fast HPL point used throughout.
HPL_PARAMS = {"n": 1000, "nb": 128, "slice_s": 0.02, "dt_s": 0.01}


def _journal(tmp_path, events):
    path = str(tmp_path / "journal.jsonl")
    j = Journal(path)
    j.open_fresh(meta={"k": 1})
    for event in events:
        j.append(event)
    j.close()
    return path


ADD_A = {"type": "add", "run_id": "a", "kind": "hpl", "params": {"n": 4}}


class TestJournalReplay:
    def test_fold_roundtrip(self, tmp_path):
        path = _journal(
            tmp_path,
            [
                ADD_A,
                {"type": "add", "run_id": "b", "kind": "hpl", "params": {}},
                {"type": "launch", "run_id": "a", "attempt": 1, "slot": 0,
                 "resume_from": None, "pid": 1234},
                {"type": "done", "run_id": "a", "attempt": 1,
                 "result_path": "a/result.json", "cached": False},
                {"type": "launch", "run_id": "b", "attempt": 1, "slot": 1,
                 "resume_from": None, "pid": 1235},
            ],
        )
        state = Journal.replay(path)
        assert state.meta == {"k": 1}
        assert not state.torn_tail
        assert state.records["a"].status == DONE
        assert state.records["a"].result_path == "a/result.json"
        assert state.records["b"].status == RUNNING
        assert state.records["b"].attempts == 1

    def test_retry_and_migration_fold(self, tmp_path):
        path = _journal(
            tmp_path,
            [
                ADD_A,
                {"type": "launch", "run_id": "a", "attempt": 1, "slot": 0,
                 "resume_from": None, "pid": 1},
                {"type": "exit", "run_id": "a", "attempt": 1, "code": -9,
                 "liveness": "stuck", "error": {"type": "StuckWorker"},
                 "checkpoint_path": "a/checkpoint.snap"},
                {"type": "retry", "run_id": "a", "next_attempt": 2,
                 "delay_s": 0.5, "migrated": True, "from_slot": 0},
            ],
        )
        record = Journal.replay(path).records["a"]
        assert record.status == PENDING
        assert record.attempts == 1
        assert record.migrations == 1
        assert record.checkpoint_path == "a/checkpoint.snap"
        assert record.last_error["type"] == "StuckWorker"

    def test_torn_last_line_is_clean_resume(self, tmp_path):
        path = _journal(tmp_path, [ADD_A])
        good_size = os.path.getsize(path)
        with open(path, "a") as fh:
            fh.write('{"type": "done", "run_id": "a", "resu')  # torn append
        state = Journal.replay(path)
        assert state.torn_tail
        assert state.valid_bytes == good_size
        assert state.records["a"].status == PENDING  # torn done dropped

    def test_torn_middle_line_is_an_error(self, tmp_path):
        path = _journal(tmp_path, [ADD_A])
        with open(path, "a") as fh:
            fh.write('{"type": "done", "run_id": "a", "resu\n')  # torn + newline
            fh.write(json.dumps({"type": "complete"}) + "\n")
        with pytest.raises(JournalError, match="not the last line"):
            Journal.replay(path)

    def test_version_mismatch_is_an_error(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps({"type": "header", "version": 999}) + "\n")
        with pytest.raises(JournalError, match="version 999"):
            Journal.replay(path)

    def test_unknown_run_is_an_error(self, tmp_path):
        path = _journal(
            tmp_path,
            [{"type": "done", "run_id": "ghost", "attempt": 1,
              "result_path": "x", "cached": False}],
        )
        with pytest.raises(JournalError, match="unknown run 'ghost'"):
            Journal.replay(path)

    def test_unknown_event_type_is_an_error(self, tmp_path):
        path = _journal(tmp_path, [{"type": "frobnicate", "run_id": "a"}])
        with pytest.raises(JournalError, match="unknown event type"):
            Journal.replay(path)

    def test_duplicate_add_is_an_error(self, tmp_path):
        path = _journal(tmp_path, [ADD_A, ADD_A])
        with pytest.raises(JournalError, match="twice"):
            Journal.replay(path)

    def test_open_append_truncates_torn_tail(self, tmp_path):
        path = _journal(tmp_path, [ADD_A])
        with open(path, "a") as fh:
            fh.write('{"type": "done"')  # crash debris
        state = Journal.replay(path)
        j = Journal(path)
        j.open_append(truncate_to=state.valid_bytes)
        j.append({"type": "complete"})
        j.close()
        # The re-opened journal replays cleanly: debris gone, new event in.
        state2 = Journal.replay(path)
        assert not state2.torn_tail
        assert state2.events == state.events + 1


class TestSupervisorRecovery:
    """End-to-end: a damaged sweep directory resumes or errors clearly."""

    def _completed_sweep(self, tmp_path):
        sup = ServiceCore(
            str(tmp_path / "sweep"),
            backoff_s=0.0,
            checkpoint_every_s=0.04,
            workers=1,
            log=lambda msg: None,
        )
        runs = sup.run([RunSpec("only", "hpl", dict(HPL_PARAMS))])
        assert runs["only"].status == DONE
        return sup

    def test_resume_with_torn_journal_tail(self, tmp_path):
        sup = self._completed_sweep(tmp_path)
        with open(sup.journal_path, "a") as fh:
            fh.write('{"type": "launch", "run_id": "only", "att')
        events = []
        sup2 = ServiceCore(sup.out_dir, workers=1, log=events.append)
        runs = sup2.run([RunSpec("only", "hpl", dict(HPL_PARAMS))], resume=True)
        assert runs["only"].status == DONE
        assert any("torn line" in e for e in events)
        # The sweep is skipped, not re-run: the done event survived.
        assert any("skipped" in e for e in events)

    def test_resume_with_corrupt_journal_is_a_clear_error(self, tmp_path):
        sup = self._completed_sweep(tmp_path)
        lines = open(sup.journal_path).read().splitlines()
        lines[1] = '{"type": "add", "run_'  # torn line NOT at the end
        with open(sup.journal_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        sup2 = ServiceCore(sup.out_dir, workers=1, log=lambda m: None)
        with pytest.raises(JournalError, match="not the last line"):
            sup2.run([RunSpec("only", "hpl", dict(HPL_PARAMS))], resume=True)

    def test_resume_with_empty_journal_starts_fresh(self, tmp_path):
        sup = self._completed_sweep(tmp_path)
        open(sup.journal_path, "w").close()  # crash before header fsync
        events = []
        sup2 = ServiceCore(
            sup.out_dir,
            backoff_s=0.0,
            checkpoint_every_s=0.04,
            workers=1,
            log=events.append,
        )
        runs = sup2.run([RunSpec("only", "hpl", dict(HPL_PARAMS))], resume=True)
        assert runs["only"].status == DONE
        assert any("starting fresh" in e for e in events)

    def test_resume_from_legacy_manifest_only_dir(self, tmp_path):
        """A pre-journal sweep directory (manifest.json, no journal)
        is not imported: the resume starts fresh and reruns the spec."""
        sup = self._completed_sweep(tmp_path)
        os.unlink(sup.journal_path)
        with open(os.path.join(sup.out_dir, "manifest.json"), "w") as fh:
            json.dump({"version": 1, "runs": {"only": {"status": "done"}}}, fh)
        events = []
        sup2 = ServiceCore(
            sup.out_dir,
            backoff_s=0.0,
            checkpoint_every_s=0.04,
            workers=1,
            log=events.append,
        )
        runs = sup2.run([RunSpec("only", "hpl", dict(HPL_PARAMS))], resume=True)
        assert runs["only"].status == DONE
        assert runs["only"].attempts == 1
        assert any("starting fresh" in e for e in events)
        assert os.path.exists(sup.journal_path)


class TestResultCache:
    def test_spec_digest_canonical(self):
        a = spec_digest("hpl", {"n": 1000, "nb": 128})
        b = spec_digest("hpl", {"nb": 128, "n": 1000})  # key order irrelevant
        c = spec_digest("hpl", {"n": 1000, "nb": 64})
        assert a == b
        assert a != c
        assert a != spec_digest("flaky-hpl", {"n": 1000, "nb": 128})

    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), version="v1")
        assert cache.get("hpl", {"n": 4}) is None
        cache.put("hpl", {"n": 4}, {"gflops": 1.5})
        assert cache.get("hpl", {"n": 4}) == {"gflops": 1.5}

    def test_code_version_invalidates(self, tmp_path):
        root = str(tmp_path / "cache")
        ResultCache(root, version="v1").put("hpl", {"n": 4}, {"gflops": 1.5})
        assert ResultCache(root, version="v2").get("hpl", {"n": 4}) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), version="v1")
        path = cache._path(cache.key("hpl", {"n": 4}))
        os.makedirs(os.path.dirname(path))
        with open(path, "w") as fh:
            fh.write("{garbage")
        assert cache.get("hpl", {"n": 4}) is None

    def test_cached_resubmission_launches_zero_workers(self, tmp_path):
        """The acceptance bar: an identical resubmitted sweep is served
        entirely from cache — zero subprocess launches, byte-identical
        results."""
        cache_dir = str(tmp_path / "cache")
        specs = [
            RunSpec("r1", "hpl", dict(HPL_PARAMS)),
            RunSpec("r2", "hpl", dict(HPL_PARAMS, n=2000)),
        ]
        sup1 = ServiceCore(
            str(tmp_path / "a"),
            backoff_s=0.0,
            checkpoint_every_s=0.04,
            workers=2,
            cache_dir=cache_dir,
            log=lambda m: None,
        )
        m1 = sup1.run(specs)
        assert all(rec.status == DONE for rec in m1.values())
        assert not any(rec.cached for rec in m1.values())

        sup2 = ServiceCore(
            str(tmp_path / "b"),
            workers=2,
            cache_dir=cache_dir,
            log=lambda m: None,
        )
        m2 = sup2.run(specs)
        assert all(rec.status == DONE for rec in m2.values())
        assert all(rec.cached for rec in m2.values())
        # Zero launches: no launch event journaled, no launch counted.
        launches = [
            e
            for e in map(json.loads, open(sup2.journal_path))
            if e["type"] == "launch"
        ]
        assert launches == []
        assert ("fleet.launch", None) not in sup2.metrics.counters
        assert sup2.metrics.counters[("fleet.cache_hit", None)] == 2.0
        # Byte-identical result files.
        for rid in ("r1", "r2"):
            a = open(os.path.join(sup1.out_dir, rid, "result.json"), "rb").read()
            b = open(os.path.join(sup2.out_dir, rid, "result.json"), "rb").read()
            assert a == b


class TestJournalCompaction:
    def _busy_journal(self, tmp_path):
        """A journal with a long event history over three runs."""
        path = str(tmp_path / "journal.jsonl")
        j = Journal(path)
        j.open_fresh(meta={"workers": 2})
        j.append({"type": "add", "run_id": "a", "kind": "hpl", "params": {"n": 1}})
        j.append({"type": "add", "run_id": "b", "kind": "hpl", "params": {"n": 2}})
        j.append({"type": "add", "run_id": "c", "kind": "hpl", "params": {"n": 3}})
        for attempt in (1, 2):
            j.append({"type": "launch", "run_id": "a", "attempt": attempt,
                      "slot": 0, "resume_from": None, "pid": 100 + attempt})
            j.append({"type": "exit", "run_id": "a", "attempt": attempt,
                      "code": -9, "liveness": "stuck",
                      "error": {"type": "StuckWorker"},
                      "checkpoint_path": "a/checkpoint.snap"})
            j.append({"type": "retry", "run_id": "a", "next_attempt": attempt + 1,
                      "delay_s": 0.0, "migrated": True, "from_slot": 0})
        j.append({"type": "launch", "run_id": "b", "attempt": 1, "slot": 1,
                  "resume_from": None, "pid": 200})
        j.append({"type": "done", "run_id": "b", "attempt": 1,
                  "result_path": "b/result.json", "cached": False})
        j.append({"type": "launch", "run_id": "c", "attempt": 1, "slot": 0,
                  "resume_from": None, "pid": 300})
        j.close()
        return path

    def test_compaction_preserves_replayed_state(self, tmp_path):
        path = self._busy_journal(tmp_path)
        before = Journal.replay(path)
        size_before = os.path.getsize(path)
        Journal.compact(path)
        after = Journal.replay(path)
        assert os.path.getsize(path) < size_before
        assert set(after.records) == set(before.records)
        for rid, want in before.records.items():
            assert after.records[rid].to_json() == want.to_json(), rid
        # One full-fidelity add per run, nothing else.
        assert after.events == len(before.records)
        # The RUNNING run kept its pid — a rebooting daemon still knows
        # which orphan to reap after compaction.
        assert after.records["c"].last_pid == 300

    def test_compaction_keeps_the_old_history_as_bak(self, tmp_path):
        path = self._busy_journal(tmp_path)
        before = Journal.replay(path)
        Journal.compact(path)
        bak = Journal.replay(path + ".bak")
        assert bak.events == before.events  # the full history, untouched

    def test_compacted_journal_accepts_appends(self, tmp_path):
        path = self._busy_journal(tmp_path)
        Journal.compact(path)
        j = Journal(path)
        j.open_append()
        j.append({"type": "done", "run_id": "c", "attempt": 1,
                  "result_path": "c/result.json", "cached": False})
        j.close()
        state = Journal.replay(path)
        assert state.records["c"].status == DONE

    def test_compaction_refuses_corrupt_input(self, tmp_path):
        path = self._busy_journal(tmp_path)
        lines = open(path).read().splitlines()
        lines[2] = '{"type": "add", "run_'
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        before = open(path, "rb").read()
        with pytest.raises(JournalError):
            Journal.compact(path)
        # Refusal is side-effect free: the journal bytes are untouched.
        assert open(path, "rb").read() == before


class TestResultCacheEviction:
    def _paths(self, cache, ns):
        return {n: cache._path(cache.key("hpl", {"n": n})) for n in ns}

    def test_max_entries_evicts_oldest(self, tmp_path):
        evicted = []
        cache = ResultCache(
            str(tmp_path / "cache"), version="v1",
            max_entries=2, on_evict=evicted.append,
        )
        for i, n in enumerate((1, 2)):
            cache.put("hpl", {"n": n}, {"gflops": float(n)})
            os.utime(self._paths(cache, [n])[n], (100.0 + i, 100.0 + i))
        cache.put("hpl", {"n": 3}, {"gflops": 3.0})
        assert cache.get("hpl", {"n": 1}) is None  # oldest: gone
        assert cache.get("hpl", {"n": 2}) == {"gflops": 2.0}
        assert cache.get("hpl", {"n": 3}) == {"gflops": 3.0}
        assert cache.evictions == 1
        assert evicted == [1]

    def test_hit_refreshes_recency(self, tmp_path):
        cache = ResultCache(
            str(tmp_path / "cache"), version="v1", max_entries=2,
        )
        for i, n in enumerate((1, 2)):
            cache.put("hpl", {"n": n}, {"gflops": float(n)})
            os.utime(self._paths(cache, [n])[n], (100.0 + i, 100.0 + i))
        # A hit on the older entry makes it the newest...
        assert cache.get("hpl", {"n": 1}) == {"gflops": 1.0}
        cache.put("hpl", {"n": 3}, {"gflops": 3.0})
        # ... so the eviction falls on n=2 instead.
        assert cache.get("hpl", {"n": 1}) == {"gflops": 1.0}
        assert cache.get("hpl", {"n": 2}) is None

    def test_max_bytes_evicts_down_to_budget(self, tmp_path):
        cache = ResultCache(
            str(tmp_path / "cache"), version="v1", max_bytes=1,
        )
        # A 1-byte budget can hold nothing: every put evicts what is
        # over budget, including the entry it just stored.
        cache.put("hpl", {"n": 1}, {"gflops": 1.0})
        cache.put("hpl", {"n": 2}, {"gflops": 2.0})
        assert cache.get("hpl", {"n": 1}) is None
        assert cache.get("hpl", {"n": 2}) is None
        assert cache.evictions == 2

    def test_unbounded_cache_never_evicts(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), version="v1")
        for n in range(20):
            cache.put("hpl", {"n": n}, {"gflops": float(n)})
        assert cache.evictions == 0
        assert all(
            cache.get("hpl", {"n": n}) == {"gflops": float(n)}
            for n in range(20)
        )


def _children(pid: int) -> list[int]:
    """Live child pids of ``pid``, from ``/proc``."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                state, ppid = fh.read().rsplit(")", 1)[1].split()[:2]
        except OSError:
            continue
        if int(ppid) == pid and state != "Z":
            kids.append(int(entry))
    return kids


class TestDaemonCrashSafety:
    """SIGKILL the daemon at the worst instants; restart must lose
    nothing and double-run nothing.

    "Nothing lost": every run whose admission was acknowledged (or
    resubmitted — admission is idempotent) reaches ``done``.  "Nothing
    doubled": replay itself proves it — a duplicate ``add`` is a
    :class:`JournalError` — and each run records exactly one ``done``.
    """

    def _assert_exactly_once(self, journal_path, run_ids):
        state = Journal.replay(journal_path)  # raises on duplicated adds
        events = [json.loads(line) for line in open(journal_path)]
        for rid in run_ids:
            assert state.records[rid].status == DONE
            dones = [
                e for e in events
                if e["type"] == "done" and e.get("run_id") == rid
            ]
            assert len(dones) == 1, f"{rid} finished {len(dones)} times"

    def test_sigkill_mid_admission_batch_is_durable(self, tmp_path):
        """The env chaos hook kills the daemon *after* the admission
        batch is fsync'd but *before* anything is enqueued or acked.
        The client saw a transport error; resubmitting after restart
        converges on the already-durable jobs."""
        from tests.test_supervisor_service import _Daemon

        out = str(tmp_path / "svc")
        daemon = _Daemon(
            out, env_extra={"REPRO_SERVICE_KILL_AFTER_ADMIT": "1"}
        )
        specs = [
            RunSpec(f"r{i}", "hpl", dict(HPL_PARAMS, n=1000 + 100 * i))
            for i in range(3)
        ]
        try:
            daemon.wait_ready()
            with pytest.raises(OSError):
                daemon.client(attempts=1).submit(specs)
            assert daemon.proc.wait(timeout=30) != 0  # died by SIGKILL
            # The batch fsync beat the kill: replay already knows them.
            state = Journal.replay(os.path.join(out, "journal.jsonl"))
            assert {s.run_id for s in specs} <= set(state.records)
        finally:
            daemon.stop()

        daemon = _Daemon(out)
        try:
            daemon.wait_ready()
            client = daemon.client()
            verdicts = client.submit(specs)  # idempotent convergence
            assert all(
                v["disposition"] in ("duplicate", "admitted")
                for v in verdicts
            )
            client.wait([s.run_id for s in specs], deadline_s=60)
            client.shutdown()
            daemon.proc.wait(timeout=30)
        finally:
            daemon.stop()
        self._assert_exactly_once(
            os.path.join(out, "journal.jsonl"), [s.run_id for s in specs]
        )

    def test_sigkill_mid_run_reaps_orphan_and_finishes(self, tmp_path):
        """Daemon dies while a worker is wedged mid-run: the worker (its
        own session leader) survives as an orphan.  The rebooted daemon
        must reap it before relaunching the run."""
        import time as _time

        from tests.test_supervisor_pool import _gone
        from tests.test_supervisor_service import _Daemon

        out = str(tmp_path / "svc")
        specs = [
            RunSpec("wedge", "flaky-hpl",
                    dict(HPL_PARAMS, stall_at_s=0.03, stall_on_attempts=[1])),
            RunSpec("calm", "hpl", dict(HPL_PARAMS)),
        ]
        daemon = _Daemon(out, extra=("--stuck-after-s", "60"))
        try:
            daemon.wait_ready()
            client = daemon.client()
            client.submit(specs)
            deadline = _time.monotonic() + 30
            pid = None
            while _time.monotonic() < deadline:
                pid = client.status()["in_flight"].get("wedge")
                if pid is not None:
                    break
                _time.sleep(0.02)
            assert pid is not None, "wedged run never launched"
            [zygote] = _children(daemon.proc.pid)
            daemon.sigkill()
            os.kill(pid, 0)  # the worker outlived its daemon: orphaned
            # The zygote saw EOF on its request pipe and left.
            deadline = _time.monotonic() + 10
            while not _gone(zygote):
                assert _time.monotonic() < deadline, "zygote outlived its daemon"
                _time.sleep(0.05)
        finally:
            daemon.stop()

        daemon = _Daemon(out, extra=("--stuck-after-s", "60"))
        try:
            daemon.wait_ready()
            # Boot reaped the orphan's process group before relaunching.
            deadline = _time.monotonic() + 10
            while _time.monotonic() < deadline:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                _time.sleep(0.05)
            else:
                raise AssertionError(f"orphan worker {pid} still alive")
            client = daemon.client()
            jobs = client.wait(["wedge", "calm"], deadline_s=60)
            assert all(j["status"] == DONE for j in jobs)
            client.shutdown()
            daemon.proc.wait(timeout=30)
        finally:
            daemon.stop()
        self._assert_exactly_once(
            os.path.join(out, "journal.jsonl"), ["wedge", "calm"]
        )

    def test_sigkill_mid_drain_resumes_clean(self, tmp_path):
        """Drain requested, then SIGKILL before it completes: drain is a
        runtime request, not durable state — the rebooted daemon simply
        finishes the journaled backlog."""
        from tests.test_supervisor_service import _Daemon

        out = str(tmp_path / "svc")
        specs = [
            RunSpec(f"r{i}", "hpl", dict(HPL_PARAMS, n=1000 + 100 * i))
            for i in range(4)
        ]
        daemon = _Daemon(out)
        try:
            daemon.wait_ready()
            client = daemon.client()
            client.submit(specs)
            client.drain()
            daemon.sigkill()
        finally:
            daemon.stop()

        daemon = _Daemon(out)
        try:
            daemon.wait_ready()
            client = daemon.client()
            jobs = client.wait([s.run_id for s in specs], deadline_s=60)
            assert all(j["status"] == DONE for j in jobs)
            client.shutdown()
            daemon.proc.wait(timeout=30)
        finally:
            daemon.stop()
        self._assert_exactly_once(
            os.path.join(out, "journal.jsonl"), [s.run_id for s in specs]
        )

    def test_daemon_boot_compacts_an_oversized_journal(self, tmp_path):
        """Past the size threshold, `serve` compacts on boot: same
        replayed state, smaller file, old history in the .bak."""
        from tests.test_supervisor_service import _Daemon

        out = str(tmp_path / "svc")
        # A first daemon builds up real history.
        daemon = _Daemon(out)
        specs = [
            RunSpec(f"r{i}", "hpl", dict(HPL_PARAMS, n=1000 + 100 * i))
            for i in range(3)
        ]
        try:
            daemon.wait_ready()
            client = daemon.client()
            client.submit(specs)
            client.wait([s.run_id for s in specs], deadline_s=60)
            client.shutdown()
            daemon.proc.wait(timeout=30)
        finally:
            daemon.stop()

        journal_path = os.path.join(out, "journal.jsonl")
        before = Journal.replay(journal_path)
        size_before = os.path.getsize(journal_path)

        daemon = _Daemon(out, extra=("--compact-threshold-bytes", "64"))
        try:
            daemon.wait_ready()
            client = daemon.client()
            # Still answers from the (compacted) journal: zero launches.
            verdicts = client.submit(specs)
            assert all(v["disposition"] == "duplicate" for v in verdicts)
            assert all(v["status"] == DONE for v in verdicts)
            client.shutdown()
            daemon.proc.wait(timeout=30)
        finally:
            daemon.stop()

        assert os.path.exists(journal_path + ".bak")
        after = Journal.replay(journal_path)
        assert set(after.records) == set(before.records)
        for rid in before.records:
            assert after.records[rid].status == before.records[rid].status
        # Compacted boot state was smaller than the full history.
        bak_size = os.path.getsize(journal_path + ".bak")
        assert bak_size == size_before


def _enospc() -> OSError:
    return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestStorageFailure:
    """A failed journal fsync is a refusal and a clean stop: no
    traceback, no append after the failure (a later fsync may report
    success for pages the failed one lost), and nothing acked is lost."""

    def test_failed_append_poisons_the_journal(self, tmp_path, monkeypatch):
        path = _journal(tmp_path, [ADD_A])
        journal = Journal(path)
        journal.open_append()
        calls = []

        def fsync(fd):
            calls.append(fd)
            raise _enospc()

        monkeypatch.setattr(os, "fsync", fsync)
        with pytest.raises(StorageError, match="storage"):
            journal.append({"type": "cancel", "run_id": "a"})
        size = os.path.getsize(path)
        with pytest.raises(StorageError):
            journal.append({"type": "complete"})
        journal.close()
        assert len(calls) == 1
        assert os.path.getsize(path) == size

    def test_failed_admission_refuses_stops_and_reboots(self, tmp_path, monkeypatch):
        out = str(tmp_path / "svc")
        kw = dict(backoff_s=0.0, checkpoint_every_s=0.04, log=lambda m: None)
        core = ServiceCore(out, workers=1, **kw)
        core.open()
        service = MeasurementService(core, log=lambda m: None)
        acked = [
            RunSpec(f"a{i}", "hpl", dict(HPL_PARAMS, n=1000 + 100 * i))
            for i in range(3)
        ]
        # ENOSPC on the journal's fsync, only inside the armed admission.
        fault = {"armed": False, "admitting": False, "size": None, "after": 0}
        real_fsync, real_admit = os.fsync, core.admission.admit

        def admit(specs):
            fault["admitting"] = True
            try:
                return real_admit(specs)
            finally:
                fault["admitting"] = False

        def fsync(fd):
            if os.fstat(fd).st_ino == os.stat(core.journal_path).st_ino:
                if fault["size"] is not None:
                    fault["after"] += 1
                elif fault["armed"] and fault["admitting"]:
                    fault["size"] = os.path.getsize(core.journal_path)
                    raise _enospc()
            real_fsync(fd)

        monkeypatch.setattr(core.admission, "admit", admit)
        monkeypatch.setattr(os, "fsync", fsync)
        errors = []

        def serve():
            try:
                service.serve(handle_signals=False)
            except BaseException as exc:
                errors.append(exc)

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            client = ServiceClient(
                service.socket_path,
                retry=RetryPolicy(attempts=3, base_s=0.05, jitter_seed=0),
            )
            deadline = time.monotonic() + 10
            while not os.path.exists(service.socket_path):
                assert time.monotonic() < deadline, "daemon never bound"
                time.sleep(0.01)
            assert all(
                v["disposition"] == "admitted" for v in client.submit(acked)
            )
            fault["armed"] = True
            with pytest.raises(ServiceError, match="storage"):
                client.submit([RunSpec("b", "hpl", dict(HPL_PARAMS, n=1400))])
            thread.join(timeout=30)
            assert not thread.is_alive(), "serve() kept running"
        finally:
            if thread.is_alive():
                service._shutdown = True
                core.request_drain()
                thread.join(timeout=30)
            core.close()
            monkeypatch.undo()

        assert len(errors) == 1 and isinstance(errors[0], StorageError)
        # No append after the failure: close() wrote nothing either.
        assert fault["after"] == 0
        assert os.path.getsize(core.journal_path) == fault["size"]

        reboot = ServiceCore(out, workers=2, **kw)
        runs = reboot.run([], resume=True)
        for spec in acked:
            assert runs[spec.run_id].status == DONE

    def test_sweep_exits_with_the_journal_code(self, tmp_path, monkeypatch, capsys):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        loader = importlib.util.spec_from_file_location(
            "sweep_under_test", os.path.join(root, "tools", "sweep.py")
        )
        sweep = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(sweep)
        out = str(tmp_path / "sweep")
        journal_path = os.path.join(out, "journal.jsonl")
        real_fsync = os.fsync
        journal_syncs = []

        def fsync(fd):
            if os.fstat(fd).st_ino == os.stat(journal_path).st_ino:
                journal_syncs.append(fd)
                if len(journal_syncs) == 2:  # the header, then admission
                    raise _enospc()
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        code = sweep.main(["--out", out, "--workers", "1"])
        assert code == sweep.EXIT_JOURNAL
        assert len(journal_syncs) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "storage" in err[0]
