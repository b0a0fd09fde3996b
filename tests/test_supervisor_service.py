"""The measurement daemon: admission, job API, retry policy, 10^4 scale.

Three layers under test:

* :class:`ServiceCore` in-process — idempotent/bounded/durable admission,
  cancel (pending and running), the cancel→resubmit relaunch guard;
* the real daemon over its unix socket (``tools/sweep.py serve``) —
  submit/poll/wait/stream/status/shutdown, stale-socket recovery;
* :class:`RetryPolicy` on a fake clock — deterministic schedules, no
  real sleeping.

The ``slow``-marked stress test is the 10^4 acceptance bar: one batched
submit of ten thousand specs must land within a wall-time bound, in
bounded memory, with a single journal fsync — and resubmitting the same
batch must be pure dedup (zero new journal bytes).
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest

from repro.supervisor import (
    CANCELLED,
    DONE,
    PENDING,
    Journal,
    ResultCache,
    RetryPolicy,
    RunSpec,
    ServiceClient,
    ServiceCore,
    ServiceError,
    spec_digest,
)

#: Small, fast HPL point used throughout.
HPL_PARAMS = {"n": 1000, "nb": 128, "slice_s": 0.02, "dt_s": 0.01}

SWEEP = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tools",
    "sweep.py",
)


#: Cores opened by the running test; their pools are closed after it.
_OPENED: list[ServiceCore] = []


@pytest.fixture(autouse=True)
def _close_pools():
    """Reap every pool's zygote (and any worker left in flight), also
    for tests that end without ``core.close()``."""
    yield
    while _OPENED:
        core = _OPENED.pop()
        if core.pool is not None:
            core.pool.close()


def _core(tmp_path, **kwargs) -> ServiceCore:
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("backoff_s", 0.0)
    kwargs.setdefault("checkpoint_every_s", 0.04)
    kwargs.setdefault("log", lambda m: None)
    core = ServiceCore(str(tmp_path / "svc"), **kwargs)
    core.open(resume=kwargs.get("resume", False))
    _OPENED.append(core)
    return core


def _events(core, etype=None):
    with open(core.journal_path) as fh:
        events = [json.loads(line) for line in fh]
    if etype is not None:
        events = [e for e in events if e["type"] == etype]
    return events


class TestCoreAdmission:
    def test_submit_runs_to_done(self, tmp_path):
        core = _core(tmp_path)
        verdicts = core.submit([RunSpec("r1", "hpl", dict(HPL_PARAMS))])
        assert verdicts == [
            {"run_id": "r1", "disposition": "admitted", "status": PENDING}
        ]
        core.run_until_idle()
        core.close()
        assert core.records["r1"].status == DONE

    def test_idempotent_by_digest(self, tmp_path):
        """The same spec under any id converges on one job: duplicate
        verdicts point at the existing run, nothing is re-journaled."""
        core = _core(tmp_path)
        spec = RunSpec("r1", "hpl", dict(HPL_PARAMS))
        core.submit([spec])
        size = core.journal.size_bytes
        again = core.submit(
            [RunSpec("r1", "hpl", dict(HPL_PARAMS)),
             RunSpec("other-name", "hpl", dict(HPL_PARAMS)),
             RunSpec("", "hpl", dict(HPL_PARAMS))]
        )
        assert [v["disposition"] for v in again] == ["duplicate"] * 3
        assert {v["run_id"] for v in again} == {"r1"}
        assert core.journal.size_bytes == size  # pure dedup: no new bytes
        assert len(core.records) == 1

    def test_anonymous_spec_gets_digest_id(self, tmp_path):
        core = _core(tmp_path)
        [verdict] = core.submit([RunSpec("", "hpl", dict(HPL_PARAMS))])
        digest = spec_digest("hpl", dict(HPL_PARAMS))
        assert verdict["run_id"] == f"hpl-{digest[:12]}"

    def test_id_conflict_is_rejected(self, tmp_path):
        core = _core(tmp_path)
        core.submit([RunSpec("r1", "hpl", dict(HPL_PARAMS))])
        [verdict] = core.submit([RunSpec("r1", "hpl", dict(HPL_PARAMS, n=2000))])
        assert verdict["disposition"] == "rejected"
        assert "different spec" in verdict["reason"]

    def test_backpressure_rejects_past_max_pending(self, tmp_path):
        core = _core(tmp_path, max_pending=2)
        specs = [
            RunSpec(f"r{i}", "hpl", dict(HPL_PARAMS, n=1000 + i))
            for i in range(5)
        ]
        verdicts = core.submit(specs)
        dispositions = [v["disposition"] for v in verdicts]
        assert dispositions == ["admitted", "admitted"] + ["rejected"] * 3
        assert all("queue full" in v["reason"] for v in verdicts[2:])
        # Explicit backpressure, never a silent drop: the rejected specs
        # left no trace in the records or the journal.
        assert len(core.records) == 2
        rejected = core.metrics.counters[("fleet.admission_rejected", "full")]
        assert rejected == 3.0
        # ... and once the backlog drains, headroom reopens: two more fit
        # (the cap is still 2), the fifth waits for the next drain.
        core.run_until_idle()
        verdicts = core.submit(specs)
        assert [v["disposition"] for v in verdicts] == (
            ["duplicate", "duplicate", "admitted", "admitted", "rejected"]
        )
        core.run_until_idle()
        [verdict] = core.submit([specs[4]])
        assert verdict["disposition"] == "admitted"
        core.run_until_idle()
        core.close()
        assert all(r.status == DONE for r in core.records.values())

    def test_failed_spec_requeues_with_fresh_budget(self, tmp_path):
        core = _core(tmp_path, max_attempts=1)
        spec = RunSpec(
            "boom", "flaky-hpl",
            dict(HPL_PARAMS, crash_at_s=0.02, crash_on_attempts=[1, 2, 3]),
        )
        core.submit([spec])
        core.run_until_idle()
        assert core.records["boom"].status == "failed"
        [verdict] = core.submit([spec])
        assert verdict["disposition"] == "requeued"
        assert core.records["boom"].attempts == 0
        core.close()

    def test_admission_cache_hit_is_zero_launch(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        warm = ServiceCore(
            str(tmp_path / "warm"), workers=1, backoff_s=0.0,
            cache_dir=cache_dir, log=lambda m: None,
        )
        warm.open()
        warm.submit([RunSpec("r1", "hpl", dict(HPL_PARAMS))])
        warm.run_until_idle()
        warm.close()

        core = ServiceCore(
            str(tmp_path / "svc"), workers=1, cache_dir=cache_dir,
            log=lambda m: None,
        )
        core.open()
        [verdict] = core.submit([RunSpec("r2", "hpl", dict(HPL_PARAMS))])
        core.close()
        assert verdict["disposition"] == "cached"
        assert verdict["status"] == DONE
        assert _events(core, "launch") == []
        assert core.records["r2"].cached
        # The cached result was journaled inside the admission batch.
        [done] = _events(core, "done")
        assert done["cached"] is True

    def test_cancel_pending_never_launches(self, tmp_path):
        core = _core(tmp_path)
        core.submit([RunSpec("r1", "hpl", dict(HPL_PARAMS))])
        verdict = core.cancel("r1")
        assert verdict["disposition"] == "cancelled-pending"
        core.run_until_idle()
        core.close()
        assert core.records["r1"].status == CANCELLED
        assert _events(core, "launch") == []
        # The cancel is durable: replay agrees.
        state = Journal.replay(core.journal_path)
        assert state.records["r1"].status == CANCELLED

    def test_cancel_running_kills_the_worker(self, tmp_path):
        core = _core(
            tmp_path,
            workers=1,
            stuck_after_s=60.0,
            poll_interval_s=0.01,
        )
        # A run that wedges on attempt 1 stays in flight until cancelled.
        core.submit([
            RunSpec("wedge", "flaky-hpl",
                    dict(HPL_PARAMS, stall_at_s=0.03, stall_on_attempts=[1]))
        ])
        deadline = time.monotonic() + 30
        while not core.pool.in_flight and time.monotonic() < deadline:
            core.step()
            time.sleep(0.01)
        assert core.pool.in_flight, "worker never launched"
        pid = core.pool.in_flight["wedge"]
        verdict = core.cancel("wedge")
        assert verdict["disposition"] == "cancelled-running"
        core.run_until_idle()
        core.close()
        assert core.records["wedge"].status == CANCELLED
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    def test_cancel_then_resubmit_launches_exactly_once(self, tmp_path):
        """The stale-heap-entry guard: a cancelled-then-requeued run must
        launch once, not once per heap entry."""
        core = _core(tmp_path, workers=2)
        spec = RunSpec("r1", "hpl", dict(HPL_PARAMS))
        core.submit([spec])
        core.cancel("r1")
        [verdict] = core.submit([spec])
        assert verdict["disposition"] == "requeued"
        core.run_until_idle()
        core.close()
        assert core.records["r1"].status == DONE
        assert len(_events(core, "launch")) == 1


class _Daemon:
    """A real ``sweep.py serve`` subprocess plus its client."""

    def __init__(self, out_dir: str, extra=(), env_extra=None):
        self.out_dir = out_dir
        env = dict(os.environ)
        env.update(env_extra or {})
        self.proc = subprocess.Popen(
            [sys.executable, SWEEP, "serve", "--out", out_dir,
             "--workers", "2", "--backoff-s", "0", *extra],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        self.socket_path = os.path.join(out_dir, "service.sock")

    def wait_ready(self, timeout_s: float = 30.0) -> None:
        deadline = time.monotonic() + timeout_s
        client = ServiceClient(
            self.socket_path, retry=RetryPolicy(attempts=1)
        )
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise AssertionError(
                    f"daemon exited {self.proc.returncode} before ready"
                )
            try:
                client.ping()
                return
            except OSError:
                time.sleep(0.05)
        raise AssertionError("daemon never became ready")

    def client(self, attempts: int = 3) -> ServiceClient:
        return ServiceClient(
            self.socket_path,
            retry=RetryPolicy(attempts=attempts, base_s=0.1, jitter_seed=0),
        )

    def sigkill(self) -> None:
        self.proc.kill()
        self.proc.wait()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


class TestDaemon:
    def test_submit_wait_poll_shutdown(self, tmp_path):
        daemon = _Daemon(str(tmp_path / "svc"))
        try:
            daemon.wait_ready()
            client = daemon.client()
            specs = [
                RunSpec("r1", "hpl", dict(HPL_PARAMS)),
                RunSpec("r2", "hpl", dict(HPL_PARAMS, n=2000)),
            ]
            verdicts = client.submit(specs)
            assert [v["disposition"] for v in verdicts] == ["admitted"] * 2
            jobs = client.wait(["r1", "r2"], deadline_s=60)
            assert all(job["status"] == DONE for job in jobs)
            # Resubmission over the wire: duplicate, already done.
            verdicts = client.submit(specs)
            assert [v["disposition"] for v in verdicts] == ["duplicate"] * 2
            assert all(v["status"] == DONE for v in verdicts)
            status = client.status()
            assert status["counts"] == {DONE: 2}
            client.shutdown()
            assert daemon.proc.wait(timeout=30) == 0
            assert not os.path.exists(daemon.socket_path)
        finally:
            daemon.stop()

    def test_stream_follows_a_run_to_done(self, tmp_path):
        daemon = _Daemon(str(tmp_path / "svc"))
        try:
            daemon.wait_ready()
            client = daemon.client()
            client.submit([RunSpec("r1", "hpl", dict(HPL_PARAMS))])
            types = [e["type"] for e in client.stream("r1")]
            assert types[0] == "add"
            assert "launch" in types
            assert types[-1] == "done"
        finally:
            daemon.stop()

    def test_stale_socket_is_replaced_on_boot(self, tmp_path):
        out = str(tmp_path / "svc")
        os.makedirs(out)
        # Crash debris: a socket file nobody is listening on.
        import socket as socketlib

        stale = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        stale.bind(os.path.join(out, "service.sock"))
        stale.close()  # closed listener → connects refused → stale
        daemon = _Daemon(out)
        try:
            daemon.wait_ready()
            assert daemon.client().ping()["ok"]
        finally:
            daemon.stop()

    def test_unknown_run_poll_and_cancel(self, tmp_path):
        daemon = _Daemon(str(tmp_path / "svc"))
        try:
            daemon.wait_ready()
            client = daemon.client()
            [job] = client.poll(["ghost"])
            assert job == {"run_id": "ghost", "status": "unknown"}
            assert client.cancel("ghost")["disposition"] == "unknown"
        finally:
            daemon.stop()


def _raw_roundtrip(socket_path: str, line: bytes) -> dict:
    """Send one raw line over the daemon socket, bypassing ServiceClient."""
    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        conn.connect(socket_path)
        conn.sendall(line)
        buf = bytearray()
        while b"\n" not in buf:
            chunk = conn.recv(65536)
            if not chunk:
                break
            buf += chunk
        return json.loads(bytes(buf).split(b"\n", 1)[0].decode())
    finally:
        conn.close()


class TestWireCorrelation:
    """Every reply — including errors — must echo the request's op/id so
    a client multiplexing requests can match replies to them."""

    def test_unknown_op_reply_echoes_correlation_fields(self, tmp_path):
        daemon = _Daemon(str(tmp_path / "svc"))
        try:
            daemon.wait_ready()
            reply = _raw_roundtrip(
                daemon.socket_path, b'{"op": "frob", "id": 77}\n'
            )
            assert reply["ok"] is False
            assert "unknown op" in reply["error"]
            assert reply["op"] == "frob"
            assert reply["id"] == 77
        finally:
            daemon.stop()

    def test_malformed_line_reply_carries_null_correlation(self, tmp_path):
        daemon = _Daemon(str(tmp_path / "svc"))
        try:
            daemon.wait_ready()
            reply = _raw_roundtrip(daemon.socket_path, b"{not json\n")
            assert reply["ok"] is False
            assert "malformed" in reply["error"]
            # Uncorrelatable, not mismatched: explicit nulls.
            assert reply["op"] is None
            assert reply["id"] is None
        finally:
            daemon.stop()

    def test_bad_request_error_is_still_correlated(self, tmp_path):
        daemon = _Daemon(str(tmp_path / "svc"))
        try:
            daemon.wait_ready()
            reply = _raw_roundtrip(
                daemon.socket_path, b'{"op": "cancel", "id": 3}\n'
            )
            assert reply["ok"] is False
            assert reply["op"] == "cancel"
            assert reply["id"] == 3
        finally:
            daemon.stop()

    def test_client_rejects_mismatched_reply_id(self, tmp_path):
        """A rogue server answering with someone else's id must surface
        as a correlation error, not be silently accepted."""
        socket_path = str(tmp_path / "rogue.sock")
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        server.bind(socket_path)
        server.listen(1)

        def serve_one():
            conn, _ = server.accept()
            with conn:
                buf = bytearray()
                while b"\n" not in buf:
                    chunk = conn.recv(65536)
                    if not chunk:
                        return
                    buf += chunk
                request = json.loads(bytes(buf).split(b"\n", 1)[0].decode())
                reply = {"ok": True, "op": request.get("op"), "id": -999}
                conn.sendall((json.dumps(reply) + "\n").encode())

        thread = threading.Thread(target=serve_one, daemon=True)
        thread.start()
        try:
            client = ServiceClient(
                socket_path, retry=RetryPolicy(attempts=1)
            )
            with pytest.raises(ServiceError, match="correlation mismatch"):
                client.ping()
        finally:
            server.close()
            thread.join(timeout=5)


class FakeTime:
    """Injectable clock/sleep: sleeping advances the clock, instantly."""

    def __init__(self):
        self.now = 0.0
        self.slept: list[float] = []

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.slept.append(seconds)
        self.now += seconds


class TestRetryPolicy:
    def test_schedule_is_deterministic(self):
        a = RetryPolicy(attempts=5, base_s=0.2, jitter_seed=7).delays("submit")
        b = RetryPolicy(attempts=5, base_s=0.2, jitter_seed=7).delays("submit")
        c = RetryPolicy(attempts=5, base_s=0.2, jitter_seed=7).delays("poll")
        assert a == b
        assert a != c  # per-label jitter desyncs clients
        assert len(a) == 4
        assert all(d > 0 for d in a)

    def test_retries_transport_errors_then_succeeds(self):
        ft = FakeTime()
        policy = RetryPolicy(
            attempts=4, base_s=0.1, jitter_seed=7,
            clock=ft.clock, sleep=ft.sleep,
        )
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise ConnectionRefusedError("daemon restarting")
            return {"ok": True}

        assert policy.call(flaky, label="x") == {"ok": True}
        assert len(calls) == 3
        assert ft.slept == policy.delays("x")[:2]

    def test_exhaustion_raises_the_final_error(self):
        ft = FakeTime()
        policy = RetryPolicy(
            attempts=3, base_s=0.1, jitter_seed=None,
            clock=ft.clock, sleep=ft.sleep,
        )
        calls = []

        def down():
            calls.append(1)
            raise ConnectionRefusedError("down for good")

        with pytest.raises(ConnectionRefusedError, match="down for good"):
            policy.call(down)
        assert len(calls) == 3

    def test_deadline_stops_retrying_early(self):
        ft = FakeTime()
        policy = RetryPolicy(
            attempts=100, base_s=1.0, jitter_seed=None,
            deadline_s=2.5, clock=ft.clock, sleep=ft.sleep,
        )
        calls = []

        def down():
            calls.append(1)
            raise ConnectionRefusedError("down")

        with pytest.raises(ConnectionRefusedError):
            policy.call(down)
        # delays 1.0 + 2.0 would pass 2.5s: stop after the second try.
        assert len(calls) == 2

    def test_non_transport_errors_propagate_immediately(self):
        policy = RetryPolicy(attempts=5)
        calls = []

        def broken():
            calls.append(1)
            raise ValueError("a bug, not a flaky daemon")

        with pytest.raises(ValueError):
            policy.call(broken)
        assert len(calls) == 1


@pytest.mark.slow
class TestAdmissionScale:
    @pytest.mark.timeout(120)
    def test_batched_admission_at_1e4_scale(self, tmp_path):
        """The 10^4 acceptance bar: one batched submit of ten thousand
        specs admits within a wall-time bound, in bounded memory, with
        one journal fsync — and a full resubmit is pure dedup."""
        n = 10_000
        core = ServiceCore(
            str(tmp_path / "svc"),
            workers=1,
            max_pending=2 * n,
            log=lambda m: None,
        )
        core.open()
        _OPENED.append(core)
        specs = [
            RunSpec(f"r{i:05d}", "hpl", dict(HPL_PARAMS, n=1000 + i))
            for i in range(n)
        ]
        tracemalloc.start()
        t0 = time.monotonic()
        verdicts = core.submit(specs)
        admit_s = time.monotonic() - t0
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert len(verdicts) == n
        assert all(v["disposition"] == "admitted" for v in verdicts)
        assert core.pool.queue_depth == n
        assert admit_s < 30.0, f"admission took {admit_s:.1f}s for {n} specs"
        assert peak < 256 * 1024 * 1024, f"peak {peak / 1e6:.0f} MB"

        # Everything acked is durable — replay sees all n, still pending.
        state = Journal.replay(core.journal_path)
        assert len(state.records) == n
        assert all(r.status == PENDING for r in state.records.values())

        # Resubmitting the whole batch is pure dedup: zero new journal
        # bytes, zero new queue entries, and it must also be fast.
        size = core.journal.size_bytes
        t0 = time.monotonic()
        verdicts = core.submit(specs)
        dedup_s = time.monotonic() - t0
        assert all(v["disposition"] == "duplicate" for v in verdicts)
        assert core.journal.size_bytes == size
        assert core.pool.queue_depth == n
        assert dedup_s < 10.0, f"dedup took {dedup_s:.1f}s"
        core.journal.close()
