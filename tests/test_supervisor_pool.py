"""Worker pool: backoff, concurrency, liveness kills, migration, drain,
and the zygote the workers fork from.

Backoff tests drive the pool on an injected fake clock/sleep pair — no
real ``time.sleep`` anywhere in the scheduling path.  Liveness tests use
real worker processes wedged by the deterministic ``stall_at_s`` /
``spawner`` fixtures in :mod:`repro.supervisor.runs`.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.checkpoint.snapshot import read_header
from repro.checkpoint.surface import (
    global_counter_state,
    set_global_counter_state,
)
from repro.supervisor import (
    DONE,
    FAILED,
    PENDING,
    RunContext,
    RunSpec,
    ServiceCore,
    Supervisor,
    backoff_delay,
    default_worker_count,
)
from repro.supervisor.runs import hpl_run

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

#: Small, fast HPL point used throughout.
HPL_PARAMS = {"n": 1000, "nb": 128, "slice_s": 0.02, "dt_s": 0.01}


def _journal_events(sup, etype=None):
    with open(sup.journal_path) as fh:
        events = [json.loads(line) for line in fh]
    if etype is not None:
        events = [e for e in events if e["type"] == etype]
    return events


def _result(sup, run_id):
    with open(os.path.join(sup.out_dir, run_id, "result.json")) as fh:
        return json.load(fh)


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


class TestBackoffDelay:
    def test_pure_function_of_inputs(self):
        a = backoff_delay(0.5, 2, "run-a", jitter_seed=7)
        assert a == backoff_delay(0.5, 2, "run-a", jitter_seed=7)
        assert a != backoff_delay(0.5, 2, "run-b", jitter_seed=7)
        assert a != backoff_delay(0.5, 2, "run-a", jitter_seed=8)

    def test_exponential_base_without_jitter(self):
        delays = [backoff_delay(0.5, k, "r", jitter_seed=None) for k in (1, 2, 3)]
        assert delays == [0.5, 1.0, 2.0]

    def test_jitter_bounded_at_quarter(self):
        for attempt in (1, 2, 3):
            base = 0.5 * 2 ** (attempt - 1)
            d = backoff_delay(0.5, attempt, "r", jitter_seed=1)
            assert base <= d <= base * 1.25

    def test_zero_base_stays_zero(self):
        assert backoff_delay(0.0, 3, "r", jitter_seed=1) == 0.0

    def test_default_worker_count_bounds(self):
        n = default_worker_count()
        assert 1 <= n <= 8


class TestBackoffSchedule:
    def test_retries_follow_the_deterministic_schedule(self, tmp_path):
        """A run crashing on attempts 1 and 2 re-enters the queue at
        exactly clock + backoff_delay(...) — verified on a fake clock, so
        the whole backoff wait costs zero wall time."""
        ft = FakeTime()
        sup = Supervisor(
            str(tmp_path / "sweep"),
            max_attempts=3,
            backoff_s=0.5,
            jitter_seed=11,
            # The fake clock races ahead of real worker progress, so
            # wall-clock liveness must be off for this test.
            wall_timeout_s=None,
            stuck_after_s=1e9,
            checkpoint_every_s=10.0,  # pin checkpoint before the crash point
            workers=1,
            log=lambda m: None,
            clock=ft.clock,
            sleep=ft.sleep,
        )
        manifest = sup.run(
            [
                RunSpec(
                    "crashy",
                    "flaky-hpl",
                    dict(HPL_PARAMS, crash_at_s=0.08, crash_on_attempts=[1, 2]),
                )
            ]
        )
        assert manifest.runs["crashy"].status == DONE
        assert manifest.runs["crashy"].attempts == 3

        retries = _journal_events(sup, "retry")
        assert [r["next_attempt"] for r in retries] == [2, 3]
        # Journaled delays are exactly the pure-function schedule.
        expected = [backoff_delay(0.5, k, "crashy", jitter_seed=11) for k in (1, 2)]
        assert [r["delay_s"] for r in retries] == expected
        assert all(d > 0.5 * 2 ** k / 2 for k, d in enumerate(expected, 1))

        # The backoff waits happened on the fake clock: the pool slept
        # (virtually) at least the scheduled delays, in zero wall time.
        assert sum(ft.slept) >= sum(expected)
        launches = _journal_events(sup, "launch")
        assert len(launches) == 3


class TestConcurrency:
    def test_jobs_spread_across_slots(self, tmp_path):
        sup = Supervisor(
            str(tmp_path / "sweep"),
            backoff_s=0.0,
            checkpoint_every_s=0.04,
            workers=2,
            log=lambda m: None,
        )
        specs = [
            RunSpec(f"job{i}", "hpl", dict(HPL_PARAMS, n=1000 + 100 * i))
            for i in range(4)
        ]
        manifest = sup.run(specs)
        assert all(rec.status == DONE for rec in manifest.runs.values())
        slots = {e["slot"] for e in _journal_events(sup, "launch")}
        assert slots == {0, 1}
        assert sup.metrics.counters[("fleet.launch", None)] == 4.0
        assert sup.metrics.counters[("fleet.done", None)] == 4.0


class TestLiveness:
    def test_stuck_worker_is_migrated_and_converges(self, tmp_path):
        """A worker heartbeating with frozen sim time is stuck: killed,
        requeued on a different slot, resumed from checkpoint, and the
        final result is bit-identical to a run that never stalled."""
        sup = Supervisor(
            str(tmp_path / "sweep"),
            max_attempts=3,
            backoff_s=0.0,
            wall_timeout_s=120.0,
            stuck_after_s=0.6,
            checkpoint_every_s=0.04,
            workers=2,
            log=lambda m: None,
        )
        manifest = sup.run(
            [
                RunSpec("steady", "hpl", dict(HPL_PARAMS)),
                RunSpec(
                    "staller",
                    "hpl",
                    dict(HPL_PARAMS, stall_at_s=0.08, stall_on_attempts=[1]),
                ),
            ]
        )
        staller = manifest.runs["staller"]
        assert staller.status == DONE
        assert staller.attempts == 2
        assert staller.migrations == 1
        assert staller.last_error is None
        # The stuck verdict and the migration are journaled.
        exits = [
            e
            for e in _journal_events(sup, "exit")
            if e["run_id"] == "staller"
        ]
        assert exits[0]["liveness"] == "stuck"
        assert exits[0]["error"]["type"] == "StuckWorker"
        retries = [
            e
            for e in _journal_events(sup, "retry")
            if e["run_id"] == "staller"
        ]
        assert retries[0]["migrated"] is True
        # Migrated to a different slot.
        launches = [
            e
            for e in _journal_events(sup, "launch")
            if e["run_id"] == "staller"
        ]
        assert len(launches) == 2
        assert launches[1]["slot"] != launches[0]["slot"]
        assert launches[1]["resume_from"]  # from checkpoint, not scratch
        assert sup.metrics.counters[("fleet.migration", None)] == 1.0
        # Bit-identical convergence despite the stall + migration.
        assert (
            _result(sup, "staller")["state_digest"]
            == _result(sup, "steady")["state_digest"]
        )

    def test_timeout_kill_takes_the_whole_process_group(self, tmp_path):
        """Zombie-window regression: a worker that spawned a helper and
        wedged is killed as a *group*, so the helper dies with it."""
        sup = Supervisor(
            str(tmp_path / "sweep"),
            max_attempts=1,
            backoff_s=0.0,
            wall_timeout_s=120.0,
            stuck_after_s=0.5,
            workers=1,
            log=lambda m: None,
        )
        manifest = sup.run([RunSpec("wedge", "spawner", {})])
        rec = manifest.runs["wedge"]
        assert rec.status == FAILED
        assert rec.last_error["type"] == "StuckWorker"

        child_pid = json.load(
            open(os.path.join(sup.out_dir, "wedge", "child.json"))
        )["pid"]
        # The helper must be gone; poll briefly for the reparent+reap.
        deadline = time.time() + 10.0
        while time.time() < deadline:
            try:
                os.kill(child_pid, 0)
            except ProcessLookupError:
                break  # dead — the group kill took it
            time.sleep(0.05)
        else:
            os.kill(child_pid, 9)  # clean up before failing the test
            raise AssertionError(
                f"helper child {child_pid} survived the group kill"
            )


class TestDrain:
    def test_drain_preempts_and_resume_converges(self, tmp_path):
        """SIGTERM path: drain mid-run → worker checkpoints and exits
        preempted (no attempt burned) → --resume finishes the run
        bit-identical to an uninterrupted control run."""
        control = Supervisor(
            str(tmp_path / "control"),
            backoff_s=0.0,
            checkpoint_every_s=0.04,
            workers=1,
            log=lambda m: None,
        )
        big = dict(HPL_PARAMS, n=20000)
        control.run([RunSpec("big", "hpl", big)])
        digest = _result(control, "big")["state_digest"]

        sup = Supervisor(
            str(tmp_path / "sweep"),
            backoff_s=0.0,
            checkpoint_every_s=0.04,
            workers=1,
            log=lambda m: None,
        )
        timer = threading.Timer(0.6, sup.request_drain)
        timer.start()
        try:
            manifest = sup.run([RunSpec("big", "hpl", big)])
        finally:
            timer.cancel()
        assert sup.drained
        rec = manifest.runs["big"]
        assert rec.status == PENDING
        assert rec.attempts == 0  # preemption refunded the attempt
        assert rec.checkpoint_path and os.path.exists(rec.checkpoint_path)
        preempts = _journal_events(sup, "preempted")
        assert preempts and preempts[0]["checkpoint_path"]
        assert _journal_events(sup, "drain")

        sup2 = Supervisor(
            str(tmp_path / "sweep"),
            backoff_s=0.0,
            checkpoint_every_s=0.04,
            workers=1,
            log=lambda m: None,
        )
        manifest2 = sup2.run([RunSpec("big", "hpl", big)], resume=True)
        rec2 = manifest2.runs["big"]
        assert rec2.status == DONE
        assert rec2.attempts == 1  # the preempted attempt was free
        launches = _journal_events(sup2, "launch")
        assert launches[-1]["resume_from"]  # continued from the checkpoint
        assert _result(sup2, "big")["state_digest"] == digest


def _gone(pid: int) -> bool:
    """The process has exited (a zombie awaiting its reaper counts)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def _wait_gone(pids, timeout_s: float = 10.0) -> list[int]:
    """Poll until every pid has exited; returns the survivors."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        alive = [pid for pid in pids if not _gone(pid)]
        if not alive:
            return []
        time.sleep(0.05)
    return alive


def _pipe_inodes(pid: int) -> set[str]:
    inodes = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:
            continue
        if target.startswith("pipe:"):
            inodes.add(target)
    return inodes


def _core(path, **kwargs) -> ServiceCore:
    kwargs.setdefault("backoff_s", 0.0)
    kwargs.setdefault("checkpoint_every_s", 0.04)
    kwargs.setdefault("log", lambda m: None)
    core = ServiceCore(str(path), **kwargs)
    core.open()
    return core


class TestZygote:
    def test_close_reaps_the_zygote(self, tmp_path):
        core = _core(tmp_path / "svc", workers=1)
        zygote = core.pool._zygote.pid
        try:
            core.submit([RunSpec("r1", "hpl", dict(HPL_PARAMS))])
            core.run_until_idle()
            assert not _gone(zygote)
        finally:
            core.close()
        assert _gone(zygote)
        assert core.pool._zygote.exit_code == 0  # left on EOF, not killed

    def test_one_shot_supervisor_reaps_its_zygote(self, tmp_path):
        sup = Supervisor(str(tmp_path / "sweep"), workers=1, log=lambda m: None)
        sup.run([RunSpec("r1", "hpl", dict(HPL_PARAMS))])
        assert sup.core.pool._zygote.exit_code == 0
        assert _gone(sup.core.pool._zygote.pid)

    def test_zygote_death_mid_fleet_retries_and_converges(self, tmp_path):
        """SIGKILL the zygote while two workers run: their groups are
        killed, both attempts retry from checkpoint on a new zygote,
        and every result is byte-identical to a calm fleet's."""
        specs = [
            RunSpec(f"job{i}", "hpl", dict(HPL_PARAMS, n=8000 + 500 * i))
            for i in range(4)
        ]
        calm = Supervisor(
            str(tmp_path / "calm"),
            backoff_s=0.0,
            checkpoint_every_s=0.04,
            workers=2,
            log=lambda m: None,
        )
        calm.run(specs)

        core = _core(tmp_path / "chaos", workers=2)
        killed = None
        try:
            core.submit(specs)
            while core.step():
                running = core.pool.in_flight
                if killed is None and len(running) == 2 and all(
                    os.path.exists(tmp_path / "chaos" / rid / "checkpoint.snap")
                    for rid in running
                ):
                    killed = core.pool._zygote.pid
                    victims = list(running.values())
                    os.kill(killed, signal.SIGKILL)
                time.sleep(0.01)
            assert killed is not None, "the fleet finished before the kill"
            assert core.pool._zygote.pid != killed
        finally:
            core.close()

        assert {r.status for r in core.records.values()} == {DONE}
        for spec in specs:
            want = (tmp_path / "calm" / spec.run_id / "result.json").read_bytes()
            got = (tmp_path / "chaos" / spec.run_id / "result.json").read_bytes()
            assert got == want, spec.run_id
        assert core.metrics.counters[("fleet.zygote_restart", None)] == 1.0
        crashes = _journal_events(core, "exit")
        assert len(crashes) == 2
        assert {e["code"] for e in crashes} == {-signal.SIGKILL}
        assert all(e["error"]["classification"] == "transient" for e in crashes)
        relaunches = [
            e for e in _journal_events(core, "launch") if e["resume_from"]
        ]
        assert len(relaunches) == 2  # both retried from their checkpoints
        launched = [e["pid"] for e in _journal_events(core, "launch")]
        assert set(victims) <= set(launched)
        assert _wait_gone([killed, *launched]) == []

    @pytest.mark.timeout(60)
    def test_second_pool_zygote_holds_no_end_of_the_first_pools_pipes(
        self, tmp_path
    ):
        """Otherwise the first zygote never sees EOF and its close()
        blocks forever."""
        first = _core(tmp_path / "a", workers=1)
        second = _core(tmp_path / "b", workers=1)
        try:
            # A served job proves the second zygote is past its set-up.
            second.submit([RunSpec("r1", "hpl", dict(HPL_PARAMS))])
            second.run_until_idle()
            assert second.records["r1"].status == DONE
            theirs = _pipe_inodes(second.pool._zygote.pid)
            ours = {
                os.readlink(f"/proc/self/fd/{fd}")
                for fd in (
                    first.pool._zygote._requests,
                    first.pool._zygote._replies,
                )
            }
            assert not theirs & ours
            first.close()
            assert first.pool._zygote.exit_code == 0
        finally:
            first.close()
            second.close()


class TestStateIsolation:
    def test_forked_worker_matches_a_fresh_interpreter(self, tmp_path):
        """The law: a zygote child writes the result (state_digest
        included) and checkpoint counters a fresh ``python -m
        repro.supervisor.worker`` writes for the same spec — even when
        the pool's process ran other work and advanced its module-level
        counters before the pool was created."""
        saved = global_counter_state()
        hpl_run(
            dict(HPL_PARAMS, n=1300, variant="intel"),
            RunContext("unrelated", 1, str(tmp_path / "unrelated.snap")),
        )
        set_global_counter_state({"kernel.perf.next_event_id": 777})
        try:
            sup = Supervisor(
                str(tmp_path / "pool"),
                checkpoint_every_s=0.04,
                workers=1,
                log=lambda m: None,
            )
            sup.run([RunSpec("law", "hpl", dict(HPL_PARAMS))])
        finally:
            set_global_counter_state(saved)

        forked = tmp_path / "pool" / "law"
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        spec = json.loads((forked / "spec.json").read_text())
        spec["out_dir"] = str(fresh)
        (fresh / "spec.json").write_text(json.dumps(spec))
        env = dict(os.environ, PYTHONPATH=SRC)
        subprocess.run(
            [sys.executable, "-m", "repro.supervisor.worker",
             "--spec", str(fresh / "spec.json")],
            env=env,
            check=True,
        )
        assert (forked / "result.json").read_bytes() == (
            fresh / "result.json"
        ).read_bytes()
        assert (
            read_header(str(forked / "checkpoint.snap"))["globals"]
            == read_header(str(fresh / "checkpoint.snap"))["globals"]
        )
