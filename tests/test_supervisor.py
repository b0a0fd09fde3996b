"""One-shot sweeps: crash isolation, retry classification, and resume.

The acceptance bar: SIGKILLing a sweep (supervisor or worker, any
moment) and resuming must produce results bit-identical to a sweep that
was never interrupted.  Workers run as real subprocesses here — these
tests exercise the same code path ``tools/sweep.py`` drives.
"""

from __future__ import annotations

import json
import os

from repro.supervisor import (
    DONE,
    EXIT_PERMANENT,
    EXIT_TRANSIENT,
    FAILED,
    RunSpec,
    ServiceCore,
)
from repro.supervisor.worker import run_spec

#: Small, fast HPL point used throughout.
HPL_PARAMS = {"n": 1000, "nb": 128, "slice_s": 0.02, "dt_s": 0.01}


def _supervisor(tmp_path, **kw):
    kw.setdefault("max_attempts", 3)
    kw.setdefault("backoff_s", 0.0)
    kw.setdefault("wall_timeout_s", 120.0)
    kw.setdefault("checkpoint_every_s", 0.04)
    kw.setdefault("log", lambda msg: None)
    return ServiceCore(str(tmp_path / "sweep"), **kw)


def _result(sup, run_id):
    with open(os.path.join(sup.out_dir, run_id, "result.json")) as fh:
        return json.load(fh)


class TestWorkerExitCodes:
    """``run_spec`` is the worker main minus argv; drive it in-process."""

    def test_unknown_kind_is_permanent(self, tmp_path):
        out = str(tmp_path / "r")
        code = run_spec({"run_id": "x", "kind": "nope", "params": {}, "out_dir": out})
        assert code == EXIT_PERMANENT
        err = json.load(open(os.path.join(out, "error.json")))
        assert err["classification"] == "permanent"
        assert "unknown run kind" in err["message"]

    def test_deterministic_exception_is_permanent(self, tmp_path):
        out = str(tmp_path / "r")
        code = run_spec(
            {"run_id": "x", "kind": "failing", "params": {"message": "boom"},
             "out_dir": out}
        )
        assert code == EXIT_PERMANENT
        err = json.load(open(os.path.join(out, "error.json")))
        assert err["type"] == "ValueError"
        assert "boom" in err["message"]

    def test_sim_timeout_is_transient_with_stuck_details(self, tmp_path):
        out = str(tmp_path / "r")
        params = dict(HPL_PARAMS, max_sim_s=0.05)  # far too little sim time
        code = run_spec(
            {"run_id": "x", "kind": "hpl", "params": params, "out_dir": out,
             "checkpoint_every_s": 0.02}
        )
        assert code == EXIT_TRANSIENT
        err = json.load(open(os.path.join(out, "error.json")))
        assert err["type"] == "SimTimeout"
        assert err["classification"] == "transient"
        # Satellite: the timeout names the stuck threads' CPU and core
        # type, and the last checkpoint taken before the wedge.
        assert err["stuck"], "stuck thread details missing"
        for d in err["stuck"]:
            assert "cpu" in d and "core_type" in d and d["name"].startswith("hpl-")
        assert err["checkpoint_path"] == os.path.join(out, "checkpoint.snap")
        assert os.path.exists(err["checkpoint_path"])

    def test_corrupt_checkpoint_is_transient(self, tmp_path):
        out = str(tmp_path / "r")
        bad = str(tmp_path / "bad.snap")
        open(bad, "wb").write(b"garbage")
        code = run_spec(
            {"run_id": "x", "kind": "hpl", "params": HPL_PARAMS, "out_dir": out,
             "resume_from": bad}
        )
        assert code == EXIT_TRANSIENT
        err = json.load(open(os.path.join(out, "error.json")))
        assert err["bad_checkpoint"] == bad

    def test_success_writes_result(self, tmp_path):
        out = str(tmp_path / "r")
        code = run_spec(
            {"run_id": "x", "kind": "hpl", "params": HPL_PARAMS, "out_dir": out}
        )
        assert code == 0
        result = json.load(open(os.path.join(out, "result.json")))
        assert result["gflops"] > 0
        assert len(result["state_digest"]) == 64


class TestSupervisorSweeps:
    def test_crashed_run_resumes_from_checkpoint_bit_identical(self, tmp_path):
        """A worker SIGKILLed mid-run retries from its checkpoint and
        ends bit-identical to a run that never crashed."""
        sup = _supervisor(tmp_path)
        runs = sup.run(
            [
                RunSpec("steady", "hpl", dict(HPL_PARAMS)),
                RunSpec(
                    "flaky",
                    "flaky-hpl",
                    dict(HPL_PARAMS, crash_at_s=0.08, crash_on_attempts=[1]),
                ),
            ]
        )
        assert runs["steady"].status == DONE
        assert runs["steady"].attempts == 1
        flaky = runs["flaky"]
        assert flaky.status == DONE
        assert flaky.attempts == 2
        assert flaky.last_error is None
        # The retry resumed from the checkpoint, not from scratch, and
        # still converged on the identical final state.
        assert flaky.checkpoint_path and os.path.exists(flaky.checkpoint_path)
        assert (
            _result(sup, "flaky")["state_digest"]
            == _result(sup, "steady")["state_digest"]
        )

    def test_permanent_failure_stops_retrying(self, tmp_path):
        sup = _supervisor(tmp_path)
        runs = sup.run([RunSpec("bad", "failing", {"message": "nope"})])
        rec = runs["bad"]
        assert rec.status == FAILED
        assert rec.attempts == 1  # no retries burned on a deterministic error
        assert rec.last_error["classification"] == "permanent"

    def test_transient_failures_exhaust_attempts(self, tmp_path):
        # A huge checkpoint cadence pins the only checkpoint at the first
        # slice boundary, so every retry replays through crash_at_s and
        # dies again instead of resuming past it.
        sup = _supervisor(tmp_path, max_attempts=2, checkpoint_every_s=10.0)
        runs = sup.run(
            [
                RunSpec(
                    "always-crashes",
                    "flaky-hpl",
                    dict(HPL_PARAMS, crash_at_s=0.08, crash_on_attempts=[1, 2, 3]),
                )
            ]
        )
        rec = runs["always-crashes"]
        assert rec.status == FAILED
        assert rec.attempts == 2
        assert rec.last_error["type"] == "WorkerCrash"

    def test_resume_skips_done_and_restores_in_flight(self, tmp_path):
        """Simulates a killed sweep: first run done, second was mid-run
        with a checkpoint on disk when the supervisor died.  The forged
        crash state is produced the way a real crash produces it — by
        cutting the journal after "two" launched but before it finished."""
        sup = _supervisor(tmp_path)
        runs = [
            RunSpec("one", "hpl", dict(HPL_PARAMS)),
            RunSpec("two", "hpl", dict(HPL_PARAMS, n=2000)),
        ]
        sup.run(runs)
        digest_two = _result(sup, "two")["state_digest"]

        # Rewind the journal to the instant after "two"'s worker was
        # launched: exactly what a SIGKILLed supervisor leaves behind
        # (its "done" was never journaled).
        with open(sup.journal_path) as fh:
            lines = fh.read().splitlines(keepends=True)
        kept = [
            line
            for line in lines
            if not (
                json.loads(line).get("run_id") == "two"
                and json.loads(line)["type"] not in ("add", "launch")
            )
        ]
        with open(sup.journal_path, "w") as fh:
            fh.writelines(kept)
        os.unlink(os.path.join(sup.out_dir, "two", "result.json"))

        events = []
        sup2 = _supervisor(tmp_path, log=events.append)
        runs2 = sup2.run(runs, resume=True)
        assert runs2["one"].status == DONE
        assert runs2["two"].status == DONE
        assert any("skipped" in e for e in events)
        assert any("resuming from" in e for e in events)
        # Restored continuation == the uninterrupted original.
        assert _result(sup2, "two")["state_digest"] == digest_two

    def test_wall_clock_timeout_kills_worker(self, tmp_path):
        sup = _supervisor(tmp_path, wall_timeout_s=0.2, max_attempts=1)
        runs = sup.run([RunSpec("slow", "hpl", dict(HPL_PARAMS, n=20000))])
        rec = runs["slow"]
        assert rec.status == FAILED
        # The pool's liveness monitor names the verdict: past the wall
        # deadline (a "slow" kill), classified transient.
        assert rec.last_error["type"] in ("WallTimeout", "StuckWorker")
        assert rec.last_error["classification"] == "transient"
