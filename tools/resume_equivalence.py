#!/usr/bin/env python3
"""CI gate: a SIGKILLed-and-resumed sweep equals an uninterrupted one.

Default mode:

1. run a small sweep start to finish (the reference);
2. run the identical sweep again, SIGKILL the whole supervisor process
   group once the journal shows partial progress (some runs done, some
   not — i.e. mid-sweep, workers possibly mid-run);
3. resume it with ``--resume``;
4. compare every ``result.json`` byte for byte against the reference —
   including each run's final ``state_digest``, so "equal" means the
   restored simulations ended in bit-identical states, not just similar
   headline numbers.

``--soak`` escalates to the fleet: a 16-job sweep on a worker pool with
deterministic chaos injection (crashes + stalls → migrations), where a
seeded-random *worker* is SIGKILLed mid-fleet, then the *supervisor*
itself is SIGKILLed, orphaned workers are cleaned up, and the resumed
sweep must still end byte-identical to the calm reference.

``--daemon`` runs the same chaos fleet through the long-running
measurement service instead of the one-shot path: jobs are submitted
over the unix socket, a seeded-random worker is SIGKILLed, then the
*daemon* is SIGKILLed mid-fleet — deliberately leaving its workers
orphaned, because reaping them is the rebooted daemon's own job.  The
daemon is restarted, the identical batch is resubmitted (admission is
idempotent — every verdict must be a duplicate or requeue, never a
fresh add), drained, and the results must be byte-identical to the calm
one-shot reference.

Exits 0 on equivalence, 1 on any difference or failed run.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time

TOOLS = os.path.dirname(os.path.abspath(__file__))
SWEEP = os.path.join(TOOLS, "sweep.py")
sys.path.insert(0, os.path.join(os.path.dirname(TOOLS), "src"))

SWEEP_ARGS = [
    "--preset", "quick",
    "--slice-s", "0.02",
    "--checkpoint-every-s", "0.04",
    "--backoff-s", "0",
]

#: Fleet/soak sweep: 16 jobs on a worker pool with deterministic chaos
#: (seed 8 draws two self-crashes and two stalls → migrations).
SOAK_ARGS = [
    "--preset", "fleet",
    "--slice-s", "0.02",
    "--checkpoint-every-s", "0.04",
    "--backoff-s", "0",
    "--workers", "4",
    "--stuck-after-s", "0.8",
]
SOAK_CHAOS_ARGS = [*SOAK_ARGS, "--chaos-seed", "8"]

#: Daemon soak: the same fleet sweep split across the service CLI —
#: pool tuning goes to ``serve``, the job batch goes to ``submit``.
DAEMON_SERVE_ARGS = [
    "--workers", "4",
    "--stuck-after-s", "0.8",
    "--checkpoint-every-s", "0.04",
    "--backoff-s", "0",
]
DAEMON_SUBMIT_ARGS = [
    "--preset", "fleet",
    "--slice-s", "0.02",
    "--chaos-seed", "8",
]


# -- journal reading ---------------------------------------------------------
# The journal is the only record of run state, so mid-flight progress
# watching reads journal.jsonl.  Tolerant by design: a torn tail is
# expected while the writer is alive.


def journal_events(out_dir: str) -> list[dict]:
    events = []
    try:
        with open(os.path.join(out_dir, "journal.jsonl"), "rb") as fh:
            for line in fh.read().split(b"\n"):
                if not line.strip():
                    continue
                try:
                    events.append(json.loads(line))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    break  # torn tail: the supervisor is mid-append
    except OSError:
        pass
    return events


def journal_progress(out_dir: str) -> dict:
    """Fold the journal into {"total", "done", "running": {run_id: pid}}."""
    total: set = set()
    done: set = set()
    running: dict[str, int] = {}
    for e in journal_events(out_dir):
        etype, rid = e.get("type"), e.get("run_id")
        if etype == "add":
            total.add(rid)
        elif etype == "launch":
            running[rid] = e.get("pid")
        elif etype == "done":
            done.add(rid)
            running.pop(rid, None)
        elif etype in ("exit", "failed", "preempted"):
            running.pop(rid, None)
    return {"total": len(total), "done": len(done), "running": running}


def inflight_checkpoint(out_dir: str) -> bool:
    """True if some not-yet-done run has a checkpoint on disk."""
    events = journal_events(out_dir)
    added = {e["run_id"] for e in events if e.get("type") == "add"}
    done = {e["run_id"] for e in events if e.get("type") == "done"}
    return any(
        os.path.exists(os.path.join(out_dir, rid, "checkpoint.snap"))
        for rid in added - done
    )


def kill_pid(pid: int, sig: int = signal.SIGKILL) -> bool:
    """Kill a process group (workers lead their own session), falling
    back to the single pid; True if something was signalled."""
    for fn in (os.killpg, os.kill):
        try:
            fn(pid, sig)
            return True
        except (ProcessLookupError, PermissionError, OSError):
            continue
    return False


def kill_orphan_workers(out_dir: str) -> int:
    """SIGKILL every worker the journal launched that is still alive.

    Workers run in their own sessions, so killing the supervisor's
    process group does NOT take them down — exactly the situation a real
    crashed host leaves behind.  The journal has every launched pid.
    """
    killed = 0
    for e in journal_events(out_dir):
        if e.get("type") == "launch" and e.get("pid"):
            if kill_pid(e["pid"]):
                killed += 1
    return killed


# -- sweep drivers -----------------------------------------------------------


def run_sweep(out_dir: str, sweep_args: list[str], resume: bool = False) -> None:
    cmd = [sys.executable, SWEEP, "--out", out_dir, *sweep_args]
    if resume:
        cmd.append("--resume")
    subprocess.run(cmd, check=True)


def _watch_until_mid_sweep(
    proc: subprocess.Popen,
    out_dir: str,
    kill_worker_seed: int | None,
    max_wait_s: float,
) -> None:
    """Block until the journal shows a kill-worthy mid-sweep state.

    With ``kill_worker_seed`` set, first SIGKILL one seeded-random
    in-flight worker (the soak's worker-death event), wait for the fleet
    to absorb it (a retry), and only then return.
    """
    deadline = time.monotonic() + max_wait_s
    worker_killed = False
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(
                "sweep finished (or died) before it could be killed; "
                "shrink --slice-s or grow the sweep"
            )
        progress = journal_progress(out_dir)
        if (
            kill_worker_seed is not None
            and not worker_killed
            and progress["done"] >= 1
            and progress["running"]
        ):
            rid, pid = sorted(progress["running"].items())[
                random.Random(kill_worker_seed).randrange(
                    len(progress["running"])
                )
            ]
            if kill_pid(pid):
                worker_killed = True
                print(f"[equiv] soak: SIGKILLed worker {pid} ({rid})")
            continue
        # Mid-sweep: at least one run completed, at least one not —
        # and an in-flight run has checkpointed, so the resume path
        # being exercised is restore-from-checkpoint, not restart.
        mid = (
            progress["total"]
            and 0 < progress["done"] < progress["total"]
            and inflight_checkpoint(out_dir)
        )
        if mid and (kill_worker_seed is None or worker_killed):
            return
        time.sleep(0.02)
    raise SystemExit("sweep never reached a mid-sweep state")


def run_sweep_and_kill(
    out_dir: str,
    sweep_args: list[str],
    kill_worker_seed: int | None = None,
    max_wait_s: float = 600.0,
) -> None:
    """Start the sweep in its own process group and SIGKILL it mid-sweep."""
    cmd = [sys.executable, SWEEP, "--out", out_dir, *sweep_args]
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        _watch_until_mid_sweep(proc, out_dir, kill_worker_seed, max_wait_s)
    finally:
        if proc.poll() is None:
            # Kill the supervisor's whole group...
            os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    # ...and the workers it orphaned (they lead their own sessions).
    orphans = kill_orphan_workers(out_dir)
    progress = journal_progress(out_dir)
    print(
        f"[equiv] killed sweep mid-flight "
        f"(done {progress['done']}/{progress['total']}, "
        f"{orphans} orphan pid(s) swept)"
    )


# -- daemon drivers ----------------------------------------------------------


def start_daemon(out_dir: str, boot_wait_s: float = 60.0) -> subprocess.Popen:
    """Start ``sweep.py serve`` in its own group; wait for its socket."""
    proc = subprocess.Popen(
        [sys.executable, SWEEP, "serve", "--out", out_dir, *DAEMON_SERVE_ARGS],
        start_new_session=True,
    )
    sock = os.path.join(out_dir, "service.sock")
    deadline = time.monotonic() + boot_wait_s
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(f"daemon exited {proc.returncode} during boot")
        if os.path.exists(sock):
            return proc
        time.sleep(0.05)
    raise SystemExit("daemon never bound its socket")


def run_daemon_and_kill(out_dir: str, kill_worker_seed: int, max_wait_s: float = 600.0) -> None:
    """Submit the chaos fleet to a daemon, SIGKILL a worker, then SIGKILL
    the daemon mid-fleet — leaving its surviving workers orphaned (the
    rebooted daemon must reap them itself)."""
    daemon = start_daemon(out_dir)
    try:
        subprocess.run(
            [sys.executable, SWEEP, "submit", "--out", out_dir,
             *DAEMON_SUBMIT_ARGS],
            check=True,
        )
        _watch_until_mid_sweep(daemon, out_dir, kill_worker_seed, max_wait_s)
    finally:
        if daemon.poll() is None:
            os.killpg(daemon.pid, signal.SIGKILL)
    daemon.wait()
    # Deliberately do NOT sweep orphans here: boot-time orphan reaping
    # is part of the daemon contract under test.
    orphans = 0
    for e in journal_events(out_dir):
        if e.get("type") == "launch" and e.get("pid"):
            try:
                os.kill(e["pid"], 0)
            except (ProcessLookupError, PermissionError, OSError):
                continue
            orphans += 1
    progress = journal_progress(out_dir)
    print(
        f"[equiv] SIGKILLed daemon mid-fleet "
        f"(done {progress['done']}/{progress['total']}, "
        f"{orphans} worker(s) left orphaned for the reboot to reap)"
    )


def finish_daemon(out_dir: str) -> None:
    """Reboot the daemon, resubmit the identical batch (idempotent),
    wait for completion, and drain it down cleanly."""
    daemon = start_daemon(out_dir)
    try:
        subprocess.run(
            [sys.executable, SWEEP, "submit", "--out", out_dir,
             *DAEMON_SUBMIT_ARGS, "--wait"],
            check=True,
        )
        subprocess.run(
            [sys.executable, SWEEP, "shutdown", "--out", out_dir],
            check=True,
        )
        code = daemon.wait(timeout=120)
        if code != 0:
            raise SystemExit(f"rebooted daemon exited {code}, expected 0")
    finally:
        if daemon.poll() is None:
            os.killpg(daemon.pid, signal.SIGKILL)
            daemon.wait()


# -- comparison --------------------------------------------------------------


def collect_results(out_dir: str) -> dict[str, dict]:
    from repro.supervisor.journal import Journal

    records = Journal.replay(os.path.join(out_dir, "journal.jsonl")).records
    results = {}
    for rid, rec in records.items():
        if rec.status != "done":
            raise SystemExit(f"run {rid} in {out_dir} is {rec.status}, not done")
        with open(os.path.join(out_dir, rid, "result.json")) as fh:
            results[rid] = json.load(fh)
    return results


def compare(ref_dir: str, res_dir: str) -> int:
    ref = collect_results(ref_dir)
    res = collect_results(res_dir)
    if set(ref) != set(res):
        print(f"[equiv] FAIL: run sets differ: {sorted(set(ref) ^ set(res))}")
        return 1
    bad = 0
    for rid in sorted(ref):
        if ref[rid] != res[rid]:
            bad += 1
            diffs = [k for k in ref[rid] if ref[rid][k] != res[rid].get(k)]
            print(f"[equiv] FAIL: {rid} differs in fields: {diffs}")
        else:
            print(f"[equiv] ok: {rid} identical (digest {ref[rid]['state_digest'][:12]}...)")
    if bad:
        return 1
    print(f"[equiv] PASS: {len(ref)} run(s) bit-identical after kill+resume")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?", default="/tmp/resume-equiv",
                        help="scratch directory")
    parser.add_argument("--soak", action="store_true",
                        help="fleet soak: chaos sweep + worker SIGKILL "
                             "+ supervisor SIGKILL + resume")
    parser.add_argument("--daemon", action="store_true",
                        help="daemon soak: the chaos fleet through the "
                             "service socket, SIGKILL worker + daemon, "
                             "reboot, idempotent resubmit, drain")
    parser.add_argument("--worker-kill-seed", type=int, default=1,
                        help="seed picking which in-flight worker dies")
    args = parser.parse_args(argv)

    base = os.path.abspath(args.base)
    ref_dir = os.path.join(base, "reference")
    killed_dir = os.path.join(base, "killed")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)

    if args.daemon:
        # The reference is the CALM ONE-SHOT fleet: the daemon path must
        # converge on exactly what the classic path produces.
        print("[equiv] daemon phase 1: calm reference fleet (one-shot)")
        run_sweep(ref_dir, SOAK_ARGS)
        print("[equiv] daemon phase 2: chaos fleet via the service, "
              "worker+daemon SIGKILL")
        run_daemon_and_kill(killed_dir, args.worker_kill_seed)
        print("[equiv] daemon phase 3: reboot, idempotent resubmit, drain")
        finish_daemon(killed_dir)
    elif args.soak:
        # The reference is CALM (no chaos): the chaos+kills sweep must
        # converge on what an undisturbed sequential fleet produces.
        print("[equiv] soak phase 1: calm reference fleet (uninterrupted)")
        run_sweep(ref_dir, SOAK_ARGS)
        print("[equiv] soak phase 2: chaos fleet, worker+supervisor SIGKILL")
        run_sweep_and_kill(
            killed_dir, SOAK_CHAOS_ARGS, kill_worker_seed=args.worker_kill_seed
        )
        print("[equiv] soak phase 3: resume the killed fleet")
        run_sweep(killed_dir, SOAK_CHAOS_ARGS, resume=True)
    else:
        print("[equiv] phase 1: reference sweep (uninterrupted)")
        run_sweep(ref_dir, SWEEP_ARGS)
        print("[equiv] phase 2: same sweep, SIGKILLed mid-flight")
        run_sweep_and_kill(killed_dir, SWEEP_ARGS)
        print("[equiv] phase 3: resume the killed sweep")
        run_sweep(killed_dir, SWEEP_ARGS, resume=True)

    print("[equiv] final phase: compare results")
    return compare(ref_dir, killed_dir)


if __name__ == "__main__":
    sys.exit(main())
