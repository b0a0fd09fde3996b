"""``service-fleet``: submit -> result through the measurement daemon.

The daemon (``tools/sweep.py serve``) runs as a subprocess with 2
workers on a fresh out-dir and cache-dir per run.  One client process
keeps 2 jobs in flight as a closed loop through ``ServiceClient``,
polling every ``POLL_S`` (well below one job's latency).  Jobs are
fleet-preset HPL specs (n 800-1500, nb 128, both builds); each job
carries its own seed-drawn ``seed`` param so every fresh job is a new
spec.  A fixed 1-in-4 share of the submissions repeat a spec that has
already completed: their results are computed before the daemon boots
(in-process through ``hpl_run``, the function the workers run) and
stored in the daemon's result cache, so the daemon answers them with a
``CACHED`` verdict and no spawn.  Within one daemon a resubmitted spec
is deduplicated by spec digest before the cache is consulted, so a
repeat served by the cache needs a result the daemon's journal does not
hold yet.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import SAVE_SPANS
from repro.supervisor import (
    Journal,
    ResultCache,
    RetryPolicy,
    RunContext,
    RunSpec,
    ServiceClient,
    ServiceCore,
)
from repro.supervisor.runs import hpl_run
from repro.system import System

NAME = "service-fleet"
#: Raw host time: the work runs in other processes on both CPUs, which
#: in-process host-speed samples do not describe (see hostspeed.py).
NORMALIZED = False
ROOT = Path(__file__).resolve().parent.parent

#: Host seconds per job (fresh and cached mixed) on the reference host;
#: ``--seconds`` buys ``round(seconds / JOB_S)`` jobs (a multiple of 4).
JOB_S = 0.22
WORKERS = 2
IN_FLIGHT = 2
POLL_S = 0.01
CHECKPOINT_EVERY_S = 0.1
SETTLED = ("done", "failed", "cancelled", "unknown")
FLEET = [(n, v) for v in ("openblas", "intel") for n in range(800, 1501, 100)]


def job_params(n: int, variant: str, seed: int) -> dict:
    return {
        "machine": "raptor-lake-i7-13700",
        "n": n,
        "nb": 128,
        "variant": variant,
        "slice_s": 0.05,
        "seed": seed,
    }


def run_inprocess(params: dict, checkpoint_path: str) -> dict:
    """One job's result computed in this process, as a worker would."""
    ctx = RunContext("inprocess", 1, checkpoint_path, checkpoint_every_s=CHECKPOINT_EVERY_S)
    return json.loads(json.dumps(hpl_run(params, ctx)))


def wrap_layers(rec) -> None:
    """Client-side spans: the daemon and its workers are other processes."""
    rec.wrap(ServiceClient, ["submit", "poll", "ping", "shutdown"], "supervisor")


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


class Daemon:
    """One measurement daemon subprocess and its client."""

    def __init__(self, tmp: Path):
        self.out = tmp / "daemon"
        self.cache = tmp / "cache"
        # Relative to the checkout root (our cwd): a unix socket path
        # must stay under ~108 bytes however deep the checkout is.
        self.sock = os.path.relpath(tmp / "d.sock", ROOT)
        self.log = open(tmp / "daemon.log", "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "tools/sweep.py", "serve",
                "--out", str(self.out), "--socket", self.sock,
                "--workers", str(WORKERS), "--cache-dir", str(self.cache),
                "--jitter-seed", "0",
                "--checkpoint-every-s", str(CHECKPOINT_EVERY_S),
            ],
            cwd=ROOT,
            stdout=self.log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self.client = ServiceClient(self.sock, retry=RetryPolicy(attempts=1))

    def wait_ready(self, deadline_s: float = 60.0) -> None:
        end = time.monotonic() + deadline_s
        while True:
            try:
                self.client.ping()
                return
            except (ConnectionError, FileNotFoundError, OSError):
                if self.proc.poll() is not None or time.monotonic() > end:
                    raise RuntimeError("daemon did not answer ping") from None
                time.sleep(0.005)

    def stop(self) -> None:
        """Shut down, then kill and reap whatever is left: the daemon's
        process group and every worker group named by a heartbeat."""
        try:
            if self.proc.poll() is None:
                self.client.shutdown()
                self.proc.wait(timeout=60)
        except (OSError, RuntimeError, subprocess.TimeoutExpired):
            pass
        finally:
            pids = [self.proc.pid]
            for hb in self.out.glob("*/heartbeat.json"):
                try:
                    pids.append(int(json.loads(hb.read_text())["pid"]))
                except (OSError, ValueError, KeyError, TypeError):
                    continue
            for pid in pids:
                try:
                    os.killpg(pid, signal.SIGKILL)
                except OSError:
                    pass
            self.proc.wait()
            end = time.monotonic() + 10
            while any(_alive(p) for p in pids[1:]) and time.monotonic() < end:
                time.sleep(0.01)
            self.log.close()

    def metrics(self) -> dict:
        try:
            return json.loads((self.out / "metrics.json").read_text())
        except (OSError, ValueError):
            return {}


class Workload:
    name = NAME

    def __init__(self, seed: int, seconds: float):
        rng = random.Random(seed)
        n = max(8, 4 * round(seconds / JOB_S / 4))
        seeds = rng.sample(range(1, 10**6), n + 1)
        self.ops: list[tuple[str, dict]] = []
        for j in range(n):
            kind = "cached" if j < n // 4 else "fresh"
            self.ops.append((kind, job_params(*FLEET[j % len(FLEET)], seeds[j])))
        rng.shuffle(self.ops)
        self.warmup_params = job_params(*FLEET[0], seeds[n])
        fresh = [i for i, (k, _) in enumerate(self.ops) if k == "fresh"]
        self.digest_op = rng.choice(fresh)
        self.tmp = ROOT / "repobench" / "out" / f"fleet-{os.getpid()}-{seed}-{id(self)}"
        self.daemon: Daemon | None = None
        self.cached_results: dict[int, dict] = {}
        self.verdicts: dict[int, dict] = {}
        self.jobs: dict[int, dict] = {}
        self.submit_ms: dict[str, list[float]] = {"fresh": [], "cached": []}
        self.poll_ms: list[float] = []
        self.daemon_metrics: dict = {}
        #: Simulated ticks of the in-process runs of the traced phase.
        self.sim_ticks = 0
        #: Modeled perf syscalls: HPL jobs open no perf events.
        self.syscalls = 0
        self.engine = ""

    def kind(self, i: int) -> str:
        return self.ops[i][0]

    # -- lifecycle -------------------------------------------------------------

    def prepare(self) -> None:
        """Store the repeated specs' results in the result cache."""
        self.tmp.mkdir(parents=True, exist_ok=True)
        cache = ResultCache(str(self.tmp / "cache"))
        for i, (kind, params) in enumerate(self.ops):
            if kind == "cached":
                result = run_inprocess(params, str(self.tmp / "seed.snap"))
                cache.put("hpl", params, result)
                self.cached_results[i] = result
        # The engine a worker's System gets: hpl_run builds it with the
        # default engine selection (fastpath=True).
        self.engine = System("raptor-lake-i7-13700", fastpath=True).machine.engine

    def boot(self) -> None:
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.daemon = Daemon(self.tmp)
        self.daemon.wait_ready()

    def warmup(self) -> None:
        client = self.daemon.client
        run_id = client.submit([RunSpec("", "hpl", self.warmup_params)])[0]["run_id"]
        while client.poll([run_id])[0]["status"] not in SETTLED:
            time.sleep(POLL_S)

    def stop_daemon(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon_metrics = self.daemon.metrics()
            self.daemon = None

    def close(self) -> None:
        self.stop_daemon()
        shutil.rmtree(self.tmp, ignore_errors=True)

    # -- the closed loop -------------------------------------------------------

    def run_timed(self, rec=None):
        """Closed loop with ``IN_FLIGHT`` jobs outstanding.  Returns
        ``(timings, busy)``: (submit, settled, ok, engine) per op and the
        host interval of the whole loop."""
        client = self.daemon.client
        ended: dict[int, tuple[float, float]] = {}
        inflight: dict[str, tuple[int, float]] = {}
        todo = list(range(len(self.ops)))
        todo.reverse()
        deadline = time.monotonic() + 150
        loop_start = time.perf_counter()
        while todo or inflight:
            if time.monotonic() > deadline:
                break
            while todo and len(inflight) < IN_FLIGHT:
                i = todo.pop()
                kind, params = self.ops[i]
                start = time.perf_counter()
                verdict = client.submit([RunSpec("", "hpl", params)])[0]
                now = time.perf_counter()
                self.submit_ms[kind].append((now - start) * 1e3)
                self.verdicts[i] = verdict
                if verdict["status"] in SETTLED:
                    ended[i] = (start, now)
                else:
                    inflight[verdict["run_id"]] = (i, start)
            if not inflight:
                continue
            time.sleep(POLL_S)
            start = time.perf_counter()
            jobs = client.poll(list(inflight))
            now = time.perf_counter()
            self.poll_ms.append((now - start) * 1e3)
            for job in jobs:
                if job["status"] in SETTLED:
                    i, submitted = inflight.pop(job["run_id"])
                    ended[i] = (submitted, now)
                    self.jobs[i] = job
        timings = [
            (*ended.get(i, (0.0, 0.0)), i in ended, self.engine)
            for i in range(len(self.ops))
        ]
        return timings, [(loop_start, time.perf_counter())]

    def _inprocess(self, params: dict, snap: str) -> dict:
        result = run_inprocess(params, str(self.tmp / snap))
        # hpl_run boots at t=0 with dt_s=0.01 and ends on a tick.
        self.sim_ticks += round(result["wall_s"] / 0.01)
        return result

    # -- output checks ---------------------------------------------------------

    def _result(self, i: int) -> dict | None:
        path = (self.jobs.get(i) or {}).get("result_path")
        if path is None:
            run_id = self.verdicts.get(i, {}).get("run_id")
            path = self.daemon.out / run_id / "result.json" if run_id else None
        try:
            return json.loads(Path(path).read_text()) if path else None
        except (OSError, ValueError):
            return None

    def check(self) -> tuple[set[int], list[str]]:
        """Every job ends done; repeats are CACHED with the stored result;
        one fresh job equals the same spec run in-process."""
        failed: set[int] = set()
        notes: list[str] = []
        for i, (kind, params) in enumerate(self.ops):
            verdict = self.verdicts.get(i, {})
            status = self.jobs[i]["status"] if i in self.jobs else verdict.get("status")
            want = "cached" if kind == "cached" else "admitted"
            if verdict.get("disposition") != want or status != "done":
                failed.add(i)
                notes.append(f"op {i} ({kind}): {verdict.get('disposition')}/{status}")
            elif kind == "cached" and self._result(i) != self.cached_results[i]:
                failed.add(i)
                notes.append(f"op {i}: cached result differs from the stored one")
        i = self.digest_op
        reference = self._inprocess(self.ops[i][1], "check.snap")
        if self._result(i) != reference:
            failed.add(i)
            notes.append(f"op {i}: daemon result differs from in-process hpl_run")
        return failed, notes

    # -- per-layer metrics -----------------------------------------------------

    def untraced_extras(self, timings) -> dict:
        """Worker compute time of the fresh specs in-process, the job
        overhead on top of it, and one bare worker interpreter start."""
        overhead, compute = [], []
        for i, (kind, params) in enumerate(self.ops):
            if kind != "fresh":
                continue
            start = time.perf_counter()
            self._inprocess(params, "compute.snap")
            compute.append(time.perf_counter() - start)
            overhead.append(timings[i][1] - timings[i][0] - compute[-1])
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        spawn = []
        for _ in range(5):
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, "-m", "repro.supervisor.worker", "--help"],
                env=env, stdout=subprocess.DEVNULL, check=True,
            )
            spawn.append(time.perf_counter() - start)
        return {
            "worker.compute_ms": statistics.median(compute) * 1e3,
            "supervisor.job_overhead_ms": statistics.median(overhead) * 1e3,
            "supervisor.spawn_import_ms": statistics.median(spawn) * 1e3,
            "supervisor.submit_ms": statistics.median(self.submit_ms["fresh"]),
            "supervisor.cache_hit_ms": statistics.median(self.submit_ms["cached"]),
            "supervisor.poll_ms": statistics.median(self.poll_ms),
        }

    def traced_extras(self, rec) -> dict:
        """The daemon's fleet counters; the service core in-process (journal,
        cache, pool) on a batch of 8 specs with an empty cache; then the
        fresh specs through ``hpl_run`` in-process at the workload's
        checkpoint cadence (sim vs checkpoint vs the rest)."""
        self.stop_daemon()
        fleet = self.daemon_metrics.get("counters", {})
        launches = fleet.get("fleet.launch", 0)
        done = fleet.get("fleet.done", 0)
        out = {
            "supervisor.launches": launches,
            "supervisor.done": done,
            "supervisor.retries": fleet.get("fleet.retry", 0),
            "supervisor.useful_ratio": done / launches if launches else 0.0,
        }
        rec.wrap(Journal, ["append", "append_many"], "supervisor")
        rec.wrap(ResultCache, ["get", "put"], "supervisor")
        rec.wrap(ServiceCore, ["submit", "job_status", "step"], "supervisor")
        core_dir = self.tmp / "core"
        core = ServiceCore(
            str(core_dir), workers=WORKERS, cache_dir=str(self.tmp / "core-cache"),
            jitter_seed=0, checkpoint_every_s=CHECKPOINT_EVERY_S, log=lambda _: None,
        )
        batch = [RunSpec("", "hpl", p) for _, p in self.ops[:8]]
        core.open()
        try:
            core.submit(batch)
            core.run_until_idle()
        finally:
            core.close()
        out["supervisor.journal_append_ms"] = (
            rec.mean_us("Journal.append", "Journal.append_many") / 1e3
        )
        out["supervisor.journal_bytes"] = os.path.getsize(core_dir / "journal.jsonl") / len(batch)
        sizes, saves0 = [], rec.calls("checkpoint", *SAVE_SPANS)
        for kind, params in self.ops:
            if kind == "fresh":
                self._inprocess(params, "traced.snap")
                sizes.append(os.path.getsize(self.tmp / "traced.snap"))
        saves = rec.calls("checkpoint", *SAVE_SPANS) - saves0
        out["checkpoint.save_ms"] = rec.mean_us(*SAVE_SPANS) / 1e3
        out["checkpoint.bytes"] = statistics.median(sizes)
        out["checkpoint.saves"] = saves
        return out
