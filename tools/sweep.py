#!/usr/bin/env python3
"""Run HPL experiment sweeps under the fault-tolerant measurement service.

Two ways to drive the same service core:

**One-shot** (the classic path — no subcommand)::

    python tools/sweep.py --out runs/sweep1
    # ... SIGKILL at any point (workers, supervisor, or both) ...
    python tools/sweep.py --out runs/sweep1 --resume

``--resume`` replays the journal, skips runs already done, and restarts
the rest from their latest checkpoint; the results are bit-identical to
a sweep that was never interrupted (``tools/resume_equivalence.py`` is
the CI gate that enforces exactly that).  ``--dry-run`` prints the
admission plan — which runs would be admitted, requeued, or skipped —
and touches nothing.

**Service mode** (the long-running daemon)::

    python tools/sweep.py serve --out runs/svc &        # start the daemon
    python tools/sweep.py submit --out runs/svc --preset quick --wait
    python tools/sweep.py status --out runs/svc
    python tools/sweep.py watch --out runs/svc hpl-openblas-n1000
    python tools/sweep.py shutdown --out runs/svc       # drain + exit

The daemon owns the worker pool and admits jobs over a unix socket
(``<out>/service.sock``): submits are idempotent by spec digest (a
resubmitted finished spec answers from the journal with zero launches),
admission is journaled+fsync'd before it is acknowledged, and a daemon
SIGKILLed at any instant reboots with ``serve`` to the exact same
state — orphaned workers reaped, queued jobs still queued.

Exit codes: 0 success; 1 failures (or unfinished runs); 3 drained on
SIGTERM (``--resume`` or re-``serve`` finishes the job); 4 the journal
is corrupt and cannot be trusted (restore ``journal.jsonl`` or its
``.bak``, or start fresh), or a journal write failed (free space, then
``--resume`` or re-``serve``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.supervisor import (  # noqa: E402
    DONE,
    FAILED,
    CANCELLED,
    JournalError,
    Journal,
    MeasurementService,
    RetryPolicy,
    RunSpec,
    ServiceClient,
    ServiceCore,
    ServiceError,
    socket_path_for,
)

#: Exit code when the sweep drained on SIGTERM (resume to continue).
EXIT_DRAINED = 3
#: Exit code when the journal is corrupt (mid-file tear, bad version,
#: unknown events): nothing was touched; restore the journal (or its
#: ``.bak`` from the last compaction) or start a fresh out dir.  Also
#: when a journal append failed (StorageError): what it acknowledged is
#: durable, and ``--resume`` / re-``serve`` finishes the rest.
EXIT_JOURNAL = 4

#: Sweep presets: problem sizes kept small enough to iterate on quickly.
PRESETS = {
    "quick": {"n_values": [1000, 2000], "variants": ["openblas"]},
    "paper": {"n_values": [2000, 4000, 8000], "variants": ["openblas", "intel"]},
    # 16 jobs sized for fleet/soak testing: big enough that a pool shows
    # real overlap, small enough that CI chews through them in seconds.
    "fleet": {
        "n_values": [800, 900, 1000, 1100, 1200, 1300, 1400, 1500],
        "variants": ["openblas", "intel"],
    },
}

SUBCOMMANDS = ("serve", "submit", "watch", "status", "shutdown")


def build_runs(args: argparse.Namespace) -> list[RunSpec]:
    preset = PRESETS[args.preset]
    n_values = args.n or preset["n_values"]
    variants = args.variants or preset["variants"]
    runs = []
    for variant in variants:
        for n in n_values:
            params = {
                "machine": args.machine,
                "n": n,
                "nb": args.nb,
                "variant": variant,
                "slice_s": args.slice_s,
            }
            runs.append(RunSpec(f"hpl-{variant}-n{n}", "hpl", params))
    if args.flaky:
        # A deterministic self-crashing run: dies with SIGKILL mid-run on
        # attempt 1, resumes from its checkpoint on attempt 2.  For
        # exercising the crash-isolation machinery end to end.
        runs.append(
            RunSpec(
                "flaky-selftest",
                "flaky-hpl",
                {
                    "machine": args.machine,
                    # The longest point of the sweep, so the run is still
                    # in flight (with a checkpoint down) at crash_at_s.
                    "n": max(n_values),
                    "nb": args.nb,
                    "variant": variants[0],
                    "slice_s": args.slice_s,
                    "crash_at_s": 0.08,
                    "crash_on_attempts": [1],
                },
            )
        )
    if args.chaos_seed is not None:
        inject_chaos(runs, args.chaos_seed)
    return runs


def inject_chaos(runs: list[RunSpec], seed: int) -> None:
    """Deterministically seed some runs with first-attempt faults.

    Roughly a fifth of the sweep self-crashes (SIGKILL mid-run) and a
    tenth wedges (heartbeats with frozen sim time — the stuck/migration
    path), always on attempt 1 only.  The fault parameters change how a
    run *executes*, never what it computes, so a chaos sweep must still
    end byte-identical to a calm one — that is the property the chaos
    fleet tests assert.
    """
    rng = random.Random(f"chaos:{seed}")
    injected = []
    for spec in runs:
        roll = rng.random()
        if roll < 0.2:
            spec.params.update(crash_at_s=0.06, crash_on_attempts=[1])
            injected.append(f"{spec.run_id}:crash")
        elif roll < 0.3:
            spec.params.update(stall_at_s=0.06, stall_on_attempts=[1])
            injected.append(f"{spec.run_id}:stall")
    print(f"[sweep] chaos seed {seed}: {', '.join(injected) or 'no faults drawn'}")


def print_metrics(core: ServiceCore) -> None:
    counters = core.metrics.as_dict()["counters"]
    keys = (
        "fleet.launch",
        "fleet.done",
        "fleet.retry",
        "fleet.migration",
        "fleet.preempt",
        "fleet.cache_hit",
        "fleet.failed",
    )
    parts = [f"{k.split('.', 1)[1]}={int(counters[k])}" for k in keys if k in counters]
    kills = [
        f"{k.split('|', 1)[1]}_kills={int(v)}"
        for k, v in counters.items()
        if k.startswith("fleet.liveness_kill|")
    ]
    print(f"[sweep] fleet metrics: {' '.join(parts + kills) or 'none'}")


# -- admission planning (--dry-run) ------------------------------------------


def dry_run_plan(args: argparse.Namespace, runs: list[RunSpec]) -> int:
    """Print what admission would do, touching nothing on disk."""
    journal_path = os.path.join(args.out, "journal.jsonl")
    records = {}
    if args.resume and os.path.exists(journal_path) and os.path.getsize(journal_path):
        records = Journal.replay(journal_path).records
    plans = {"admit": 0, "skip": 0, "requeue": 0, "resume": 0}
    print(f"{'run':28s} {'plan':8s} reason")
    for spec in runs:
        existing = records.get(spec.run_id)
        if existing is None:
            plan, why = "admit", "new spec"
        elif existing.status == DONE:
            plan, why = "skip", "already done" + (
                " (cached)" if existing.cached else ""
            )
        elif existing.status in (FAILED, CANCELLED):
            plan, why = "requeue", f"was {existing.status}; fresh attempt budget"
        else:
            plan, why = "resume", (
                f"{existing.status}, attempt {existing.attempts}, "
                f"checkpoint {existing.checkpoint_path or 'none'}"
            )
        plans[plan] += 1
        print(f"{spec.run_id:28s} {plan:8s} {why}")
    summary = ", ".join(f"{v} {k}" for k, v in plans.items() if v)
    print(f"[sweep] dry run: {summary or 'nothing to do'}; no files were touched")
    return 0


# -- service mode ------------------------------------------------------------


def add_service_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default="runs/sweep", help="output directory")
    parser.add_argument("--socket", default=None,
                        help="service socket path (default: <out>/service.sock)")


def make_client(args: argparse.Namespace) -> ServiceClient:
    return ServiceClient(
        args.socket or socket_path_for(args.out),
        retry=RetryPolicy(attempts=5, base_s=0.2, jitter_seed=0),
    )


def cmd_serve(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="sweep.py serve", description="run the measurement daemon",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    add_service_args(parser)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--max-attempts", type=int, default=3)
    parser.add_argument("--backoff-s", type=float, default=0.5)
    parser.add_argument("--jitter-seed", type=int, default=None)
    parser.add_argument("--timeout-s", type=float, default=300.0)
    parser.add_argument("--stuck-after-s", type=float, default=30.0)
    parser.add_argument("--checkpoint-every-s", type=float, default=0.1)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--cache-max-entries", type=int, default=None)
    parser.add_argument("--cache-max-bytes", type=int, default=None)
    parser.add_argument("--max-pending", type=int, default=None,
                        help="admission backpressure: reject submits past "
                             "this many queued runs")
    parser.add_argument("--compact-threshold-bytes", type=int,
                        default=8 * 1024 * 1024,
                        help="compact the journal on boot past this size")
    args = parser.parse_args(argv)

    core = ServiceCore(
        args.out,
        max_attempts=args.max_attempts,
        backoff_s=args.backoff_s,
        wall_timeout_s=args.timeout_s,
        checkpoint_every_s=args.checkpoint_every_s,
        workers=args.workers,
        stuck_after_s=args.stuck_after_s,
        jitter_seed=args.jitter_seed,
        cache_dir=args.cache_dir,
        cache_max_entries=args.cache_max_entries,
        cache_max_bytes=args.cache_max_bytes,
        max_pending=args.max_pending,
        compact_threshold_bytes=args.compact_threshold_bytes,
    )
    # The daemon always boots in resume mode: an existing journal is
    # state to recover, never to bulldoze.
    core.open(resume=True, requeue_failed=False)
    service = MeasurementService(core, socket_path=args.socket)
    try:
        service.serve()
    finally:
        core.close()
    return EXIT_DRAINED if core.drained and any(
        r.status not in (DONE, FAILED, CANCELLED) for r in core.records.values()
    ) else 0


def cmd_submit(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="sweep.py submit", description="submit sweep jobs to the daemon",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    add_service_args(parser)
    parser.add_argument("--preset", choices=sorted(PRESETS), default="quick")
    parser.add_argument("--machine", default="raptor-lake-i7-13700")
    parser.add_argument("--n", type=int, nargs="*", help="HPL problem sizes")
    parser.add_argument("--variants", nargs="*", help="HPL variants")
    parser.add_argument("--nb", type=int, default=128)
    parser.add_argument("--slice-s", type=float, default=0.05)
    parser.add_argument("--chaos-seed", type=int, default=None)
    parser.add_argument("--flaky", action="store_true")
    parser.add_argument("--wait", action="store_true",
                        help="poll until every submitted run settles")
    args = parser.parse_args(argv)

    client = make_client(args)
    results = client.submit(build_runs(args))
    for verdict in results:
        line = f"{verdict['run_id']:28s} {verdict['disposition']:10s} {verdict['status']}"
        if verdict.get("reason"):
            line += f"  ({verdict['reason']})"
        print(line)
    rejected = [v for v in results if v["disposition"] == "rejected"]
    if rejected:
        print(f"[sweep] {len(rejected)} spec(s) rejected; resubmit later")
    if args.wait:
        run_ids = [
            v["run_id"] for v in results if v["disposition"] != "rejected"
        ]
        jobs = client.wait(run_ids)
        failed = [j for j in jobs if j["status"] == FAILED]
        for job in failed:
            err = (job.get("error") or {})
            print(f"[sweep] {job['run_id']} failed: "
                  f"{err.get('type')}: {err.get('message')}")
        return 1 if failed else (1 if rejected else 0)
    return 1 if rejected else 0


def cmd_watch(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="sweep.py watch", description="follow one run's journal events",
    )
    add_service_args(parser)
    parser.add_argument("run_id")
    args = parser.parse_args(argv)
    client = make_client(args)
    for event in client.stream(args.run_id):
        print(json.dumps(event, sort_keys=True))
    return 0


def cmd_status(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="sweep.py status", description="print daemon status",
    )
    add_service_args(parser)
    args = parser.parse_args(argv)
    print(json.dumps(make_client(args).status(), indent=2, sort_keys=True))
    return 0


def cmd_shutdown(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="sweep.py shutdown", description="drain the daemon and exit it",
    )
    add_service_args(parser)
    args = parser.parse_args(argv)
    make_client(args).shutdown()
    print("[sweep] shutdown requested (daemon drains in-flight runs first)")
    return 0


# -- one-shot mode ------------------------------------------------------------


def run_one_shot(argv) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--out", default="runs/sweep", help="output directory")
    parser.add_argument("--resume", action="store_true",
                        help="resume from an existing journal")
    parser.add_argument("--dry-run", action="store_true",
                        help="print the admission plan and touch nothing")
    parser.add_argument("--preset", choices=sorted(PRESETS), default="quick")
    parser.add_argument("--machine", default="raptor-lake-i7-13700")
    parser.add_argument("--n", type=int, nargs="*", help="HPL problem sizes")
    parser.add_argument("--variants", nargs="*", help="HPL variants")
    parser.add_argument("--nb", type=int, default=128, help="HPL block size")
    parser.add_argument("--slice-s", type=float, default=0.05,
                        help="sim seconds per worker slice (checkpoint cadence)")
    parser.add_argument("--checkpoint-every-s", type=float, default=0.1,
                        help="sim seconds between checkpoints")
    parser.add_argument("--max-attempts", type=int, default=3)
    parser.add_argument("--backoff-s", type=float, default=0.5,
                        help="base retry backoff (doubles per attempt)")
    parser.add_argument("--jitter-seed", type=int, default=None,
                        help="seed for backoff jitter (omit: no jitter)")
    parser.add_argument("--timeout-s", type=float, default=300.0,
                        help="wall-clock kill timeout per worker")
    parser.add_argument("--stuck-after-s", type=float, default=30.0,
                        help="kill+migrate a worker whose simulated time "
                             "stops advancing for this many wall seconds")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker pool size (default: CPU-derived)")
    parser.add_argument("--cache-dir", default=None,
                        help="deterministic result cache directory "
                             "(identical resubmitted specs launch no workers)")
    parser.add_argument("--chaos-seed", type=int, default=None,
                        help="deterministically inject first-attempt "
                             "crashes/stalls into the sweep (testing)")
    parser.add_argument("--flaky", action="store_true",
                        help="add a deterministic self-crashing selftest run")
    args = parser.parse_args(argv)

    runs = build_runs(args)
    if args.dry_run:
        return dry_run_plan(args, runs)

    core = ServiceCore(
        args.out,
        max_attempts=args.max_attempts,
        backoff_s=args.backoff_s,
        wall_timeout_s=args.timeout_s,
        checkpoint_every_s=args.checkpoint_every_s,
        workers=args.workers,
        stuck_after_s=args.stuck_after_s,
        jitter_seed=args.jitter_seed,
        cache_dir=args.cache_dir,
    )

    def on_sigterm(signum, frame):
        # Async-signal-safe only: one os.write plus the flag-setting
        # drain request (print() allocates and can reenter stdout's
        # buffered writer mid-flush).
        core.request_drain()
        os.write(
            2,
            b"[sweep] SIGTERM: draining (checkpoint in-flight, keep journal)\n",
        )

    signal.signal(signal.SIGTERM, on_sigterm)
    records = core.run(runs, resume=args.resume)

    print()
    print(f"{'run':28s} {'status':8s} {'att':>3s} {'gflops':>9s} {'energy J':>9s}")
    failed = pending = 0
    for rid, rec in sorted(records.items()):
        gflops = energy = ""
        if rec.status == DONE and rec.result_path and os.path.exists(rec.result_path):
            with open(rec.result_path) as fh:
                result = json.load(fh)
            gflops = f"{result.get('gflops', 0.0):9.2f}"
            energy = f"{result.get('energy_j', 0.0):9.1f}"
        elif rec.status == FAILED:
            failed += 1
        else:
            pending += 1
        print(f"{rid:28s} {rec.status:8s} {rec.attempts:3d} {gflops:>9s} {energy:>9s}")
    print(f"\njournal: {core.journal_path}")
    print_metrics(core)
    if failed:
        return 1
    if core.drained and pending:
        print(f"[sweep] drained with {pending} run(s) pending; "
              f"rerun with --resume to finish")
        return EXIT_DRAINED
    return 1 if pending else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0] in SUBCOMMANDS:
            handler = {
                "serve": cmd_serve,
                "submit": cmd_submit,
                "watch": cmd_watch,
                "status": cmd_status,
                "shutdown": cmd_shutdown,
            }[argv[0]]
            return handler(argv[1:])
        return run_one_shot(argv)
    except JournalError as exc:
        # A journal this code refuses to trust (nothing was modified)
        # or cannot write to.  Distinct exit code, no traceback — the
        # operator restores journal.jsonl / its .bak, frees space, or
        # starts fresh.
        print(f"[sweep] journal error: {exc}", file=sys.stderr)
        return EXIT_JOURNAL
    except ServiceError as exc:
        print(f"[sweep] service error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
