"""The repository benchmark: three closed-loop workloads, fixed work per run.

    python3 repobench/run.py --workload paper-cells --seed 1 --seconds 24 --trace 0

``--seconds`` sets the *amount of work* (ops sized at their nominal cost
on the reference host), not a time limit: every run with the same
``--seconds`` does the same ops, so a faster program finishes sooner
and shows it in ``ops_per_s``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The line before it is a JSON detail record (tail
percentile, per-kind medians, engines used, host facts, check notes).

    python3 repobench/run.py --steadiness 5 --workloads papi-sessions --seconds 24

runs each named workload several times with seeds 1..N and prints the
median, quartiles and spreads of every metric.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MODULES = {
    "paper-cells": "paper_cells",
    "papi-sessions": "papi_sessions",
    "service-fleet": "service_fleet",
}
#: Counts of layers a workload does not drive.
ABSENT = {
    "papi.reads": 0,
    "papi.read_errors": 0,
    "supervisor.launches": 0,
    "supervisor.done": 0,
    "supervisor.retries": 0,
    "supervisor.useful_ratio": 0.0,
}
#: Fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_PROBES = 5
#: Samples that must lie beyond the tail percentile.
TAIL_BEYOND = 10


def die(msg: str) -> int:
    print(f"repobench: {msg}", file=sys.stderr)
    return 2


# -- statistics --------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile with at
    least ``TAIL_BEYOND`` samples beyond it (the maximum if too few)."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(1, n - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / n


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any waited-for child
    (the daemon and its workers for ``service-fleet``)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def host_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# -- set-up ------------------------------------------------------------------


def setup_probe(workload: str, seed: int, seconds: float) -> int:
    """Child side of ``setup_s``: import, boot, warm up, report, tear down."""
    t0 = time.perf_counter()
    from hostspeed import kernel_s  # after t0: its numpy import is set-up too

    first = kernel_s()
    module = importlib.import_module(MODULES[workload])
    t1 = time.perf_counter()
    wl = module.Workload(seed, seconds)
    try:
        wl.boot()
        t2 = time.perf_counter()
        wl.warmup()
        t3 = time.perf_counter()
        print(json.dumps({
            "import_ms": (t1 - t0 - first) * 1e3,
            "boot_ms": (t2 - t1) * 1e3,
            "warmup_ms": (t3 - t2) * 1e3,
            "kernel_s": [first, kernel_s()],
        }), flush=True)
    finally:
        if hasattr(wl, "close"):
            wl.close()
    return 0


def measure_setup(workload: str, seed: int, seconds: float, normalized: bool) -> dict:
    """Time ``SETUP_PROBES`` fresh interpreters from start to first op
    ready (imports, boot, warm-up op); medians of each part.

    Each probe times the host-speed kernel itself, first thing and when
    ready, on the CPU it runs on; for workloads that normalize,
    ``setup_s`` is its time without those two samples, normalized by
    their mean (the daemon of ``service-fleet`` boots in other
    processes, which the probe's samples do not describe)."""
    from hostspeed import REF_S

    totals, parts = [], []
    for k in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", workload,
             "--seed", str(seed + k), "--seconds", str(seconds)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        total = time.perf_counter() - start
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or not line:
            raise RuntimeError(f"set-up probe for {workload} failed")
        parts.append(json.loads(line))
        samples = parts[-1]["kernel_s"]
        factor = REF_S * len(samples) / sum(samples) if normalized else 1.0
        totals.append((total - sum(samples), factor))
    return {
        "setup_s": statistics.median(t * f for t, f in totals),
        "setup_host_s": statistics.median(t for t, _ in totals),
        "import_ms": statistics.median(p["import_ms"] for p in parts),
        "boot_ms": statistics.median(p["boot_ms"] for p in parts),
        "warmup_ms": statistics.median(p["warmup_ms"] for p in parts),
    }


# -- the timed phase -----------------------------------------------------------


def sequential(wl, speed, rec=None):
    """Run every op in order, sampling host speed before each op.

    Returns ``(timings, busy)``: (start, end, ok, engine) per op and the
    host intervals the program was working (here: the ops)."""
    out = []
    for i in range(len(wl.ops)):
        speed.sample()
        if rec is not None:
            rec.op = i
        region = rec.region("op", wl.kind(i)) if rec is not None else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with region:
                engine = wl.run_op(i)
            out.append((start, time.perf_counter(), True, engine))
        except Exception as exc:  # an op that raises is counted as failed
            print(f"op {i} ({wl.kind(i)}) raised {type(exc).__name__}: {exc}", file=sys.stderr)
            out.append((start, time.perf_counter(), False, ""))
    speed.sample()
    if rec is not None:
        rec.op = -1
    return out, [(a, b) for a, b, _, _ in out]


def run_phase(module, seed: int, seconds: float, rec=None, extras: bool = False) -> dict:
    """Prepare, boot, warm up, time the ops, check the outputs; with
    ``extras``, also collect the workload's own per-layer metrics."""
    wl = module.Workload(seed, seconds)
    try:
        if hasattr(wl, "prepare"):
            wl.prepare()
        wl.boot()
        wl.warmup()
        if rec is not None:
            rec.reset()
        if module.NORMALIZED:
            from hostspeed import HostSpeed

            speed = HostSpeed()
            timings, busy = sequential(wl, speed, rec)
        else:
            speed = None
            timings, busy = wl.run_timed(rec)
        failed, notes = wl.check()
        layer = {}
        if extras and rec is None and hasattr(wl, "untraced_extras"):
            layer = wl.untraced_extras(timings)
        if extras and rec is not None and hasattr(wl, "traced_extras"):
            layer = wl.traced_extras(rec)
    finally:
        if hasattr(wl, "close"):
            wl.close()
    failed |= {i for i, (_, _, ok, _) in enumerate(timings) if not ok}
    return {
        "wl": wl, "timings": timings, "busy": busy, "speed": speed,
        "failed": failed, "notes": notes, "extras": layer,
    }


def end_to_end(phase: dict, setup: dict) -> tuple[dict, dict]:
    """The end-to-end metrics and the detail record of one phase."""
    wl, timings, speed = phase["wl"], phase["timings"], phase["speed"]
    scale = speed.scale if speed is not None else (lambda a, b: b - a)
    done = [(i, scale(a, b), b - a) for i, (a, b, ok, _) in enumerate(timings) if ok]
    latencies = [norm for _, norm, _ in done]
    tail_value, tail_pct = tail(latencies)
    by_kind: dict[str, list[float]] = {}
    for i, norm, _ in done:
        by_kind.setdefault(wl.kind(i), []).append(norm)
    busy_norm = sum(scale(a, b) for a, b in phase["busy"])
    busy_host = sum(b - a for a, b in phase["busy"])
    values = {
        "setup_s": setup["setup_s"],
        "ops_per_s": len(done) / busy_norm,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {
        "op_tail_ms": f"p{tail_pct:.1f} of {len(done)} samples",
        "host": {
            "busy_s": busy_host,
            "ops_per_s": len(done) / busy_host,
            "op_p50_ms": statistics.median(raw for _, _, raw in done) * 1e3,
            "op_tail_ms": tail([raw for _, _, raw in done])[0] * 1e3,
            "setup_s": setup["setup_host_s"],
        },
        **({"kernel_ms": speed.median_kernel_ms()} if speed is not None else {}),
        "kinds": {k: {"n": len(v), "p50_ms": statistics.median(v) * 1e3}
                  for k, v in sorted(by_kind.items())},
        "engines_used": sorted({e for _, _, ok, e in timings if ok}),
        "setup": setup,
        **host_facts(),
        "notes": phase["notes"][:20],
    }
    return values, detail


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    module = importlib.import_module(MODULES[workload])
    setup = measure_setup(workload, seed, seconds, module.NORMALIZED)
    plain = run_phase(module, seed, seconds, extras=trace)
    values, detail = end_to_end(plain, setup)
    if trace:
        from layers import LayerRecorder, simulator_metrics, wrap_simulator

        rec = LayerRecorder()
        wrap_simulator(rec)
        if hasattr(module, "wrap_layers"):
            module.wrap_layers(rec)
        try:
            traced = run_phase(module, seed, seconds, rec, extras=True)
        finally:
            rec.unwrap()
        traced_values, _ = end_to_end(traced, setup)
        wl = traced["wl"]
        layer = {
            **ABSENT,
            **simulator_metrics(rec, wl.sim_ticks, wl.syscalls),
            **plain["extras"],
            **traced["extras"],
            "setup.import_ms": setup["import_ms"],
            "setup.boot_ms": setup["boot_ms"],
            "trace.ops_per_s_ratio": traced_values["ops_per_s"] / values["ops_per_s"],
        }
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"{workload}-seed{seed}"
        meta = {"workload": workload, "seed": seed, "seconds": seconds}
        rec.write_chrome_trace(f"{stem}.trace.json", meta)
        with open(f"{stem}.layers.json", "w") as fh:
            json.dump({**meta, "metrics": layer, "layers": rec.table()}, fh, indent=1)
        print_layer_table(rec.table(), layer)
        print(f"trace: {stem}.trace.json  layers: {stem}.layers.json")
        failed = plain["failed"] | traced["failed"]
        wanted, reported = "per_layer", layer
    else:
        failed = plain["failed"]
        wanted, reported = "end_to_end", values
    # Metric names and units come from the benchmark definition.
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {
        m["name"]: {"value": reported[m["name"]], "unit": m["unit"]} for m in bench[wanted]
    }
    attempted = len(plain["timings"])
    print(json.dumps({"workload": workload, "seed": seed, **detail}))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


def print_layer_table(table: dict, metrics: dict) -> None:
    print(f"{'layer':<14}{'calls':>10}{'self ms':>12}")
    for layer, entry in table.items():
        print(f"{layer:<14}{entry['calls']:>10}{entry['self_ms']:>12.1f}")
    for name, value in sorted(metrics.items()):
        print(f"  {name} = {value:.6g}")


# -- steadiness report -----------------------------------------------------------


def steadiness(workloads: list[str], runs: int, seconds: float, trace: int, first_seed: int) -> int:
    """Run each workload ``runs`` times (seeds first_seed..) and print the
    median, quartiles, IQR share and max/min spread of every metric."""
    for workload in workloads:
        series: dict[str, list[float]] = {}
        failed = 0
        for seed in range(first_seed, first_seed + runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(proc.stderr[-2000:], file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            failed += result["failed"]
            for name, m in result["metrics"].items():
                series.setdefault(name, []).append(m["value"])
            if not trace:  # the raw host-time figures, for comparison
                for name, value in json.loads(lines[-2])["host"].items():
                    series.setdefault(f"host.{name}", []).append(value)
        print(f"== {workload}: {runs} runs, failed ops {failed}")
        print(f"{'metric':<32}{'median':>12}{'q1':>12}{'q3':>12}{'iqr/med':>9}{'max/min':>9}")
        for name, vals in series.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals * 3)
            iqr = (q3 - q1) / med if med else 0.0
            spread = max(vals) / min(vals) if min(vals) else float("nan")
            print(f"{name:<32}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{iqr:>9.3f}{spread:>9.3f}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(MODULES))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", choices=sorted(MODULES), help=argparse.SUPPRESS)
    p.add_argument("--steadiness", type=int, metavar="RUNS",
                   help="run each of --workloads RUNS times and report spreads")
    p.add_argument("--workloads", default=",".join(MODULES))
    args = p.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        return die(f"no simulator sources under {SRC}; run from a full checkout")
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args.setup_probe, args.seed, args.seconds)
    if args.steadiness:
        return steadiness(args.workloads.split(","), args.steadiness, args.seconds,
                          args.trace, args.seed)
    if not args.workload:
        return die("--workload is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
