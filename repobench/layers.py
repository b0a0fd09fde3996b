"""Host-time spans around calls into the simulator's layers.

The benchmark wraps public functions and methods of each ``repro``
package from the outside (LIKWID-style named regions): nothing inside
``src/`` changes.  Every call becomes a span with a name, a layer, a
start, a duration and the op it belongs to; nesting gives the parent.
Per function the recorder keeps calls, total time and self time
(duration minus the part covered by child spans), and it keeps the
first ``max_spans`` spans for a Chrome/Perfetto trace file.

Wrappers are installed on the *class* before the objects are built,
because several layers register bound methods as hooks at construction
(``PerfSubsystem._account``, ``Sampler._on_tick``).
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from typing import Any, Callable

_now_ns = time.perf_counter_ns


class LayerRecorder:
    """In-memory span recorder; see the module docstring."""

    def __init__(self, max_spans: int = 150_000):
        self.max_spans = max_spans
        #: (layer, name) -> [calls, total_ns, self_ns]
        self.stats: dict[tuple[str, str], list[int]] = {}
        #: (name, layer, start_ns, dur_ns, op) for the trace file
        self.spans: list[tuple[str, str, int, int, int]] = []
        self.dropped_spans = 0
        #: Index of the benchmark op in progress (-1: outside any op).
        self.op = -1
        self._stack: list[list[int]] = []  # per open span: [child_ns]
        self._undo: list[tuple[Any, str, Any]] = []
        self.t0_ns = _now_ns()

    # -- recording -----------------------------------------------------------

    def _close(self, stats: list[int], name: str, layer: str, start: int) -> None:
        dur = _now_ns() - start
        child = self._stack.pop()[0]
        if self._stack:
            self._stack[-1][0] += dur
        stats[0] += 1
        stats[1] += dur
        stats[2] += dur - child
        if len(self.spans) < self.max_spans:
            self.spans.append((name, layer, start, dur, self.op))
        else:
            self.dropped_spans += 1

    def span(self, layer: str, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so each call records one span."""
        stats = self.stats.setdefault((layer, name), [0, 0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append([0])
            start = _now_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(stats, name, layer, start)

        return wrapper

    @contextlib.contextmanager
    def region(self, layer: str, name: str):
        """One span around a block of benchmark code."""
        stats = self.stats.setdefault((layer, name), [0, 0, 0])
        self._stack.append([0])
        start = _now_ns()
        try:
            yield
        finally:
            self._close(stats, name, layer, start)

    def wrap(self, owner: Any, attrs: list[str], layer: str) -> None:
        """Replace each ``owner.<attr>`` (class or module attribute) by a span."""
        for attr in attrs:
            original = owner.__dict__[attr]
            name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
            if isinstance(original, staticmethod):
                wrapped: Any = staticmethod(self.span(layer, name, original.__func__))
            else:
                wrapped = self.span(layer, name, original)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, original))

    def unwrap(self) -> None:
        """Restore every wrapped attribute (newest first)."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reading -------------------------------------------------------------

    def calls(self, layer: str, *names: str) -> int:
        """Calls into ``layer``, or into its functions named in ``names``."""
        return sum(
            s[0] for (ly, nm), s in self.stats.items()
            if ly == layer and (not names or nm in names)
        )

    def self_ms(self, layer: str) -> float:
        return sum(s[2] for (ly, _), s in self.stats.items() if ly == layer) / 1e6

    def mean_us(self, *names: str) -> float:
        """Mean duration of the named functions' calls, in microseconds."""
        calls, total = 0, 0
        for (_, nm), s in self.stats.items():
            if nm in names:
                calls += s[0]
                total += s[1]
        return total / calls / 1e3 if calls else 0.0

    def reset(self) -> None:
        """Forget everything recorded so far (wrappers stay installed)."""
        for stats in self.stats.values():
            stats[:] = [0, 0, 0]
        self.spans.clear()
        self.dropped_spans = 0

    def table(self) -> dict:
        """Per-layer and per-function calls, total and self time (ms)."""
        layers: dict[str, dict] = {}
        for (layer, name), (calls, total, self_ns) in sorted(self.stats.items()):
            entry = layers.setdefault(layer, {"calls": 0, "self_ms": 0.0, "functions": {}})
            entry["calls"] += calls
            entry["self_ms"] += self_ns / 1e6
            entry["functions"][name] = {
                "calls": calls,
                "total_ms": total / 1e6,
                "self_ms": self_ns / 1e6,
            }
        return layers

    def write_chrome_trace(self, path: str, meta: dict) -> None:
        """Chrome trace-event JSON; open it in https://ui.perfetto.dev."""
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (start - self.t0_ns) / 1e3,
                "dur": dur / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"op": op},
            }
            for name, layer, start, dur, op in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(
                {
                    "traceEvents": events,
                    "displayTimeUnit": "ms",
                    "otherData": dict(meta, dropped_spans=self.dropped_spans),
                },
                fh,
            )


def wrap_simulator(rec: LayerRecorder) -> None:
    """Spans on the layers every workload drives: sim, hw, kernel.sched,
    kernel.perf, hpl, monitor, papi, pfmlib and checkpoint."""
    import repro.checkpoint.digest as digest
    import repro.checkpoint.snapshot as snapshot
    import repro.supervisor.runs as runs
    from repro.hpl.runner import HplThreadSource
    from repro.hw.dvfs import DvfsGovernor
    from repro.hw.power import PowerModel
    from repro.hw.rapl import RaplPackage
    from repro.hw.thermal import ThermalModel
    from repro.kernel.perf.subsystem import PerfSubsystem
    from repro.kernel.sched.scheduler import Scheduler
    from repro.monitor.sampler import Sampler
    from repro.papi.library import Papi
    from repro.pfmlib.library import Pfmlib
    from repro.sim.engine import Machine

    rec.wrap(Machine, ["tick", "run_ticks", "run_until"], "sim")
    rec.wrap(PowerModel, ["sample_activity"], "hw")
    rec.wrap(ThermalModel, ["step", "apply_throttling"], "hw")
    rec.wrap(RaplPackage, ["step"], "hw")
    rec.wrap(DvfsGovernor, ["update"], "hw")
    rec.wrap(Scheduler, ["schedule"], "kernel.sched")
    rec.wrap(
        PerfSubsystem,
        ["perf_event_open", "read", "ioctl", "close", "_account", "_on_tick"],
        "kernel.perf",
    )
    rec.wrap(HplThreadSource, ["next_phase"], "hpl")
    rec.wrap(Sampler, ["_on_tick"], "monitor")
    rec.wrap(
        Papi,
        [
            "__init__", "create_eventset", "attach", "set_multiplex", "add_event",
            "start", "read", "stop", "cleanup_eventset", "destroy_eventset",
        ],
        "papi",
    )
    rec.wrap(
        Pfmlib,
        ["find_event", "find_all_matches", "kernel_pmu_type", "default_pmus"],
        "pfmlib",
    )
    # save_object is also imported by name into the supervisor's run module.
    rec.wrap(snapshot, ["save_object"], "checkpoint")
    rec.wrap(runs, ["save_object"], "checkpoint")
    rec.wrap(digest, ["state_digest"], "checkpoint")


#: The spans of one checkpoint save (by either import of ``save_object``).
SAVE_SPANS = ("snapshot.save_object", "runs.save_object")


def simulator_metrics(rec: LayerRecorder, sim_ticks: int, syscalls: int) -> dict[str, float]:
    """The per-layer metrics every workload reports, from one traced run;
    ``sim_ticks`` and ``syscalls`` (modeled perf syscalls) are counted
    by the workload over its timed ops."""
    tick_calls = rec.calls("sim", "Machine.tick")
    sim_ms = rec.self_ms("sim")
    return {
        "sim.sim_ticks": sim_ticks,
        "sim.tick_calls": tick_calls,
        "sim.leap_ratio": sim_ticks / tick_calls if tick_calls else 0.0,
        "sim.self_ms": sim_ms,
        "sim.host_us_per_tick": sim_ms * 1e3 / sim_ticks if sim_ticks else 0.0,
        "hw.calls": rec.calls("hw"),
        "hw.self_ms": rec.self_ms("hw"),
        "kernel.sched.calls": rec.calls("kernel.sched"),
        "kernel.sched.self_ms": rec.self_ms("kernel.sched"),
        "kernel.perf.open_calls": rec.calls("kernel.perf", "PerfSubsystem.perf_event_open"),
        "kernel.perf.read_calls": rec.calls("kernel.perf", "PerfSubsystem.read"),
        "kernel.perf.syscalls_modeled": syscalls,
        "kernel.perf.self_ms": rec.self_ms("kernel.perf"),
        "hpl.next_phase_calls": rec.calls("hpl", "HplThreadSource.next_phase"),
        "hpl.self_ms": rec.self_ms("hpl"),
        "monitor.self_ms": rec.self_ms("monitor"),
        "papi.calls": rec.calls("papi"),
        "papi.self_ms": rec.self_ms("papi"),
        "pfmlib.calls": rec.calls("pfmlib"),
        "pfmlib.self_ms": rec.self_ms("pfmlib"),
        "checkpoint.saves": rec.calls("checkpoint", *SAVE_SPANS),
    }
