"""``papi-sessions``: hybrid PAPI on a thread whose core type changes.

One booted Raptor Lake ``System`` with ``Papi(mode="hybrid")`` and an
unpinned target thread; migrate/rebalance jitter and a few background
threads move it between P-cores and E-cores.  One op is one full
measurement session on that thread, driven from outside the simulation
between ticks: create, attach, add events, start, reads, stop, cleanup,
destroy.  Two op kinds in a fixed 3:1 ratio:

* ``setup-heavy``: an event-chooser style session that probes
  ``PROBES`` event combinations, each added, started, read twice over
  two ticks, stopped and cleaned up -- mostly pfmlib lookups and
  ``perf_event_open``/``close``;
* ``read-heavy``: one combination read ``READS`` times, several reads
  per simulated tick; half of them multiplexed with more events than
  the 8 general-purpose counters.

The ratio keeps the median inside the setup-heavy ops and the tail
percentile inside the read-heavy ones, away from the boundary between
the two.  The seed draws the events (both core PMUs, plus ``rapl`` and
``uncore_llc`` in some sessions) and shuffles the op order.
"""

from __future__ import annotations

import random

from repro.hw.coretype import ArchEvent
from repro.papi import Papi
from repro.papi.consts import PAPI_OK
from repro.pfmlib.library import Pfmlib
from repro.sim.task import SimThread
from repro.sim.workload import ComputePhase, PhaseRates, constant_rates
from repro.system import System
from repro.validate.harness import EXACT_ATOL

NAME = "papi-sessions"
#: Timings are normalized for host speed (see hostspeed.py).
NORMALIZED = True

#: Host seconds per op, averaged over the 3:1 mix on the reference host;
#: ``--seconds`` buys ``round(seconds / OP_S)`` ops (a multiple of 8).
OP_S = 0.022
PROBES = 8
READS = 200
READS_PER_TICK = 4

INST = {"adl_glc": "adl_glc::INST_RETIRED:ANY", "adl_grt": "adl_grt::INST_RETIRED:ANY"}
#: Extra events per core PMU in a counting (non-multiplexed) session:
#: with INST_RETIRED this stays within the E-core's 6 GP counters.
MAX_EXTRA = 4

_RATES = (
    constant_rates(PhaseRates(ipc=2.0, branches_per_instr=0.1)),
    constant_rates(PhaseRates(ipc=0.8, branches_per_instr=0.2, llc_refs_per_instr=0.02)),
)


class EndlessWork:
    """Work source that alternates two compute profiles forever."""

    def __init__(self, instructions: float):
        self.instructions = instructions
        self.n = 0

    def next_phase(self, thread):
        self.n += 1
        return ComputePhase(self.instructions, _RATES[self.n % 2], label="work")


def boot(seed: int):
    """The measured machine: returns (system, papi, target thread)."""
    system = System(
        "raptor-lake-i7-13700",
        dt_s=0.001,
        seed=seed,
        migrate_jitter=0.3,
        rebalance_jitter=0.3,
    )
    target = system.machine.spawn(SimThread("target", EndlessWork(4e6)))
    for k in range(6):
        system.machine.spawn(SimThread(f"noise{k}", EndlessWork(1.5e6)))
    return system, Papi(system, mode="hybrid"), target


class Workload:
    name = NAME

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        rng = random.Random(seed)
        n = max(8, 8 * round(seconds / OP_S / 8))
        kinds = ["setup-heavy"] * (n * 3 // 4) + ["read-heavy", "read-heavy-mux"] * (n // 8)
        rng.shuffle(kinds)
        self.kinds = kinds
        self.rng = rng
        self.natives: dict[str, list[str]] = {}
        self.ops: list[tuple[str, list[list[str]]]] = []
        self.system = self.papi = self.target = None
        #: Per op: list of (instructions counted, ground truth) pairs.
        self.exact: dict[int, list[tuple[float, float]]] = {}
        self.bad_status: dict[int, int] = {}
        self.reads = 0
        self.sim_ticks = 0
        self.syscalls = 0
        self.pmu_counts = dict.fromkeys(INST, 0.0)

    def _draw(self, kind: str) -> list[list[str]]:
        """The event lists of one session (one per probed combination)."""
        rng = self.rng
        natives = self.natives
        combos = []
        for _ in range(PROBES if kind == "setup-heavy" else 1):
            events = list(INST.values())
            for pmu, inst in INST.items():
                pool = [e for e in natives[pmu] if e != inst]
                k = len(pool) if kind == "read-heavy-mux" else rng.randint(1, MAX_EXTRA)
                events += rng.sample(pool, k)
            if rng.random() < 0.25:
                events.append(rng.choice(natives["rapl"]))
            if rng.random() < 0.25:
                events.append(rng.choice(natives["uncore_llc"]))
            combos.append(events)
        return combos

    def prepare(self) -> None:
        """Draw every session's events (the inputs, not part of set-up)."""
        pfm = Pfmlib(System("raptor-lake-i7-13700"))
        self.natives = {
            pmu: list(pfm.list_events(pmu))
            for pmu in ("adl_glc", "adl_grt", "rapl", "uncore_llc")
        }
        self.ops = [(kind, self._draw(kind)) for kind in self.kinds]

    def boot(self) -> None:
        self.system, self.papi, self.target = boot(self.seed)

    def warmup(self) -> None:
        self._session(-1, "read-heavy", [list(INST.values())])
        self.reads = 0
        self.exact.clear()
        self.pmu_counts = dict.fromkeys(INST, 0.0)

    def kind(self, i: int) -> str:
        return self.kinds[i]

    def run_op(self, i: int) -> str:
        kind, combos = self.ops[i]
        ticks = self.system.machine.clock.ticks
        calls = self.system.perf.cost.stats.total_calls
        self._session(i, kind, combos)
        self.sim_ticks += self.system.machine.clock.ticks - ticks
        self.syscalls += self.system.perf.cost.stats.total_calls - calls
        return self.system.machine.engine

    def _count(self, i: int, esid: int) -> None:
        if self.papi.last_status(esid) != PAPI_OK:
            self.bad_status[i] = self.bad_status.get(i, 0) + 1

    def _session(self, i: int, kind: str, combos: list[list[str]]) -> None:
        papi, machine, target = self.papi, self.system.machine, self.target
        mux = kind == "read-heavy-mux"
        reads = READS if kind != "setup-heavy" else 2
        per_tick = READS_PER_TICK if kind != "setup-heavy" else 1
        esid = papi.create_eventset()
        try:
            papi.attach(esid, target)
            if mux:
                papi.set_multiplex(esid)
            for events in combos:
                for name in events:
                    papi.add_event(esid, name)
                truth0 = target.counters_total()[ArchEvent.INSTRUCTIONS]
                papi.start(esid)
                for r in range(reads):
                    papi.read(esid)
                    self._count(i, esid)
                    if r % per_tick == per_tick - 1:
                        machine.run_ticks(1)
                values = papi.stop(esid)
                self._count(i, esid)
                truth = target.counters_total()[ArchEvent.INSTRUCTIONS] - truth0
                self.reads += reads
                if not mux:
                    self.exact.setdefault(i, []).append((values[0] + values[1], float(truth)))
                    self.pmu_counts["adl_glc"] += values[0]
                    self.pmu_counts["adl_grt"] += values[1]
                papi.cleanup_eventset(esid)
        finally:
            papi.destroy_eventset(esid)

    def traced_extras(self, rec) -> dict:
        return {
            "papi.reads": self.reads,
            "papi.read_errors": sum(self.bad_status.values()),
            "papi.read_us": rec.mean_us("Papi.read"),
            "papi.add_event_us": rec.mean_us("Papi.add_event"),
            "papi.start_stop_us": rec.mean_us("Papi.start", "Papi.stop"),
        }

    def check(self) -> tuple[set[int], list[str]]:
        """INST_RETIRED(P) + INST_RETIRED(E) equals the thread's ground
        truth exactly in counting sessions; every status is PAPI_OK.

        "Exactly" is the validation harness's exact band: each perf read
        truncates its count to an integer, so the sum of the two core
        PMUs may sit below the float ground truth by under one count
        per PMU (``EXACT_ATOL``)."""
        failed = set(self.bad_status)
        notes = [f"op {i}: {n} non-OK PAPI status(es)" for i, n in sorted(self.bad_status.items())]
        for i, pairs in sorted(self.exact.items()):
            if any(abs(counted - truth) > EXACT_ATOL for counted, truth in pairs):
                failed.add(i)
                notes.append(f"op {i}: INST_RETIRED sum differs from ground truth: {pairs}")
        if min(self.pmu_counts.values()) <= 0:
            notes.append(f"target never ran on both core types: {self.pmu_counts}")
            failed.update(range(len(self.ops)))
        return failed, notes
