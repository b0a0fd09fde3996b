"""Differential engine fuzzer: generated programs must run bit-identically
on the ``ticks`` reference engine and the ``events`` engine.

Hypothesis draws a whole scenario:

* 1-3 threads, each a mix of JobProfile compute phases and sleeps, with
  an optional barrier that the threads wait at by spinning or sleeping,
  and an optional affinity (all P-cores, all E-cores, or one CPU);
* a tick length ``dt_s`` in {0.0005, 0.001, 0.01}, and optional
  scheduler jitter;
* a PAPI EventSet on the first thread: plain counting, multiplexed
  (more events than counters, so rotation must engage), or with an
  overflow handler, read and reset from inside the program;
* a seeded random :class:`~repro.faults.FaultPlan` and an optional
  conditional hotplug fault;
* a tick at which the ``events`` run is checkpointed and restored
  (the ``ticks`` run goes straight through).

Both runs must end with equal ``state_digest``, equal PAPI results and
byte-identical trace dumps.  The example budget is bounded and
derandomized, so the suite stays fast and every run draws the same
scenarios.  Shrinking is off: a failing example re-runs a whole
scenario per shrink step, and the reported ``Scenario`` can be replayed
directly with :func:`assert_engines_agree`.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.checkpoint import load_object, save_object
from repro.checkpoint.surface import global_counter_state, set_global_counter_state
from repro.faults import CpuOffline, CpuOnline, FaultPlan
from repro.papi import Papi
from repro.sim.task import ControlOp, Program, SimThread
from repro.sim.workload import ComputePhase, SleepPhase, SpinBarrier
from repro.system import System
from repro.trace import to_text
from repro.workloads import JOB_PROFILES

MACHINE = "raptor-lake-i7-13700"

#: Reference first; every other engine is compared against it.
ENGINES = ("ticks", "events")

#: Simulated-time bound per run (a stuck scenario times out identically
#: on every engine, which still has to digest equal).
MAX_S = 1.0

FUZZ = settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    database=None,
    phases=(Phase.explicit, Phase.generate),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@dataclass(frozen=True)
class Scenario:
    dt_s: float
    seed: int
    jitter: float
    threads: tuple          # per thread: (affinity, items)
    barrier: str            # "none" | "spin" | "sleep"
    papi: str               # "none" | "count" | "mux" | "overflow"
    overflow_threshold: int
    fault_seed: int | None
    n_faults: int
    conditional_hotplug: bool
    checkpoint_tick: int


#: Thread items: ("compute", profile, instructions, op after it) or
#: ("sleep", seconds, op after it); ops are "", "read" or "reset".
_OPS = st.sampled_from(("", "read", "reset"))
_COMPUTE = st.tuples(
    st.just("compute"),
    st.sampled_from(sorted(JOB_PROFILES)),
    st.integers(min_value=1, max_value=150).map(lambda k: k * 1e7),
    _OPS,
)
_SLEEP = st.tuples(
    st.just("sleep"),
    st.integers(min_value=1, max_value=40).map(lambda ms: ms * 1e-3),
    _OPS,
)
_THREAD = st.tuples(
    st.sampled_from(("any", "P", "E", "P0", "E0")),
    st.lists(st.one_of(_COMPUTE, _COMPUTE, _SLEEP), min_size=1, max_size=4).map(tuple),
)

SCENARIOS = st.builds(
    Scenario,
    dt_s=st.sampled_from((0.0005, 0.001, 0.01)),
    seed=st.integers(min_value=0, max_value=7),
    jitter=st.sampled_from((0.0, 0.0, 0.0, 0.05)),
    threads=st.lists(_THREAD, min_size=1, max_size=3).map(tuple),
    barrier=st.sampled_from(("none", "spin", "sleep")),
    papi=st.sampled_from(("none", "count", "mux", "mux", "overflow")),
    overflow_threshold=st.integers(min_value=1, max_value=50).map(lambda k: k * 10**7),
    fault_seed=st.none() | st.integers(min_value=0, max_value=10**6),
    n_faults=st.integers(min_value=1, max_value=4),
    conditional_hotplug=st.booleans(),
    checkpoint_tick=st.integers(min_value=0, max_value=300),
)


def _affinity(topology, kind):
    if kind == "any":
        return None
    cpus = topology.cpus_of_type("P-core" if kind[0] == "P" else "E-core")
    return {cpus[0]} if kind.endswith("0") else set(cpus)


def _build(system, sc: Scenario):
    """Spawn the scenario's threads; returns (threads, results list)."""
    m = system.machine
    out: list = []
    papi = Papi(system) if sc.papi != "none" else None
    holder: dict = {}

    def setup(thread):
        es = papi.create_eventset()
        papi.attach(es, thread)
        if sc.papi == "mux":
            papi.set_multiplex(es)
            glc = system.perf.registry.by_name["cpu_core"]
            for _ in range(glc.n_counters + glc.n_fixed + 2):
                papi.add_event(es, "adl_glc::INST_RETIRED:ANY", caller=thread)
            papi.add_event(es, "adl_grt::INST_RETIRED:ANY", caller=thread)
        else:
            papi.add_event(es, "PAPI_TOT_INS", caller=thread)
        if sc.papi == "overflow":
            papi.overflow(
                es,
                "PAPI_TOT_INS",
                sc.overflow_threshold,
                lambda esid, sample: out.append(("sample", sample.time_s)),
                caller=thread,
            )
        papi.start(es, caller=thread)
        holder["es"] = es

    def read(thread):
        out.append(("read", tuple(papi.read(holder["es"], caller=thread))))

    def reset(thread):
        out.append(("read", tuple(papi.read(holder["es"], caller=thread))))
        papi.reset(holder["es"], caller=thread)

    def stop(thread):
        out.append(("stop", tuple(papi.stop(holder["es"], caller=thread))))

    barrier = (
        SpinBarrier(len(sc.threads), spin=sc.barrier == "spin")
        if sc.barrier != "none"
        else None
    )
    threads = []
    for i, (aff_kind, items) in enumerate(sc.threads):
        prog: list = []
        measured = papi is not None and i == 0
        if measured:
            prog.append(ControlOp(setup))
        for j, item in enumerate(items):
            if barrier is not None and j == len(items) // 2:
                prog.append(ControlOp(lambda t: barrier.arrive()))
                prog.append(barrier.wait_phase())
            if item[0] == "compute":
                _, name, instructions, op = item
                prog.append(
                    ComputePhase(instructions, JOB_PROFILES[name].rates, label=name)
                )
            else:
                _, seconds, op = item
                prog.append(SleepPhase(duration_s=seconds))
            if measured and op:
                prog.append(ControlOp(read if op == "read" else reset))
        if measured:
            prog.append(ControlOp(stop))
        threads.append(
            m.spawn(
                SimThread(
                    f"w{i}",
                    Program(prog),
                    affinity=_affinity(system.topology, aff_kind),
                )
            )
        )

    plan = None
    if sc.fault_seed is not None:
        plan = FaultPlan.random(
            sc.fault_seed, system.topology, duration_s=0.2, n_faults=sc.n_faults
        )
    if sc.conditional_hotplug:
        plan = plan if plan is not None else FaultPlan()
        first = threads[0]
        victim = system.topology.cpus_of_type("E-core")[-1]
        plan.when(lambda: first.total_runtime_s > 0.01, CpuOffline(victim))
        plan.when(lambda: first.total_runtime_s > 0.03, CpuOnline(victim))
    if plan is not None:
        system.inject_faults(plan)
    return threads, out


def _run(sc: Scenario, engine: str, checkpoint: bool, tmpdir: str):
    system = System(
        MACHINE,
        dt_s=sc.dt_s,
        seed=sc.seed,
        migrate_jitter=sc.jitter,
        rebalance_jitter=sc.jitter,
        engine=engine,
        trace=True,
    )
    threads, out = _build(system, sc)
    system.machine.run_ticks(sc.checkpoint_tick)
    if checkpoint:
        path = os.path.join(tmpdir, f"{engine}.ckpt")
        save_object({"system": system, "threads": threads, "out": out}, path)
        payload = load_object(path)
        system, threads, out = payload["system"], payload["threads"], payload["out"]
    system.machine.run_until_done(threads, max_s=MAX_S)
    return (
        system.state_digest(),
        repr(out),
        to_text(system.tracer.events_list()),
    )


def assert_engines_agree(sc: Scenario) -> None:
    """Run ``sc`` on every engine (checkpointing all but the reference)
    and require digest, result and trace equality with the reference."""
    g0 = global_counter_state()
    runs = {}
    with tempfile.TemporaryDirectory() as tmpdir:
        for engine in ENGINES:
            set_global_counter_state(g0)
            runs[engine] = _run(sc, engine, engine != ENGINES[0], tmpdir)
    ref_digest, ref_out, ref_trace = runs[ENGINES[0]]
    for engine in ENGINES[1:]:
        digest, out, trace = runs[engine]
        assert out == ref_out, f"{engine}: PAPI results differ from {ENGINES[0]}"
        assert trace == ref_trace, f"{engine}: trace dump differs from {ENGINES[0]}"
        assert digest == ref_digest, f"{engine}: state_digest differs from {ENGINES[0]}"


@FUZZ
@given(SCENARIOS)
def test_generated_programs_agree_across_engines(sc):
    assert_engines_agree(sc)
