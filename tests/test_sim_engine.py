"""Unit tests for the simulation engine, threads and phases."""

import pytest

from repro.hw.coretype import ArchEvent
from repro.sim.clock import SimClock
from repro.sim.task import ControlOp, Program, SimThread, ThreadState
from repro.sim.workload import (
    ComputePhase,
    PhaseRates,
    SleepPhase,
    SpinBarrier,
    SpinPhase,
    constant_rates,
)

RATES = constant_rates(PhaseRates(ipc=2.0, flops_per_instr=4.0, llc_refs_per_instr=0.01, llc_miss_rate=0.5))


class TestClock:
    def test_advance(self):
        c = SimClock(0.5)
        assert c.now_s == 0.0
        c.advance()
        c.advance()
        assert c.now_s == 1.0

    def test_positive_dt_required(self):
        with pytest.raises(ValueError):
            SimClock(0.0)


class TestPhases:
    def test_compute_phase_validates(self):
        with pytest.raises(ValueError):
            ComputePhase(0, RATES)

    def test_phase_rates_validates(self):
        with pytest.raises(ValueError):
            PhaseRates(ipc=0.0)

    def test_sleep_needs_condition_or_duration(self):
        with pytest.raises(ValueError):
            SleepPhase()

    def test_barrier_generations(self):
        b = SpinBarrier(parties=2)
        b.arrive()
        assert b.generation == 0
        b.arrive()
        assert b.generation == 1

    def test_barrier_wait_phase_kinds(self):
        spin = SpinBarrier(2, spin=True).wait_phase()
        sleep = SpinBarrier(2, spin=False).wait_phase()
        assert isinstance(spin, SpinPhase)
        assert isinstance(sleep, SleepPhase)


class TestExecution:
    def test_instruction_conservation(self, raptor):
        """Exactly the requested instructions retire — the bedrock of
        every counting test above this layer."""
        t = raptor.machine.spawn_program("w", [ComputePhase(12_345_678, RATES)])
        assert raptor.machine.run_until_done([t], max_s=10)
        assert t.counters_total()[ArchEvent.INSTRUCTIONS] == pytest.approx(12_345_678)

    def test_derived_counters_consistent(self, raptor):
        t = raptor.machine.spawn_program("w", [ComputePhase(1e7, RATES)])
        raptor.machine.run_until_done([t], max_s=10)
        totals = t.counters_total()
        assert totals[ArchEvent.FP_OPS] == pytest.approx(4e7, rel=1e-6)
        assert totals[ArchEvent.LLC_REFERENCES] == pytest.approx(1e5, rel=1e-6)
        assert totals[ArchEvent.LLC_MISSES] == pytest.approx(5e4, rel=1e-6)
        # IPC 2.0: cycles = instructions / 2.
        assert totals[ArchEvent.CYCLES] == pytest.approx(5e6, rel=1e-6)

    def test_fresh_rates_objects_get_their_own_event_rates(self):
        """A rates function may build a new PhaseRates per call (as
        JobProfile.rates does).  Freed objects' ids get reused, so the
        identity-keyed rate-vector cache must never hand one phase the
        event rates of another."""
        from repro.system import System
        from repro.workloads import JOB_PROFILES

        system = System("raptor-lake-i7-13700", dt_s=0.001)
        p_cpu = system.topology.cpus_of_type("P-core")[0]
        names = ["dgemm-kernel", "pointer-chase"] * 5
        t = system.machine.spawn_program(
            "w",
            [ComputePhase(2e7, JOB_PROFILES[n].rates) for n in names],
            affinity={p_cpu},
        )
        assert system.machine.run_until_done([t], max_s=10)
        ct = system.topology.core(p_cpu).ctype
        expected = sum(JOB_PROFILES[n].expected_counts(ct, 2e7) for n in names)
        totals = t.counters_total()
        for ev in (ArchEvent.CYCLES, ArchEvent.FP_OPS, ArchEvent.LLC_MISSES):
            assert totals[ev] == pytest.approx(expected[ev], rel=1e-9)

    def test_unpinned_thread_prefers_biggest_core(self, raptor):
        t = raptor.machine.spawn_program("w", [ComputePhase(1e6, RATES)])
        raptor.machine.run_until_done([t], max_s=10)
        assert set(t.counters) == {"cpu_core"}

    def test_affinity_respected(self, raptor):
        e_cpu = raptor.topology.cpus_of_type("E-core")[0]
        t = raptor.machine.spawn_program("w", [ComputePhase(1e6, RATES)], affinity={e_cpu})
        raptor.machine.run_until_done([t], max_s=10)
        assert set(t.counters) == {"cpu_atom"}

    def test_topdown_only_counted_on_pcores(self, raptor):
        p_cpu = raptor.topology.cpus_of_type("P-core")[0]
        e_cpu = raptor.topology.cpus_of_type("E-core")[0]
        tp = raptor.machine.spawn_program("p", [ComputePhase(1e6, RATES)], affinity={p_cpu})
        te = raptor.machine.spawn_program("e", [ComputePhase(1e6, RATES)], affinity={e_cpu})
        raptor.machine.run_until_done([tp, te], max_s=10)
        assert tp.counters["cpu_core"][ArchEvent.TOPDOWN_SLOTS] > 0
        assert te.counters["cpu_atom"][ArchEvent.TOPDOWN_SLOTS] == 0

    def test_control_ops_run_at_boundaries(self, raptor):
        seen = []
        t = raptor.machine.spawn_program(
            "w",
            [
                ControlOp(lambda th: seen.append("before")),
                ComputePhase(1e5, RATES),
                ControlOp(lambda th: seen.append("after")),
            ],
        )
        raptor.machine.run_until_done([t], max_s=10)
        assert seen == ["before", "after"]

    def test_overhead_injection(self, raptor):
        t = raptor.machine.spawn_program(
            "w",
            [
                ControlOp(lambda th: th.inject_overhead(50_000)),
                ComputePhase(1e5, RATES),
            ],
        )
        raptor.machine.run_until_done([t], max_s=10)
        assert t.counters_total()[ArchEvent.INSTRUCTIONS] == pytest.approx(150_000)

    def test_sleep_for_duration(self, raptor):
        t = raptor.machine.spawn_program(
            "w", [SleepPhase(duration_s=0.005), ComputePhase(1e5, RATES)]
        )
        raptor.machine.run_until_done([t], max_s=10)
        assert raptor.machine.now_s >= 0.005
        assert t.done

    def test_spin_until_condition(self, raptor):
        flag = {"go": False}
        waiter = raptor.machine.spawn_program(
            "waiter", [SpinPhase(until=lambda: flag["go"]), ComputePhase(1e5, RATES)]
        )
        raptor.machine.spawn_program(
            "setter",
            [ComputePhase(2e6, RATES), ControlOp(lambda th: flag.update(go=True))],
        )
        raptor.machine.run_until_done(max_s=10)
        assert waiter.done
        assert waiter.spin_time_s > 0

    def test_two_threads_barrier_sync(self, raptor):
        b = SpinBarrier(2)
        def mk():
            return [
                ComputePhase(1e6, RATES, on_complete=lambda th: b.arrive()),
                b.wait_phase(),
                ComputePhase(1e5, RATES),
            ]
        t1 = raptor.machine.spawn_program("a", mk())
        t2 = raptor.machine.spawn_program("b", mk())
        assert raptor.machine.run_until_done([t1, t2], max_s=10)
        assert b.generation == 1

    def test_timeshare_when_oversubscribed(self, raptor):
        cpu = raptor.topology.cpus_of_type("P-core")[0]
        ts = [
            raptor.machine.spawn_program(f"w{i}", [ComputePhase(1e6, RATES)], affinity={cpu})
            for i in range(3)
        ]
        raptor.machine.run_until_done(ts, max_s=10)
        for t in ts:
            assert t.counters_total()[ArchEvent.INSTRUCTIONS] == pytest.approx(1e6)

    def test_run_until_timeout(self, raptor):
        raptor.machine.spawn_program("w", [SpinPhase(until=lambda: False)])
        assert not raptor.machine.run_until_done(max_s=0.01)

    def test_cool_down(self, raptor_coarse):
        m = raptor_coarse.machine
        m.thermal.temp_c = 60.0
        assert m.cool_down(35.0, max_s=600)
        assert m.thermal.temp_c <= 35.0

    def test_vruntime_and_switches_tracked(self, raptor):
        cpu = raptor.topology.cpus_of_type("P-core")[0]
        t1 = raptor.machine.spawn_program("a", [ComputePhase(1e6, RATES)], affinity={cpu})
        t2 = raptor.machine.spawn_program("b", [ComputePhase(1e6, RATES)], affinity={cpu})
        raptor.machine.run_until_done([t1, t2], max_s=10)
        assert t1.vruntime > 0 and t2.vruntime > 0
        assert t1.nr_switches > 0


class TestDeterminism:
    def test_same_seed_same_result(self):
        from repro.system import System

        def run(seed):
            s = System("raptor-lake-i7-13700", dt_s=1e-4, seed=seed,
                       migrate_jitter=0.1, rebalance_jitter=0.1)
            t = s.machine.spawn_program("w", [ComputePhase(5e6, RATES)])
            s.machine.run_until_done([t], max_s=10)
            return {k: v[ArchEvent.INSTRUCTIONS] for k, v in t.counters.items()}

        assert run(3) == run(3)

    def test_jitter_migrates_across_core_types(self):
        from repro.system import System

        s = System("raptor-lake-i7-13700", dt_s=1e-4, seed=1,
                   migrate_jitter=0.2, rebalance_jitter=0.2)
        t = s.machine.spawn_program("w", [ComputePhase(5e7, RATES)])
        s.machine.run_until_done([t], max_s=10)
        assert t.nr_migrations > 0
        assert set(t.counters) == {"cpu_core", "cpu_atom"}
        # Conservation across migrations.
        assert t.counters_total()[ArchEvent.INSTRUCTIONS] == pytest.approx(5e7)
