"""``paper-cells``: the HPL cells behind Table II and Figures 1-4.

One op is one HPL cell on a freshly booted ``System`` with the default
engine, at the sizes ``repro-reproduce --quick`` uses.  A pass is the
16 cells: the six Table II Raptor Lake cells, the six Figure 4 OrangePi
cells, and the four cells Figures 1-3 run under the 1 s ``Sampler``
(P+E Raptor Lake for both HPL builds, OrangePi "big x2" and "all x6").
Every seed runs the same passes; the seed only shuffles the op order
(so a slow phase of the host hits every cell kind alike) and picks the
cell that is re-run on the ``ticks`` engine for the digest check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.experiments import fig3_arm_throttle, fig4_arm_scaling, table2_hpl
from repro.experiments.common import (
    orangepi_core_sets,
    orangepi_system,
    raptor_core_sets,
    raptor_system,
)
from repro.hpl import HplConfig, run_hpl
from repro.monitor import monitored_run
from repro.tools.reproduce import QUICK_OPI, QUICK_RAPTOR

NAME = "paper-cells"
#: Timings are normalized for host speed (see hostspeed.py).
NORMALIZED = True

#: Host seconds one pass of 16 cells takes on the reference 2-CPU host
#: (macro engine); ``--seconds`` buys ``round(seconds / PASS_S)`` passes.
PASS_S = 8.0


@dataclass(frozen=True)
class Cell:
    artifact: str  # "table2" | "fig4" | "fig12" | "fig3"
    name: str      # core set / series name
    variant: str   # HPL build


def pass_cells() -> list[Cell]:
    cells = [
        Cell("table2", cs, v)
        for cs in table2_hpl.CORE_SET_ORDER
        for v in ("openblas", "intel")
    ]
    cells += [Cell("fig4", name, "openblas") for name, _ in fig4_arm_scaling.CORE_SERIES]
    cells += [Cell("fig12", "P and E", v) for v in ("openblas", "intel")]
    cells += [Cell("fig3", name, "openblas") for name in ("big x2", "all x6")]
    return cells


#: The warm-up op: the cheapest cell, run once before timing.
WARMUP = Cell("fig4", "4 little", "openblas")


def run_cell(cell: Cell, engine: str | None = None):
    """Boot a fresh system and run one cell; returns (system, output).

    The output is the ``HplResult``, or ``(HplResult, SampleTrace)`` for
    the monitored cells, exactly as the experiment modules produce them.
    """
    kw = {} if engine is None else {"engine": engine}
    if cell.artifact == "table2":
        system = raptor_system(**kw)
        cpus = raptor_core_sets(system)[cell.name]
        return system, run_hpl(system, QUICK_RAPTOR, cell.variant, cpus, settle_temp_c=35.0)
    if cell.artifact == "fig4":
        system = orangepi_system(**kw)
        cpus = dict(fig4_arm_scaling.CORE_SERIES)[cell.name]
        return system, run_hpl(system, QUICK_OPI, "openblas", cpus, settle_temp_c=35.0)
    if cell.artifact == "fig12":
        system = raptor_system(**kw)
        cpus = raptor_core_sets(system)["P and E"]
        config: HplConfig = QUICK_RAPTOR
    else:
        system = orangepi_system(**kw)
        cpus = orangepi_core_sets(system)[cell.name]
        config = QUICK_OPI
    out = monitored_run(
        system,
        lambda: run_hpl(system, config, cell.variant, cpus),
        period_s=1.0,
        settle_temp_c=35.0,
    )
    return system, out


def fig3_result(traces: dict) -> fig3_arm_throttle.Fig3Result:
    """The Figure 3 summary of two monitored traces (as ``run_fig3``)."""
    out = fig3_arm_throttle.Fig3Result()
    for name, trace in traces.items():
        out.traces[name] = trace
        big = np.asarray(trace.freq_mhz["big"])
        little = np.asarray(trace.freq_mhz["LITTLE"])
        tail = slice(len(big) // 2, None)
        out.big_start_mhz[name] = float(big[:3].max())
        out.big_sustained_mhz[name] = float(np.median(big[tail]))
        out.little_sustained_mhz[name] = float(np.median(little[tail]))
        throttled = np.nonzero(big < 0.6 * 1800)[0]
        out.time_to_throttle_s[name] = (
            float(trace.times_s[throttled[0]]) if throttled.size else float("inf")
        )
    return out


class Workload:
    name = NAME

    def __init__(self, seed: int, seconds: float):
        rng = random.Random(seed)
        passes = max(1, round(seconds / PASS_S))
        self.ops = [(p, cell) for p in range(passes) for cell in pass_cells()]
        rng.shuffle(self.ops)
        self.digest_op = rng.randrange(len(self.ops))
        self.outputs: dict[int, object] = {}
        self.digest_system = None
        #: Simulated ticks of all ops (a deterministic count).
        self.sim_ticks = 0
        #: Modeled perf syscalls of all ops (a deterministic count).
        self.syscalls = 0

    def boot(self) -> None:
        """Nothing to boot: every op boots its own system."""

    def warmup(self) -> None:
        run_cell(WARMUP)

    def kind(self, i: int) -> str:
        return self.ops[i][1].artifact

    def run_op(self, i: int) -> str:
        """Run op ``i``; returns the engine it used."""
        system, out = run_cell(self.ops[i][1])
        self.outputs[i] = out
        self.sim_ticks += system.machine.clock.ticks
        self.syscalls += system.perf.cost.stats.total_calls
        if i == self.digest_op:
            self.digest_system = system
        return system.machine.engine

    def check(self) -> tuple[set[int], list[str]]:
        """Shape claims per pass and the engine digest law; returns the
        failed op indices and one message per failed claim."""
        failed: set[int] = set()
        notes: list[str] = []
        by_pass: dict[int, dict[str, list[int]]] = {}
        for i, (p, cell) in enumerate(self.ops):
            by_pass.setdefault(p, {}).setdefault(cell.artifact, []).append(i)
        for p, arts in sorted(by_pass.items()):
            t2 = table2_hpl.Table2Result()
            for i in arts["table2"]:
                cell = self.ops[i][1]
                t2.results.setdefault(cell.name, {})[cell.variant] = self.outputs[i]
            f4 = fig4_arm_scaling.Fig4Result()
            for i in arts["fig4"]:
                f4.wall_s[self.ops[i][1].name] = self.outputs[i].wall_s
                f4.gflops[self.ops[i][1].name] = self.outputs[i].gflops
            f3 = fig3_result({self.ops[i][1].name: self.outputs[i][1] for i in arts["fig3"]})
            for artifact, claims in (
                ("table2", table2_hpl.shape_holds(t2)),
                ("fig4", fig4_arm_scaling.shape_holds(f4)),
                ("fig3", fig3_arm_throttle.shape_holds(f3)),
            ):
                bad = [k for k, ok in claims.items() if not ok]
                if bad:
                    failed.update(arts[artifact])
                    notes.append(f"pass {p} {artifact}: claims failed: {', '.join(bad)}")
        cell = self.ops[self.digest_op][1]
        reference, _ = run_cell(cell, engine="ticks")
        if self.digest_system is None:
            failed.add(self.digest_op)
        elif reference.state_digest() != self.digest_system.state_digest():
            failed.add(self.digest_op)
            notes.append(f"{cell}: state_digest differs from the ticks engine")
        return failed, notes
