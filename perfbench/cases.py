"""The benchmark's workloads.

Each puts a different layer of the simulator in charge (see README.md).
BENCHMARK.json declares the first two; the others are diagnostic.

* ``fig1-cold``    -- the committed Fig. 1 campaign, cold, through a Runner;
* ``pc-modes``     -- busy paper-scale programs under eager, lazy and RoW;
* ``counter-lazy`` -- an idle-heavy single-line atomic counter, lazy mode;
* ``lu-spill``     -- a non-atomic program whose working set spills the L2.

One :meth:`Case.iterate` call is one unit of measured work: its set-up,
its timed regions and the checks on every cell it ran.
"""

from __future__ import annotations

import dataclasses
import random
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.parallel import Runner, RunnerError, execute_spec
from repro.analysis.runner import RunMetrics, config
from repro.common.params import SystemParams
from repro.service.planner import expand_campaign
from repro.service.schema import load_campaign
from repro.sim.multicore import MulticoreSimulator
from repro.workloads.litmus import atomic_counter
from repro.workloads.synthetic import build_program

from checks import Ledger, cell_facts, check_facts, check_repeat, check_warm
from hostspeed import NULL_HOST
from spans import profiling

FIG1_CAMPAIGN = Path(__file__).resolve().parent.parent / "campaigns" / "fig1.yaml"
FIG1_SCALE = "smoke"

PC_THREADS = 32
PC_INSTRUCTIONS = 1000
PC_MODES = ("eager", "lazy", "row")
PC_PROGRAMS = 5

COUNTER_THREADS = 32
COUNTER_INCREMENTS = 200
COUNTER_MAX_PAD = 16

LU_THREADS = 8
LU_INSTRUCTIONS = 2000


@dataclass
class Unit:
    """What one unit of measured work did and how long it took."""

    setup_s: float = 0.0
    # (label, simulated instructions committed, seconds, host slowdown) per
    # timed region; the slowdown is probed around it (hostspeed.py).
    timed: list[tuple[str, int, float, float]] = field(default_factory=list)
    facts: list[dict] = field(default_factory=list)  # one per checked cell
    build_keys: list[tuple] = field(default_factory=list)
    # (span, seconds): spans whose self time plus children must equal an
    # independently timed region.
    coverage: list[tuple] = field(default_factory=list)
    runner: dict = field(default_factory=dict)  # fig1-cold only

    @property
    def timed_s(self) -> float:
        return sum(seconds for _, _, seconds, _ in self.timed)


class Case:
    name = ""
    min_units = 2
    # Whether the run ends with one more unit, checked (see Fig1Cold).
    final_checked_unit = False

    def __init__(self, seed: int, ledger: Ledger) -> None:
        self.seed = seed
        self.ledger = ledger
        # label -> the first repeat's metrics/model counts (check_repeat).
        self.reference: dict[str, dict] = {}

    def iterate(self, rec, profiler, checked: bool = True, host=NULL_HOST,
                unit: int = 0) -> Unit:
        """One unit of work; ``unit`` counts the run's units from 0."""
        raise NotImplementedError

    def _run_cell(self, it: Unit, label: str, params, program, rec,
                  profiler, host) -> None:
        """Construct (set-up), run (timed), then check one simulation."""
        cell = self.ledger.cell(label)
        try:
            t0 = time.perf_counter()
            with rec.span("sim.construct", label):
                sim = MulticoreSimulator(params, program)
            construct_s = time.perf_counter() - t0
            before = host.probe()
            t1 = time.perf_counter()
            with rec.span("sim.run", label), profiling(profiler):
                result = sim.run()
            t2 = time.perf_counter()
            after = host.probe()
        except Exception as exc:  # a deadlock or budget abort fails the cell
            cell.failures.append(f"raised {exc!r}")
            return
        it.setup_s += construct_s
        with rec.span("analysis.metrics", label):
            metrics_json = RunMetrics.from_result(result).to_json()
        with rec.span("bench.facts", label):
            facts = cell_facts(result, program)
        it.timed.append(
            (label, facts["model"]["committed"], t2 - t1, (before + after) / 2)
        )
        it.facts.append(facts)
        check_facts(cell, facts)
        check_repeat(cell, self.reference, label, metrics_json, facts["model"])

    def _build(self, it: Unit, rec, key: tuple, build):
        t0 = time.perf_counter()
        with rec.span("workloads.build"):
            program = build()
        it.setup_s += time.perf_counter() - t0
        it.build_keys.append(key)
        return program


class PcModes(Case):
    """Busy cores: a ``pc`` program on the paper's 32 cores, three modes.

    The host cost per instruction differs by about 10% from one ``pc``
    program to the next, whatever its length, so a run rotates through
    ``PC_PROGRAMS`` programs drawn from its seed.  The timed regions are
    per (mode, program).
    """

    name = "pc-modes"

    def iterate(self, rec, profiler, checked=True, host=NULL_HOST, unit=0):
        it = Unit()
        index = unit % PC_PROGRAMS
        seed = self.seed * PC_PROGRAMS + index
        key = ("pc", PC_THREADS, PC_INSTRUCTIONS, seed)
        program = self._build(it, rec, key, lambda: build_program(*key[:3], seed=seed))
        base = SystemParams.paper()
        for mode in PC_MODES:
            self._run_cell(it, f"{mode}/p{index}", config(base, mode), program, rec,
                           profiler, host)
        return it


class CounterLazy(Case):
    """Idle-heavy: 32 cores fetch-and-add one counter line, lazy mode.

    The seed draws each thread's serial ALU prefix, so threads reach the
    hot line staggered differently per seed; the final count is fixed.
    """

    name = "counter-lazy"

    def iterate(self, rec, profiler, checked=True, host=NULL_HOST, unit=0):
        it = Unit()
        rng = random.Random(self.seed)
        pads = [rng.randint(0, COUNTER_MAX_PAD) for _ in range(COUNTER_THREADS)]
        key = ("litmus-counter", COUNTER_THREADS, COUNTER_INCREMENTS, self.seed)
        program = self._build(
            it, rec, key,
            lambda: atomic_counter(COUNTER_THREADS, COUNTER_INCREMENTS, pads=pads),
        )
        self._run_cell(it, "lazy", config(SystemParams.paper(), "lazy"), program,
                       rec, profiler, host)
        return it


class LuSpill(Case):
    """Memory-bound: ``lu``'s 4096-line private set spills the 1024-line L2."""

    name = "lu-spill"

    def iterate(self, rec, profiler, checked=True, host=NULL_HOST, unit=0):
        it = Unit()
        key = ("lu", LU_THREADS, LU_INSTRUCTIONS, self.seed)
        program = self._build(it, rec, key, lambda: build_program(*key[:3], seed=self.seed))
        self._run_cell(it, "eager", config(SystemParams.small(), "eager"), program,
                       rec, profiler, host)
        return it


class CheckedWorker:
    """A Runner worker making ``execute_spec``'s public calls one by one,
    with a span around each and the run's facts kept for the checks."""

    def __init__(self, it: Unit, rec, profiler) -> None:
        self.it = it
        self.rec = rec
        self.profiler = profiler
        self.facts: dict = {}

    def __call__(self, spec):
        rec = self.rec
        label = cell_label(spec)
        with rec.span("workloads.build", label):
            program = build_program(
                spec.workload,
                spec.num_threads,
                spec.instructions_per_thread,
                seed=spec.seed,
            )
        self.it.build_keys.append(
            (spec.workload.name, spec.num_threads, spec.instructions_per_thread,
             spec.seed)
        )
        with rec.span("sim.construct", label):
            sim = MulticoreSimulator(spec.params, program)
        with rec.span("sim.run", label), profiling(self.profiler):
            result = sim.run()
        with rec.span("analysis.metrics", label):
            metrics = RunMetrics.from_result(result)
            metrics.to_json()
        with rec.span("bench.facts", label):
            self.facts[spec] = cell_facts(result, program)
        return metrics


class CellClock:
    """``run_many``'s ``on_result`` callback: splits a cold pass into one
    timed region per cell and probes the host between cells.  Probe time
    falls between regions, outside all of them."""

    def __init__(self, host) -> None:
        self.host = host
        self.regions: list[tuple] = []  # (spec, seconds, slowdown)

    def start(self) -> None:
        self._slowdown = self.host.probe()
        self._t0 = time.perf_counter()

    def __call__(self, spec, _metrics, _source) -> None:
        t1 = time.perf_counter()
        slowdown = self.host.probe()
        self.regions.append((spec, t1 - self._t0, (self._slowdown + slowdown) / 2))
        self._slowdown = slowdown
        self._t0 = time.perf_counter()


def cell_label(spec) -> str:
    return f"{spec.workload.name}/{spec.params.atomic_mode.value}"


class Fig1Cold(Case):
    """The Fig. 1 campaign at smoke scale, cold, through ``Runner(jobs=1)``.

    Unchecked passes run the Runner's own worker (``execute_spec``), so
    anything on the user's path, memoization included, is timed.  Checked
    passes swap in :class:`CheckedWorker` to see each cell's RunResult.  A
    run ends with one checked pass; it is timed too, and being one sample
    of at least three, its median cannot hide a gain that only
    ``execute_spec`` sees.
    """

    name = "fig1-cold"
    final_checked_unit = True

    def __init__(self, seed: int, ledger: Ledger, workdir: Path) -> None:
        super().__init__(seed, ledger)
        self.workdir = workdir

    def specs(self, rec):
        with rec.span("service.expand"):
            campaign = load_campaign(FIG1_CAMPAIGN)
            grids = tuple(
                dataclasses.replace(g, seeds=(self.seed,)) for g in campaign.grids
            )
            campaign = dataclasses.replace(campaign, grids=grids)
            return expand_campaign(campaign, FIG1_SCALE)

    def iterate(self, rec, profiler, checked=True, host=NULL_HOST, unit=0):
        it = Unit()
        t0 = time.perf_counter()
        specs = self.specs(rec)
        it.setup_s = time.perf_counter() - t0
        cells = {spec: self.ledger.cell(cell_label(spec)) for spec in specs}
        worker = CheckedWorker(it, rec, profiler) if checked else execute_spec
        clock = CellClock(host)
        with tempfile.TemporaryDirectory(dir=self.workdir) as cache:
            runner = Runner(jobs=1, cache_dir=cache, worker=worker)
            try:
                clock.start()
                t0 = time.perf_counter()
                with rec.span("analysis.run_many") as span:
                    cold = runner.run_many(specs, on_result=clock)
                timed_s = time.perf_counter() - t0
            except RunnerError as exc:
                for cell in cells.values():
                    cell.failures.append(f"cold pass raised {exc!r}")
                return it
            it.coverage.append((span, timed_s))
            sources = {}
            warm_runner = Runner(jobs=1, cache_dir=cache)
            t0 = time.perf_counter()
            with rec.span("analysis.warm"):
                warm = warm_runner.run_many(
                    specs, on_result=lambda spec, _m, src: sources.__setitem__(spec, src)
                )
            it.runner = {
                "warm_s": time.perf_counter() - t0,
                "simulated": runner.stats.simulated,
                "disk_hits": warm_runner.stats.disk_hits,
            }
        for spec, cold_m, warm_m in zip(specs, cold, warm):
            cell = cells[spec]
            cold_json = cold_m.to_json()
            check_warm(cell, cold_json, warm_m.to_json(), sources[spec])
            facts = worker.facts[spec] if checked else None
            if facts is not None:
                check_facts(cell, facts)
                it.facts.append(facts)
            check_repeat(cell, self.reference, cell.label, cold_json,
                         facts["model"] if facts else None)
        instructions = {spec: m.instructions for spec, m in zip(specs, cold)}
        for spec, seconds, slowdown in clock.regions:
            it.timed.append((cell_label(spec), instructions[spec], seconds, slowdown))
        return it


def make_case(name: str, seed: int, ledger: Ledger, workdir: Path) -> Case:
    if name == Fig1Cold.name:
        return Fig1Cold(seed, ledger, workdir)
    for cls in (PcModes, CounterLazy, LuSpill):
        if cls.name == name:
            return cls(seed, ledger)
    raise ValueError(f"unknown workload {name!r}")
