"""The repo benchmark: host throughput, set-up time and memory of the
simulator on layer-targeted workloads, plus a traced per-layer run.

Usage, from the repository root::

    python3 perfbench/run.py --workload pc-modes --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

``--trace 0`` measures the end-to-end metrics with tracing off for
``--seconds`` seconds (at least two whole units of work; see cases.py).
``--trace 1`` instead runs one untraced, one span-traced and one profiled
unit and reports the per-layer metrics.  ``--workload all`` runs every
workload both ways in fresh processes.  Every metric is printed as
``name value unit``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero when
any check failed.  See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from hostspeed import NULL_HOST, HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

# The workloads BENCHMARK.json declares, and two more that stress single
# layers and stay runnable for traced diagnosis (see README.md).
WORKLOADS = ("fig1-cold", "pc-modes")
EXTRA_WORKLOADS = ("counter-lazy", "lu-spill")
# The benchmark's default workload seed; any other seed runs as well.
DEFAULT_SEED = 1
IMPORT_PROBES = 3
# Span coverage is exact up to the recorder's own timer calls.
COVERAGE_TOLERANCE_S = 1e-3

# (name, unit, better, bound): what BENCHMARK.json lists as end_to_end.
END_TO_END = (
    ("sim_kips", "kinstr/s", "higher", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("passed_frac", "fraction", "higher", 0.01),
)

# Shares of profiled self time inside run(), by module or package prefix.
SHARE_LAYERS = (
    "sim.engine",
    "core.pipeline",
    "core.lsq",
    "core.dyninstr",
    "core.atomic_policy",
    "core.consistency",
    "core",
    "isa",
    "frontend.tage",
    "frontend",
    "row",
    "memory.cache",
    "memory.controller",
    "memory.directory",
    "memory.interconnect",
    "memory",
)

# (name, unit, better): what BENCHMARK.json lists as per_layer.
PER_LAYER = (
    ("workloads.build_s", "s", "lower"),
    ("workloads.build_calls", "count", "lower"),
    ("workloads.distinct_programs", "count", "lower"),
    ("workloads.build_reuse", "ratio", "higher"),
    ("workloads.build_share", "fraction", "lower"),
    ("service.expand_s", "s", "lower"),
    ("sim.construct_s", "s", "lower"),
    ("sim.run_s", "s", "lower"),
    ("sim.spine.step_calls", "count", "lower"),
    ("sim.spine.skipped_fraction", "fraction", "higher"),
    ("sim.spine.wakes", "count", "lower"),
    ("sim.spine.stale_wakes", "count", "lower"),
    ("sim.spine.empty_iterations", "count", "lower"),
    *((f"{layer}.self_share", "fraction", "lower") for layer in SHARE_LAYERS),
    ("analysis.metrics_s", "s", "lower"),
    ("analysis.runner_self_s", "s", "lower"),
    ("analysis.warm_s", "s", "lower"),
    ("analysis.simulated", "count", "lower"),
    ("analysis.disk_hits", "count", "higher"),
    ("model.cycles", "cycles", "lower"),
    ("model.ipc", "instr/cycle", "higher"),
    ("model.atomics", "count", "higher"),
    ("model.contended_frac", "fraction", "lower"),
    ("model.commit_ratio", "ratio", "higher"),
    ("model.mispredict_rate", "fraction", "lower"),
    ("model.l1d_miss_rate", "fraction", "lower"),
    ("model.cache_to_cache", "count", "lower"),
    ("model.dir_transactions", "count", "lower"),
    ("model.net_messages", "count", "lower"),
    ("model.miss_latency", "cycles", "lower"),
    ("trace.span_overhead", "ratio", "lower"),
    ("trace.profile_overhead", "ratio", "lower"),
)

IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = {paths!r}; t = time.perf_counter();"
    " import cases; print(time.perf_counter() - t)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, *EXTRA_WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Median time to import the benchmarked package, in fresh processes."""
    probe = IMPORT_PROBE.format(paths=[str(SRC), str(HERE)])
    samples = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", probe],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_unit(case, rec, profiler, checked, host=NULL_HOST, unit=0):
    """One :meth:`Case.iterate` under a root span bracketing all of it."""
    # Garbage left by the previous unit's simulators is not this unit's.
    gc.collect()
    with rec.span("bench.iteration") as root:
        t0 = time.perf_counter()
        it = case.iterate(rec, profiler, checked, host, unit)
        it.coverage.append((root, time.perf_counter() - t0))
    return it


def sim_kips(units) -> float:
    """Committed kilo-instructions per host second, from the median
    reference seconds of each timed region (one simulation or campaign
    cell) over the units that ran it."""
    by_label: dict[str, tuple[int, list[float]]] = {}
    for unit in units:
        for label, instructions, seconds, slowdown in unit.timed:
            by_label.setdefault(label, (instructions, []))[1].append(seconds / slowdown)
    instructions = sum(n for n, _ in by_label.values())
    seconds = sum(statistics.median(times) for _, times in by_label.values())
    return _ratio(instructions, seconds) / 1e3


def end_to_end(case, seconds: float) -> dict:
    """Whole units of work for ``seconds``: another unit starts only while
    the last one's duration still fits, so the unit count is steady."""
    units = []
    with HostSpeed() as host:
        start = time.perf_counter()
        last = 0.0
        while (len(units) < case.min_units
               or time.perf_counter() - start + last <= seconds):
            t0 = time.perf_counter()
            units.append(
                run_unit(case, spans.NULL_RECORDER, None, checked=False, host=host,
                         unit=len(units))
            )
            last = time.perf_counter() - t0
        if case.final_checked_unit:
            units.append(
                run_unit(case, spans.NULL_RECORDER, None, checked=True, host=host)
            )
        setup_s = import_seconds() + statistics.median(u.setup_s for u in units)
        host.probe()
    print(f"{'host.slowdown':32s} {host.slowdown:<14.6g} ratio"
          f"  (setup_s {setup_s:.6g} s before normalizing)")
    ledger = case.ledger
    return {
        "sim_kips": sim_kips(units),
        "setup_s": setup_s / host.slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passed_frac": (ledger.attempted - ledger.failed) / ledger.attempted,
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def model_counts(facts: list[dict]) -> dict:
    """``model.*``: the simulated design's counts, summed over cells."""
    total: dict[str, float] = {}
    for f in facts:
        for key, value in f["model"].items():
            total[key] = total.get(key, 0) + value
    if not total:
        return {}
    return {
        "model.cycles": total["cycles"],
        "model.ipc": _ratio(total["instructions"], total["cycles"]),
        "model.atomics": total["atomics"],
        "model.contended_frac": _ratio(total["contended"], total["atomics"]),
        "model.commit_ratio": _ratio(total["committed"], total["dispatched"]),
        "model.mispredict_rate": _ratio(total["mispredicts"], total["branches"]),
        "model.l1d_miss_rate": _ratio(
            total["l1d_misses"], total["l1d_hits"] + total["l1d_misses"]
        ),
        "model.cache_to_cache": total["cache_to_cache"],
        "model.dir_transactions": total["dir_transactions"],
        "model.net_messages": total["net_messages"],
        "model.miss_latency": _ratio(
            total["miss_latency_total"], total["miss_latency_count"]
        ),
    }


def spine_counts(facts: list[dict]) -> dict:
    total: dict[str, int] = {}
    for f in facts:
        for key, value in f["spine"].items():
            total[key] = total.get(key, 0) + value
    return {
        "sim.spine.step_calls": total.get("step_calls", 0),
        "sim.spine.skipped_fraction": _ratio(
            total.get("skipped_steps", 0), total.get("possible_steps", 0)
        ),
        "sim.spine.wakes": total.get("wakes", 0),
        "sim.spine.stale_wakes": total.get("stale_wakes", 0),
        "sim.spine.empty_iterations": total.get("empty_iterations", 0),
    }


def share(shares: dict, prefix: str) -> float:
    return sum(v for k, v in shares.items() if k == prefix or k.startswith(prefix + "."))


def check_coverage(ledger, rec, it, phase: str) -> None:
    for span, region_s in it.coverage:
        err = spans.coverage_error(rec, span, region_s)
        if abs(err) > COVERAGE_TOLERANCE_S:
            ledger.cell(f"span-coverage/{phase}/{span.name}").failures.append(
                f"root self + children = region {err:+.6f} s"
            )


def per_layer(case, workload: str, seed: int) -> dict:
    untraced = run_unit(case, spans.NULL_RECORDER, None, checked=False)
    rec = spans.SpanRecorder()
    traced = run_unit(case, rec, None, checked=True)
    prof_rec = spans.SpanRecorder()
    profiler = cProfile.Profile()
    profiled = run_unit(case, prof_rec, profiler, checked=True)
    check_coverage(case.ledger, rec, traced, "spans")
    check_coverage(case.ledger, prof_rec, profiled, "profiled")
    shares = spans.self_shares(profiler)

    root = next(s for s in rec.spans if s.name == "bench.iteration")
    run_many = [s for s in rec.spans if s.name == "analysis.run_many"]
    keys = traced.build_keys
    build_s = rec.total("workloads.build")
    metrics = {
        "workloads.build_s": build_s,
        "workloads.build_calls": len(keys),
        "workloads.distinct_programs": len(set(keys)),
        "workloads.build_reuse": _ratio(len(set(keys)), len(keys)),
        "workloads.build_share": _ratio(build_s, root.duration),
        "service.expand_s": rec.total("service.expand"),
        "sim.construct_s": rec.total("sim.construct"),
        "sim.run_s": rec.total("sim.run"),
        **spine_counts(traced.facts),
        **{f"{layer}.self_share": share(shares, layer) for layer in SHARE_LAYERS},
        "analysis.metrics_s": rec.total("analysis.metrics"),
        "analysis.runner_self_s": sum(rec.self_time(s) for s in run_many),
        "analysis.warm_s": traced.runner.get("warm_s", 0.0),
        "analysis.simulated": traced.runner.get("simulated", 0),
        "analysis.disk_hits": traced.runner.get("disk_hits", 0),
        **model_counts(traced.facts),
        "trace.span_overhead": _ratio(traced.timed_s, untraced.timed_s),
        "trace.profile_overhead": _ratio(profiled.timed_s, untraced.timed_s),
    }
    (WORKDIR / f"spans-{workload}-seed{seed}.json").write_text(
        json.dumps(
            {
                "spans": rec.to_json(),
                "profiled_spans": prof_rec.to_json(),
                "self_shares": shares,
            }
        )
    )
    return metrics


def report(metrics: dict, units: dict, ledger) -> dict:
    for name, value in metrics.items():
        print(f"{name:32s} {value:<14.6g} {units[name]}")
    failed_frac = ledger.failed / ledger.attempted
    print(f"{'failed_frac':32s} {failed_frac:<14.6g} fraction"
          f"  ({ledger.failed} of {ledger.attempted} cells)")
    for failure in ledger.failures():
        print(f"FAILED {failure}")
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def run_one(args) -> int:
    sys.path[:0] = [str(SRC), str(HERE)]
    import cases
    import repro
    from checks import Ledger

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    ledger = Ledger()
    case = cases.make_case(args.workload, args.seed, ledger, WORKDIR)
    if args.trace:
        metrics = per_layer(case, args.workload, args.seed)
        units = {name: unit for name, unit, _ in PER_LAYER}
        missing = set(units) - set(metrics)
        if missing and not ledger.failed:
            raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
        # A failed cell leaves no counts; the run reports it as incorrect.
        metrics = {name: metrics.get(name, 0.0) for name in units}
    else:
        metrics = end_to_end(case, args.seconds)
        units = {name: unit for name, unit, _, _ in END_TO_END}
    result = report(metrics, units, ledger)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in (*WORKLOADS, *EXTRA_WORKLOADS):
        for trace in (0, 1):
            print(f"== {workload} --trace {trace}", flush=True)
            out = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            sys.stderr.write(out.stderr)
            lines = out.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"error: {workload} printed no result (exit {out.returncode})")
                return 1
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, value in result["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no simulator sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
