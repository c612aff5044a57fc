"""Seeded-defect tests: each check must turn a planted fault into a failed
cell, and a clean run must pass them all."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import cases
import run
import spans
from checks import Ledger, check_facts, check_repeat, check_warm
from hostspeed import NULL_HOST, HostSpeed
from repro.analysis.runner import RunMetrics, config
from repro.common.params import SystemParams
from repro.workloads.litmus import atomic_counter

ROOT = Path(__file__).resolve().parents[2]

TINY_FIG1 = """
campaign: 1
name: tiny
workloads: [pc]
configs:
  - {name: eager, mode: eager}
  - {name: lazy, mode: lazy}
"""


@pytest.fixture
def small_counter(monkeypatch):
    """counter-lazy shrunk to 4 threads so a unit takes well under a second."""
    monkeypatch.setattr(cases, "COUNTER_THREADS", 4)
    monkeypatch.setattr(cases, "COUNTER_INCREMENTS", 10)
    monkeypatch.setattr(SystemParams, "paper", staticmethod(SystemParams.quick))


@pytest.fixture
def tiny_fig1(monkeypatch, tmp_path):
    spec = tmp_path / "tiny.yaml"
    spec.write_text(TINY_FIG1)
    monkeypatch.setattr(cases, "FIG1_CAMPAIGN", spec)
    return cases.Fig1Cold(3, Ledger(), tmp_path)


def _counter_unit(ledger, expected_delta=0):
    case = cases.CounterLazy(5, ledger)
    it = cases.Unit()
    program = atomic_counter(4, 10)
    program.metadata["expected"] += expected_delta
    case._run_cell(it, "lazy", config(SystemParams.quick(), "lazy"), program,
                   spans.NULL_RECORDER, None, NULL_HOST)
    return case, it


def test_clean_units_pass_every_check(small_counter):
    ledger = Ledger()
    case = cases.CounterLazy(7, ledger)
    for _ in range(2):
        case.iterate(spans.NULL_RECORDER, None)
    assert ledger.attempted == 2
    assert ledger.failures() == []


def test_wrong_counter_value_fails_the_cell():
    ledger = Ledger()
    _counter_unit(ledger, expected_delta=1)
    assert ledger.failed == 1
    assert "final counter" in ledger.failures()[0]


def test_tampered_run_metrics_fail_the_repeat(small_counter, monkeypatch):
    ledger = Ledger()
    case = cases.CounterLazy(7, ledger)
    case.iterate(spans.NULL_RECORDER, None)

    class Tampered(RunMetrics):
        @staticmethod
        def from_result(result):
            metrics = RunMetrics.from_result(result)
            metrics.cycles += 1
            return metrics

    monkeypatch.setattr(cases, "RunMetrics", Tampered)
    case.iterate(spans.NULL_RECORDER, None)
    assert ledger.failed == 1
    assert "differs from an earlier repeat" in ledger.failures()[0]


def test_short_commit_and_empty_spine_iterations_fail_the_cell():
    ledger = Ledger()
    _, it = _counter_unit(ledger)
    facts = it.facts[0]
    assert ledger.failed == 0
    short = json.loads(json.dumps(facts))
    short["model"]["committed"] -= 1
    short["model"]["atomics"] -= 1
    short["spine"]["empty_iterations"] = 1
    cell = ledger.cell("tampered")
    check_facts(cell, short)
    assert len(cell.failures) == 3


def test_warm_rerun_that_simulates_fails_every_cell(tiny_fig1, monkeypatch):
    real_runner = cases.Runner

    def runner(jobs, cache_dir, worker=None):
        if worker is None:  # the warm rerun: hand it an empty cache
            return real_runner(jobs=jobs, cache_dir=None)
        return real_runner(jobs=jobs, cache_dir=cache_dir, worker=worker)

    monkeypatch.setattr(cases, "Runner", runner)
    tiny_fig1.iterate(spans.NULL_RECORDER, None, checked=True)
    ledger = tiny_fig1.ledger
    assert ledger.attempted == 2 and ledger.failed == 2
    assert all("not disk" in f for f in ledger.failures())


def test_fig1_passes_checked_and_unchecked_agree(tiny_fig1):
    tiny_fig1.iterate(spans.NULL_RECORDER, None, checked=False)
    it = tiny_fig1.iterate(spans.NULL_RECORDER, None, checked=True)
    ledger = tiny_fig1.ledger
    assert ledger.attempted == 4 and ledger.failures() == []
    assert it.runner == {"warm_s": it.runner["warm_s"], "simulated": 2, "disk_hits": 2}
    assert len(it.build_keys) == 2 and len(set(it.build_keys)) == 1


def test_check_warm_and_repeat_directly():
    ledger = Ledger()
    cell = ledger.cell("x")
    check_warm(cell, "{}", "{}", "disk")
    reference = {}
    check_repeat(cell, reference, "x", "{}", {"cycles": 1})
    check_repeat(cell, reference, "x", "{}", {"cycles": 1})
    assert cell.failures == []
    check_repeat(cell, reference, "x", "{}", {"cycles": 2})
    check_warm(cell, "{}", '{"a": 1}', "disk")
    assert len(cell.failures) == 2


def test_span_coverage_detects_overlap():
    rec = spans.SpanRecorder()
    with rec.span("root") as root:
        with rec.span("a"):
            pass
        with rec.span("b"):
            pass
    region = root.duration
    assert abs(spans.coverage_error(rec, root, region)) < 1e-9
    # Two children claiming the same interval: their sum exceeds the root.
    rec.spans[2].start = rec.spans[1].start
    rec.spans[2].end = rec.spans[1].end
    overlap = rec.spans[1].duration
    assert spans.coverage_error(rec, root, region) == pytest.approx(overlap)


def test_module_key_groups_by_package_and_module():
    assert spans.module_key("/x/src/repro/core/lsq.py") == "core.lsq"
    assert spans.module_key("/x/src/repro/frontend/branch/tage.py") == "frontend.tage"
    assert spans.module_key("/x/src/repro/cli.py") == "cli"
    assert spans.module_key("~") == "other"
    assert spans.module_key("/usr/lib/python3.11/heapq.py") == "other"


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_host_speed_probe_helper_answers_and_exits():
    with HostSpeed() as host:
        assert host.probe() > 0
        assert host.probe() > 0
    assert host._helper.returncode == 0
    assert len(host.samples) == 2 and host.slowdown > 0
