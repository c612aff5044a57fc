"""Correctness checks; a cell that fails any of them counts as failed.

A *cell* is one simulation the benchmark attempted.  Checks are pure
functions over the facts a cell left behind, so the seeded-defect tests
can feed them tampered inputs directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instructions import InstrClass


@dataclass
class Cell:
    label: str
    failures: list[str] = field(default_factory=list)


class Ledger:
    """Every cell attempted in one benchmark run, with its failed checks."""

    def __init__(self) -> None:
        self.cells: list[Cell] = []

    def cell(self, label: str) -> Cell:
        cell = Cell(label)
        self.cells.append(cell)
        return cell

    @property
    def attempted(self) -> int:
        return len(self.cells)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cells if c.failures)

    def failures(self) -> list[str]:
        return [f"{c.label}: {msg}" for c in self.cells for msg in c.failures]


def cell_facts(result, program) -> dict:
    """What the checks and the ``model.*`` counts need from one run."""
    cores = result.merged_core_stats()
    controllers = result.merged_controller_stats()
    miss = controllers.accumulator("miss_latency")
    addr = program.metadata.get("addr")
    return {
        "trace_len": program.total_instructions(),
        "trace_atomics": sum(t.count(InstrClass.ATOMIC) for t in program.traces),
        "expected": program.metadata.get("expected"),
        "final_value": result.memory_snapshot.get(addr) if addr is not None else None,
        "spine": {
            k: result.spine[k]
            for k in (
                "step_calls",
                "possible_steps",
                "skipped_steps",
                "wakes",
                "stale_wakes",
                "empty_iterations",
            )
        },
        "model": {
            "cycles": result.cycles,
            "instructions": result.instructions,
            "committed": cores.counter("committed").value,
            "dispatched": cores.counter("dispatched").value,
            "atomics": cores.counter("atomics_committed").value,
            "contended": cores.counter("atomics_contended_truth").value,
            "branches": cores.counter("branches_fetched").value,
            "mispredicts": cores.counter("branch_mispredicts").value,
            "l1d_hits": controllers.counter("l1d_hits").value,
            "l1d_misses": controllers.counter("l1d_misses").value,
            "cache_to_cache": controllers.counter("cache_to_cache").value,
            "miss_latency_total": miss.total,
            "miss_latency_count": miss.count,
            "dir_transactions": result.directory_stats.counter("transactions").value,
            "net_messages": result.network_stats.counter("messages").value,
        },
    }


def check_facts(cell: Cell, facts: dict) -> None:
    """Commit counts, the spine's health and (litmus counters) final memory."""
    model = facts["model"]
    if model["committed"] != facts["trace_len"]:
        cell.failures.append(
            f"committed {model['committed']} of {facts['trace_len']} instructions"
        )
    if model["atomics"] != facts["trace_atomics"]:
        cell.failures.append(
            f"committed {model['atomics']} of {facts['trace_atomics']} atomics"
        )
    if facts["spine"]["empty_iterations"] != 0:
        cell.failures.append(
            f"spine ran {facts['spine']['empty_iterations']} empty iterations"
        )
    if facts["expected"] is not None and facts["final_value"] != facts["expected"]:
        cell.failures.append(
            f"final counter {facts['final_value']} != expected {facts['expected']}"
        )


def check_repeat(cell: Cell, reference: dict, label: str, metrics_json: str,
                 model: dict | None) -> None:
    """Repeats of one cell must give byte-identical ``RunMetrics.to_json()``
    and identical model counts.  The first occurrence of ``label`` becomes
    the reference (``model`` is None where only RunMetrics are at hand)."""
    ref = reference.setdefault(label, {"json": metrics_json, "model": model})
    if metrics_json != ref["json"]:
        cell.failures.append("RunMetrics.to_json() differs from an earlier repeat")
    if model is not None:
        if ref["model"] is None:
            ref["model"] = model
        elif model != ref["model"]:
            cell.failures.append("model counts differ from an earlier repeat")


def check_warm(cell: Cell, cold_json: str, warm_json: str, source: str) -> None:
    """A warm rerun over the cold pass's cache must simulate nothing and
    return what the cold pass computed."""
    if source != "disk":
        cell.failures.append(f"warm rerun served the cell from {source!r}, not disk")
    if warm_json != cold_json:
        cell.failures.append("warm rerun metrics differ from the cold pass")
