"""Runner/RunSpec tests: content hashing, disk cache, fan-out, retries,
program reuse."""

import dataclasses
import gc
import json
import multiprocessing
import os
import pathlib
import weakref

import pytest

from repro.analysis import parallel
from repro.analysis.parallel import (
    CACHE_SCHEMA_VERSION,
    Runner,
    RunnerError,
    RunSpec,
    default_cache_dir,
    execute_spec,
    get_default_runner,
    reset_default_runner,
)
from repro.analysis.runner import SMOKE, AtomicMode, RunMetrics, base_params, config
from repro.common.params import ConsistencyKind
from repro.isa.serialize import program_to_dict
from repro.sim.multicore import simulate
from repro.workloads.synthetic import build_program

PARAMS = base_params(SMOKE)
EAGER = config(PARAMS, AtomicMode.EAGER)
LAZY = config(PARAMS, AtomicMode.LAZY)


def _spec(seed: int = 0, params=PARAMS) -> RunSpec:
    return RunSpec.build("fmm", params, SMOKE, seed=seed)


def _cache_files(cache_dir) -> list[pathlib.Path]:
    return sorted(pathlib.Path(cache_dir).glob("*/*.json"))


class TestRunSpec:
    def test_hashable_and_equal(self):
        assert _spec() == _spec()
        assert hash(_spec()) == hash(_spec())

    def test_content_hash_stable(self):
        assert _spec().content_hash() == _spec().content_hash()

    def test_content_hash_sensitive_to_seed_and_params(self):
        hashes = {
            _spec().content_hash(),
            _spec(seed=1).content_hash(),
            _spec(params=LAZY).content_hash(),
        }
        assert len(hashes) == 3

    def test_threads_clamped_to_cores(self):
        few_cores = dataclasses.replace(PARAMS, num_cores=2)
        assert RunSpec.build("fmm", few_cores, SMOKE).num_threads == 2

    def test_for_seeds_covers_scale(self):
        specs = RunSpec.for_seeds("fmm", PARAMS, SMOKE)
        assert [s.seed for s in specs] == list(SMOKE.seeds)

    def test_grid_is_workloads_times_configs_times_seeds(self):
        specs = RunSpec.grid(("fmm", "pc"), (EAGER, LAZY), SMOKE)
        assert len(specs) == 2 * 2 * len(SMOKE.seeds)
        assert len(set(specs)) == len(specs)


class TestDiskCache:
    def test_warm_cache_is_bit_identical_and_simulation_free(self, tmp_path):
        fresh = Runner(cache_dir=tmp_path).run(_spec())
        warm = Runner(cache_dir=tmp_path)
        again = warm.run(_spec())
        assert again == fresh
        assert again.to_json() == fresh.to_json()
        assert warm.stats.simulated == 0
        assert warm.stats.disk_hits == 1

    def test_cache_layout_and_atomic_publish(self, tmp_path):
        Runner(cache_dir=tmp_path).run(_spec())
        files = _cache_files(tmp_path)
        assert len(files) == 1
        digest = _spec().content_hash()
        assert files[0].name == f"{digest}.json"
        assert files[0].parent.name == digest[:2]
        # Atomic publish leaves no temp droppings behind.
        assert not list(tmp_path.glob("**/*.tmp"))

    def test_corrupted_entry_discarded_and_recomputed(self, tmp_path):
        fresh = Runner(cache_dir=tmp_path).run(_spec())
        (path,) = _cache_files(tmp_path)
        path.write_text("{ this is not json")
        r = Runner(cache_dir=tmp_path)
        assert r.run(_spec()) == fresh
        assert r.stats.corrupt_discarded == 1
        assert r.stats.simulated == 1
        # The recomputed result was re-published to disk.
        assert json.loads(path.read_text())["schema"] == CACHE_SCHEMA_VERSION

    def test_truncated_entry_discarded_and_recomputed(self, tmp_path):
        fresh = Runner(cache_dir=tmp_path).run(_spec())
        (path,) = _cache_files(tmp_path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        r = Runner(cache_dir=tmp_path)
        assert r.run(_spec()) == fresh
        assert r.stats.corrupt_discarded == 1

    def test_schema_mismatch_discarded(self, tmp_path):
        Runner(cache_dir=tmp_path).run(_spec())
        (path,) = _cache_files(tmp_path)
        payload = json.loads(path.read_text())
        payload["schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        r = Runner(cache_dir=tmp_path)
        r.run(_spec())
        assert r.stats.corrupt_discarded == 1
        assert r.stats.simulated == 1

    def test_resume_partial_sweep(self, tmp_path):
        specs = RunSpec.grid(("fmm",), (EAGER, LAZY), SMOKE)
        Runner(cache_dir=tmp_path).run_many(specs[: len(specs) // 2])
        resumed = Runner(cache_dir=tmp_path)
        resumed.run_many(specs)
        assert resumed.stats.disk_hits == len(specs) // 2
        assert resumed.stats.simulated == len(specs) - len(specs) // 2

    def test_no_cache_dir_means_memory_only(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        r = Runner(cache_dir=None)
        a = r.run(_spec())
        assert r.run(_spec()) is a  # memo hit, same object
        assert not list(tmp_path.glob("**/*.json"))

    def test_default_cache_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cc"))
        assert default_cache_dir() == tmp_path / "cc"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro"


class TestParallelExecution:
    def test_jobs4_equals_serial_on_smoke(self):
        specs = RunSpec.grid(("fmm", "pc"), (EAGER, LAZY), SMOKE)
        serial = Runner(jobs=1).run_many(specs)
        parallel = Runner(jobs=4).run_many(specs)
        assert parallel == serial
        assert [m.to_json() for m in parallel] == [m.to_json() for m in serial]

    def test_run_many_preserves_input_order_and_dedupes(self):
        specs = [_spec(0), _spec(1), _spec(0)]
        r = Runner(jobs=1)
        out = r.run_many(specs)
        assert len(out) == 3
        assert out[0] is out[2]
        assert r.stats.simulated == 2

    def test_progress_total_counts_unique_specs(self, capsys):
        Runner(jobs=1, progress=True).run_many([_spec(0), _spec(1), _spec(0)])
        err = capsys.readouterr().err
        assert "[2/2] jobs" in err
        assert "/3]" not in err

    def test_parallel_results_reach_disk_cache(self, tmp_path):
        specs = RunSpec.grid(("fmm",), (EAGER, LAZY), SMOKE)
        Runner(jobs=4, cache_dir=tmp_path).run_many(specs)
        assert len(_cache_files(tmp_path)) == len(specs)
        warm = Runner(jobs=4, cache_dir=tmp_path)
        warm.run_many(specs)
        assert warm.stats.simulated == 0
        assert warm.stats.disk_hits == len(specs)


def _crash_once_worker(spec):
    """Fails on first invocation (per sentinel file), then succeeds."""
    sentinel = pathlib.Path(os.environ["REPRO_TEST_SENTINEL"])
    if not sentinel.exists():
        sentinel.write_text("crashed once")
        raise RuntimeError("synthetic worker crash")
    return execute_spec(spec)


def _always_fail_worker(spec):
    raise RuntimeError("synthetic permanent failure")


def _exit_once_worker(spec):
    """Hard-kills its process on first invocation (breaks the pool)."""
    sentinel = pathlib.Path(os.environ["REPRO_TEST_SENTINEL"])
    if not sentinel.exists():
        sentinel.write_text("died once")
        os._exit(13)
    return execute_spec(spec)


class TestRetries:
    def test_serial_retry_recovers(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_SENTINEL", str(tmp_path / "s"))
        r = Runner(jobs=1, retries=2, worker=_crash_once_worker)
        metrics = r.run(_spec())
        assert metrics == execute_spec(_spec())
        assert r.stats.retries == 1

    def test_retry_budget_exhausted_raises_runner_error(self):
        r = Runner(jobs=1, retries=1, worker=_always_fail_worker)
        with pytest.raises(RunnerError, match="after 2 attempts"):
            r.run(_spec())

    def test_pool_rebuilt_after_worker_death(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_SENTINEL", str(tmp_path / "s"))
        specs = [_spec(seed) for seed in (0, 1)]
        r = Runner(jobs=2, retries=2, worker=_exit_once_worker)
        out = r.run_many(specs)
        assert out == [execute_spec(s) for s in specs]
        assert r.stats.retries >= 1


class TestDefaultRunner:
    def test_shared_singleton(self):
        reset_default_runner()
        try:
            a = get_default_runner()
            assert get_default_runner() is a
            assert a.jobs == 1
            assert a.cache_dir is None
            reset_default_runner()
            assert get_default_runner() is not a
        finally:
            reset_default_runner()

    def test_summary_mentions_cache_location(self, tmp_path):
        r = Runner(cache_dir=tmp_path)
        r.run(_spec())
        assert str(tmp_path) in r.summary()
        assert "1 simulated (1 program(s))" in r.summary()


# Quick-scale-shaped: 2 workloads x 2 configs x 2 seeds, seed innermost, so
# the two specs sharing a program are never adjacent in the batch.
TWO_SEEDS = dataclasses.replace(SMOKE, seeds=(0, 1))
GRID = RunSpec.grid(("fmm", "pc"), (EAGER, LAZY), TWO_SEEDS)


@pytest.fixture
def empty_slot(monkeypatch):
    """Start with no program memoized in this process."""
    monkeypatch.setattr(parallel, "_program_slot", None)


@pytest.fixture
def build_log(tmp_path, monkeypatch, empty_slot):
    """Count ``build_program`` calls in this process and in forked workers."""
    log = tmp_path / "builds.log"
    log.touch()

    def counting_build(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write("build\n")
        return build_program(*args, **kwargs)

    monkeypatch.setattr(parallel, "build_program", counting_build)
    return lambda: len(log.read_text().splitlines())


@pytest.fixture(scope="module")
def fresh_metrics():
    """Each GRID spec simulated on its own freshly built program."""
    return [
        RunMetrics.from_result(
            simulate(
                s.params,
                build_program(
                    s.workload, s.num_threads, s.instructions_per_thread, seed=s.seed
                ),
            )
        )
        for s in GRID
    ]


_WORKER_CALLS: list = []


def _recording_worker(spec):
    _WORKER_CALLS.append(spec)
    return spec.seed


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="forked workers inherit the build counter",
)


class TestProgramReuse:
    def test_shared_programs_are_not_adjacent_in_the_grid(self):
        keys = [s.program_key() for s in GRID]
        assert len(set(keys)) == 4
        assert all(a != b for a, b in zip(keys, keys[1:]))

    @pytest.mark.parametrize(
        "jobs", [1, pytest.param(2, marks=needs_fork)]
    )
    def test_each_program_built_once(self, jobs, build_log, fresh_metrics):
        r = Runner(jobs=jobs)
        out = r.run_many(GRID)
        assert build_log() == 4
        assert r.stats.programs == 4
        assert r.stats.simulated == len(GRID)
        assert out == fresh_metrics
        assert [m.to_json() for m in out] == [m.to_json() for m in fresh_metrics]

    def test_custom_worker_gets_one_spec_per_call_grouped(self):
        _WORKER_CALLS.clear()
        out = Runner(jobs=1, worker=_recording_worker).run_many(GRID)
        assert out == [s.seed for s in GRID]
        assert all(isinstance(c, RunSpec) for c in _WORKER_CALLS)
        assert sorted(_WORKER_CALLS, key=GRID.index) == GRID
        keys = [c.program_key() for c in _WORKER_CALLS]
        assert keys[0::2] == keys[1::2]  # each group runs back to back

    def test_pool_cuts_groups_so_every_worker_has_a_task(self):
        specs = RunSpec.grid(("fmm",), (EAGER, LAZY), TWO_SEEDS)
        groups = parallel._program_groups(specs, max_size=1)
        assert groups == [(s,) for s in (specs[0], specs[2], specs[1], specs[3])]
        assert parallel._program_groups(specs, max_size=4) == [
            (specs[0], specs[2]), (specs[1], specs[3])
        ]

    @pytest.mark.parametrize("automatic_gc", [True, False])
    def test_previous_group_program_is_freed(
        self, automatic_gc, monkeypatch, empty_slot
    ):
        built = []

        def tracking_build(*args, **kwargs):
            program = build_program(*args, **kwargs)
            built.append(weakref.ref(program))
            return program

        monkeypatch.setattr(parallel, "build_program", tracking_build)
        specs = RunSpec.grid(("fmm",), (EAGER, LAZY), TWO_SEEDS)
        if not automatic_gc:
            gc.disable()
        try:
            Runner(jobs=1).run_many(specs)
        finally:
            gc.enable()
        assert len(built) == 2
        assert built[0]() is None  # freed when the worker moved on
        assert built[1]() is not None  # the one program the slot keeps

    def test_simulator_is_garbage_collected_before_return(self, empty_slot):
        gc.collect()
        execute_spec(_spec())
        # The young collection inside execute_spec left nothing for a
        # full collection to find.
        assert gc.collect() == 0

    @pytest.mark.parametrize("mode", ["eager", "lazy", "row"])
    @pytest.mark.parametrize("model", list(ConsistencyKind))
    def test_simulate_does_not_mutate_the_program(self, mode, model):
        program = build_program("pc", 4, 400, seed=3)
        before = json.dumps(program_to_dict(program), sort_keys=True)
        params = config(PARAMS, mode).with_consistency_model(model)
        simulate(params, program)
        assert json.dumps(program_to_dict(program), sort_keys=True) == before
