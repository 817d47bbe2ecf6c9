"""Tests for sharded suite execution (repro.core.parallel).

The satellite requirement: ``workers=1`` and ``workers=4`` must produce
byte-identical results — canonical serialization, not just matching
aggregates — on an SLT→duckdb and a postgres→mysql transplant.  The
comparison itself is the shared differential harness
(:func:`test_differential.assert_equivalent`); this file covers the
shard/merge machinery, fallbacks, and worker bookkeeping around it.
"""

from __future__ import annotations

import errno
import os
import threading

import pytest

from test_differential import assert_equivalent

from repro.adapters.base import DBMSAdapter, ExecutionOutcome, ExecutionStatus
from repro.core.parallel import (
    RunnerSpec,
    WorkerPool,
    _is_pool_infra_error,
    run_suite_sharded,
    runner_spec_for,
)
from repro.core.runner import TestRunner
from repro.core.transplant import run_matrix, run_transplant
from repro.corpus import build_suite
from repro.perf import cache as perf_cache
from repro.store import ArtifactStore
from repro.store import keys as store_keys


@pytest.fixture(autouse=True)
def _fresh_caches():
    perf_cache.clear_caches()
    yield
    perf_cache.clear_caches()


class TestShardedParity:
    # store=None throughout: a persisted matrix cell would serve the second
    # run wholesale and the shard/merge machinery under test would never run

    @pytest.mark.parametrize("executor", ["thread", "process", "auto"])
    def test_slt_on_duckdb_workers_4_matches_serial(self, executor):
        suite = build_suite("slt", file_count=4, records_per_file=30, seed=11)
        with perf_cache.caching_disabled():
            serial = run_transplant(suite, "duckdb", store=None)
        assert_equivalent(
            {
                "serial-uncached": serial,
                "workers-4": lambda: run_transplant(suite, "duckdb", workers=4, executor=executor, store=None),
            }
        )

    def test_postgres_suite_on_mysql_with_translation(self):
        suite = build_suite("postgres", file_count=4, records_per_file=30, seed=5)
        with perf_cache.caching_disabled():
            serial = run_transplant(suite, "mysql", translate_dialect=True, store=None)
        assert_equivalent(
            {
                "serial-uncached": serial,
                "workers-4": lambda: run_transplant(suite, "mysql", translate_dialect=True, workers=4, store=None),
            }
        )

    def test_per_file_ordering_is_preserved(self):
        suite = build_suite("slt", file_count=5, records_per_file=20, seed=3)
        parallel = run_transplant(suite, "duckdb", workers=3, executor="thread", store=None)
        assert [f.path for f in parallel.result.files] == [tf.path for tf in suite.files]

    def test_more_workers_than_files(self):
        suite = build_suite("slt", file_count=2, records_per_file=15, seed=9)
        assert_equivalent(
            {
                "serial": lambda: run_transplant(suite, "duckdb", store=None),
                "workers-8": lambda: run_transplant(suite, "duckdb", workers=8, executor="thread", store=None),
            }
        )


def _worker_pid(_value):
    return os.getpid()


class TestLanes:
    def test_task_i_runs_on_lane_i_mod_workers_in_every_map(self):
        # the affinity the per-worker statement caches rely on: shard k (and
        # donor-recording task k) lands on the same worker in every map
        pool = WorkerPool(2, "process")
        try:
            first = pool.map_tasks(_worker_pid, [(index,) for index in range(6)])
            second = pool.map_tasks(_worker_pid, [(index,) for index in range(4)])
        finally:
            pool.shutdown()
        assert len(set(first)) == 2
        assert first == [first[index % 2] for index in range(6)]
        assert second == first[:4]


class TestShardBoundary:
    """What crosses the process boundary: keys in, codec frames out."""

    def test_process_sharded_results_reference_the_submitters_records(self):
        suite = build_suite("slt", file_count=4, records_per_file=20, seed=13)
        sharded = run_transplant(suite, "duckdb", workers=2, executor="process", store=None)
        own_records = {id(record) for test_file in suite.files for record in test_file.records}
        # frames are decoded against this process's files, so no result holds
        # an unpickled copy of a record
        assert all(
            id(record_result.record) in own_records
            for file_result in sharded.result.files
            for record_result in file_result.results
        )
        assert_equivalent(
            {
                "serial": lambda: run_transplant(suite, "duckdb", store=None),
                "process-workers-2": sharded,
            }
        )

    def test_workers_never_compute_content_hashes(self, tmp_path, monkeypatch):
        suite = build_suite("slt", file_count=4, records_per_file=15, seed=14)
        spec = RunnerSpec(adapter_name="duckdb", host_name="duckdb", donor_dialect="slt")
        store = ArtifactStore(root=tmp_path / "store", fingerprint="shard-keys-fp")
        callers = []
        original = store_keys.content_hash

        def spy(value):
            callers.append(threading.current_thread())
            return original(value)

        monkeypatch.setattr(store_keys, "content_hash", spy)
        report = run_suite_sharded(suite, spec, workers=2, executor="thread", store=store)
        assert report.executor == "thread"
        assert store.stats.writes == len(suite.files)
        # the submitter hashed every file; the workers only used the keys
        assert callers
        assert set(callers) == {threading.current_thread()}


class TestShardedRunReport:
    def test_workers_1_runs_serially(self):
        suite = build_suite("slt", file_count=2, records_per_file=10, seed=1)
        spec = RunnerSpec(adapter_name="duckdb", host_name="duckdb", donor_dialect="slt")
        report = run_suite_sharded(suite, spec, workers=1)
        assert report.executor == "serial"
        assert report.workers == 1
        assert report.result.total_cases == suite.total_records - sum(
            len(tf.control_records()) for tf in suite.files
        )

    def test_thread_pool_reports_cache_stats(self):
        suite = build_suite("slt", file_count=3, records_per_file=15, seed=2)
        spec = RunnerSpec(adapter_name="duckdb", host_name="duckdb", donor_dialect="slt")
        report = run_suite_sharded(suite, spec, workers=3, executor="thread")
        assert report.executor == "thread"
        assert "plan" in report.cache_stats
        assert report.cache_stats["plan"]["misses"] > 0

    def test_process_pool_worker_stats_are_absorbed_by_parent(self):
        suite = build_suite("slt", file_count=3, records_per_file=15, seed=2)
        spec = RunnerSpec(adapter_name="duckdb", host_name="duckdb", donor_dialect="slt")
        report = run_suite_sharded(suite, spec, workers=3, executor="process")
        parent = perf_cache.cache_stats()
        if report.executor == "process":
            # worker-side cache activity must be visible in the parent's stats
            assert parent["plan"]["hits"] + parent["plan"]["misses"] > 0
        else:  # pool bootstrap degraded (sandboxed env): thread stats are global anyway
            assert parent["plan"]["misses"] > 0


class _UnforkableAdapter(DBMSAdapter):
    """An adapter the registry cannot rebuild (fork_config -> None)."""

    name = "unforkable"

    def __init__(self):
        from repro.dialects import ALL_DIALECTS

        self.dialect = ALL_DIALECTS["sqlite"]

    def fork_config(self):
        return None

    def connect(self) -> None:
        pass

    def reset(self) -> None:
        pass

    def close(self) -> None:
        pass

    def execute(self, sql: str) -> ExecutionOutcome:
        return ExecutionOutcome(status=ExecutionStatus.OK, statement=sql)


class TestFallbacks:
    def test_unforkable_adapter_falls_back_to_serial(self):
        suite = build_suite("slt", file_count=2, records_per_file=10, seed=4)
        runner = TestRunner(_UnforkableAdapter(), host_name="sqlite")
        assert runner_spec_for(runner) is None
        result = runner.run_suite(suite, workers=4)
        assert len(result.files) == len(suite.files)

    def test_unregistered_adapter_name_falls_back_to_serial(self):
        class Named(_UnforkableAdapter):
            def fork_config(self):
                return ("no-such-adapter", {})

        runner = TestRunner(Named(), host_name="sqlite")
        assert runner_spec_for(runner) is None


class TestMatrixDonorReuse:
    def test_translated_matrix_reuses_donor_entries_when_cached(self):
        suite = build_suite("slt", file_count=2, records_per_file=15, seed=6)
        suites = {"slt": suite}
        known = {}
        plain = run_matrix(suites, hosts=("sqlite", "duckdb"), known=known)
        translated = run_matrix(suites, hosts=("sqlite", "duckdb"), translate_dialect=True, known=known)
        # donor == sqlite for the slt suite: the entry is reused by reference
        assert translated.get("slt", "sqlite") is plain.get("slt", "sqlite")
        assert translated.get("slt", "duckdb") is not plain.get("slt", "duckdb")

    def test_donor_reuse_is_disabled_with_caching_off(self):
        suite = build_suite("slt", file_count=2, records_per_file=15, seed=6)
        suites = {"slt": suite}
        known = {}
        with perf_cache.caching_disabled():
            plain = run_matrix(suites, hosts=("sqlite",), known=known)
            translated = run_matrix(suites, hosts=("sqlite",), translate_dialect=True, known=known)
            assert translated.get("slt", "sqlite") is not plain.get("slt", "sqlite")
            # and the recomputed donor run is still identical
            assert_equivalent(
                {
                    "plain-donor-run": plain.get("slt", "sqlite").result,
                    "recomputed-donor-run": translated.get("slt", "sqlite").result,
                }
            )


def _raise_eio(value):
    raise OSError(errno.EIO, "user code hit a failing disk")


class TestPoolInfraClassification:
    """Only pool-infrastructure OSErrors may trigger the thread fallback."""

    def test_user_code_oserror_is_reported_not_retried_as_infra(self):
        # a genuine I/O failure raised *by the task* must propagate with its
        # errno intact — and must not degrade the pool, which would silently
        # re-run the failing work on threads
        pool = WorkerPool(2, "process")
        try:
            with pytest.raises(OSError) as excinfo:
                pool.map_tasks(_raise_eio, [(1,), (2,)])
            assert excinfo.value.errno == errno.EIO
            assert pool.flavour == "process"
        finally:
            pool.shutdown()

    def test_errno_whitelist_is_narrow(self):
        # bootstrap breakage in sandboxes: recoverable by degrading
        assert _is_pool_infra_error(OSError(errno.ENOSYS, "sem_open unavailable"))
        assert _is_pool_infra_error(OSError(errno.EPERM, "fork forbidden"))
        # real-world I/O failures: genuine errors, never infra
        assert not _is_pool_infra_error(OSError(errno.EIO, "disk failing"))
        assert not _is_pool_infra_error(OSError(errno.ENOSPC, "disk full"))
        assert not _is_pool_infra_error(OSError("no errno at all"))
