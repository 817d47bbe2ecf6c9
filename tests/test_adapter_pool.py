"""AdapterPool lifecycle: reuse, reset-on-acquire, and campaign wiring.

The satellite requirement: pooled adapters must be *reused* (not rebuilt) and
must never leak state between suites — a lease always starts from a pristine
database, even after committed DDL/DML, dangling transactions, session
settings, or an emulated crash on the previous lease.
"""

from __future__ import annotations

import threading

import pytest

from repro.adapters import AdapterPool, DBMSAdapter, create_adapter
from repro.adapters.base import ExecutionStatus
from repro.core.transplant import run_matrix, run_transplant
from repro.corpus import build_suite
from repro.errors import AdapterNotFoundError


class TestAcquireRelease:
    def test_miss_builds_and_connects(self):
        with AdapterPool() as pool:
            adapter = pool.acquire("duckdb")
            assert adapter.execute("SELECT 1").ok
            pool.release(adapter)
            assert pool.stats() == {"created": 1, "reused": 0, "idle": 1, "leased": 0}

    def test_hit_returns_same_live_instance(self):
        with AdapterPool() as pool:
            first = pool.acquire("duckdb")
            pool.release(first)
            second = pool.acquire("duckdb")
            assert second is first
            assert pool.reused == 1
            pool.release(second)

    def test_unknown_adapter_name_raises(self):
        with AdapterPool() as pool:
            with pytest.raises(AdapterNotFoundError):
                pool.acquire("oracle")

    def test_aliases_share_the_canonical_pool_slot(self):
        with AdapterPool() as pool:
            canonical = pool.acquire("postgres")
            pool.release(canonical)
            aliased = pool.acquire("postgresql")
            assert aliased is canonical
            assert pool.stats()["created"] == 1 and pool.stats()["reused"] == 1
            pool.release(aliased)

    def test_distinct_kwargs_get_distinct_adapters(self):
        with AdapterPool() as pool:
            plain = pool.acquire("duckdb")
            pool.release(plain)
            seeded = pool.acquire("duckdb", seed=99)
            assert seeded is not plain
            pool.release(seeded)
            assert pool.created == 2

    def test_concurrent_acquires_get_distinct_instances(self):
        with AdapterPool() as pool:
            first = pool.acquire("duckdb")
            second = pool.acquire("duckdb")
            assert first is not second
            assert pool.leased_count == 2
            pool.release(first)
            pool.release(second)


class TestResetSemantics:
    def test_no_table_leak_between_leases(self):
        with AdapterPool() as pool:
            with pool.lease("duckdb") as adapter:
                assert adapter.execute("CREATE TABLE leak(a INTEGER)").ok
                assert adapter.execute("INSERT INTO leak VALUES (1)").ok
            with pool.lease("duckdb") as adapter:
                outcome = adapter.execute("SELECT * FROM leak")
                assert outcome.status is ExecutionStatus.ERROR

    def test_no_transaction_or_settings_leak_between_leases(self):
        with AdapterPool() as pool:
            with pool.lease("postgres") as adapter:
                assert adapter.execute("BEGIN").ok
                assert adapter.execute("CREATE TABLE t(a INTEGER)").ok
                adapter.execute("SET search_path = leaky")
            with pool.lease("postgres") as adapter:
                # the dangling transaction's table and the session setting
                # must both be gone
                outcome = adapter.execute("SELECT * FROM t")
                assert outcome.status is ExecutionStatus.ERROR
                assert adapter.session.settings == {}

    def test_crashed_adapter_is_usable_after_reacquire(self):
        with AdapterPool() as pool:
            with pool.lease("duckdb") as adapter:
                adapter.execute("CREATE TABLE a (b INTEGER)")
                adapter.execute("BEGIN")
                adapter.execute("UPDATE a SET b = 1")
                adapter.execute("COMMIT")
                crash = adapter.execute("UPDATE a SET b = 2")
                assert crash.status is ExecutionStatus.CRASH
            with pool.lease("duckdb") as adapter:
                assert adapter.execute("SELECT 1").ok

    def test_lease_releases_on_exception(self):
        pool = AdapterPool()
        with pytest.raises(RuntimeError):
            with pool.lease("duckdb"):
                raise RuntimeError("boom")
        assert pool.leased_count == 0
        assert pool.idle_count == 1
        pool.close()

    def test_close_is_best_effort_and_never_raises(self):
        pool = AdapterPool()
        bad = pool.acquire("duckdb")
        pool.release(bad)
        good = pool.acquire("duckdb", seed=5)
        pool.release(good)

        def boom():
            raise RuntimeError("teardown boom")

        bad.teardown = boom
        pool.close()  # must not raise (runs from finally blocks)
        assert good.session is None  # the other adapter was still torn down

    def test_release_after_close_tears_down(self):
        pool = AdapterPool()
        adapter = pool.acquire("duckdb")
        pool.close()
        pool.release(adapter)  # must not re-enter the closed pool
        assert pool.idle_count == 0


class TestCampaignReuse:
    def test_serial_matrix_reuses_one_adapter_per_host(self):
        suites = {
            "slt": build_suite("slt", file_count=2, records_per_file=10, seed=21),
            "duckdb": build_suite("duckdb", file_count=2, records_per_file=8, seed=21),
        }
        pool = AdapterPool()
        run_matrix(suites, adapter_pool=pool)
        # 2 suites x 4 hosts = 8 transplants on 4 built adapters
        assert pool.created == 4
        assert pool.reused == 4
        pool.close()

    def test_pooled_matrix_matches_unpooled_results(self):
        # store=None: a stored matrix cell would serve the repeat transplants
        # without ever leasing from the pool, which is the behaviour under test
        suite = build_suite("slt", file_count=2, records_per_file=15, seed=22)
        pool = AdapterPool()
        pooled_first = run_transplant(suite, "duckdb", pool=pool, store=None)
        pooled_second = run_transplant(suite, "duckdb", pool=pool, store=None)  # reused lease
        fresh = run_transplant(suite, "duckdb", store=None)
        for result in (pooled_first, pooled_second):
            assert result.result.passed_cases == fresh.result.passed_cases
            assert result.result.failed_cases == fresh.result.failed_cases
            assert result.result.skipped_cases == fresh.result.skipped_cases
        assert pool.reused == 1
        pool.close()

    def test_sharded_matrix_with_pools_matches_serial(self):
        suites = {"slt": build_suite("slt", file_count=4, records_per_file=15, seed=23)}
        serial = run_matrix(suites, hosts=("sqlite", "duckdb"))
        sharded = run_matrix(suites, hosts=("sqlite", "duckdb"), workers=3, executor="thread")
        for key, entry in serial.entries.items():
            assert sharded.entries[key].result.passed_cases == entry.result.passed_cases
            assert sharded.entries[key].result.failed_cases == entry.result.failed_cases

    def test_worker_pool_shutdown_reclaims_dead_thread_pools(self):
        from repro.core import parallel

        suite = build_suite("slt", file_count=3, records_per_file=10, seed=24)
        run_matrix({"slt": suite}, hosts=("duckdb",), workers=3, executor="thread")
        # run_matrix shut its WorkerPool down: the executor threads are dead
        # and their adapter pools must have been closed and deregistered
        with parallel._WORKER_POOL_REGISTRY_LOCK:
            leftovers = [t for t, _ in parallel._WORKER_POOL_REGISTRY if not t.is_alive()]
        assert leftovers == []


class TestThreadSafety:
    def test_parallel_lease_cycles_do_not_corrupt_the_pool(self):
        pool = AdapterPool()
        errors: list[Exception] = []

        def worker() -> None:
            try:
                for _ in range(5):
                    with pool.lease("duckdb") as adapter:
                        assert adapter.execute("SELECT 1").ok
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert pool.leased_count == 0
        assert pool.created + pool.reused == 20
        pool.close()


class TestLifecycleProtocol:
    def test_setup_teardown_default_to_connect_close(self):
        adapter = create_adapter("duckdb")
        adapter.setup()
        assert adapter.execute("SELECT 1").ok
        adapter.teardown()
        assert adapter.session is None

    def test_context_manager_drives_lifecycle(self):
        with create_adapter("duckdb") as adapter:
            assert isinstance(adapter, DBMSAdapter)
            assert adapter.execute("SELECT 1").ok
        assert adapter.session is None


class TestCircuitBreaker:
    """Quarantine semantics: consecutive failures trip, success resets."""

    def _fresh(self):
        from repro.adapters.pool import CircuitBreaker

        return CircuitBreaker(threshold=3)

    def test_threshold_consecutive_failures_quarantine(self):
        from repro.adapters.pool import pool_key

        breaker = self._fresh()
        key = pool_key("duckdb", {})
        assert breaker.record_failure(key, detail="one") is False
        assert breaker.record_failure(key, detail="two") is False
        assert breaker.record_failure(key, detail="three") is True  # newly quarantined
        assert breaker.is_quarantined(key)
        assert breaker.quarantine_detail(key) == "three"
        # further failures on a quarantined key are no-ops
        assert breaker.record_failure(key, detail="four") is False

    def test_success_resets_the_streak(self):
        from repro.adapters.pool import pool_key

        breaker = self._fresh()
        key = pool_key("duckdb", {})
        breaker.record_failure(key)
        breaker.record_failure(key)
        breaker.record_success(key)
        assert breaker.record_failure(key) is False  # streak restarted at 1
        assert not breaker.is_quarantined(key)

    def test_keys_are_independent(self):
        from repro.adapters.pool import pool_key

        breaker = self._fresh()
        for _ in range(3):
            breaker.record_failure(pool_key("duckdb", {}))
        assert breaker.is_quarantined(pool_key("duckdb", {}))
        assert not breaker.is_quarantined(pool_key("mysql", {}))
        assert breaker.quarantined_keys() == [pool_key("duckdb", {})]

    def test_quarantined_key_refused_by_acquire(self):
        from repro.adapters.pool import CircuitBreaker, pool_key
        from repro.errors import AdapterQuarantinedError

        breaker = CircuitBreaker(threshold=1)
        breaker.record_failure(pool_key("duckdb", {}), detail="broken")
        with AdapterPool(breaker=breaker) as pool:
            with pytest.raises(AdapterQuarantinedError, match="quarantined"):
                pool.acquire("duckdb")
            # aliases collapse onto the quarantined canonical key too
            adapter = pool.acquire("mysql")  # other keys unaffected
            pool.release(adapter)

    def test_reset_clears_quarantine(self):
        from repro.adapters.pool import CircuitBreaker, pool_key

        breaker = CircuitBreaker(threshold=1)
        breaker.record_failure(pool_key("duckdb", {}))
        breaker.reset()
        assert not breaker.is_quarantined(pool_key("duckdb", {}))
        assert breaker.quarantined_keys() == []


class TestFailureTeardown:
    """A unit of work that raises must discard its lease, never re-pool it."""

    def test_failing_cell_discards_its_lease(self):
        from repro.adapters.pool import adapter_breaker
        from repro.core.resilience import ResiliencePolicy, RetryPolicy
        from repro.testing.chaos import FaultSchedule, FaultSpec, inject_adapter

        suite = build_suite("slt", file_count=2, records_per_file=10, seed=31, store=None)
        policy = ResiliencePolicy(
            retry=RetryPolicy(attempts=1, base_delay=0.001, jitter=0.0), quarantine_after=10
        )
        pool = AdapterPool()
        schedule = FaultSchedule([FaultSpec(op="execute", at=1, every=True)])
        try:
            with inject_adapter("duckdb", schedule):
                result = run_transplant(suite, "duckdb", pool=pool, store=None, resilience=policy)
            # the broken adapter was discarded, not parked for the next lease
            assert pool.idle_count == 0
            assert pool.leased_count == 0
            assert pool.created == 1
            assert [failure.kind for failure in result.infra_failures] == ["retry-exhausted"]
        finally:
            pool.close()
            adapter_breaker().reset()

    def test_failing_shard_discards_its_worker_lease(self):
        from repro.adapters.pool import adapter_breaker
        from repro.core import parallel
        from repro.core.resilience import ResiliencePolicy, RetryPolicy
        from repro.testing.chaos import FaultSchedule, FaultSpec, inject_adapter

        suite = build_suite("slt", file_count=2, records_per_file=10, seed=32, store=None)
        spec = parallel.RunnerSpec(adapter_name="duckdb", host_name="duckdb", donor_dialect="slt")
        policy = ResiliencePolicy(
            retry=RetryPolicy(attempts=1, base_delay=0.001, jitter=0.0), quarantine_after=10
        )
        worker_pool = parallel.worker_adapter_pool()
        idle_before, leased_before = worker_pool.idle_count, worker_pool.leased_count
        schedule = FaultSchedule([FaultSpec(op="execute", at=1, every=True)])
        try:
            with inject_adapter("duckdb", schedule):
                results, _, failures = parallel._run_shard(
                    spec, [(0, suite.files[0], None)], collect_stats=False, policy=policy
                )
            assert [failure.kind for failure in failures] == ["retry-exhausted"]
            assert len(results) == 1
            # the chaos adapter the shard leased was discarded on failure:
            # nothing new parked idle, nothing left leased
            assert worker_pool.idle_count == idle_before
            assert worker_pool.leased_count == leased_before
        finally:
            adapter_breaker().reset()
