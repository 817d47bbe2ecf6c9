"""Chaos tests: the resilience layer under deterministic injected faults.

Every schedule here is seeded from ``REPRO_CHAOS_SEED`` (default 0) so a CI
failure reproduces exactly by exporting the printed seed.  The acceptance
gates of the resilience layer live here:

* recoverable (transient) faults are *invisible*: the campaign retries and the
  result is byte-identical to a fault-free run, serial and sharded alike;
* unrecoverable faults degrade gracefully: the campaign completes with the
  broken adapter quarantined, the affected cells partial, and structured
  ``infra_failures`` describing what happened;
* a wedged adapter is cut off by the watchdog and surfaces as HANG;
* artifact-store I/O errors demote the campaign to storeless mode without
  changing a single result byte;
* re-running a degraded campaign against its store re-enters only the
  degraded cells.

Chaos campaigns use the thread executor: worker *processes* re-import a
pristine registry and would not see the injected chaos factories.
"""

from __future__ import annotations

import logging
import os
import time
from types import SimpleNamespace

import pytest

from test_differential import assert_equivalent

from repro.adapters.pool import AdapterPool, adapter_breaker, pool_key
from repro.core.parallel import close_dead_worker_adapter_pools
from repro.core.resilience import (
    InfraFailure,
    ResiliencePolicy,
    RetryPolicy,
    configured_watchdog_seconds,
    default_policy,
    default_timeout_seconds,
    run_with_deadline,
    set_default_timeout,
)
from repro.core.transplant import run_matrix, run_transplant
from repro.corpus import build_suite
from repro.errors import AdapterQuarantinedError, WatchdogTimeout
from repro.store import ArtifactStore
from repro.testing.chaos import ChaosError, ChaosStore, FaultSchedule, FaultSpec, inject_adapter

#: export REPRO_CHAOS_SEED=<n> to replay a CI failure exactly
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

#: near-zero backoff so retry schedules don't slow the test suite down
FAST_RETRY = RetryPolicy(attempts=3, base_delay=0.001, max_delay=0.002, jitter=0.0, seed=CHAOS_SEED)
FAST_POLICY = ResiliencePolicy(retry=FAST_RETRY, quarantine_after=3)


@pytest.fixture(autouse=True)
def _resilience_hygiene():
    """Chaos must never leak into (or inherit from) neighbouring tests."""
    adapter_breaker().reset()
    set_default_timeout(None)
    yield
    adapter_breaker().reset()
    set_default_timeout(None)
    close_dead_worker_adapter_pools()


@pytest.fixture(scope="module")
def slt_suite():
    return build_suite("slt", file_count=4, records_per_file=20, seed=23, store=None)


@pytest.fixture(scope="module")
def postgres_suite():
    return build_suite("postgres", file_count=3, records_per_file=15, seed=23, store=None)


class TestRecoverableFaults:
    """Transient faults retry to byte-identical results (the equivalence gate)."""

    def test_transient_execute_fault_is_invisible_serial_and_sharded(self, slt_suite):
        def chaos_run(**kwargs):
            schedule = FaultSchedule([FaultSpec(op="execute", at=7)], seed=CHAOS_SEED)

            def invoke():
                with inject_adapter("duckdb", schedule):
                    result = run_transplant(slt_suite, "duckdb", store=None, resilience=FAST_POLICY, **kwargs)
                assert schedule.injected, "the scheduled fault never fired"
                assert not result.infra_failures, "a recovered fault must leave no failure record"
                return result

            return invoke

        assert_equivalent(
            {
                "fault-free-serial": lambda: run_transplant(slt_suite, "duckdb", store=None),
                "chaos-serial": chaos_run(),
                "chaos-workers-4": chaos_run(workers=4, executor="thread"),
            }
        )

    def test_transient_setup_fault_is_invisible(self, slt_suite):
        schedule = FaultSchedule([FaultSpec(op="setup", at=1)], seed=CHAOS_SEED)

        def chaos():
            with inject_adapter("duckdb", schedule):
                return run_transplant(slt_suite, "duckdb", store=None, resilience=FAST_POLICY)

        results = assert_equivalent(
            {
                "fault-free": lambda: run_transplant(slt_suite, "duckdb", store=None),
                "chaos-setup": chaos,
            }
        )
        assert schedule.injected
        assert not results["chaos-setup"].infra_failures


class TestUnrecoverableFaults:
    """Permanent breakage quarantines the adapter and degrades the campaign."""

    def test_permanently_broken_adapter_completes_with_partial_results(self, slt_suite, postgres_suite):
        suites = {"slt": slt_suite, "postgres": postgres_suite}
        schedule = FaultSchedule([FaultSpec(op="execute", at=1, every=True)], seed=CHAOS_SEED)
        # attempts < quarantine_after so the first broken cell exhausts its
        # retries and the second trips the breaker
        policy = ResiliencePolicy(
            retry=RetryPolicy(attempts=2, base_delay=0.001, max_delay=0.002, jitter=0.0, seed=CHAOS_SEED),
            quarantine_after=3,
        )
        with inject_adapter("duckdb", schedule):
            matrix = run_matrix(suites, hosts=("duckdb", "mysql"), store=None, resilience=policy)

        # the campaign finished: every cell is present
        assert set(matrix.entries) == {(s, h) for s in suites for h in ("duckdb", "mysql")}
        assert not matrix.is_complete()
        assert matrix.incomplete_cells() == [("postgres", "duckdb"), ("slt", "duckdb")]
        kinds = {failure.kind for failure in matrix.infra_failures()}
        assert kinds == {"retry-exhausted", "adapter-quarantined"}
        assert all(failure.host == "duckdb" for failure in matrix.infra_failures())
        assert adapter_breaker().is_quarantined(pool_key("duckdb", {}))

        # degraded cells are partial, not missing: every record reports SKIP
        degraded = matrix.get("slt", "duckdb")
        assert degraded.result.total_cases > 0
        assert degraded.result.skipped_cases == degraded.result.total_cases
        # healthy hosts are untouched
        clean = matrix.get("slt", "mysql")
        assert clean.is_complete and clean.result.total_cases > 0

    def test_quarantined_acquire_raises(self):
        breaker = adapter_breaker()
        key = pool_key("duckdb", {})
        for _ in range(3):
            breaker.record_failure(key, detail="chaos")
        pool = AdapterPool()
        with pytest.raises(AdapterQuarantinedError):
            pool.acquire("duckdb")

    def test_non_transient_errors_propagate_immediately(self, slt_suite):
        class _Bug(RuntimeError):
            pass

        schedule = FaultSchedule([FaultSpec(op="execute", at=1)], seed=CHAOS_SEED)

        def raise_bug(op):
            fault = schedule.tick(op)
            if fault is not None:
                raise _Bug("programming error, not infrastructure")

        with inject_adapter("duckdb", schedule):
            from repro.adapters.registry import create_adapter

            adapter = create_adapter("duckdb")
            adapter._maybe_fault = raise_bug  # make the injected fault non-transient
            with pytest.raises(_Bug):
                run_transplant(slt_suite, "duckdb", adapter=adapter, store=None, resilience=FAST_POLICY)


class TestWatchdog:
    """A wedged adapter becomes a HANG outcome, not a stuck campaign."""

    def test_serial_wedge_cut_off_as_hang(self, slt_suite):
        schedule = FaultSchedule([FaultSpec(op="execute", at=3, kind="hang", seconds=2.0)], seed=CHAOS_SEED)
        policy = ResiliencePolicy(retry=FAST_RETRY, watchdog_seconds=0.1)
        started = time.monotonic()
        with inject_adapter("duckdb", schedule):
            result = run_transplant(slt_suite, "duckdb", store=None, resilience=policy)
        assert time.monotonic() - started < 2.0, "the watchdog must not wait out the wedge"
        assert [failure.kind for failure in result.infra_failures] == ["watchdog-timeout"]
        assert result.result.hang_cases >= 1
        assert result.hangs, "the watchdog HANG must surface as a fault report"

    def test_sharded_wedge_degrades_one_file(self, slt_suite):
        schedule = FaultSchedule([FaultSpec(op="execute", at=5, kind="hang", seconds=2.0)], seed=CHAOS_SEED)
        policy = ResiliencePolicy(retry=FAST_RETRY, watchdog_seconds=0.2)
        with inject_adapter("duckdb", schedule):
            result = run_transplant(
                slt_suite, "duckdb", store=None, workers=4, executor="thread", resilience=policy
            )
        kinds = [failure.kind for failure in result.infra_failures]
        assert kinds == ["watchdog-timeout"]
        assert result.infra_failures[0].path, "sharded watchdog failures are per-file"
        assert result.result.hang_cases >= 1
        # the other files of the suite still executed normally
        assert result.result.passed_cases > 0


class TestResume:
    """A degraded campaign resumes by re-running it: only the gaps execute."""

    def test_resume_executes_only_gaps(self, slt_suite, tmp_path):
        suites = {"slt": slt_suite}
        store = ArtifactStore(root=tmp_path / "store", fingerprint="resume-fp")
        schedule = FaultSchedule([FaultSpec(op="execute", at=1, every=True)], seed=CHAOS_SEED)
        with inject_adapter("duckdb", schedule):
            degraded = run_matrix(suites, hosts=("duckdb", "mysql"), store=store, resilience=FAST_POLICY)
        assert degraded.incomplete_cells() == [("slt", "duckdb")]

        adapter_breaker().reset()  # operator fixed the infrastructure
        store.stats.reset()
        pool = AdapterPool()
        resumed = run_matrix(suites, hosts=("duckdb", "mysql"), store=store, adapter_pool=pool, resilience=FAST_POLICY)
        assert resumed.is_complete()
        # the clean cell replayed from the store (degraded cells are never
        # memoized, so the gap missed and re-entered)
        assert store.stats.by_namespace["matrix-cells"] == {"hits": 1, "misses": 1}
        assert pool.stats()["created"] == 1, "resume must build an adapter only for the gap"
        # the replayed cell is the one the degraded campaign ran, and the
        # re-entered cell matches a fresh fault-free run exactly
        assert_equivalent(
            {
                "degraded-campaign-cell": degraded.get("slt", "mysql"),
                "replayed-cell": resumed.get("slt", "mysql"),
            }
        )
        assert_equivalent(
            {
                "resumed-cell": resumed.get("slt", "duckdb"),
                "fault-free": lambda: run_transplant(slt_suite, "duckdb", store=None),
            }
        )


class TestStoreDegradation:
    """I/O errors demote the store to storeless mode without changing results."""

    def test_io_errors_degrade_store_but_not_results(self, slt_suite, tmp_path, caplog):
        schedule = FaultSchedule(
            [FaultSpec(op="read", at=1, every=True), FaultSpec(op="write", at=1, every=True)],
            seed=CHAOS_SEED,
        )
        store = ChaosStore(root=tmp_path / "store", fingerprint="chaos-fp", schedule=schedule)
        with caplog.at_level(logging.WARNING, logger="repro.store.artifacts"):
            results = assert_equivalent(
                {
                    "storeless": lambda: run_transplant(slt_suite, "duckdb", store=None),
                    "eio-store": lambda: run_transplant(slt_suite, "duckdb", store=store, resilience=FAST_POLICY),
                }
            )
        assert store.degraded
        snapshot = store.snapshot()
        assert snapshot["degraded"] is True
        assert snapshot["io_errors"] >= store.degrade_after
        warnings = [record for record in caplog.records if "degraded to storeless mode" in record.getMessage()]
        assert len(warnings) == 1, "degradation must be announced exactly once"
        assert not results["eio-store"].infra_failures

    def test_degraded_store_stops_touching_the_filesystem(self, tmp_path):
        schedule = FaultSchedule([FaultSpec(op="write", at=1, every=True)], seed=CHAOS_SEED)
        store = ChaosStore(root=tmp_path / "store", fingerprint="chaos-fp", schedule=schedule, degrade_after=2)
        assert store.save("ns", {"k": 1}, "value") is False
        assert store.save("ns", {"k": 2}, "value") is False
        assert store.degraded
        writes_before = schedule.calls("write")
        assert store.save("ns", {"k": 3}, "value") is False
        assert store.load("ns", {"k": 1}, default="fallback") == "fallback"
        assert schedule.calls("write") == writes_before, "a degraded store must not reach the I/O layer"


class TestChaosHarness:
    """The harness itself: determinism and injection mechanics."""

    def test_schedule_is_deterministic(self):
        def fire(schedule):
            fired = []
            for call in range(6):
                fault = schedule.tick("execute")
                fired.append(None if fault is None else fault.kind)
            return fired

        faults = [FaultSpec(op="execute", at=2), FaultSpec(op="execute", at=5, kind="hang")]
        assert fire(FaultSchedule(faults, seed=CHAOS_SEED)) == fire(FaultSchedule(faults, seed=CHAOS_SEED))

    def test_injection_restores_registry(self):
        from repro.adapters.registry import create_adapter, get_adapter_entry

        original = get_adapter_entry("duckdb").factory
        with inject_adapter("duckdb", FaultSchedule([], seed=CHAOS_SEED)):
            from repro.testing.chaos import ChaosAdapter

            assert isinstance(create_adapter("duckdb"), ChaosAdapter)
            # aliases retarget with the canonical name
            assert get_adapter_entry("duckdb").factory is not original
        assert get_adapter_entry("duckdb").factory is original

    def test_chaos_error_is_transient(self):
        from repro.core.resilience import is_transient_error

        assert is_transient_error(ChaosError(5, "boom"))
        assert not is_transient_error(TypeError("bug"))


class TestTimeoutConfiguration:
    """REPRO_TIMEOUT_SECONDS / set_default_timeout / --timeout, end to end."""

    def test_env_var_feeds_adapter_and_watchdog(self, monkeypatch):
        from repro.adapters.sqlite_adapter import SQLite3Adapter

        monkeypatch.setenv("REPRO_TIMEOUT_SECONDS", "1.25")
        assert default_timeout_seconds() == 1.25
        assert configured_watchdog_seconds() == 1.25
        assert SQLite3Adapter().timeout_seconds == 1.25
        assert default_policy().watchdog_seconds == 1.25

    def test_override_beats_env(self, monkeypatch):
        from repro.adapters.sqlite_adapter import SQLite3Adapter

        monkeypatch.setenv("REPRO_TIMEOUT_SECONDS", "1.25")
        set_default_timeout(0.5)
        assert default_timeout_seconds() == 0.5
        assert SQLite3Adapter().timeout_seconds == 0.5
        assert default_policy().watchdog_seconds == 0.5

    def test_unconfigured_watchdog_stays_disarmed(self, monkeypatch):
        monkeypatch.delenv("REPRO_TIMEOUT_SECONDS", raising=False)
        assert default_timeout_seconds() == 5.0
        assert configured_watchdog_seconds() is None
        assert default_policy().watchdog_seconds is None

    def test_run_with_deadline_contract(self):
        assert run_with_deadline(lambda: 42, 1.0) == 42
        with pytest.raises(WatchdogTimeout):
            run_with_deadline(lambda: time.sleep(0.5), 0.05)

        def _bug():
            raise ValueError("propagates unchanged")

        with pytest.raises(ValueError):
            run_with_deadline(_bug, 1.0)


class TestCliExitCodes:
    """Exit 2 = campaign finished with partial results; distinct from 0 and 1."""

    def _fake_cli(self, monkeypatch, failures):
        import repro.experiments.__main__ as cli

        created = {}

        class _FakeContext:
            def __init__(self, **kwargs):
                created.update(kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return None

            def infra_failures(self):
                return failures

        monkeypatch.setattr(cli, "ExperimentContext", _FakeContext)
        monkeypatch.setattr(cli, "run_batch", lambda selected, context: [SimpleNamespace(text="ok")])
        monkeypatch.setattr(cli, "stream_experiments", lambda selected, context: iter([SimpleNamespace(text="ok")]))
        return cli, created

    def test_clean_campaign_exits_zero(self, monkeypatch, capsys):
        cli, _ = self._fake_cli(monkeypatch, [])
        assert cli.main(["table4"]) == 0

    def test_degraded_campaign_exits_two(self, monkeypatch, capsys):
        failure = InfraFailure(kind="adapter-quarantined", suite="slt", host="duckdb", detail="chaos", attempts=3)
        cli, _ = self._fake_cli(monkeypatch, [failure])
        assert cli.main(["table4"]) == 2
        stderr = capsys.readouterr().err
        assert "adapter-quarantined" in stderr and "slt->duckdb" in stderr

    def test_timeout_flag_reaches_context(self, monkeypatch, capsys):
        cli, created = self._fake_cli(monkeypatch, [])
        assert cli.main(["table4", "--timeout", "2.5"]) == 0
        assert created["timeout_seconds"] == 2.5

    def test_timeout_flag_must_be_positive(self, monkeypatch, capsys):
        cli, _ = self._fake_cli(monkeypatch, [])
        with pytest.raises(SystemExit):
            cli.main(["table4", "--timeout", "0"])
