"""Transplanting test suites: running a donor's suite on host DBMSs.

The paper's RQ3 executes each suite on its *donor* (the DBMS it was written
for) and RQ4 executes each suite on every *host*.  :func:`run_transplant`
produces one :class:`TransplantResult` per (suite, host) pair.
:class:`CellExecutor` is the one loop that turns planned cells (:class:`CellKey`)
into those calls for every campaign, and :func:`run_matrix` runs it over the
full grid behind Figure 4 / Tables 4 and 6.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.adapters.base import DBMSAdapter
from repro.adapters.faults import FaultReport, FaultSummary
from repro.adapters.pool import AdapterPool, adapter_breaker, pool_key
from repro.adapters.registry import create_adapter
from repro.core import shutdown
from repro.core.journal import JOURNAL_DIRNAME, CampaignJournal, campaign_spec
from repro.core.records import TestSuite
from repro.core.resilience import InfraFailure, ResiliencePolicy, default_policy, run_with_deadline
from repro.core.runner import RecordOutcome, SuiteResult, TestRunner
from repro.errors import AdapterQuarantinedError, WatchdogTimeout
from repro.killpoints import kill_point
from repro.perf import cache as perf_cache
from repro.store import artifacts as artifact_store
from repro.store import codec as result_codec
from repro.store.keys import FILE_RESULTS_NAMESPACE, file_result_key, key_digest, suite_content_hash

logger = logging.getLogger(__name__)

#: Host names used throughout the experiments, in the paper's column order.
DEFAULT_HOSTS = ("sqlite", "postgres", "duckdb", "mysql")

#: Which adapter acts as the donor for each suite.
DONOR_OF_SUITE = {
    "slt": "sqlite",
    "sqlite": "sqlite",
    "postgres": "postgres",
    "postgresql": "postgres",
    "duckdb": "duckdb",
    "mysql": "mysql",
}

#: Extensions available on each donor when running its own suite (the DuckDB
#: suite pre-filters on ``require``; the paper reports 26.2% pre-filtered).
DEFAULT_EXTENSIONS = {
    "sqlite": {"series", "json1"},
    "postgres": {"plpgsql"},
    "duckdb": {"json", "parquet"},
    "mysql": set(),
}


@dataclass(frozen=True, order=True)
class CellKey:
    """Identity of one campaign-matrix cell: run ``suite`` on ``host``."""

    suite: str
    host: str
    translate: bool = False

    @property
    def is_donor_run(self) -> bool:
        return DONOR_OF_SUITE.get(self.suite, self.suite) == self.host


@dataclass
class TransplantResult:
    """Outcome of running one donor suite on one host."""

    suite: str
    host: str
    donor: str
    result: SuiteResult
    crashes: list[FaultReport] = field(default_factory=list)
    hangs: list[FaultReport] = field(default_factory=list)
    #: unrecovered infrastructure faults (:class:`repro.core.resilience.InfraFailure`
    #: records) that degraded this cell to a partial result; empty for clean
    #: runs *and* for runs whose transient faults were recovered by retry
    infra_failures: list = field(default_factory=list)

    @property
    def is_complete(self) -> bool:
        """True when no infrastructure fault degraded this cell."""
        return not self.infra_failures

    @property
    def is_donor_run(self) -> bool:
        return DONOR_OF_SUITE.get(self.suite, self.suite) == self.host

    @property
    def success_rate(self) -> float:
        return self.result.success_rate


def _donor_run_key(
    suite: TestSuite,
    host: str,
    float_tolerance: float,
    available_extensions: set[str],
    max_records_per_file: int | None,
    adapter_kwargs: dict | None = None,
) -> dict:
    """Store key of one donor run.

    Keyed on the suite's *content* (not its name or seed) so any campaign that
    builds an identical suite — this process or another one, today or next
    week — finds the recorded run.  ``translate_dialect`` and ``workers`` are
    deliberately absent: translation is the identity when donor == host (the
    runner skips it outright) and sharded execution merges to the exact serial
    result, so both knobs cannot change a donor run's outcome.
    """
    return {
        "suite_hash": suite_content_hash(suite),
        "suite": suite.name,
        "host": host,
        "float_tolerance": float_tolerance,
        "extensions": sorted(available_extensions),
        "max_records_per_file": max_records_per_file,
        "adapter_kwargs": dict(adapter_kwargs or {}),
    }


def _matrix_cell_key(
    suite: TestSuite,
    host: str,
    donor: str,
    float_tolerance: float,
    translate_dialect: bool,
    available_extensions: set[str],
    max_records_per_file: int | None,
    adapter_kwargs: dict | None = None,
) -> dict:
    """Store key of one off-diagonal matrix cell.

    Unlike donor runs, cross-host cells *are* sensitive to the translator
    switch (``translate_dialect``) and to the donor dialect the translator
    reads from, so both join the key.  ``workers`` stays excluded: sharded
    execution merges to the exact serial result.
    """
    return {
        "suite_hash": suite_content_hash(suite),
        "suite": suite.name,
        "host": host,
        "donor": donor,
        "translate": bool(translate_dialect),
        "float_tolerance": float_tolerance,
        "extensions": sorted(available_extensions),
        "max_records_per_file": max_records_per_file,
        "adapter_kwargs": dict(adapter_kwargs or {}),
    }


def _synthesize_suite_result(suite: TestSuite, host: str, outcome: "RecordOutcome", reason: str) -> SuiteResult:
    """A stand-in :class:`SuiteResult` for a cell infrastructure would not run."""
    from repro.core.parallel import _synthesize_file_result

    suite_result = SuiteResult(suite=suite.name, host=host)
    suite_result.files = [_synthesize_file_result(host, test_file, outcome, reason) for test_file in suite.files]
    return suite_result


def run_transplant(
    suite: TestSuite,
    host: str,
    adapter: DBMSAdapter | None = None,
    float_tolerance: float = 0.0,
    translate_dialect: bool = False,
    available_extensions: set[str] | None = None,
    max_records_per_file: int | None = None,
    workers: int = 1,
    executor: str = "auto",
    pool: AdapterPool | None = None,
    worker_pool=None,
    store: "artifact_store.ArtifactStore | str | None" = artifact_store.DEFAULT,
    incremental: bool = True,
    resilience: ResiliencePolicy | None = None,
    journal: CampaignJournal | None = None,
) -> TransplantResult:
    """Run ``suite`` on ``host`` and collect results plus crash/hang reports.

    ``workers > 1`` shards the suite's files across a worker pool (see
    :mod:`repro.core.parallel`); the merged result is identical to the serial
    run.  ``executor`` selects the pool flavour (``"process"``, ``"thread"``,
    or ``"auto"``).  ``pool`` (an :class:`AdapterPool`) serves the serial
    path's host adapter from a reusable lease instead of a fresh build, and
    ``worker_pool`` (a :class:`repro.core.parallel.WorkerPool`) keeps sharded
    workers — and their per-worker adapters — alive across the transplants of
    one campaign; ``run_matrix`` wires up both.

    **Every matrix cell is memoized on disk** (unless a caller-built
    ``adapter`` overrides the default): donor-on-donor runs live in the
    ``donor-runs`` namespace (keyed without ``translate_dialect`` — it is the
    identity there) and cross-host cells in ``matrix-cells`` (keyed with it).
    Payloads are compact codec frames (:mod:`repro.store.codec`), not pickles:
    records are reattached from the live suite on load, so a warm campaign
    replays the full matrix without touching an adapter.  ``store=None`` or
    :func:`repro.store.store_disabled` restores the always-execute path.

    When the suite-level entry misses, ``incremental`` (the default) probes
    the ``file-results`` namespace per file and executes only the files with
    no usable artifact, assembling the suite result — and the fresh
    suite-level entry — from the per-file pieces
    (:func:`repro.core.parallel.assemble_suite_result`).  Editing one file of
    an N-file suite therefore costs ~1/N of a cold run, byte-identical to
    full re-execution.  ``incremental=False`` (the CLI's
    ``--no-incremental``) forces full suite execution on any suite-level
    miss.

    ``resilience`` (defaulting to :func:`repro.core.resilience.default_policy`)
    arms the campaign resilience layer: transient infrastructure failures of
    the serial path retry the whole cell on a **rebuilt** adapter (with
    backoff and deterministic jitter), sharded execution retries per file
    inside the workers, and a configuration the circuit breaker quarantined —
    or a cell that exhausted its retries / hit its watchdog deadline — becomes
    a *partial* cell: every record reports SKIP (or HANG for watchdog cuts),
    the fault is recorded in ``TransplantResult.infra_failures``, and the cell
    is **not** memoized, so a later run re-enters it.  Recovered faults leave
    no trace in the result, keeping recovered campaigns byte-identical to
    fault-free ones.  Caller-provided ``adapter`` instances opt out of
    cell-level retry (no rebuild is possible on a foreign instance).

    ``journal`` (a :class:`~repro.core.journal.CampaignJournal`, normally
    wired by :class:`CellExecutor`) records this cell's start and finish as
    durable write-ahead events: ``cell-start`` lands before any execution
    (including a warm store hit), ``cell-finish`` — with the cell's store
    digest and its per-file artifact digests — after the memo save.  A
    process killed between the two leaves the cell visibly in flight, which
    is exactly what a crash-resume re-enters.
    """
    donor = DONOR_OF_SUITE.get(suite.name, suite.name)
    if available_extensions is None:
        available_extensions = DEFAULT_EXTENSIONS.get(host, set()) if donor == host else set()
    backing = artifact_store.active_store(store) if adapter is None else None
    memo = None
    if backing is not None:
        if donor == host:
            memo = ("donor-runs", _donor_run_key(suite, host, float_tolerance, available_extensions, max_records_per_file))
        else:
            memo = (
                "matrix-cells",
                _matrix_cell_key(
                    suite, host, donor, float_tolerance, translate_dialect, available_extensions, max_records_per_file
                ),
            )

    def _journal_file_events() -> "list[dict] | None":
        # the artifact digests workers/assembly really wrote: reconstruct the
        # RunnerSpec exactly as they do — fork_config() of a freshly built
        # (never connected) adapter — so the journaled keys match the store
        try:
            from repro.core.parallel import runner_spec_for

            spec = runner_spec_for(
                TestRunner(
                    create_adapter(host),
                    host_name=host,
                    available_extensions=available_extensions,
                    float_tolerance=float_tolerance,
                    translate_dialect=translate_dialect,
                    donor_dialect=donor,
                    max_records_per_file=max_records_per_file,
                )
            )
        except Exception:
            return None
        if spec is None:
            return None
        return [
            {
                "path": test_file.path,
                "artifact": key_digest(FILE_RESULTS_NAMESPACE, file_result_key(spec, test_file), backing.fingerprint),
            }
            for test_file in suite.files
        ]

    def _journal_finish(result: TransplantResult) -> None:
        if journal is None:
            return
        clean = not result.infra_failures
        artifact = key_digest(memo[0], memo[1], backing.fingerprint) if (memo is not None and clean) else None
        files = _journal_file_events() if (backing is not None and clean) else None
        journal.cell_finished(suite.name, host, complete=clean, artifact=artifact, files=files)
        kill_point("cell-finish")

    if journal is not None:
        journal.cell_started(suite.name, host)
        kill_point("cell-start")
    if memo is not None:
        cached = backing.load(*memo)
        if cached is not None:
            try:
                if isinstance(cached, dict):
                    # the assembled-cell format: header + per-file frames
                    decoded = result_codec.decode_transplant_bundle(cached, suite)
                else:
                    decoded = result_codec.decode_transplant_result(cached, suite)
            except result_codec.CodecError:
                # pre-codec pickle, version bump, or garbled payload: discard
                # and recompute (the save below writes a fresh entry); the
                # invalidation reclassifies the load as a miss
                backing.invalidate(*memo)
            else:
                _journal_finish(decoded)
                return decoded
    # mirrors TestRunner.run_suite's guard: only multi-file suites shard
    sharded = workers > 1 and len(suite.files) > 1
    may_assemble = backing is not None and incremental
    policy = resilience if resilience is not None else default_policy()

    def _execute_cell() -> tuple[SuiteResult, "list | None"]:
        """One attempt at the cell, on a freshly built (or leased) adapter.

        Raising attempts never re-pool their lease: a failed adapter is
        discarded (and a locally built one torn down), so the next attempt —
        and every other consumer of the pool — starts from a clean instance.
        """
        cell_adapter = adapter
        leased = False
        created = False
        if cell_adapter is None:
            if pool is not None and not sharded and not may_assemble:
                # one lease per campaign host instead of a build per transplant
                cell_adapter = pool.acquire(host)
                leased = True
            else:
                # the sharded path draws execution adapters from the workers'
                # own pools, and the incremental-assembly path may execute
                # nothing at all — in both cases this instance only seeds the
                # RunnerSpec, so it stays unconnected; a pool lease (or this
                # adapter's setup()) happens lazily, the moment something
                # actually executes.  Only the plain serial path connects
                # (inside the guarded block below), keeping seed behaviour.
                cell_adapter = create_adapter(host)
                created = True
        # the lease is guarded from the moment of acquisition: everything
        # that can raise — including the eager setup() and the TestRunner
        # construction — happens inside the try, so an interrupt or failure
        # anywhere past this point still releases (or tears down) the adapter
        lease = {"adapter": cell_adapter, "leased": leased, "deferred": created}
        try:
            if created and not sharded and not may_assemble:
                lease["adapter"].setup()
                lease["deferred"] = False
            runner = TestRunner(
                lease["adapter"],
                host_name=host,
                available_extensions=available_extensions,
                float_tolerance=float_tolerance,
                translate_dialect=translate_dialect,
                donor_dialect=donor,
                max_records_per_file=max_records_per_file,
            )

            def _prepare_execution():
                # bring the deferred adapter to life the moment something must
                # execute on this process's runner: a campaign pool serves the
                # lease (reusing live adapters across transplants, exactly as
                # the eager path did), otherwise the seed adapter's setup()
                # runs — adapters that hook setup() keep their hook.  A
                # fully-warm assembly never gets here, so it neither leases
                # nor connects anything.
                if not lease["deferred"]:
                    return
                lease["deferred"] = False
                if pool is not None and not sharded:
                    lease["adapter"] = pool.acquire(host)
                    lease["leased"] = True
                    runner.adapter = lease["adapter"]
                else:
                    lease["adapter"].setup()

            if lease["deferred"]:
                from repro.core.parallel import runner_spec_for

                if runner_spec_for(runner) is None:
                    # no RunnerSpec means neither workers nor incremental
                    # assembly can serve this adapter: run_suite will execute
                    # serially on this very instance — prepare it now
                    _prepare_execution()
            suite_result = None
            file_blobs = None
            if may_assemble:
                from repro.core.parallel import assemble_suite_result

                assembly = assemble_suite_result(
                    suite,
                    runner,
                    backing,
                    workers=workers,
                    executor=executor,
                    worker_pool=worker_pool,
                    prepare_runner=_prepare_execution,
                    policy=policy,
                )
                if assembly is not None:
                    suite_result, file_blobs = assembly
            if suite_result is None:
                # per-file store reuse inside sharded workers is the
                # incremental feature too: with incremental=False the suite
                # really is re-executed whole, as the flag's contract promises
                suite_result = runner.run_suite(
                    suite,
                    workers=workers,
                    executor=executor,
                    worker_pool=worker_pool,
                    store=backing if incremental else None,
                    resilience=policy,
                )
        except BaseException:
            # failure-path teardown: never re-pool a lease that blew up
            if lease["leased"]:
                pool.discard(lease["adapter"])
            elif created:
                try:
                    lease["adapter"].teardown()
                except Exception:
                    pass
            raise
        if lease["leased"]:
            pool.release(lease["adapter"])
        return suite_result, file_blobs

    cell_failures: list[InfraFailure] = []
    if adapter is not None:
        # caller-managed adapter: single attempt — the caller owns the
        # lifecycle, so no rebuild (and hence no cell-level retry) is possible
        suite_result, file_blobs = _execute_cell()
    else:
        breaker = pool.breaker if pool is not None else adapter_breaker()
        breaker_key = pool_key(host, {})
        cell_token = f"{suite.name}:{host}"
        deadline = None
        if policy.watchdog_seconds is not None and not sharded:
            # sharded execution arms a per-file watchdog inside the workers;
            # the serial cell gets one deadline scaled to the suite's size
            deadline = policy.watchdog_seconds * max(1, len(suite.files))
        attempt = 0
        suite_result = None
        file_blobs = None
        while True:
            attempt += 1
            if breaker.is_quarantined(breaker_key):
                detail = breaker.quarantine_detail(breaker_key)
                reason = f"adapter {host!r} quarantined" + (f": {detail}" if detail else "")
                suite_result = _synthesize_suite_result(suite, host, RecordOutcome.SKIP, reason)
                cell_failures.append(
                    InfraFailure(
                        kind="adapter-quarantined",
                        suite=suite.name,
                        host=host,
                        detail=detail,
                        attempts=max(1, attempt - 1),
                    )
                )
                break
            try:
                if deadline is not None:
                    suite_result, file_blobs = run_with_deadline(_execute_cell, deadline, label=cell_token)
                else:
                    suite_result, file_blobs = _execute_cell()
            except WatchdogTimeout as error:
                # a wedged execution would wedge again: no retry, the cell
                # degrades to a HANG-shaped partial result immediately
                breaker.record_failure(breaker_key, detail=str(error), threshold=policy.quarantine_after)
                suite_result = _synthesize_suite_result(suite, host, RecordOutcome.HANG, str(error))
                cell_failures.append(
                    InfraFailure(kind="watchdog-timeout", suite=suite.name, host=host, detail=str(error), attempts=attempt)
                )
                break
            except AdapterQuarantinedError:
                continue  # tripped between check and acquire: reported at the top of the loop
            except Exception as error:
                detail = f"{type(error).__name__}: {error}"
                breaker.record_failure(breaker_key, detail=detail, threshold=policy.quarantine_after)
                if not policy.retry.retryable(error):
                    raise
                if policy.retry.should_retry(error, attempt) and not breaker.is_quarantined(breaker_key):
                    delay = policy.retry.delay_for(attempt, token=cell_token)
                    logger.warning(
                        "transient infrastructure failure on cell %s (attempt %d/%d): %s; retrying in %.3fs",
                        cell_token, attempt, policy.retry.attempts, detail, delay,
                    )
                    time.sleep(delay)
                    continue
                if breaker.is_quarantined(breaker_key):
                    continue
                suite_result = _synthesize_suite_result(suite, host, RecordOutcome.SKIP, f"infrastructure failure: {detail}")
                cell_failures.append(
                    InfraFailure(kind="retry-exhausted", suite=suite.name, host=host, detail=detail, attempts=attempt)
                )
                break
            else:
                breaker.record_success(breaker_key)
                break

    if cell_failures:
        suite_result.infra_failures = list(suite_result.infra_failures) + cell_failures

    crashes, hangs = result_codec.fault_reports_for(suite_result, host)
    transplant_result = TransplantResult(
        suite=suite.name,
        host=host,
        donor=donor,
        result=suite_result,
        crashes=crashes,
        hangs=hangs,
        infra_failures=list(suite_result.infra_failures),
    )
    if memo is not None and not transplant_result.infra_failures:
        # partial cells are never memoized: a resumed campaign must re-enter
        # them instead of replaying the degradation from the store
        try:
            # the suite-level entry is *assembled* from the per-file frames
            # the incremental path already holds (byte reuse, no re-encoding);
            # full executions encode their files here instead
            payload = result_codec.encode_transplant_bundle(transplant_result, suite, file_blobs=file_blobs)
        except result_codec.CodecError:
            payload = None  # unencodable cell (foreign records): skip persisting
        if payload is not None:
            backing.save(*memo, payload)
    _journal_finish(transplant_result)
    return transplant_result


@dataclass
class TransplantMatrix:
    """All (suite, host) transplant results of one campaign."""

    entries: dict[tuple[str, str], TransplantResult] = field(default_factory=dict)

    def add(self, result: TransplantResult) -> None:
        self.entries[(result.suite, result.host)] = result

    def get(self, suite: str, host: str) -> TransplantResult:
        return self.entries[(suite, host)]

    def suites(self) -> list[str]:
        return sorted({suite for suite, _ in self.entries})

    def hosts(self) -> list[str]:
        return sorted({host for _, host in self.entries})

    def success_rate(self, suite: str, host: str) -> float:
        return self.entries[(suite, host)].success_rate

    def fault_summary(self) -> FaultSummary:
        summary = FaultSummary()
        for entry in self.entries.values():
            for report in entry.crashes:
                summary.add(report)
            for report in entry.hangs:
                summary.add(report)
        return summary

    def infra_failures(self) -> list:
        """Every unrecovered infrastructure fault of the campaign, in cell order."""
        return [failure for entry in self.entries.values() for failure in entry.infra_failures]

    def incomplete_cells(self) -> list[tuple[str, str]]:
        """(suite, host) keys of cells degraded by infrastructure faults."""
        return sorted(key for key, entry in self.entries.items() if entry.infra_failures)

    def is_complete(self) -> bool:
        """True when no cell was degraded to a partial result."""
        return not any(entry.infra_failures for entry in self.entries.values())


def cell_alias(key: CellKey) -> CellKey:
    """The cell that actually runs for ``key``.

    Translation is the identity when donor == host (the runner skips it), so
    a translated donor-on-donor cell *is* its plain sibling and resolves to
    it.  The alias is part of the cache layer and honours the global cache
    switch: with caching off, translated donor cells execute for real.
    """
    if key.translate and key.is_donor_run and perf_cache.caching_enabled():
        return CellKey(key.suite, key.host)
    return key


def _drained_cell(suite: TestSuite, host: str) -> TransplantResult:
    """The SKIP partial a cell degrades to when a shutdown drain is underway."""
    reason = shutdown.drain_reason() or "shutdown drain"
    suite_result = _synthesize_suite_result(suite, host, RecordOutcome.SKIP, f"shutdown drain: {reason}")
    failure = InfraFailure(kind=shutdown.SHUTDOWN_DRAIN_KIND, suite=suite.name, host=host, detail=reason)
    suite_result.infra_failures = [failure]
    donor = DONOR_OF_SUITE.get(suite.name, suite.name)
    return TransplantResult(suite=suite.name, host=host, donor=donor, result=suite_result, infra_failures=[failure])


class CellExecutor:
    """The one cell loop of every campaign.

    :func:`run_matrix`, the streaming experiment pass and
    :class:`~repro.experiments.context.ExperimentContext` all resolve their
    matrix cells here, so every cell-level rule lives in one place:

    * **alias** — a translated donor-on-donor cell resolves to its plain
      sibling (:func:`cell_alias`);
    * **reuse** — a cell already in ``known`` (``CellKey`` -> result of this
      campaign) is served as-is; every cell resolved here is added to it, so
      passing the same dict to several executors runs each cell once.  Known
      results are trusted: they must come from the same ``float_tolerance``
      and ``max_records_per_file``;
    * **drain** — once a shutdown drain is requested
      (:mod:`repro.core.shutdown`), a cell not yet started degrades to a SKIP
      partial with a ``"shutdown-drain"`` failure; it never starts and is
      never journaled;
    * **journal** — ``journal`` is ``True`` (under ``<store root>/journals/``),
      a directory, a ``.jsonl`` path, or an open
      :class:`~repro.core.journal.CampaignJournal`.  A setting opens one
      journal per translate variant of ``plan`` — plain and translated cells
      are distinct campaigns — identified by the variant's sorted suites and
      hosts, so re-running the same plan finds the same journal.  A variant
      whose cells are all known opens nothing;
    * **execute** — everything else is one :func:`run_transplant` call with
      the executor's store, pools and resilience policy.

    Iterating yields ``(key, result)`` along ``plan``; :meth:`resolve` serves
    one cell (the streaming pass's thread lane calls it concurrently).  Pools
    and journals created here are closed by :meth:`close`.
    """

    def __init__(
        self,
        suites: "dict[str, TestSuite]",
        plan: "list[CellKey]",
        known: "dict[CellKey, TransplantResult] | None" = None,
        *,
        float_tolerance: float = 0.0,
        max_records_per_file: int | None = None,
        workers: int = 1,
        executor: str = "auto",
        adapter_pool: AdapterPool | None = None,
        worker_pool=None,
        store: "artifact_store.ArtifactStore | str | None" = artifact_store.DEFAULT,
        incremental: bool = True,
        resilience: ResiliencePolicy | None = None,
        journal: "CampaignJournal | str | os.PathLike | bool | None" = None,
    ):
        from repro.core.parallel import WorkerPool

        self.suites = suites
        self.plan = list(plan)
        self.known = {} if known is None else known
        self.float_tolerance = float_tolerance
        self.max_records_per_file = max_records_per_file
        self.workers = workers
        self.executor = executor
        # resolve once so every cell of the campaign hits the same store
        self.store = artifact_store.active_store(store)
        self.incremental = incremental
        self.resilience = resilience
        self._owned_journals: list[CampaignJournal] = []
        self.journals = self._open_journals(journal)
        self._owned_adapter_pool = adapter_pool is None
        self.adapter_pool = AdapterPool() if adapter_pool is None else adapter_pool
        self._owned_worker_pool = worker_pool is None and workers > 1
        self.worker_pool = WorkerPool(workers, executor) if self._owned_worker_pool else worker_pool

    def _open_journals(self, setting) -> "dict[bool, CampaignJournal]":
        if setting is None or setting is False:
            return {}
        if isinstance(setting, CampaignJournal):
            return {False: setting, True: setting}
        if self.store is None:
            raise ValueError("journal=... requires an artifact store (the campaign id embeds its fingerprint)")
        journals = {}
        for translate in (False, True):
            variant = [key for key in self.plan if key.translate == translate]
            if all(cell_alias(key) in self.known for key in variant):
                continue
            spec = campaign_spec(
                {name: self.suites[name] for name in sorted({key.suite for key in variant})},
                tuple(sorted({key.host for key in variant})),
                float_tolerance=self.float_tolerance,
                translate_dialect=translate,
                max_records_per_file=self.max_records_per_file,
            )
            fingerprint = self.store.fingerprint
            if setting is True:
                journal = CampaignJournal.open_in(Path(self.store.root) / JOURNAL_DIRNAME, spec, fingerprint)
            elif Path(setting).suffix == ".jsonl" or Path(setting).is_file():
                journal = CampaignJournal.open(setting, spec, fingerprint)
            else:
                journal = CampaignJournal.open_in(setting, spec, fingerprint)
            self._owned_journals.append(journal)
            journals[translate] = journal
            if journal.replay.incomplete_cells():
                logger.info(
                    "journal %s: resuming campaign %s... — %d cell(s) in flight at last exit",
                    journal.path, journal.campaign[:16], len(journal.replay.incomplete_cells()),
                )
        return journals

    def resolve(self, key: CellKey) -> TransplantResult:
        """The result of one cell: known, drained, or executed now."""
        cell = cell_alias(key)
        result = self.known.get(cell)
        if result is not None:
            return result
        suite = self.suites[cell.suite]
        if shutdown.draining():
            result = _drained_cell(suite, cell.host)
        else:
            result = run_transplant(
                suite,
                cell.host,
                float_tolerance=self.float_tolerance,
                translate_dialect=cell.translate,
                max_records_per_file=self.max_records_per_file,
                workers=self.workers,
                executor=self.executor,
                pool=self.adapter_pool,
                worker_pool=self.worker_pool,
                store=self.store,
                incremental=self.incremental,
                resilience=self.resilience,
                # journaled in the campaign the caller planned the cell for
                journal=self.journals.get(key.translate),
            )
        self.known[cell] = result
        return result

    def __iter__(self) -> "Iterator[tuple[CellKey, TransplantResult]]":
        for key in self.plan:
            yield key, self.resolve(key)

    def close(self) -> None:
        if self._owned_worker_pool:
            self.worker_pool.shutdown()
        if self._owned_adapter_pool:
            self.adapter_pool.close()
        for journal in self._owned_journals:
            journal.close()

    def __enter__(self) -> "CellExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def run_matrix(
    suites: dict[str, TestSuite],
    hosts: tuple[str, ...] = DEFAULT_HOSTS,
    float_tolerance: float = 0.0,
    translate_dialect: bool = False,
    max_records_per_file: int | None = None,
    workers: int = 1,
    executor: str = "auto",
    adapter_pool: AdapterPool | None = None,
    worker_pool=None,
    store: "artifact_store.ArtifactStore | str | None" = artifact_store.DEFAULT,
    incremental: bool = True,
    resilience: ResiliencePolicy | None = None,
    known: "dict[CellKey, TransplantResult] | None" = None,
    journal: "CampaignJournal | str | os.PathLike | bool | None" = None,
) -> TransplantMatrix:
    """Run every suite on every host (the Figure 4 campaign).

    The full suite x host grid goes through one :class:`CellExecutor`, which
    holds every cell-level rule: the translated donor-cell alias, reuse of
    ``known`` cells, the write-ahead ``journal``, the shutdown drain and the
    :func:`run_transplant` call.  Pass the same ``known`` dict to a plain and
    a translated campaign and the translated one reuses the plain donor runs;
    pass it again and the matrix is read back without executing anything.

    Adapters are reused across the campaign instead of rebuilt per transplant:
    the serial path leases each host's adapter from one :class:`AdapterPool`,
    and the sharded path keeps one persistent
    :class:`~repro.core.parallel.WorkerPool` whose workers pool their own
    adapters across suites.  Callers may pass either pool to extend the reuse
    beyond a single matrix (see :class:`~repro.experiments.context.ExperimentContext`);
    pools created here are closed here.

    ``store`` extends reuse across processes: *every* cell — donor runs and
    cross-host transplants alike — is served from the persistent artifact
    store (see :func:`run_transplant`), so a repeated campaign with all cells
    persisted replays the whole matrix without executing anything.
    ``incremental`` additionally assembles suite-level misses from per-file
    ``file-results`` artifacts, so a campaign over an *edited* suite
    re-executes only the changed files of every cell.

    The journal and the store are the one resume path.  Degraded cells are
    never memoized, so re-running a degraded or SIGKILL'd campaign with the
    same arguments replays its clean cells from the store and re-executes
    only the gaps and the work that was in flight; a journal belonging to a
    different campaign (suites, hosts, parameters or store fingerprint)
    raises :class:`~repro.errors.JournalMismatchError`.  A drained campaign
    reports its unstarted cells as partial (exit code 2, resumable).
    """
    plan = [CellKey(name, host, translate_dialect) for name in suites for host in hosts]
    matrix = TransplantMatrix()
    with CellExecutor(
        suites,
        plan,
        known,
        float_tolerance=float_tolerance,
        max_records_per_file=max_records_per_file,
        workers=workers,
        executor=executor,
        adapter_pool=adapter_pool,
        worker_pool=worker_pool,
        store=store,
        incremental=incremental,
        resilience=resilience,
        journal=journal,
    ) as cells:
        for _key, result in cells:
            matrix.add(result)
    return matrix
