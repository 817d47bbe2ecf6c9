"""Sharded suite execution: run a `TestSuite`'s files across a worker pool.

Test files are independent by construction — the runner resets the adapter
before every file — so a suite can be split into per-file shards and executed
concurrently, then merged back in file order.  The merged
:class:`~repro.core.runner.SuiteResult` is identical to the serial runner's
output: same per-file ordering, same per-record outcomes.

Two pool flavours are supported:

* ``"process"`` — one single-process :class:`concurrent.futures.ProcessPoolExecutor`
  per worker (a *lane*; see :class:`WorkerPool`); each worker re-creates the
  adapter from the registry, so nothing stateful is pickled.  Test files
  travel in with their store keys, computed by the submitter; results travel
  back as codec frames, which the submitter decodes against its own files.
* ``"thread"`` — a :class:`concurrent.futures.ThreadPoolExecutor` fallback
  for adapters that cannot be re-created in another process and for
  single-core machines, where fork overhead cannot pay for itself.  Threaded
  workers share the process-global statement caches
  (:mod:`repro.perf.cache`), which are thread-safe.

``"auto"`` picks processes when the machine has more than one usable core and
threads otherwise, and *any* failure to bootstrap or finish the process pool
(pickling errors, a sandbox without ``fork``, a broken pool) degrades to the
threaded pool rather than failing the run.

Adapters inside workers come from a per-process :class:`AdapterPool`
(:func:`worker_adapter_pool`), not from bare registry calls: within one worker
process, consecutive shards — and, when a campaign shares a persistent
:class:`WorkerPool` across its transplants (see
:func:`repro.core.transplant.run_matrix`) — consecutive *suites* reuse the
same live adapter instead of rebuilding it.  Reset-on-acquire keeps every
shard starting from a pristine database.

Workers are also **store-aware**: when the campaign runs against an
:class:`~repro.store.ArtifactStore`, every shard carries a reference to it —
thread workers share the live (thread-safe) store itself, process workers
re-open it from a picklable :class:`StoreSpec` (:func:`_worker_store`) — and
each file is served from the ``file-results`` namespace — compact codec
payloads keyed by file content + runner configuration — before an adapter is
even acquired.  Warm shards therefore execute nothing, and the per-file
results they persist are exactly what a later campaign (or a later shard of
this one) loads.

One determinism caveat: a MiniDB session's random() state persists across
files in a serial run but is re-seeded in each worker's fresh adapter.  The
generated corpora never invoke nondeterministic SQL functions, so shard merges
are byte-identical; suites that do use random() should run with ``workers=1``.
"""

from __future__ import annotations

import errno
import logging
import os
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any

from repro.adapters.base import DBMSAdapter
from repro.adapters.pool import AdapterPool, pool_key
from repro.adapters.registry import available_adapters, create_adapter
from repro.core import shutdown
from repro.core.records import TestFile, TestSuite
from repro.core.resilience import InfraFailure, ResiliencePolicy, run_with_deadline
from repro.errors import AdapterNotFoundError, AdapterQuarantinedError, ShardExecutionError, WatchdogTimeout
from repro.core.runner import (
    FileResult,
    RecordOutcome,
    SuiteResult,
    TestRunner,
    _drained_file_result,
    _synthesize_file_result,  # re-exported: transplant and tests import it from here
)
from repro.killpoints import kill_point
from repro.perf import cache as perf_cache
from repro.store import codec as result_codec
from repro.store.artifacts import ArtifactStore
from repro.store.keys import FILE_RESULTS_NAMESPACE, file_result_key

logger = logging.getLogger(__name__)

#: exception types that signal worker-pool *infrastructure* failure (rather
#: than a genuine error inside a shard); they trigger thread degradation.
#: ``AdapterNotFoundError`` is re-raised unwrapped by the shard on purpose —
#: a process worker that cannot rebuild a dynamically-registered adapter is
#: an infrastructure gap the threaded pool (which shares this process's
#: registry) recovers from.  Bare ``OSError`` is deliberately *not* in this
#: tuple: classifying every OSError as pool breakage would swallow genuine
#: store/journal I/O bugs from user task code (``map_tasks`` runs arbitrary
#: callables, not just :func:`_run_shard`'s wrapped work) — only the errnos
#: pool bootstrap actually produces count (see :func:`_is_pool_infra_error`).
_POOL_INFRA_ERRORS = (BrokenProcessPool, pickle.PicklingError, NotImplementedError, ImportError, AdapterNotFoundError)

#: ``OSError`` errnos that pool *bootstrap* produces: missing/forbidden
#: semaphores in sandboxes (ENOSYS, EPERM, EACCES) and fork exhaustion
#: (EAGAIN, ENOMEM).  An OSError with any other errno — EIO from a failing
#: disk, ENOSPC from a full one — is a genuine error to report, not pool
#: infrastructure to silently retry on threads.
_POOL_INFRA_OS_ERRNOS = frozenset({errno.ENOSYS, errno.EPERM, errno.EACCES, errno.EAGAIN, errno.ENOMEM})


def _is_pool_infra_error(error: BaseException) -> bool:
    """Whether ``error`` is worker-pool infrastructure breakage.

    Infrastructure failures (broken fork, sandboxed semaphores, unpicklable
    payloads, a killed worker) are recoverable by degrading to the threaded
    pool; anything else — including most ``OSError``s — is a genuine failure
    of the submitted work and must propagate to the caller.
    """
    if isinstance(error, _POOL_INFRA_ERRORS):
        return True
    return isinstance(error, OSError) and error.errno in _POOL_INFRA_OS_ERRNOS

#: per-worker adapter pools, keyed by thread: each worker — a process-pool
#: worker's main thread, or one thread of the threaded executor — keeps its
#: own pool, so adapters never migrate between threads (sqlite3 connections
#: are thread-affine) while still being reused shard-to-shard and, when the
#: executor persists across a campaign (see :class:`WorkerPool`),
#: suite-to-suite
_WORKER_POOL_LOCAL = threading.local()
#: (owning thread, pool) pairs for every worker pool created in this process,
#: so dead executor threads' pools can be torn down deterministically instead
#: of waiting for garbage collection
_WORKER_POOL_REGISTRY: list[tuple[threading.Thread, AdapterPool]] = []
_WORKER_POOL_REGISTRY_LOCK = threading.Lock()


def worker_adapter_pool() -> AdapterPool:
    """The calling worker thread's shard-execution adapter pool."""
    pool = getattr(_WORKER_POOL_LOCAL, "pool", None)
    if pool is None:
        pool = AdapterPool()
        _WORKER_POOL_LOCAL.pool = pool
        with _WORKER_POOL_REGISTRY_LOCK:
            _WORKER_POOL_REGISTRY.append((threading.current_thread(), pool))
    return pool


def close_dead_worker_adapter_pools() -> None:
    """Tear down the adapter pools of executor threads that have exited.

    Best effort: thread-affine resources (sqlite3 connections) that refuse a
    cross-thread close are left to garbage collection.  Pools of still-running
    threads — e.g. another live campaign's workers — are untouched.
    """
    with _WORKER_POOL_REGISTRY_LOCK:
        dead = [(thread, pool) for thread, pool in _WORKER_POOL_REGISTRY if not thread.is_alive()]
        _WORKER_POOL_REGISTRY[:] = [entry for entry in _WORKER_POOL_REGISTRY if entry[0].is_alive()]
    for thread, pool in dead:
        try:
            pool.close()
        except (OSError, RuntimeError) as error:
            # AdapterPool.close is itself best-effort, so anything landing
            # here is infra misconfiguration worth surfacing in debug logs
            # rather than swallowing silently
            logger.debug("closing adapter pool of dead worker %s failed: %s", thread.name, error)


def _reset_worker_adapter_pool() -> None:
    """Drop the calling thread's pool (test hook; idle adapters are torn down)."""
    pool = getattr(_WORKER_POOL_LOCAL, "pool", None)
    if pool is not None:
        pool.close()
        _WORKER_POOL_LOCAL.pool = None
        with _WORKER_POOL_REGISTRY_LOCK:
            _WORKER_POOL_REGISTRY[:] = [entry for entry in _WORKER_POOL_REGISTRY if entry[1] is not pool]


@dataclass(frozen=True)
class StoreSpec:
    """A picklable recipe for re-opening a campaign's :class:`ArtifactStore`.

    Live stores hold locks and cannot travel to process-pool workers; the
    spec carries just the addressing inputs (root, budget, and — crucially —
    the submitting process's code fingerprint, so workers and parent address
    identical keys even under a test fingerprint override).
    """

    root: str
    max_bytes: int
    fingerprint: str


def store_spec_for(store: "ArtifactStore | None") -> StoreSpec | None:
    """Describe ``store`` for shipping to workers (None stays None)."""
    if store is None:
        return None
    return StoreSpec(root=str(store.root), max_bytes=store.max_bytes, fingerprint=store.fingerprint)


#: per-process cache of worker-side stores, keyed by spec: every shard of a
#: campaign — and every campaign aimed at the same root — shares one instance
#: (ArtifactStore is thread-safe, so thread-flavour workers share it too)
_WORKER_STORES: dict[StoreSpec, ArtifactStore] = {}
_WORKER_STORES_LOCK = threading.Lock()


def _worker_store(spec: StoreSpec | None) -> ArtifactStore | None:
    if spec is None:
        return None
    with _WORKER_STORES_LOCK:
        store = _WORKER_STORES.get(spec)
        if store is None:
            store = ArtifactStore(root=spec.root, max_bytes=spec.max_bytes, fingerprint=spec.fingerprint)
            _WORKER_STORES[spec] = store
        return store


def _load_file_result(store: "ArtifactStore", key: dict, test_file: TestFile):
    """``(frame, FileResult)`` for a ``file-results`` entry, or None on miss.

    The one corrupt-blob protocol both readers (shards and assembly) share:
    a frame the codec rejects is invalidated — deleted, its lookup demoted
    to a miss — and reported as absent, never trusted.
    """
    cached = store.load(FILE_RESULTS_NAMESPACE, key)
    if cached is None:
        return None
    try:
        return cached, result_codec.decode_file_result(cached, test_file)
    except result_codec.CodecError:
        store.invalidate(FILE_RESULTS_NAMESPACE, key)
        return None


@dataclass(frozen=True)
class RunnerSpec:
    """A picklable recipe for rebuilding an equivalent :class:`TestRunner`."""

    adapter_name: str
    host_name: str
    adapter_kwargs: tuple = ()            # sorted (key, value) pairs
    available_extensions: tuple = ()
    float_tolerance: float = 0.0
    translate_dialect: bool = False
    donor_dialect: str | None = None
    max_records_per_file: int | None = None

    def make_runner(self, adapter: DBMSAdapter) -> TestRunner:
        """Wrap an already-live adapter in an equivalent :class:`TestRunner`."""
        return TestRunner(
            adapter,
            host_name=self.host_name,
            available_extensions=set(self.available_extensions),
            float_tolerance=self.float_tolerance,
            translate_dialect=self.translate_dialect,
            donor_dialect=self.donor_dialect,
            max_records_per_file=self.max_records_per_file,
        )

    def build_runner(self) -> TestRunner:
        adapter = create_adapter(self.adapter_name, **dict(self.adapter_kwargs))
        adapter.setup()
        return self.make_runner(adapter)


@dataclass
class ShardedRunReport:
    """Outcome of one sharded suite run plus its performance counters."""

    result: SuiteResult
    workers: int
    executor: str                          # "process" | "thread" | "serial"
    cache_stats: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: per-file codec frames the workers shipped back, keyed by suite file
    #: index (absent for serial runs and unencodable files); suite-level
    #: bundling reuses these instead of re-encoding
    file_blobs: dict[int, bytes] = field(default_factory=dict)
    #: unrecovered infrastructure faults (also attached to ``result``);
    #: empty for clean — and cleanly *recovered* — runs
    infra_failures: list[InfraFailure] = field(default_factory=list)


def runner_spec_for(runner: TestRunner) -> RunnerSpec | None:
    """Describe ``runner`` as a :class:`RunnerSpec`, or None if its adapter
    cannot be re-created from the registry."""
    config = runner.adapter.fork_config()
    if config is None:
        return None
    adapter_name, adapter_kwargs = config
    if adapter_name.lower() not in available_adapters():
        return None
    return RunnerSpec(
        adapter_name=adapter_name,
        host_name=runner.host_name,
        adapter_kwargs=tuple(sorted(adapter_kwargs.items())),
        available_extensions=tuple(sorted(runner.available_extensions)),
        float_tolerance=runner.float_tolerance,
        translate_dialect=runner.translate_dialect,
        donor_dialect=runner.donor_dialect,
        max_records_per_file=runner.max_records_per_file,
    )


def _stats_delta(before: dict[str, dict], after: dict[str, dict]) -> dict[str, dict]:
    """Per-cache counter increase between two :func:`perf.cache_stats` calls."""
    delta: dict[str, dict] = {}
    for name, stats in after.items():
        base = before.get(name, {})
        entry = {
            "hits": stats.get("hits", 0) - base.get("hits", 0),
            "misses": stats.get("misses", 0) - base.get("misses", 0),
            "evictions": stats.get("evictions", 0) - base.get("evictions", 0),
        }
        lookups = entry["hits"] + entry["misses"]
        entry["hit_rate"] = round(entry["hits"] / lookups, 4) if lookups else 0.0
        delta[name] = entry
    return delta


def _execute_shard_file(
    spec: RunnerSpec,
    test_file: TestFile,
    policy: "ResiliencePolicy | None",
    ensure_runner,
    drop_adapter,
    breaker,
    breaker_key,
) -> tuple[FileResult, bool, "InfraFailure | None"]:
    """Run one file under the shard's resilience policy.

    Returns ``(file_result, persistable, failure)``: ``persistable`` is False
    for synthesized stand-ins (which must never enter the store), ``failure``
    is the :class:`InfraFailure` record when the fault could not be recovered.
    Transient errors retry on a fresh adapter (the suspect one is discarded,
    its failure counted against the circuit breaker); non-transient errors
    propagate unchanged on the first attempt.  A watchdog timeout is not
    retried — a wedged execution would in all likelihood wedge again, doubling
    the wall-clock cost of the deadline for nothing.
    """
    if policy is None:
        return ensure_runner().run_file(test_file), True, None
    attempt = 0
    while True:
        attempt += 1
        if breaker.is_quarantined(breaker_key):
            reason = f"adapter {breaker_key[0]!r} quarantined"
            failure = InfraFailure(
                kind="adapter-quarantined",
                suite=test_file.suite,
                host=spec.host_name,
                path=test_file.path,
                detail=breaker.quarantine_detail(breaker_key),
                attempts=max(1, attempt - 1),
            )
            return _synthesize_file_result(spec.host_name, test_file, RecordOutcome.SKIP, reason), False, failure
        try:
            runner = ensure_runner()
            if policy.watchdog_seconds is not None:
                file_result = run_with_deadline(
                    lambda: runner.run_file(test_file),
                    policy.watchdog_seconds,
                    label=f"{spec.host_name}:{test_file.path}",
                )
            else:
                file_result = runner.run_file(test_file)
        except WatchdogTimeout as error:
            # the execution is still wedged on its abandoned helper thread;
            # the adapter it holds must never be re-pooled
            drop_adapter()
            breaker.record_failure(breaker_key, detail=str(error), threshold=policy.quarantine_after)
            failure = InfraFailure(
                kind="watchdog-timeout",
                suite=test_file.suite,
                host=spec.host_name,
                path=test_file.path,
                detail=str(error),
                attempts=attempt,
            )
            return _synthesize_file_result(spec.host_name, test_file, RecordOutcome.HANG, str(error)), False, failure
        except AdapterQuarantinedError:
            continue  # quarantined mid-acquire (another worker tripped it): reported at the top of the loop
        except Exception as error:
            drop_adapter()
            detail = f"{type(error).__name__}: {error}"
            breaker.record_failure(breaker_key, detail=detail, threshold=policy.quarantine_after)
            if not policy.retry.retryable(error):
                raise
            if policy.retry.should_retry(error, attempt) and not breaker.is_quarantined(breaker_key):
                time.sleep(policy.retry.delay_for(attempt, token=test_file.path))
                continue
            if breaker.is_quarantined(breaker_key):
                continue  # the top of the loop synthesizes the quarantine record
            failure = InfraFailure(
                kind="retry-exhausted",
                suite=test_file.suite,
                host=spec.host_name,
                path=test_file.path,
                detail=detail,
                attempts=attempt,
            )
            return _synthesize_file_result(spec.host_name, test_file, RecordOutcome.SKIP, f"infrastructure failure: {detail}"), False, failure
        breaker.record_success(breaker_key)
        return file_result, True, None


#: one shard item: (suite file index, the file, its ``file-results`` store
#: key or None when the run is storeless).  The submitter computes the keys:
#: it holds the per-object ``content_hash`` memo, and a worker that re-hashed
#: every unpickled file would canonical-walk it once per cell.
ShardItem = tuple[int, TestFile, "dict | None"]


def _portable(file_result: FileResult, test_file: TestFile) -> "bytes | FileResult":
    """What a worker ships back for one file: its codec frame, or the
    :class:`FileResult` itself when the codec cannot encode it."""
    try:
        return result_codec.encode_file_result(file_result, test_file)
    except result_codec.CodecError:
        return file_result


def _run_shard(
    spec: RunnerSpec,
    shard: list[ShardItem],
    caching: bool = True,
    collect_stats: bool = True,
    store_ref: "ArtifactStore | StoreSpec | None" = None,
    probe_store: bool = True,
    policy: "ResiliencePolicy | None" = None,
) -> tuple[list[tuple[int, "bytes | FileResult"]], dict, list[InfraFailure]]:
    """Worker entry point: run one chunk of files on a pooled adapter.

    ``caching`` mirrors the submitting process's global cache switch into
    process-pool workers (their module state starts fresh); ``collect_stats``
    is disabled for thread workers, whose counters are global and measured
    once around the whole run instead.  The adapter comes from (and returns
    to) this process's :func:`worker_adapter_pool`, so a persistent worker
    serves its next shard — or next suite — on the same live instance.

    ``store_ref`` makes the shard **store-aware**: each file's results are
    served from the ``file-results`` namespace under the key its shard item
    carries, before touching an adapter; misses execute and persist.  A
    shard whose every file is warm never acquires an adapter at all.  Thread
    workers receive the campaign's live (thread-safe) :class:`ArtifactStore`
    — one instance, one set of stats and byte estimates; process workers
    receive a :class:`StoreSpec` and re-open the store on their side.
    ``probe_store=False`` skips the per-file load while keeping the persist:
    incremental assembly uses it for files it *already* probed, so known
    misses are not looked up — and counted — twice.

    ``policy`` (a :class:`~repro.core.resilience.ResiliencePolicy`) arms
    per-file retries, the watchdog deadline, and circuit-breaker accounting
    (see :func:`_execute_shard_file`); ``None`` preserves the bare
    fail-on-first-error behaviour.  Unrecovered faults ride back as
    :class:`~repro.core.resilience.InfraFailure` records in the third tuple
    element, alongside synthesized stand-in results that keep the merge
    aligned with the suite's file list.

    Each result travels as ``(index, frame)``, the file's codec frame (the
    one persisted, when the store is on); the submitter decodes it against
    its own :class:`TestFile`, so merged results reference the submitter's
    records, and suite-level bundling reuses the frame as is.  Only a result
    the codec cannot encode travels as the :class:`FileResult` itself.

    Every error raised by shard work — adapter acquisition included — leaves
    this function as :class:`ShardExecutionError`, so the submitter's pool-
    dispatch ``except _POOL_INFRA_ERRORS`` can never mistake an in-shard
    ``OSError`` for pool breakage (which would silently degrade to threads
    and re-execute the whole batch).  The one exception is
    :class:`AdapterNotFoundError`: a worker process that cannot rebuild the
    adapter *is* an infrastructure gap, and degrading to threads (which share
    the submitting process's registry) is the correct recovery.
    """
    try:
        return _execute_shard(spec, shard, caching, collect_stats, store_ref, probe_store, policy)
    except (ShardExecutionError, AdapterNotFoundError):
        raise
    except Exception as error:
        raise ShardExecutionError(f"{type(error).__name__}: {error}") from error


def _execute_shard(
    spec: RunnerSpec,
    shard: list[ShardItem],
    caching: bool,
    collect_stats: bool,
    store_ref: "ArtifactStore | StoreSpec | None",
    probe_store: bool,
    policy: "ResiliencePolicy | None",
) -> tuple[list[tuple[int, "bytes | FileResult"]], dict, list[InfraFailure]]:
    perf_cache.set_caching(caching)
    before = perf_cache.cache_stats() if collect_stats else {}
    store = store_ref if isinstance(store_ref, ArtifactStore) else _worker_store(store_ref)
    store_hits = store_misses = 0
    pool = worker_adapter_pool()
    breaker_key = pool_key(spec.adapter_name, dict(spec.adapter_kwargs))
    state: dict[str, Any] = {"adapter": None, "runner": None}

    def _ensure_runner() -> TestRunner:
        if state["adapter"] is None:
            state["adapter"] = pool.acquire(spec.adapter_name, **dict(spec.adapter_kwargs))
            state["runner"] = spec.make_runner(state["adapter"])
        return state["runner"]

    def _drop_adapter() -> None:
        # an adapter whose execution blew up (or timed out) is not
        # trustworthy: tear it down instead of re-pooling it
        if state["adapter"] is not None:
            pool.discard(state["adapter"])
            state["adapter"] = None
            state["runner"] = None

    failures: list[InfraFailure] = []
    try:
        results: list[tuple[int, bytes | FileResult]] = []
        for index, test_file, key in shard:
            if shutdown.draining():
                # the file that was executing when the drain was requested
                # has finished (and persisted); everything after it in this
                # shard degrades to a resumable stand-in
                file_result, failure = _drained_file_result(spec.host_name, test_file)
                failures.append(failure)
                results.append((index, _portable(file_result, test_file)))
                continue
            if store is not None:
                if probe_store:
                    loaded = _load_file_result(store, key, test_file)
                    if loaded is not None:
                        results.append((index, loaded[0]))
                        store_hits += 1
                        continue
                store_misses += 1
            file_result, persistable, failure = _execute_shard_file(
                spec, test_file, policy, _ensure_runner, _drop_adapter, pool.breaker, breaker_key
            )
            if failure is not None:
                failures.append(failure)
            payload = _portable(file_result, test_file)
            if store is not None and persistable and isinstance(payload, bytes):
                store.save(FILE_RESULTS_NAMESPACE, key, payload)
            results.append((index, payload))
            kill_point("file-finish")
    except AdapterNotFoundError:
        raise  # infrastructure: the submitter degrades to threads
    except Exception as error:
        # wrap the error so the submitting process can tell a genuine
        # in-shard failure from pool infrastructure breakage
        _drop_adapter()
        raise ShardExecutionError(f"{type(error).__name__}: {error}") from error
    if state["adapter"] is not None:
        pool.release(state["adapter"])
    stats = _stats_delta(before, perf_cache.cache_stats()) if collect_stats else {}
    if store is not None:
        # unlike the perf-cache deltas, these counters are shard-local, so
        # they are valid for thread workers too (no cross-thread overlap)
        lookups = store_hits + store_misses
        stats["store-files"] = {
            "hits": store_hits,
            "misses": store_misses,
            "evictions": 0,
            "hit_rate": round(store_hits / lookups, 4) if lookups else 0.0,
        }
    return results, stats, failures


def _shards(items: list[ShardItem], workers: int) -> list[list[ShardItem]]:
    """Round-robin file shards; deterministic and roughly size-balanced.

    Shard ``k`` holds files ``k, k + workers, ...`` and, as task ``k`` of its
    map, runs on worker lane ``k`` (see :class:`WorkerPool`), so a file lands
    on the same worker in every cell of a campaign.
    """
    return [shard for shard in (items[offset::workers] for offset in range(workers)) if shard]


class WorkerPool:
    """A persistent worker pool shared across the suites of one campaign.

    ``run_matrix`` creates one of these and threads it through every
    ``run_transplant``: the executor (and therefore each worker process, and
    each worker's adapter pool) survives from one suite to the next, which is
    what makes per-worker adapter reuse span a whole campaign instead of a
    single sharded run.

    The process flavour is ``workers`` single-process **lanes**, and task
    ``i`` of every map runs on lane ``i mod workers``.  Shards are
    round-robin (:func:`_shards`), so file ``j`` of a suite runs on the same
    worker process in every cell of a campaign, and corpus donor recording
    (one task per file) lands there too: each worker's tokenize, plan and
    translate caches cover a fixed share of the statements instead of
    whichever files the scheduler handed it.  The thread flavour is one
    shared thread pool (threads share the process-global caches anyway), and
    the 1-core inline path runs tasks on the calling thread; neither has
    lanes.

    A process-pool infrastructure failure that crash containment cannot
    absorb permanently degrades the pool to threads — made sticky so a
    campaign does not re-probe a broken fork on every suite.
    """

    def __init__(self, workers: int, executor: str = "auto"):
        self.workers = max(1, workers)
        if executor == "auto":
            cores = os.cpu_count() or 1
            executor = "process" if cores > 1 else "thread"
        self.flavour = executor               # "process" | "thread"
        self._lanes: list[ProcessPoolExecutor | None] = [None] * self.workers
        self._threads: ThreadPoolExecutor | None = None
        # A thread pool on a single core serialises GIL-bound shard work
        # anyway, so dispatching through it buys nothing and costs thread
        # spawns plus lock handoffs per shard.  Run the same worker entry
        # points inline instead: every shard-level semantic (store probes,
        # retries, watchdog, circuit breaker, stand-in results) lives in the
        # task function itself, so only the dispatch overhead disappears.
        self._inline = self.flavour == "thread" and (os.cpu_count() or 1) <= 1
        self._inline_adapters: AdapterPool | None = None
        self._local_pool: ThreadPoolExecutor | None = None

    def _executor_for(self, index: int):
        """The executor task ``index`` runs on: its lane, or the thread pool."""
        if self.flavour == "process":
            lane = index % self.workers
            if self._lanes[lane] is None:
                self._lanes[lane] = ProcessPoolExecutor(max_workers=1)
            return self._lanes[lane]
        if self._threads is None:
            self._threads = ThreadPoolExecutor(max_workers=self.workers)
        return self._threads

    def _close_lane(self, lane: int) -> None:
        if self._lanes[lane] is not None:
            self._lanes[lane].shutdown()
            self._lanes[lane] = None

    def degrade_to_threads(self) -> None:
        self.shutdown()
        self.flavour = "thread"
        self._inline = (os.cpu_count() or 1) <= 1

    def map_shards(self, spec: RunnerSpec, shards, caching: bool, collect_stats: bool, store_ref=None, probe_store: bool = True, policy=None):
        """Submit every shard and gather ``(indexed_results, stats, infra_failures)`` triples.

        When the shards are store-aware, a shard *re-dispatched* after a
        worker crash always probes the store (``probe_store=True``), whatever
        the first dispatch did: the killed worker persisted every file it
        finished, so the replacement loads those and re-executes only the
        files that were genuinely in flight.
        """
        tasks = [(spec, shard, caching, collect_stats, store_ref, probe_store, policy) for shard in shards]
        retry_tasks = None
        if store_ref is not None and not probe_store:
            retry_tasks = [(spec, shard, caching, collect_stats, store_ref, True, policy) for shard in shards]
        return self.map_tasks(_run_shard, tasks, retry_tasks=retry_tasks)

    def map_tasks(self, fn, tasks, retry_tasks=None):
        """Run ``fn(*task)`` for every argument tuple; results in task order.

        The generic sibling of :meth:`map_shards` for non-runner workloads —
        corpus generation shards its per-file donor recording over the same
        campaign pool this way.  ``fn`` must be a module-level callable when
        the pool is process-flavoured (it travels by pickle).  Task ``i`` runs
        on lane ``i mod workers``.

        **Worker-crash containment**, per lane: a ``kill -9``'d worker breaks
        its lane — every pending future of that lane raises
        :class:`BrokenProcessPool` — but not the batch.  Results that already
        arrived are kept, the other lanes keep running, and only the
        unfinished tasks are re-dispatched: on the broken lanes, rebuilt
        once, and then (if a lane breaks again, or for non-rebuildable
        breakage like pickling errors) on the sticky thread-degraded pool.
        ``retry_tasks``, when given, replaces the argument tuples used for
        re-dispatch (same length/order as ``tasks``); :meth:`map_shards`
        uses it to turn store probing on so a crashed worker's persisted
        files are loaded, not re-executed.  Genuine errors raised by ``fn``
        propagate unchanged.
        """
        if self._inline:
            # Run on this thread, but behind a pool-scoped adapter pool so the
            # lifecycle matches thread workers: every WorkerPool starts from
            # fresh adapters (chaos injection and registry swaps are seen) and
            # reuses them across its own shards, and shutdown() reclaims them.
            if self._inline_adapters is None:
                self._inline_adapters = AdapterPool()
            previous = getattr(_WORKER_POOL_LOCAL, "pool", None)
            _WORKER_POOL_LOCAL.pool = self._inline_adapters
            try:
                return [fn(*task) for task in tasks]
            finally:
                _WORKER_POOL_LOCAL.pool = previous
        results: list = [None] * len(tasks)
        pending = list(range(len(tasks)))
        dispatch = list(tasks)
        rebuilt = False
        while True:
            try:
                futures = {index: self._executor_for(index).submit(fn, *dispatch[index]) for index in pending}
            except Exception as error:
                # bootstrap/submission failure: nothing of this round ran
                if self.flavour != "process" or not _is_pool_infra_error(error):
                    raise
                self.degrade_to_threads()
                if self._inline:
                    return self._finish_inline(fn, dispatch, pending, results)
                continue
            unfinished: list[int] = []
            last_infra: BaseException | None = None
            for index in pending:
                try:
                    results[index] = futures[index].result()
                except Exception as error:
                    if self.flavour != "process" or not _is_pool_infra_error(error):
                        raise
                    unfinished.append(index)
                    last_infra = error
            if not unfinished:
                return results
            pending = unfinished
            if retry_tasks is not None:
                dispatch = list(retry_tasks)
            if isinstance(last_infra, BrokenProcessPool) and not rebuilt:
                # a killed worker broke its lane; the completed futures kept
                # their results — rebuild once and re-dispatch only the rest
                rebuilt = True
                lanes = sorted({index % self.workers for index in pending})
                logger.warning(
                    "worker lane(s) %s broke mid-batch (%s); rebuilding and re-dispatching %d unfinished task(s)",
                    lanes, last_infra, len(pending),
                )
                for lane in lanes:
                    self._close_lane(lane)
            else:
                self.degrade_to_threads()
                if self._inline:
                    return self._finish_inline(fn, dispatch, pending, results)

    def _finish_inline(self, fn, dispatch, pending, results):
        """Finish a crash-containment re-dispatch on the inline (1-core) path."""
        for index, outcome in zip(pending, self.map_tasks(fn, [dispatch[index] for index in pending])):
            results[index] = outcome
        return results

    def local_executor(self) -> ThreadPoolExecutor:
        """The pool's in-process thread lane (lazily created, pool-lifetime).

        A side lane for tasks that must stay in this process no matter the
        pool's flavour — closures over live adapters, stores, or contexts that
        cannot travel by pickle.  The streaming experiment engine fans matrix
        cells out on it (cells hold live pools and stores); width matches the
        pool's ``workers``.  :meth:`shutdown` tears it down with the pool.
        """
        if self._local_pool is None:
            self._local_pool = ThreadPoolExecutor(max_workers=self.workers)
        return self._local_pool

    def submit_local(self, fn, *args):
        """Submit ``fn(*args)`` to the in-process thread lane (a Future)."""
        return self.local_executor().submit(fn, *args)

    def shutdown(self) -> None:
        if self._local_pool is not None:
            self._local_pool.shutdown()
            self._local_pool = None
            # the lane's threads parked adapters per-thread like any worker;
            # they are gone now, so reclaim those adapters too
            close_dead_worker_adapter_pools()
        if self._inline_adapters is not None:
            try:
                self._inline_adapters.close()
            except (OSError, RuntimeError):
                pass  # AdapterPool.close is best-effort (thread-affine handles)
            self._inline_adapters = None
        for lane in range(self.workers):
            self._close_lane(lane)
        if self._threads is not None:
            self._threads.shutdown()
            self._threads = None
            # thread-flavour workers parked adapters in their per-thread
            # pools; the threads are gone now, so reclaim those adapters
            close_dead_worker_adapter_pools()

    close = shutdown

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def _run_with_pool(
    worker_pool: WorkerPool,
    suite: TestSuite,
    spec: RunnerSpec,
    workers: int,
    store: "ArtifactStore | None" = None,
    probe_store: bool = True,
    policy: "ResiliencePolicy | None" = None,
):
    collect_stats = worker_pool.flavour == "process"
    # keys are computed here, against this process's content-hash memo, and
    # travel with the shard items: workers never hash a file
    keys = [file_result_key(spec, test_file) if store is not None else None for test_file in suite.files]
    items = [(index, test_file, keys[index]) for index, test_file in enumerate(suite.files)]
    shards = _shards(items, min(workers, worker_pool.workers))
    caching = perf_cache.caching_enabled()
    # thread workers share this process: hand them the live store (one stats
    # and byte-estimate authority); process workers get a picklable spec
    store_ref = store if worker_pool.flavour == "thread" else store_spec_for(store)
    outcomes = worker_pool.map_shards(spec, shards, caching, collect_stats, store_ref, probe_store, policy)
    merged = SuiteResult(suite=suite.name, host=spec.host_name, files=[None] * len(suite.files))
    file_blobs: dict[int, bytes] = {}
    for results, _, _ in outcomes:
        for index, payload in results:
            if isinstance(payload, bytes):
                # decoded against this process's file, so every result
                # references the submitter's own records
                file_blobs[index] = payload
                payload = result_codec.decode_file_result(payload, suite.files[index])
            merged.files[index] = payload
    worker_stats = perf_cache.merge_stats(*(stats for _, stats, _ in outcomes))
    # deterministic order regardless of shard layout: failures are part of
    # the (partial) result and must not vary with worker interleaving
    merged.infra_failures = sorted(
        (failure for _, _, failures in outcomes for failure in failures),
        key=lambda failure: (failure.path, failure.kind),
    )
    return merged, worker_stats, file_blobs, merged.infra_failures


def run_suite_sharded(
    suite: TestSuite,
    spec: RunnerSpec,
    workers: int = 1,
    executor: str = "auto",
    worker_pool: WorkerPool | None = None,
    store: "ArtifactStore | None" = None,
    probe_store: bool = True,
    policy: "ResiliencePolicy | None" = None,
) -> ShardedRunReport:
    """Run ``suite`` as per-file shards on a ``workers``-wide pool.

    ``executor`` is ``"process"``, ``"thread"``, or ``"auto"`` (processes on
    multi-core machines, threads otherwise).  Process-pool bootstrap failures
    degrade to the threaded pool; ``workers <= 1`` or an empty suite runs
    serially in-process.  Passing a :class:`WorkerPool` keeps the executor —
    and each worker's adapter pool — alive across calls (campaign reuse); the
    caller owns its shutdown.  Passing the campaign's :class:`ArtifactStore`
    makes every worker store-aware (see :func:`_run_shard`): warm per-file
    results are loaded instead of executed, shard by shard.
    ``probe_store=False`` keeps the workers' persist side but skips their
    per-file loads — for callers that already probed every file themselves
    (incremental assembly), so misses are not counted twice.

    ``policy`` arms per-file resilience inside every shard (retry, watchdog,
    circuit breaker — see :func:`_execute_shard_file`); unrecovered faults
    surface in the report's (and result's) ``infra_failures``.  The serial
    fallback ignores it — serial resilience is the transplant layer's
    cell-level concern (:func:`repro.core.transplant.run_transplant`).
    """
    if workers <= 1 or len(suite.files) <= 1:
        before = perf_cache.cache_stats()
        runner = spec.build_runner()
        try:
            result = runner.run_suite(suite)
        finally:
            runner.adapter.teardown()
        return ShardedRunReport(
            result=result,
            workers=1,
            executor="serial",
            cache_stats=_stats_delta(before, perf_cache.cache_stats()),
        )

    owns_pool = worker_pool is None
    if worker_pool is None:
        # a one-shot pool serves exactly this suite: never start more workers
        # than there are shards (campaign pools stay full-width, they serve
        # many suites)
        worker_pool = WorkerPool(min(workers, len(suite.files)), executor)
    try:
        if worker_pool.flavour == "process":
            try:
                result, worker_stats, file_blobs, failures = _run_with_pool(
                    worker_pool, suite, spec, workers, store, probe_store, policy
                )
                # worker processes accumulated cache activity in their own
                # address space; fold it into this process's counters so
                # cache_stats() reports total pipeline activity
                perf_cache.absorb_stats(worker_stats)
                return ShardedRunReport(
                    result=result, workers=workers, executor="process", cache_stats=worker_stats,
                    file_blobs=file_blobs, infra_failures=failures,
                )
            except Exception as error:
                if not _is_pool_infra_error(error):
                    # genuine errors raised inside a shard propagate
                    raise
                # pool infrastructure failures (no fork support, sandboxed
                # semaphores, unpicklable payloads, killed workers) that
                # map_tasks' containment could not absorb degrade to threads
                worker_pool.degrade_to_threads()

        # thread workers share this process's caches: per-shard deltas would
        # overlap, so cache stats are measured once around the whole run.
        # The store-files counters are shard-local (see _run_shard) and stay
        # valid, so that bucket is folded into the report from the workers.
        before = perf_cache.cache_stats()
        result, worker_stats, file_blobs, failures = _run_with_pool(
            worker_pool, suite, spec, workers, store, probe_store, policy
        )
        cache_stats = _stats_delta(before, perf_cache.cache_stats())
        if "store-files" in worker_stats:
            cache_stats["store-files"] = worker_stats["store-files"]
        return ShardedRunReport(
            result=result,
            workers=workers,
            executor="thread",
            cache_stats=cache_stats,
            file_blobs=file_blobs,
            infra_failures=failures,
        )
    finally:
        if owns_pool:
            worker_pool.shutdown()


def map_over_pool(worker_pool: WorkerPool, fn, tasks):
    """Run ``fn(*task)`` for every task on ``worker_pool``, in task order.

    Applies the same infrastructure-degradation contract as sharded suite
    execution: a process-pool bootstrap failure (no fork support, sandboxed
    semaphores, unpicklable callables) permanently degrades the pool to
    threads and the whole batch is resubmitted.  Genuine errors raised inside
    ``fn`` propagate — wrap them distinctly (cf. :class:`ShardExecutionError`)
    if they could be mistaken for infrastructure failures.
    """
    if worker_pool.flavour == "process":
        try:
            return worker_pool.map_tasks(fn, tasks)
        except Exception as error:
            if not _is_pool_infra_error(error):
                raise
            worker_pool.degrade_to_threads()
    return worker_pool.map_tasks(fn, tasks)


def assemble_suite_result(
    suite: TestSuite,
    runner: TestRunner,
    store: ArtifactStore,
    workers: int = 1,
    executor: str = "auto",
    worker_pool: "WorkerPool | None" = None,
    prepare_runner=None,
    policy: "ResiliencePolicy | None" = None,
) -> "tuple[SuiteResult, list[bytes | None]] | None":
    """Assemble a suite-level result from per-file ``file-results`` artifacts.

    The incremental-campaign core: every file of ``suite`` is probed in the
    store first and only the misses are executed, so a campaign whose suite
    changed in one file re-executes that one file and loads the other N-1 —
    at ~1/N of a cold run's cost while staying byte-identical to full
    re-execution (per-file results are exactly what serial execution
    produces; the merge preserves file order).

    A corrupted, truncated, or version-bumped per-file blob falls back to
    executing *that one file* (the blob is invalidated, never trusted), not
    to aborting or re-running the suite.  Executed files are persisted, so
    the next assembly — and any store-aware sharded worker — finds them.

    Misses are executed on ``runner`` serially, or sharded across
    ``workers`` when there is more than one (with ``probe_store=False``:
    every file was already probed — and its miss counted — here, so workers
    only execute and persist).  ``prepare_runner`` is invoked once before the
    first serial execution — callers whose adapter's ``setup()`` was deferred
    pass it here, so adapters that hook setup still see it exactly when (and
    only when) assembly actually executes on them.

    Returns ``(merged result, per-file frames)``; the frames — loaded here,
    encoded here, or shipped back by the workers — let
    :func:`repro.core.transplant.run_transplant` bundle the suite-level cell
    by byte reuse instead of re-encoding any file (``None`` only for
    unencodable results).  Returns None when the runner's adapter cannot be
    described as a :class:`RunnerSpec`; callers fall back to plain execution.
    """
    spec = runner_spec_for(runner)
    if spec is None:
        return None
    assembled: dict[int, FileResult] = {}
    blobs: list[bytes | None] = [None] * len(suite.files)
    keys = [file_result_key(spec, test_file) for test_file in suite.files]
    missing: list[tuple[int, TestFile]] = []
    infra_failures: list[InfraFailure] = []
    for index, test_file in enumerate(suite.files):
        loaded = _load_file_result(store, keys[index], test_file)
        if loaded is not None:
            blobs[index], assembled[index] = loaded
            continue
        missing.append((index, test_file))
    if missing:
        if workers > 1 and len(missing) > 1:
            partial = TestSuite(name=suite.name, files=[test_file for _, test_file in missing])
            # probe_store=False: every file of ``partial`` was just probed
            # (and counted) above; workers only execute and persist
            report = run_suite_sharded(
                partial, spec, workers=workers, executor=executor, worker_pool=worker_pool, store=store,
                probe_store=False, policy=policy,
            )
            for partial_index, ((index, _), file_result) in enumerate(zip(missing, report.result.files)):
                assembled[index] = file_result
                blobs[index] = report.file_blobs.get(partial_index)
            infra_failures.extend(report.infra_failures)
        else:
            prepared = False
            for index, test_file in missing:
                if shutdown.draining():
                    # finish nothing new: the remaining misses degrade to
                    # resumable stand-ins (never persisted)
                    assembled[index], failure = _drained_file_result(spec.host_name, test_file)
                    infra_failures.append(failure)
                    continue
                if not prepared:
                    prepared = True
                    if prepare_runner is not None:
                        prepare_runner()
                file_result = runner.run_file(test_file)
                assembled[index] = file_result
                try:
                    blob = result_codec.encode_file_result(file_result, test_file)
                except result_codec.CodecError:
                    continue  # unencodable file result: reuse simply does not extend to it
                blobs[index] = blob
                store.save(FILE_RESULTS_NAMESPACE, keys[index], blob)
                kill_point("file-finish")
    merged = SuiteResult(suite=suite.name, host=spec.host_name)
    merged.files = [assembled[index] for index in range(len(suite.files))]
    merged.infra_failures = infra_failures
    return merged, blobs
