"""Single-pass streaming experiment engine.

One pass over the campaign matrix feeds *every* selected experiment:

1. **Plan** — union the :class:`~repro.experiments.base.ExperimentNeeds` of
   the selected registry entries into a deduplicated cell list in campaign
   order (plain cells before translated, suites outer, hosts inner — the same
   nesting :func:`repro.core.transplant.run_matrix` uses, so store and pool
   behaviour match the batch path).  Cells are deduplicated after
   :func:`~repro.core.transplant.cell_alias`, so a translated donor-on-donor
   cell and its plain sibling run once.
2. **Execute** — the plan goes through the same
   :class:`~repro.core.transplant.CellExecutor` every campaign uses, with the
   context's store, pools, resilience policy, journal setting and resolved
   cells (:attr:`ExperimentContext.cells`): each unique cell runs at most once
   per context, store-warm cells resolve instantly, degraded cells surface
   through :meth:`ExperimentContext.infra_failures`.  With
   ``max_inflight > 1`` single cells fan out over the
   :class:`~repro.core.parallel.WorkerPool` thread lane so slow hosts overlap;
   serially the cells keep the batch path's per-file sharding.
3. **Fan out** — every completed cell is delivered to each subscribed
   experiment's :meth:`~repro.experiments.base.Experiment.consume`, and an
   experiment's :class:`~repro.experiments.context.ExperimentResult` is
   yielded the moment its last declared cell lands.  Pure-analysis experiments
   (no cells) yield before any cell executes.

Because accumulators compute everything in ``finalize``, each yielded result
is byte-identical to the serial batch run no matter the completion order; only
the *yield order* varies under concurrency.  :func:`run_batch` (what
``run_all`` builds on) restores registry order.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import FIRST_COMPLETED, wait
from typing import TYPE_CHECKING, Iterator

from repro.core.transplant import CellExecutor, cell_alias
from repro.experiments.base import CellKey, ExperimentEntry, get_experiment_entry
from repro.experiments.context import ExperimentContext, ExperimentResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.transplant import TransplantResult

#: corpora the context can build (the three executable suites plus mysql)
_EXECUTABLE_SUITES = ("slt", "postgres", "duckdb")


def _resolve_entries(experiment_ids) -> list[ExperimentEntry]:
    """Registry entries for ``experiment_ids`` (None = all, in registry order).

    Unknown ids raise :class:`~repro.errors.UnknownExperimentError` with
    near-miss suggestions before anything executes; duplicates collapse to
    their first occurrence (one pass produces one result per experiment).
    """
    # importing the registry module registers every built-in driver
    from repro.experiments import registry as _registry  # noqa: F401

    if experiment_ids is None:
        from repro.experiments.base import experiment_entries

        return experiment_entries()
    entries: list[ExperimentEntry] = []
    seen: set[str] = set()
    for experiment_id in experiment_ids:
        entry = get_experiment_entry(experiment_id)
        if entry.id not in seen:
            seen.add(entry.id)
            entries.append(entry)
    return entries


def _plan_cells(entries: list[ExperimentEntry], context: ExperimentContext) -> list[CellKey]:
    """The deduplicated union of every entry's cells, in campaign order.

    Plain cells come before translated ones, and within each group cells
    follow suite-then-host nesting (suites in corpus order, hosts in the
    context's host order) — exactly how the batch path's two ``run_matrix``
    calls walk the grid, so adapters and store entries are touched in the
    same sequence.
    """
    needed = {cell_alias(key) for entry in entries for key in entry.needs.cells}
    suite_order = {name: index for index, name in enumerate(_EXECUTABLE_SUITES)}
    host_order = {name: index for index, name in enumerate(context.hosts)}
    return sorted(
        needed,
        key=lambda key: (
            key.translate,
            suite_order.get(key.suite, len(suite_order)),
            key.suite,
            host_order.get(key.host, len(host_order)),
            key.host,
        ),
    )


def _warm_corpora(entries: list[ExperimentEntry], plan: list[CellKey], context: ExperimentContext) -> None:
    """Build every needed corpus once, up front, on the calling thread.

    Cell execution and pure-analysis finalization both read the context's
    lazily-built suites; warming them here keeps the lazy build off the cell
    fan-out threads (no duplicated corpus work, no racing builders).
    """
    needed = {suite for entry in entries for suite in entry.needs.suites}
    needed.update(key.suite for key in plan)
    if needed & set(_EXECUTABLE_SUITES):
        context.suites
    if "mysql" in needed:
        context.mysql_suite


class _Subscription:
    """One experiment's place in the pass: pending cells and requested keys."""

    def __init__(self, entry: ExperimentEntry, context: ExperimentContext):
        self.entry = entry
        self.experiment = entry.create(context)
        #: aliased key -> declared keys (a translated-donor cell is delivered
        #: under the key the experiment declared, not the one that ran)
        self.requested: dict[CellKey, list[CellKey]] = {}
        for declared in entry.needs.cells:
            self.requested.setdefault(cell_alias(declared), []).append(declared)
        self.pending: set[CellKey] = set(self.requested)

    def deliver(self, key: CellKey, result: "TransplantResult") -> bool:
        """Feed one completed cell; True when the experiment became ready."""
        if key not in self.pending:
            return False
        for declared in self.requested[key]:
            self.experiment.consume(declared, result)
        self.pending.discard(key)
        return not self.pending


def stream_experiments(
    experiment_ids=None,
    context: ExperimentContext | None = None,
    *,
    max_inflight: int | None = None,
) -> Iterator[ExperimentResult]:
    """Stream experiment results as the single campaign pass completes them.

    ``experiment_ids`` selects registered experiments (None = all); each
    unique matrix cell of their unioned needs executes at most once.
    ``max_inflight`` bounds how many cells execute concurrently (default: the
    context's ``workers``).  Serial passes (``max_inflight == 1``) yield in a
    deterministic order — analysis experiments first, then experiments in
    completion order along the campaign-ordered plan — and keep the batch
    path's per-file sharding inside each cell.  Concurrent passes fan cells
    out over the worker pool's thread lane (cells hold live pools and stores,
    so they never cross process boundaries) and run each cell serially
    inside; the yield order then follows completion and is not deterministic,
    but every yielded result is byte-identical to its batch twin.
    """
    shared = context if context is not None else ExperimentContext()
    entries = _resolve_entries(experiment_ids)
    subscriptions = [_Subscription(entry, shared) for entry in entries]
    plan = _plan_cells(entries, shared)
    _warm_corpora(entries, plan, shared)

    subscribers: dict[CellKey, list[_Subscription]] = {}
    for subscription in subscriptions:
        for key in subscription.requested:
            subscribers.setdefault(key, []).append(subscription)

    # pure-analysis experiments have nothing pending: finalize them first, in
    # registry order, before any cell executes
    for subscription in subscriptions:
        if not subscription.pending:
            yield subscription.experiment.finalize()

    if not plan:
        return

    width = max_inflight if max_inflight is not None else shared.workers

    def _deliver(key: CellKey, result: "TransplantResult") -> list[ExperimentResult]:
        ready = []
        for subscription in subscribers.get(key, ()):
            if subscription.deliver(key, result):
                ready.append(subscription.experiment.finalize())
        return ready

    # serial passes keep the batch path's execution shape (per-cell file
    # sharding on the context's worker pool); concurrent passes overlap whole
    # cells instead, each running its files serially
    with CellExecutor(
        shared.suites,
        plan,
        shared.cells,
        workers=shared.workers if width <= 1 else 1,
        executor=shared.executor,
        adapter_pool=shared.adapter_pool,
        worker_pool=shared.worker_pool if width <= 1 else None,
        store=shared.store,
        incremental=shared.incremental,
        resilience=shared.resilience,
        journal=shared.journal,
    ) as cells:
        if width <= 1:
            for key, result in cells:
                yield from _deliver(key, result)
        else:
            yield from _stream_concurrent(cells, shared.worker_pool, width, _deliver)


def _stream_concurrent(cells: CellExecutor, worker_pool, width: int, deliver) -> Iterator[ExperimentResult]:
    """Bounded cell fan-out over the worker pool's thread lane.

    At most ``width`` cells are in flight at any moment (backpressure: the
    next cell is submitted only when one completes).  The thread lane comes
    from the context's persistent :class:`~repro.core.parallel.WorkerPool`
    when it has one, else from a pass-owned pool that is torn down with the
    generator.
    """
    from repro.core.parallel import WorkerPool

    owned_pool = None
    lane_pool = worker_pool
    if lane_pool is None:
        owned_pool = WorkerPool(width, "thread")
        lane_pool = owned_pool
    queued = deque(cells.plan)
    inflight: dict = {}
    try:
        while queued or inflight:
            while queued and len(inflight) < width:
                key = queued.popleft()
                inflight[lane_pool.submit_local(cells.resolve, key)] = key
            done, _ = wait(inflight, return_when=FIRST_COMPLETED)
            for future in done:
                key = inflight.pop(future)
                yield from deliver(key, future.result())
    finally:
        if owned_pool is not None:
            owned_pool.shutdown()


def run_batch(experiment_ids=None, context: ExperimentContext | None = None) -> list[ExperimentResult]:
    """Run the selected experiments through one serial streaming pass.

    The compatibility core under :func:`repro.experiments.registry.run_all`
    and ``run_experiment``: results come back in selection order (registry
    order for None), and shared matrix work is deduplicated by the planner
    even though the pass is serial.
    """
    shared = context if context is not None else ExperimentContext()
    entries = _resolve_entries(experiment_ids)
    by_id = {
        result.experiment_id: result
        for result in stream_experiments([entry.id for entry in entries], shared, max_inflight=1)
    }
    return [by_id[entry.id] for entry in entries]
