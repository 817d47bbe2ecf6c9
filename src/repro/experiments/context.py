"""Shared state for experiment drivers: corpora and execution results."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.adapters.pool import AdapterPool
from repro.core.journal import JOURNAL_DIRNAME
from repro.core.records import TestSuite
from repro.core.resilience import ResiliencePolicy, set_default_timeout
from repro.core.transplant import DEFAULT_HOSTS, CellKey, TransplantMatrix, TransplantResult, run_matrix
from repro.corpus import build_all_suites, build_suite
from repro.store import ArtifactStore
from repro.store import artifacts as artifact_store


@dataclass
class ExperimentResult:
    """Output of one experiment: a formatted report plus raw data."""

    experiment_id: str
    title: str
    text: str
    data: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.text


class ExperimentContext:
    """Caches corpora and cross-execution results shared by the experiments.

    ``scale`` scales the number of generated test files per suite (1.0 is the
    laptop-sized default documented in EXPERIMENTS.md); ``seed`` makes the
    whole campaign deterministic.

    ``store_dir`` points the persistent artifact store somewhere other than
    the default (``REPRO_STORE_DIR`` or ``~/.cache/repro-store``);
    ``use_store=False`` runs the whole campaign storeless (the CLI's
    ``--no-store``).  Corpora and donor runs are then loaded from disk when a
    previous campaign — in any process — already produced them.

    ``incremental`` (the default) assembles store-backed campaigns file by
    file: matrix cells whose suite changed re-execute only the changed files
    and load the rest from the ``file-results`` namespace.
    ``incremental=False`` (the CLI's ``--no-incremental``) re-executes whole
    suites on any suite-level store miss.  Corpus builds reuse per-file
    donor recordings (``file-donor``) whenever the store is on — that reuse
    is part of the store layer itself (disable with ``use_store=False``),
    not of this switch.

    ``timeout_seconds`` (the CLI's ``--timeout``) sets the process-wide
    statement/watchdog timeout (see
    :func:`repro.core.resilience.set_default_timeout`); ``resilience``
    overrides the whole campaign resilience policy, which is threaded into
    every matrix cell.  :meth:`infra_failures` reports the unrecovered
    infrastructure faults of every cell resolved so far — the CLI maps a
    non-empty list to its "partial results" exit code.

    :attr:`cells` holds every matrix cell the campaign resolved, whether a
    streaming pass or a :attr:`matrix` read asked for it; both go through
    :class:`~repro.core.transplant.CellExecutor` with this dict as its known
    cells, so no cell executes twice and reading the matrices after a full
    pass executes nothing.
    """

    def __init__(
        self,
        scale: float = 1.0,
        seed: int = 0,
        hosts: tuple[str, ...] = DEFAULT_HOSTS,
        workers: int = 1,
        executor: str = "auto",
        store_dir: str | None = None,
        use_store: bool = True,
        incremental: bool = True,
        timeout_seconds: float | None = None,
        resilience: ResiliencePolicy | None = None,
        journal: "bool | str | os.PathLike | None" = None,
    ):
        self.scale = scale
        self.seed = seed
        self.hosts = hosts
        self.incremental = incremental
        if timeout_seconds is not None:
            set_default_timeout(timeout_seconds)
        self.timeout_seconds = timeout_seconds
        #: campaign resilience policy; None means every cell resolves
        #: :func:`repro.core.resilience.default_policy` at execution time
        self.resilience = resilience
        #: write-ahead journal setting threaded into every campaign
        #: (see :class:`repro.core.transplant.CellExecutor`): ``True`` journals
        #: under the store, a path journals there, ``None`` disables.  The
        #: plain and translated matrices are distinct campaigns and keep
        #: distinct journal files.
        self.journal = journal
        #: resolved artifact-store argument threaded through every corpus
        #: build and campaign: an explicit store, the process default
        #: (``DEFAULT``), or ``None`` for storeless
        self.store: "ArtifactStore | str | None"
        if not use_store:
            self.store = None
        elif store_dir is not None:
            self.store = ArtifactStore(root=store_dir)
        else:
            self.store = artifact_store.DEFAULT
        #: worker-pool width used for every cross-execution campaign; all
        #: table/figure drivers inherit it through the shared matrices
        self.workers = workers
        self.executor = executor
        self._suites: dict[str, TestSuite] | None = None
        self._mysql_suite: TestSuite | None = None
        #: every matrix cell resolved so far, keyed by its (aliased) CellKey
        self.cells: dict[CellKey, TransplantResult] = {}
        #: campaign-lifetime adapter pool: the plain and translated matrices
        #: (and any driver-level transplants routed through the context) share
        #: leased adapters instead of rebuilding them per transplant
        self.adapter_pool = AdapterPool()
        self._worker_pool = None
        self._analysis = None

    @property
    def worker_pool(self):
        """The context's persistent sharded-execution pool (``workers > 1``)."""
        if self.workers > 1 and self._worker_pool is None:
            from repro.core.parallel import WorkerPool

            self._worker_pool = WorkerPool(self.workers, self.executor)
        return self._worker_pool

    @property
    def analysis(self):
        """The campaign's incremental RQ1/RQ2 analyzer (store-backed).

        Every analysis-driven experiment (tables 2-3, figures 1-3) scans
        suites through this :class:`~repro.analysis.incremental.SuiteAnalyzer`
        instead of re-scanning whole suites: per-file partials are served
        from the store's ``file-analysis`` namespace and only changed files
        are re-analyzed, in this process.  Storeless contexts
        (``use_store=False``) degrade to direct scans — value-identical
        either way.
        """
        if self._analysis is None:
            from repro.analysis.incremental import SuiteAnalyzer

            self._analysis = SuiteAnalyzer(store=self.store)
        return self._analysis

    def close(self) -> None:
        """Release pooled adapters and shut down campaign workers.

        The context stays usable afterwards: the next campaign simply starts
        from an empty pool.
        """
        if self._worker_pool is not None:
            self._worker_pool.shutdown()
            self._worker_pool = None
        self.adapter_pool.close()
        self.adapter_pool = AdapterPool()

    def __enter__(self) -> "ExperimentContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- corpora -------------------------------------------------------------------

    @property
    def suites(self) -> dict[str, TestSuite]:
        """The three executable suites (SLT, PostgreSQL, DuckDB).

        Donor recording of any files the store cannot serve is sharded over
        the context's persistent worker pool (``workers > 1``), the same pool
        the campaigns execute on.
        """
        if self._suites is None:
            self._suites = build_all_suites(
                seed=self.seed,
                scale=self.scale,
                store=self.store,
                workers=self.workers,
                executor=self.executor,
                worker_pool=self.worker_pool,
            )
        return self._suites

    @property
    def mysql_suite(self) -> TestSuite:
        """The MySQL corpus (analysed for RQ1/Figure 1, not executed)."""
        if self._mysql_suite is None:
            from repro.corpus.generate import DEFAULT_FILE_COUNT

            file_count = max(3, int(round(DEFAULT_FILE_COUNT["mysql"] * self.scale)))
            self._mysql_suite = build_suite(
                "mysql",
                file_count=file_count,
                seed=self.seed,
                store=self.store,
                workers=self.workers,
                executor=self.executor,
                worker_pool=self.worker_pool,
            )
        return self._mysql_suite

    def all_suites_with_mysql(self) -> dict[str, TestSuite]:
        suites = dict(self.suites)
        suites["mysql"] = self.mysql_suite
        return suites

    # -- execution results -----------------------------------------------------------

    @property
    def matrix(self) -> TransplantMatrix:
        """The full cross-execution matrix (every suite on every host)."""
        return self._grid(translate_dialect=False)

    @property
    def translated_matrix(self) -> TransplantMatrix:
        """The same matrix with the cross-dialect translator enabled (ablation)."""
        return self._grid(translate_dialect=True)

    def _grid(self, translate_dialect: bool) -> TransplantMatrix:
        # a full-grid read of the campaign's cells: only cells no earlier pass
        # or read resolved execute (translated donor runs alias to plain ones),
        # on the context's pools, so adapters and workers survive across reads
        return run_matrix(
            self.suites,
            hosts=self.hosts,
            translate_dialect=translate_dialect,
            workers=self.workers,
            executor=self.executor,
            adapter_pool=self.adapter_pool,
            worker_pool=self.worker_pool,
            store=self.store,
            incremental=self.incremental,
            resilience=self.resilience,
            known=self.cells,
            journal=self.journal,
        )

    def journal_location(self) -> str | None:
        """Where this context's campaign journals live, or None when off.

        ``journal=True`` resolves to the store's ``journals/`` directory;
        a path setting is returned as given.  Used by the CLI to print the
        exact ``--resume-from`` target on degraded exits.
        """
        if self.journal is None or self.journal is False:
            return None
        if self.journal is True:
            store = artifact_store.active_store(self.store)
            if store is None:
                return None
            return str(Path(store.root) / JOURNAL_DIRNAME)
        return str(self.journal)

    def donor_result(self, suite: str):
        """The donor-on-donor transplant result for one suite."""
        from repro.core.transplant import DONOR_OF_SUITE

        return self.matrix.get(suite, DONOR_OF_SUITE[suite])

    def suite_names(self) -> tuple[str, ...]:
        """The executable suite names in corpus (and campaign) order."""
        return tuple(self.suites)

    def infra_failures(self) -> list:
        """Unrecovered infrastructure faults of every cell resolved so far.

        Only work that already happened is consulted — asking for failures
        must not trigger a campaign.
        """
        return [failure for result in self.cells.values() for failure in result.infra_failures]
