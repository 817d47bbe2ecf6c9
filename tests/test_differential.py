"""Differential test harness: campaign variants that must be byte-identical.

The incremental-campaign machinery rests on a family of equality guarantees —
incremental == full re-execution, warm store == cold == storeless, workers 1
== workers 4, vectorized == scalar row-at-a-time — and every one of them is
"byte-identical under the canonical serialization"
(:func:`repro.store.canonical_bytes`), not merely "same aggregates".  :func:`assert_equivalent` is the single reusable way to
pin such guarantees: hand it labelled campaign variants and it asserts that
every one produces the same canonical bytes.  test_parallel.py and
test_codec.py build their parity checks on it instead of copy-pasting
aggregate comparisons.
"""

from __future__ import annotations

import pytest

from repro.analysis import ANALYSIS_PASSES
from repro.analysis.incremental import SuiteAnalyzer, direct_report
from repro.core.records import TestSuite
from repro.core.transplant import run_matrix, run_transplant
from repro.corpus import build_suite
from repro.perf import vectorize
from repro.store import ArtifactStore, canonical_bytes


def assert_equivalent(campaign_variants):
    """Assert that every labelled campaign variant is byte-identical.

    ``campaign_variants`` maps a label to either a zero-argument callable
    producing a result or an already-computed result.  Results may be
    anything the canonical serialization can walk — ``TransplantResult``,
    ``SuiteResult``, ``TransplantMatrix``, lists of them, ...  Variants run
    in mapping order (so a "cold" variant can populate a store that a later
    "warm" variant reads), the first is the reference, and any divergence
    fails with the offending labels.  Returns label -> result so callers can
    make additional variant-specific assertions.
    """
    if not campaign_variants:
        raise ValueError("assert_equivalent needs at least one campaign variant")
    results = {}
    reference_label = None
    reference_bytes = None
    for label, variant in campaign_variants.items():
        value = variant() if callable(variant) else variant
        results[label] = value
        rendered = canonical_bytes(value)
        if reference_bytes is None:
            reference_label, reference_bytes = label, rendered
        else:
            assert rendered == reference_bytes, (
                f"campaign variant {label!r} diverges from {reference_label!r}"
            )
    return results


#: The two transplant legs the parity satellites have always pinned: the SLT
#: suite on DuckDB (plain) and the PostgreSQL suite on MySQL (translated).
WORKLOADS = (
    ("slt", "duckdb", False),
    ("postgres", "mysql", True),
)


def _wipe(store: ArtifactStore, *namespaces: str) -> None:
    """Delete every artifact of the given namespaces (forces re-derivation)."""
    for namespace in namespaces:
        for path in (store.root / namespace).rglob("*.pkl"):
            path.unlink()


class TestCampaignVariants:
    """The full equivalence lattice on both reference workloads."""

    @pytest.mark.parametrize("suite_name,host,translate", WORKLOADS)
    def test_incremental_warm_sharded_and_full_all_match(self, suite_name, host, translate, tmp_path):
        suite = build_suite(suite_name, file_count=4, records_per_file=20, seed=23, store=None)
        store = ArtifactStore(root=tmp_path / "store", fingerprint="diff-fp")
        full_store = ArtifactStore(root=tmp_path / "full-store", fingerprint="diff-fp")

        def run(**kwargs):
            return lambda: run_transplant(suite, host, translate_dialect=translate, **kwargs)

        def scalar(invoke):
            # same campaign, columnar executor paths off: the vectorized
            # engine (the reference variant above) must be byte-identical to
            # the scalar row-at-a-time fallback, serial and under workers
            def wrapped():
                with vectorize.vectorize_disabled():
                    return invoke()

            return wrapped

        def assembled(**kwargs):
            # drop the suite-level cells so the run must assemble from the
            # per-file artifacts the cold variant persisted
            def invoke():
                _wipe(store, "matrix-cells", "donor-runs")
                return run_transplant(suite, host, translate_dialect=translate, store=store, **kwargs)

            return invoke

        variants = assert_equivalent(
            {
                "storeless-serial": run(store=None),
                "storeless-workers-4": run(store=None, workers=4, executor="thread"),
                "scalar-serial": scalar(run(store=None)),
                "scalar-workers-4": scalar(run(store=None, workers=4, executor="thread")),
                "full-no-incremental": run(store=full_store, incremental=False),
                "incremental-cold": run(store=store),
                "warm-replay": run(store=store),
                "assembled-serial": assembled(),
                "assembled-workers-4": assembled(workers=4, executor="thread"),
            }
        )
        assert variants["warm-replay"].result.total_cases > 0

    @pytest.mark.parametrize("suite_name,host,translate", WORKLOADS)
    def test_single_file_edit_matches_full_re_execution(self, suite_name, host, translate, tmp_path):
        base = build_suite(suite_name, file_count=4, records_per_file=20, seed=23, store=None)
        donor = build_suite(suite_name, file_count=4, records_per_file=20, seed=24, store=None)
        # "edit" file 2: same path, different content (a donor file from
        # another seed), exactly what a hand-edited scenario file looks like
        edited = TestSuite(name=base.name, files=[*base.files[:2], donor.files[2], *base.files[3:]])
        assert edited.files[2].path == base.files[2].path

        store = ArtifactStore(root=tmp_path / "store", fingerprint="diff-fp")
        run_transplant(base, host, translate_dialect=translate, store=store)  # seed per-file artifacts
        store.stats.reset()

        results = assert_equivalent(
            {
                "storeless-serial": lambda: run_transplant(edited, host, translate_dialect=translate, store=None),
                "storeless-workers-4": lambda: run_transplant(
                    edited, host, translate_dialect=translate, store=None, workers=4, executor="thread"
                ),
                "incremental-rebuild": lambda: run_transplant(edited, host, translate_dialect=translate, store=store),
            }
        )
        # the incremental rebuild must have loaded the three untouched files
        # and executed exactly the edited one
        lookups = store.stats.by_namespace["file-results"]
        assert lookups == {"hits": 3, "misses": 1}
        assert results["incremental-rebuild"].result.total_cases > 0


class TestAnalysisVariants:
    """Incremental analysis == the direct whole-suite scanners, byte for byte.

    The analysis counterpart of :class:`TestCampaignVariants`: every RQ1/RQ2
    answer (Table 2 census, Figure 2 distribution, both Table 3 variants,
    Figure 3 predicates/joins, Figure 1 sizes) assembled from ``file-analysis``
    partials must be byte-identical — canonical serialization — to the direct
    scan, cold store, warm store and storeless.  Analysis scans in-process at
    every campaign width, so worker count is not a variant here.
    """

    @pytest.mark.parametrize("suite_name", ("slt", "postgres"))
    def test_assembled_matches_direct_across_stores_and_workers(self, suite_name, tmp_path):
        suite = build_suite(suite_name, file_count=4, records_per_file=20, seed=23, store=None)
        store = ArtifactStore(root=tmp_path / "store", fingerprint="diff-fp")

        def assembled():
            return SuiteAnalyzer(store=store).full_report(suite)

        assert_equivalent(
            {
                "direct-scan": lambda: direct_report(suite),
                "storeless": lambda: SuiteAnalyzer(store=None).full_report(suite),
                "assembled-cold": assembled,
                "assembled-warm": assembled,
                "assembled-warm-again": assembled,
            }
        )
        # the cold pass wrote one partial per (file, pass); both warm replays
        # then served every lookup from the store
        lookups = store.stats.by_namespace["file-analysis"]
        passes = len(ANALYSIS_PASSES)
        assert lookups == {"hits": 2 * 4 * passes, "misses": 4 * passes}

    @pytest.mark.parametrize("suite_name", ("slt", "postgres"))
    def test_single_file_edit_reanalyzes_exactly_one_file(self, suite_name, tmp_path):
        base = build_suite(suite_name, file_count=4, records_per_file=20, seed=23, store=None)
        donor = build_suite(suite_name, file_count=4, records_per_file=20, seed=24, store=None)
        edited = TestSuite(name=base.name, files=[*base.files[:2], donor.files[2], *base.files[3:]])
        assert edited.files[2].path == base.files[2].path

        store = ArtifactStore(root=tmp_path / "store", fingerprint="diff-fp")
        SuiteAnalyzer(store=store).full_report(base)  # seed per-file partials
        store.stats.reset()

        assert_equivalent(
            {
                "storeless-direct": lambda: direct_report(edited),
                "assembled-rebuild": lambda: SuiteAnalyzer(store=store).full_report(edited),
            }
        )
        # every pass loaded the three untouched files and re-scanned the edited one
        passes = len(ANALYSIS_PASSES)
        lookups = store.stats.by_namespace["file-analysis"]
        assert lookups == {"hits": 3 * passes, "misses": 1 * passes}


class TestStreamingCampaignParity:
    """One streaming pass == the serial batch, byte for byte.

    The streaming engine's core guarantee: because experiments accumulate
    cells and compute everything in ``finalize``, a pass that overlaps cells
    (width 4), runs on a sharded context (workers 4), executes scalar
    (vectorize off), or replays from a warm store must produce results
    byte-identical to the serial storeless batch — only the *yield order* may
    differ, so variants are compared in registry order.
    """

    def _ordered(self, results):
        from repro.experiments.registry import EXPERIMENTS

        order = {experiment_id: index for index, experiment_id in enumerate(EXPERIMENTS)}
        return sorted(results, key=lambda result: order[result.experiment_id])

    def test_stream_matches_batch_across_widths_workers_and_stores(self, tmp_path):
        from repro.experiments import ExperimentContext, stream_experiments
        from repro.experiments.stream import run_batch
        from repro.perf import cache as perf_cache

        scale, seed = 0.06, 7

        def context(**kwargs):
            kwargs.setdefault("use_store", False)
            return ExperimentContext(scale=scale, seed=seed, **kwargs)

        def batch(**kwargs):
            return lambda: run_batch(None, context(**kwargs))

        def stream(width, **kwargs):
            return lambda: self._ordered(stream_experiments(None, context(**kwargs), max_inflight=width))

        def scalar_stream():
            with vectorize.vectorize_disabled():
                return self._ordered(stream_experiments(None, context(), max_inflight=1))

        def cacheless_stream():
            # caching off disables the translated-donor aliasing: the pass
            # executes those cells for real and must still match
            perf_cache.set_caching(False)
            try:
                return self._ordered(stream_experiments(None, context(), max_inflight=1))
            finally:
                perf_cache.set_caching(True)

        store_dir = str(tmp_path / "store")
        reference_context = context()
        results = assert_equivalent(
            {
                "batch-serial-storeless": lambda: run_batch(None, reference_context),
                "stream-serial-storeless": stream(1),
                "stream-width-4-storeless": stream(4),
                "stream-width-4-workers-4": stream(4, workers=4, executor="thread"),
                "scalar-stream-serial": scalar_stream,
                "cacheless-stream-serial": cacheless_stream,
                "batch-store-cold": batch(use_store=True, store_dir=store_dir),
                "stream-width-4-store-warm": stream(4, use_store=True, store_dir=store_dir),
            }
        )
        assert len(results["batch-serial-storeless"]) == 14
        # the pass's cells read back as full matrices equal to a standalone
        # plain + translated campaign over the same suites
        assert_equivalent(
            {
                "context-matrices-after-pass": lambda: [reference_context.matrix, reference_context.translated_matrix],
                "standalone-run-matrix": lambda: [
                    run_matrix(reference_context.suites, store=None),
                    run_matrix(reference_context.suites, translate_dialect=True, store=None),
                ],
            }
        )

    def test_selected_subset_stream_matches_batch(self):
        from repro.experiments import ExperimentContext, stream_experiments
        from repro.experiments.stream import run_batch

        selected = ["figure4", "table6", "bugs"]

        def context():
            return ExperimentContext(scale=0.06, seed=7, use_store=False)

        results = assert_equivalent(
            {
                "batch": lambda: run_batch(selected, context()),
                "stream-width-3": lambda: self._ordered(stream_experiments(selected, context(), max_inflight=3)),
            }
        )
        assert [result.experiment_id for result in results["batch"]] == selected
