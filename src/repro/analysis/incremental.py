"""Incremental, store-backed RQ1/RQ2 analysis passes.

Execution became incremental in the campaign layer (``file-results``:
per-file artifacts, suite answers assembled from them), but the analysis
scanners behind Tables 2-3 and Figures 1-3 still re-scanned whole suites in
every process.  This module closes that gap: every scanner is a per-file
partial (see the four ``file_*`` functions in the scanner modules) plus an
associative merge, so suite-level answers assemble from cached partials and
editing 1 of N files re-analyzes exactly 1 file.

The store contract mirrors ``file-results``:

* one artifact per ``(file content hash, analysis pass)`` in the
  ``file-analysis`` namespace (:func:`repro.store.keys.analysis_file_key`;
  the code fingerprint joins every key, so a scanner change orphans all
  partials),
* payloads are versioned codec frames
  (:func:`repro.store.codec.encode_analysis_partial`) — magic, version byte,
  payload digest — and any frame the codec rejects is invalidated and
  re-scanned, never trusted,
* misses are scanned in-process — a scan costs less than shipping its file
  to a pool worker — and persisted by the same process, and a storeless run
  degrades to scanning every file — the merge is the whole-suite scan,
  value-identical by construction.

:class:`SuiteAnalyzer` binds a store once (an
:class:`~repro.experiments.context.ExperimentContext` holds one) and exposes
the familiar scanner signatures.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable

from repro.analysis import features, filesize, predicates, statements
from repro.core.records import TestFile, TestSuite
from repro.store import artifacts as artifact_store
from repro.store import codec as result_codec
from repro.store.keys import FILE_ANALYSIS_NAMESPACE, analysis_file_key

#: The four analysis passes: pass id -> module-level per-file scan function.
#: Scans are pure functions of the file; the pass id is the store-key
#: component that keeps one file's partials apart.
ANALYSIS_PASSES: dict[str, Callable[[TestFile], dict]] = {
    "features": features.file_command_census,
    "statements": statements.file_statement_profile,
    "predicates": predicates.file_predicate_profile,
    "filesize": filesize.file_size_profile,
}


def _load_partial(store: "artifact_store.ArtifactStore", key: dict, pass_id: str):
    """One partial from the store, or None — the ``file-results`` corrupt-blob
    protocol: a frame the codec rejects is invalidated (deleted, its lookup
    demoted to a miss) and reported as absent, never trusted."""
    cached = store.load(FILE_ANALYSIS_NAMESPACE, key)
    if cached is None:
        return None
    try:
        return result_codec.decode_analysis_partial(cached, pass_id)
    except result_codec.CodecError:
        store.invalidate(FILE_ANALYSIS_NAMESPACE, key)
        return None


def suite_partials(
    suite: TestSuite,
    pass_id: str,
    store: "artifact_store.ArtifactStore | str | None" = artifact_store.DEFAULT,
) -> list[dict]:
    """Per-file partials of ``pass_id`` over ``suite``, in file order.

    Every file is probed in the store first and only the misses are scanned
    and persisted, so the next assembly — in any process — finds them.
    ``store=None`` (or the global store switch) scans every file.
    """
    scan = ANALYSIS_PASSES[pass_id]  # unknown pass ids fail here, before any I/O
    backing = artifact_store.active_store(store)
    if backing is None:
        return [scan(test_file) for test_file in suite.files]
    keys = [analysis_file_key(pass_id, test_file) for test_file in suite.files]
    partials = [_load_partial(backing, key, pass_id) for key in keys]
    for index, test_file in enumerate(suite.files):
        if partials[index] is not None:
            continue
        partials[index] = scan(test_file)
        try:
            blob = result_codec.encode_analysis_partial(pass_id, partials[index])
        except result_codec.CodecError:
            continue  # unencodable partial: reuse simply does not extend to it
        backing.save(FILE_ANALYSIS_NAMESPACE, keys[index], blob)
    return partials


class SuiteAnalyzer:
    """Store-backed, incremental versions of the four RQ1/RQ2 scanners.

    Binds the store once; every method probes the
    ``file-analysis`` namespace per file and assembles the suite-level
    answer from the partials — value-identical to the direct whole-suite
    scanners (partials merge in file order, reproducing the scan's counter
    insertion order exactly, on top of the canonical serialization's
    key-order independence).
    """

    def __init__(self, store: "artifact_store.ArtifactStore | str | None" = artifact_store.DEFAULT):
        self.store = store

    def partials(self, suite: TestSuite, pass_id: str) -> list[dict]:
        """Per-file partials of one pass (see :func:`suite_partials`)."""
        return suite_partials(suite, pass_id, store=self.store)

    # -- features (Table 2) --------------------------------------------------------

    def command_census(self, suite: TestSuite) -> dict:
        """Incremental :func:`repro.analysis.features.count_runner_commands`."""
        return features.merge_command_censuses(suite.name, self.partials(suite, "features"))

    # -- statements (Figure 2, Table 3) --------------------------------------------

    def statement_type_distribution(self, suite: TestSuite, top: int | None = None) -> dict[str, float]:
        """Incremental :func:`repro.analysis.statements.statement_type_distribution`."""
        merged = statements.merge_statement_profiles(self.partials(suite, "statements"))
        return statements.distribution_from_profiles(merged, top)

    def statement_type_counts(self, suite: TestSuite) -> Counter:
        """Incremental :func:`repro.analysis.statements.statement_type_counts`."""
        return statements.merge_statement_profiles(self.partials(suite, "statements"))["counts"]

    def standard_compliance(self, suite: TestSuite, count_create_index_as_standard: bool = False):
        """Incremental :func:`repro.analysis.statements.standard_compliance`."""
        merged = statements.merge_statement_profiles(self.partials(suite, "statements"))
        return statements.compliance_from_profiles(suite.name, merged, count_create_index_as_standard)

    # -- predicates (Figure 3) -----------------------------------------------------

    def predicate_distribution(self, suite: TestSuite) -> dict[str, float]:
        """Incremental :func:`repro.analysis.predicates.predicate_distribution`."""
        merged = predicates.merge_predicate_profiles(self.partials(suite, "predicates"))
        return predicates.distribution_from_profiles(merged)

    def join_usage(self, suite: TestSuite):
        """Incremental :func:`repro.analysis.predicates.join_usage`."""
        merged = predicates.merge_predicate_profiles(self.partials(suite, "predicates"))
        return predicates.join_usage_from_profiles(suite.name, merged)

    # -- file sizes (Figure 1) -----------------------------------------------------

    def file_size_distribution(self, suite: TestSuite) -> list[int]:
        """Incremental :func:`repro.analysis.filesize.file_size_distribution`."""
        return filesize.sizes_from_profiles(self.partials(suite, "filesize"))

    def size_summary(self, suite: TestSuite):
        """Incremental :func:`repro.analysis.filesize.size_summary`."""
        return filesize.summarize_sizes(suite.name, self.file_size_distribution(suite))

    # -- everything at once --------------------------------------------------------

    def full_report(self, suite: TestSuite) -> dict:
        """Every suite-level analysis answer, one store probe per pass.

        The one-call shape the differential tests and the
        ``pipeline_analysis_warm`` benchmark compare against the direct
        whole-suite scanners (see :func:`direct_report`).
        """
        census = features.merge_command_censuses(suite.name, self.partials(suite, "features"))
        stmts = statements.merge_statement_profiles(self.partials(suite, "statements"))
        preds = predicates.merge_predicate_profiles(self.partials(suite, "predicates"))
        sizes = filesize.sizes_from_profiles(self.partials(suite, "filesize"))
        return _assemble_report(suite.name, census, stmts, preds, sizes)


def direct_report(suite: TestSuite) -> dict:
    """The :meth:`SuiteAnalyzer.full_report` shape from the direct scanners.

    The storeless reference the equivalence tests pin assembly against.
    """
    return _assemble_report(
        suite.name,
        features.count_runner_commands(suite),
        statements.merge_statement_profiles(statements.file_statement_profile(test_file) for test_file in suite.files),
        predicates.merge_predicate_profiles(predicates.file_predicate_profile(test_file) for test_file in suite.files),
        filesize.file_size_distribution(suite),
    )


def _assemble_report(suite_name: str, census: dict, stmts: dict, preds: dict, sizes: list[int]) -> dict:
    return {
        "command_census": census,
        "statement_distribution": statements.distribution_from_profiles(stmts),
        "statement_counts": dict(stmts["counts"]),
        "compliance": statements.compliance_from_profiles(suite_name, stmts),
        "compliance_relaxed": statements.compliance_from_profiles(suite_name, stmts, count_create_index_as_standard=True),
        "predicate_distribution": predicates.distribution_from_profiles(preds),
        "join_usage": predicates.join_usage_from_profiles(suite_name, preds),
        "size_summary": filesize.summarize_sizes(suite_name, sizes),
        "size_histogram": filesize.log_histogram(sizes),
        "sizes": list(sizes),
    }
