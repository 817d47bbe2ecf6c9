"""The persistent artifact store: correctness, resilience, and its two clients.

The invariants pinned here are the ones that make disk-backed reuse safe to
leave on by default:

* corrupt or truncated artifacts are treated as misses (regenerate, never
  crash) and are removed from disk,
* a code-fingerprint bump invalidates every old entry,
* concurrent writers cannot clobber each other (tmp + rename),
* a warm ``run_matrix`` reproduces the storeless results byte-for-byte
  (canonical serialization), and
* ``store_disabled()`` / ``store=None`` really do force the storeless path.
"""

from __future__ import annotations

import concurrent.futures
import os
import pickle
import shutil
import threading

import pytest

from repro.core.records import TestSuite
from repro.core.transplant import run_matrix, run_transplant
from repro.corpus import build_suite
from repro.store import (
    ArtifactStore,
    canonical_bytes,
    store_disabled,
    suite_content_hash,
)
from repro.store.artifacts import STORE_FORMAT_VERSION


@pytest.fixture
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(root=tmp_path / "store", fingerprint="test-fp")


# -- core store behaviour ----------------------------------------------------------


class TestArtifactStore:
    def test_round_trip(self, store):
        key = {"suite": "slt", "seed": 7}
        assert store.load("ns", key) is None
        assert store.save("ns", key, {"value": [1, 2, 3]})
        assert store.load("ns", key) == {"value": [1, 2, 3]}
        assert store.stats.hits == 1
        assert store.stats.misses == 1
        assert store.stats.writes == 1

    def test_distinct_keys_and_namespaces(self, store):
        store.save("a", {"k": 1}, "first")
        store.save("a", {"k": 2}, "second")
        store.save("b", {"k": 1}, "third")
        assert store.load("a", {"k": 1}) == "first"
        assert store.load("a", {"k": 2}) == "second"
        assert store.load("b", {"k": 1}) == "third"

    def test_key_order_is_canonical(self, store):
        store.save("ns", {"a": 1, "b": 2}, "value")
        assert store.load("ns", {"b": 2, "a": 1}) == "value"

    def test_memoize_produces_once(self, store):
        calls = []

        def producer():
            calls.append(1)
            return "expensive"

        assert store.memoize("ns", "key", producer) == "expensive"
        assert store.memoize("ns", "key", producer) == "expensive"
        assert len(calls) == 1

    def test_truncated_artifact_is_a_miss(self, store):
        key = {"seed": 1}
        store.save("ns", key, list(range(1000)))
        path = store.path_for("ns", key)
        path.write_bytes(path.read_bytes()[:20])  # truncate mid-pickle
        assert store.load("ns", key, default="fallback") == "fallback"
        assert store.stats.errors == 1
        assert not path.exists(), "corrupt artifact must be removed"
        # and the slot is usable again
        assert store.save("ns", key, "regenerated")
        assert store.load("ns", key) == "regenerated"

    def test_garbage_artifact_is_a_miss(self, store):
        key = {"seed": 2}
        store.save("ns", key, "value")
        store.path_for("ns", key).write_bytes(b"not a pickle at all")
        assert store.load("ns", key) is None
        assert store.stats.errors == 1

    def test_wrong_header_is_a_miss(self, store):
        key = {"seed": 3}
        path = store.path_for("ns", key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps((STORE_FORMAT_VERSION + 1, "ns", "value")))
        assert store.load("ns", key) is None
        assert not path.exists()

    def test_fingerprint_bump_invalidates(self, tmp_path):
        root = tmp_path / "store"
        old = ArtifactStore(root=root, fingerprint="version-1")
        old.save("ns", {"seed": 7}, "old-artifact")
        new = ArtifactStore(root=root, fingerprint="version-2")
        assert new.load("ns", {"seed": 7}) is None, "new fingerprint must not see old entries"
        assert old.load("ns", {"seed": 7}) == "old-artifact", "old entries stay addressable by old code"
        new.save("ns", {"seed": 7}, "new-artifact")
        assert new.load("ns", {"seed": 7}) == "new-artifact"
        assert old.load("ns", {"seed": 7}) == "old-artifact"

    def test_concurrent_writers_do_not_clobber(self, store):
        barrier = threading.Barrier(8)

        def writer(worker: int):
            barrier.wait()
            for round_number in range(10):
                store.save("ns", {"slot": round_number % 3}, {"worker": worker, "round": round_number})
            return True

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            assert all(pool.map(writer, range(8)))
        # whatever write won each slot, the artifact must be complete and valid
        for slot in range(3):
            value = store.load("ns", {"slot": slot})
            assert isinstance(value, dict) and set(value) == {"worker", "round"}
        assert store.stats.errors == 0
        # no temp files left behind
        leftovers = [path for path in (store.root).rglob(".tmp-*") if path.is_file()]
        assert leftovers == []

    def test_lru_eviction_drops_oldest(self, tmp_path):
        store = ArtifactStore(root=tmp_path / "store", max_bytes=1, fingerprint="fp")
        store.save("ns", {"k": 1}, "x" * 100)  # immediately over budget
        store.save("ns", {"k": 2}, "y" * 100)
        assert store.stats.evictions >= 1
        # the newest entry survives each sweep
        assert store.load("ns", {"k": 2}) == "y" * 100

    def test_eviction_keeps_recently_read_entries(self, tmp_path):
        store = ArtifactStore(root=tmp_path / "store", max_bytes=10_000, fingerprint="fp")
        store.save("ns", {"k": "old"}, "o" * 3000)
        store.save("ns", {"k": "mid"}, "m" * 3000)
        older = store.path_for("ns", {"k": "old"})
        middle = store.path_for("ns", {"k": "mid"})
        os.utime(older, (1_000_000, 1_000_000))
        os.utime(middle, (2_000_000, 2_000_000))
        # a read freshens "old", so "mid" is now the LRU victim
        assert store.load("ns", {"k": "old"}) is not None
        store.save("ns", {"k": "new"}, "n" * 6000)  # pushes past max_bytes
        assert not middle.exists()
        assert older.exists()

    def test_snapshot_shape(self, store):
        store.save("ns", "k", "v")
        store.load("ns", "k")
        snapshot = store.snapshot()
        assert snapshot["entries"] == 1
        assert snapshot["bytes"] > 0
        assert snapshot["hits"] == 1 and snapshot["writes"] == 1
        assert 0.0 <= snapshot["hit_rate"] <= 1.0

    def test_clear(self, store):
        store.save("ns", "k", "v")
        store.clear()
        assert store.entry_count == 0
        assert store.load("ns", "k") is None

    def test_corruption_deletions_keep_the_byte_estimate_honest(self, store):
        """Corruption-as-miss deletions must decrement the amortized byte
        estimate (they used to leave it above disk truth by one artifact per
        corrupt read, drifting until the next over-budget sweep)."""
        keys = [{"seed": n} for n in range(6)]
        for key in keys:
            store.save("ns", key, "x" * 2000)
        assert store.estimated_bytes == store.total_bytes
        garbage = b"g" * 500
        for key in keys[:3]:  # corrupt half, read them back as misses
            store.path_for("ns", key).write_bytes(garbage)
        estimate_before = store.estimated_bytes
        for key in keys[:3]:
            assert store.load("ns", key) is None
        assert store.stats.errors == 3
        # each corrupt read deleted its (garbage-sized) file AND subtracted
        # that size from the estimate — without the decrement the estimate
        # would still equal estimate_before
        assert store.estimated_bytes == estimate_before - 3 * len(garbage)
        # recount() then restores exact disk truth (the external overwrites
        # themselves are invisible to the running estimate by design)
        assert store.recount() == store.total_bytes
        assert store.estimated_bytes == store.total_bytes

    def test_gc_recounts_and_evicts_to_budget(self, store):
        for n in range(8):
            store.save("ns", {"k": n}, "y" * 4000)
        # delete some entries behind the store's back: the estimate is stale
        victims = [store.path_for("ns", {"k": n}) for n in range(2)]
        for victim in victims:
            victim.unlink()
        summary = store.gc()
        assert summary["bytes_before"] == summary["bytes_after"] == store.total_bytes
        assert summary["evicted"] == 0
        assert store.estimated_bytes == store.total_bytes
        # now force a trim below the current footprint
        summary = store.gc(max_bytes=store.total_bytes // 2)
        assert summary["evicted"] >= 1
        assert store.total_bytes <= summary["max_bytes"] or store.entry_count == 1
        assert store.estimated_bytes == store.total_bytes
        # the steady-state budget is untouched by the override
        assert store.max_bytes != summary["max_bytes"]

    def test_namespace_stats(self, store):
        store.save("alpha", {"k": 1}, "a" * 5000)
        store.save("alpha", {"k": 2}, "a" * 5000)
        store.save("beta", {"k": 1}, "b")
        stats = store.namespace_stats()
        assert list(stats) == ["alpha", "beta"]  # sorted by bytes descending
        assert stats["alpha"]["entries"] == 2
        assert stats["beta"]["entries"] == 1
        assert stats["alpha"]["bytes"] > stats["beta"]["bytes"] > 0

    def test_active_store_rejects_path_strings(self, store):
        from repro.store import DEFAULT, active_store

        assert active_store(None) is None
        assert active_store(store) is store
        assert active_store(DEFAULT) is not None
        with pytest.raises(TypeError):
            # a path string must not silently become the user-level default
            active_store("/tmp/some-store-dir")


# -- canonical serialization -------------------------------------------------------


class TestCanonicalBytes:
    def test_equal_suites_hash_equal(self):
        first = build_suite("slt", file_count=2, records_per_file=15, seed=11, store=None)
        second = build_suite("slt", file_count=2, records_per_file=15, seed=11, store=None)
        assert first is not second
        assert suite_content_hash(first) == suite_content_hash(second)

    def test_different_seeds_hash_differently(self):
        first = build_suite("slt", file_count=2, records_per_file=15, seed=11, store=None)
        second = build_suite("slt", file_count=2, records_per_file=15, seed=12, store=None)
        assert suite_content_hash(first) != suite_content_hash(second)

    def test_private_fields_do_not_change_identity(self):
        from repro.core.runner import FileResult

        untouched = FileResult(path="p", suite="slt", host="sqlite")
        counted = FileResult(path="p", suite="slt", host="sqlite")
        counted.count  # noqa: B018 - populate the lazy counter state
        assert canonical_bytes(untouched) == canonical_bytes(counted)

    def test_floats_are_exact(self):
        assert canonical_bytes(0.1) != canonical_bytes(0.1 + 1e-17) or (0.1 == 0.1 + 1e-17)
        assert canonical_bytes(1.5) == canonical_bytes(1.5)


# -- the corpus client -------------------------------------------------------------


class TestCorpusStore:
    def test_build_suite_loads_instead_of_regenerating(self, store):
        first = build_suite("slt", file_count=2, records_per_file=20, seed=5, store=store)
        assert store.stats.writes >= 1
        second = build_suite("slt", file_count=2, records_per_file=20, seed=5, store=store)
        assert store.stats.hits >= 1
        assert canonical_bytes(first) == canonical_bytes(second)
        assert isinstance(second, TestSuite)

    def test_different_parameters_miss(self, store):
        build_suite("slt", file_count=2, records_per_file=20, seed=5, store=store)
        hits_before = store.stats.hits
        # a different seed (or records_per_file) shares nothing — every
        # namespace, including the per-file donor recordings, misses
        build_suite("slt", file_count=2, records_per_file=20, seed=6, store=store)
        assert store.stats.hits == hits_before

    def test_grown_corpus_reuses_per_file_recordings(self, store):
        """file_count is *not* part of the per-file key: growing a corpus
        regenerates only the new files (incremental corpus recording)."""
        build_suite("slt", file_count=2, records_per_file=20, seed=5, store=store)
        store.stats.reset()
        grown = build_suite("slt", file_count=3, records_per_file=20, seed=5, store=store)
        file_donor = store.stats.by_namespace["file-donor"]
        assert file_donor == {"hits": 2, "misses": 1}
        with store_disabled():
            reference = build_suite("slt", file_count=3, records_per_file=20, seed=5, store=store)
        assert canonical_bytes(grown) == canonical_bytes(reference)

    def test_store_disabled_bypasses(self, store):
        build_suite("slt", file_count=2, records_per_file=20, seed=5, store=store)
        lookups_before = store.stats.lookups
        with store_disabled():
            build_suite("slt", file_count=2, records_per_file=20, seed=5, store=store)
        assert store.stats.lookups == lookups_before

    def test_corrupt_suite_artifact_regenerates(self, store):
        reference = build_suite("slt", file_count=2, records_per_file=20, seed=5, store=store)
        for path in store.root.rglob("*.pkl"):
            path.write_bytes(b"corrupt")
        rebuilt = build_suite("slt", file_count=2, records_per_file=20, seed=5, store=store)
        assert canonical_bytes(rebuilt) == canonical_bytes(reference)
        assert store.stats.errors >= 1


# -- the transplant client ---------------------------------------------------------


class TestDonorRunStore:
    @pytest.fixture(scope="class")
    def suite(self):
        return build_suite("slt", file_count=2, records_per_file=25, seed=9, store=None)

    def test_donor_run_is_memoized(self, store, suite):
        first = run_transplant(suite, "sqlite", store=store)
        # one suite-level cell plus one incremental-assembly entry per file
        assert store.stats.writes == 1 + len(suite.files)
        second = run_transplant(suite, "sqlite", store=store)
        assert store.stats.hits == 1
        assert canonical_bytes(first) == canonical_bytes(second)

    def test_cross_host_cells_are_memoized(self, store, suite):
        first = run_transplant(suite, "duckdb", store=store)
        assert store.stats.writes == 1 + len(suite.files)
        second = run_transplant(suite, "duckdb", store=store)
        assert store.stats.hits == 1
        assert canonical_bytes(first) == canonical_bytes(second)
        # cross-host cells land in their own namespace, apart from donor runs
        assert (store.root / "matrix-cells").is_dir()
        assert not (store.root / "donor-runs").exists()

    def test_translated_and_plain_cells_key_separately(self, store, suite):
        plain = run_transplant(suite, "duckdb", store=store)
        translated = run_transplant(suite, "duckdb", translate_dialect=True, store=store)
        cells = list((store.root / "matrix-cells").rglob("*.pkl"))
        assert len(cells) == 2, "translate_dialect must address a different cell"
        warm_plain = run_transplant(suite, "duckdb", store=store)
        warm_translated = run_transplant(suite, "duckdb", translate_dialect=True, store=store)
        assert canonical_bytes(warm_plain) == canonical_bytes(plain)
        assert canonical_bytes(warm_translated) == canonical_bytes(translated)

    def test_explicit_adapter_bypasses_store(self, store, suite):
        from repro.adapters.registry import create_adapter

        adapter = create_adapter("sqlite")
        adapter.setup()
        try:
            run_transplant(suite, "sqlite", adapter=adapter, store=store)
        finally:
            adapter.teardown()
        assert store.stats.lookups == 0

    def test_warm_matrix_byte_identical_to_storeless(self, store, suite):
        suites = {suite.name: suite}
        with store_disabled():
            reference = run_matrix(suites, store=store)
        cold = run_matrix(suites, store=store)
        warm = run_matrix(suites, store=store)
        assert store.stats.hits >= 1, "second campaign must hit the stored donor run"
        assert set(reference.entries) == set(cold.entries) == set(warm.entries)
        for key in reference.entries:
            expected = canonical_bytes(reference.entries[key].result)
            assert canonical_bytes(cold.entries[key].result) == expected
            assert canonical_bytes(warm.entries[key].result) == expected

    def test_warm_translated_matrix_reuses_stored_donor_runs(self, store, suite):
        suites = {suite.name: suite}
        known = {}
        plain = run_matrix(suites, hosts=("sqlite",), store=store, known=known)
        hits_before = store.stats.hits
        translated = run_matrix(suites, hosts=("sqlite",), translate_dialect=True, store=store, known=known)
        # donor cells of the translated campaign come from the known cells of
        # the plain campaign, not the store; the store hit count is unchanged
        assert store.stats.hits == hits_before
        assert translated.get(suite.name, "sqlite").result.total_cases == plain.get(suite.name, "sqlite").result.total_cases


# -- the store CLI -----------------------------------------------------------------


class TestStoreCLI:
    @pytest.fixture
    def populated(self, tmp_path):
        root = tmp_path / "cli-store"
        store = ArtifactStore(root=root, fingerprint="cli-fp")
        store.save("donor-runs", {"k": 1}, "d" * 2000)
        store.save("matrix-cells", {"k": 1}, "m" * 3000)
        return root, store

    def _run(self, *argv) -> tuple[int, str]:
        import contextlib
        import io

        from repro.experiments.__main__ import main

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            status = main(list(argv))
        return status, buffer.getvalue()

    def test_stats(self, populated):
        root, _store = populated
        status, output = self._run("store", "stats", "--store-dir", str(root))
        assert status == 0
        assert "entries:     2" in output
        assert "matrix-cells" in output and "donor-runs" in output

    def test_stats_json(self, populated):
        import json

        root, _store = populated
        status, output = self._run("store", "stats", "--store-dir", str(root), "--json")
        assert status == 0
        payload = json.loads(output)
        assert payload["entries"] == 2
        assert set(payload["namespaces"]) == {"donor-runs", "matrix-cells"}

    def test_gc_trims_to_requested_budget(self, populated):
        root, store = populated
        status, output = self._run("store", "gc", "--store-dir", str(root), "--max-bytes", "2500")
        assert status == 0
        assert "evicted" in output
        assert store.total_bytes <= 3500  # oldest entry went; newest survives
        assert store.entry_count == 1

    def test_clear(self, populated):
        root, store = populated
        status, output = self._run("store", "clear", "--store-dir", str(root))
        assert status == 0
        assert "cleared 2" in output
        assert store.entry_count == 0

    def test_default_store_is_the_process_default(self, tmp_path):
        """Without --store-dir the CLI talks to get_default_store() (which the
        test session redirects to a temp dir, proving the indirection)."""
        from repro.store import get_default_store

        default_root = str(get_default_store().root)
        status, output = self._run("store", "stats")
        assert status == 0
        assert default_root in output


# -- failure-path hygiene and graceful degradation --------------------------------


class TestFailurePathHygiene:
    """A failed save must leave no temp files behind in the store tree."""

    def _tmp_leftovers(self, store):
        return [path for path in store.root.rglob(".tmp-*")]

    def test_failed_rename_leaves_no_tmp_files(self, store, monkeypatch):
        def _broken_replace(src, dst):
            raise OSError(5, "injected EIO on rename")

        monkeypatch.setattr(os, "replace", _broken_replace)
        assert store.save("ns", {"k": 1}, "value") is False
        assert self._tmp_leftovers(store) == []
        assert store.stats.errors == 1
        assert store.stats.io_errors == 1

    def test_failed_pickle_leaves_no_tmp_files(self, store):
        class Unpicklable:
            def __reduce__(self):
                raise TypeError("nope")

        assert store.save("ns", {"k": 1}, Unpicklable()) is False
        assert self._tmp_leftovers(store) == []
        # a serialization bug is a corruption-class error, not a disk fault
        assert store.stats.errors == 1
        assert store.stats.io_errors == 0

    def test_save_recreates_a_removed_shard_directory(self, store):
        # saves skip the mkdir while the shard directory exists; one removed
        # behind the store's back is recreated on the temp file's first miss
        assert store.save("ns", {"k": 1}, "first") is True
        shard = store.path_for("ns", {"k": 1}).parent
        shutil.rmtree(shard)
        assert store.save("ns", {"k": 1}, "second") is True
        assert store.load("ns", {"k": 1}) == "second"
        assert store.stats.errors == 0
        assert self._tmp_leftovers(store) == []


class TestStoreDegradation:
    """Consecutive I/O errors demote the store to storeless mode, once, loudly."""

    def _failing(self, tmp_path, degrade_after=3):
        store = ArtifactStore(root=tmp_path / "sick", fingerprint="test-fp", degrade_after=degrade_after)

        def _eio_read(path):
            raise OSError(5, "injected EIO")

        def _eio_write(path, payload):
            raise OSError(5, "injected EIO")

        store._read = _eio_read
        store._write = _eio_write
        return store

    def test_streak_of_io_errors_degrades_with_one_warning(self, tmp_path, caplog):
        store = self._failing(tmp_path, degrade_after=3)
        with caplog.at_level("WARNING", logger="repro.store.artifacts"):
            for index in range(5):
                assert store.save("ns", {"k": index}, "value") is False
        assert store.degraded
        warnings = [record for record in caplog.records if "degraded to storeless mode" in record.message]
        assert len(warnings) == 1
        # degraded short-circuit: only the first 3 saves reached the I/O layer
        assert store.stats.io_errors == 3
        assert store.snapshot()["degraded"] is True
        assert store.snapshot()["io_errors"] == 3

    def test_degraded_store_short_circuits_loads(self, tmp_path):
        store = self._failing(tmp_path, degrade_after=2)
        store.load("ns", {"k": 1})
        store.load("ns", {"k": 2})
        assert store.degraded
        misses_before = store.stats.misses
        assert store.load("ns", {"k": 3}) is None
        assert store.stats.misses == misses_before + 1
        assert store.stats.io_errors == 2  # the third load never hit _read

    def test_success_resets_the_streak(self, store, monkeypatch):
        real_write = type(store)._write
        calls = {"n": 0}

        def _flaky_write(self, path, payload):
            calls["n"] += 1
            if calls["n"] != 3:
                raise OSError(5, "injected EIO")
            real_write(self, path, payload)

        monkeypatch.setattr(type(store), "_write", _flaky_write)
        store.save("ns", {"k": 1}, "v")  # streak 1
        store.save("ns", {"k": 2}, "v")  # streak 2
        assert store.save("ns", {"k": 3}, "v") is True  # streak reset
        store.save("ns", {"k": 4}, "v")  # streak 1 again
        store.save("ns", {"k": 5}, "v")  # streak 2 — still below 3
        assert not store.degraded

    def test_missing_artifact_is_not_an_io_error(self, store):
        assert store.load("ns", {"k": "absent"}) is None
        assert store.stats.io_errors == 0
        assert not store.degraded

    def test_clear_rearms_a_degraded_store(self, tmp_path):
        store = self._failing(tmp_path, degrade_after=1)
        store.load("ns", {"k": 1})
        assert store.degraded
        store.clear()
        assert not store.degraded


# -- audit and stale-tmp sweep -----------------------------------------------------


class TestAuditAndSweep:
    """``audit()`` verifies every artifact a reader would trust, eagerly."""

    def _artifact_paths(self, store):
        return [path for _, _, path in store._artifact_files()]

    def test_clean_store_audits_clean(self, store):
        store.save("ns", {"k": 1}, "value")
        store.save("other", {"k": 2}, [1, 2, 3])
        report = store.audit()
        assert report["verified"] == 2
        assert report["corrupt"] == 0
        assert report["corrupt_paths"] == []

    def test_truncated_pickle_is_deleted_and_reported(self, store):
        store.save("ns", {"k": 1}, "value")
        (path,) = self._artifact_paths(store)
        path.write_bytes(path.read_bytes()[:-7])
        report = store.audit()
        assert report["corrupt"] == 1
        assert report["corrupt_paths"] == [str(path.relative_to(store.root))]
        assert not path.exists()
        assert store.stats.errors == 1

    def test_bad_codec_frame_inside_intact_pickle_is_caught(self, store):
        import zlib

        from repro.store.codec import CODEC_VERSION, MAGIC

        # the pickle envelope is flawless; only the framed payload's digest
        # lies — exactly what a torn write followed by a lucky rename, or bit
        # rot under the pickle layer, would look like
        forged = MAGIC + bytes([CODEC_VERSION]) + b"12345678" + zlib.compress(b"payload")
        store.save("file-results", {"k": 1}, forged)
        store.save("donor-runs", {"k": 2}, {"a.test": forged})  # bundle shape
        report = store.audit()
        assert report["corrupt"] == 2
        assert report["verified"] == 0

    def test_intact_codec_frames_pass(self, store):
        from repro.adapters import create_adapter
        from repro.core.runner import TestRunner
        from repro.store.codec import encode_file_result, frame_intact

        suite = build_suite("slt", file_count=1, records_per_file=3, seed=9)
        result = TestRunner(create_adapter("sqlite"), host_name="sqlite").run_suite(suite)
        blob = encode_file_result(result.files[0], suite.files[0])
        assert frame_intact(blob)
        assert not frame_intact(blob[:-1] + bytes([blob[-1] ^ 0xFF]))
        assert not frame_intact(b"garbage")
        assert not frame_intact(None)
        store.save("file-results", {"k": 1}, blob)
        assert store.audit()["verified"] == 1

    def test_namespace_mismatch_is_caught(self, store):
        store.save("ns", {"k": 1}, "value")
        (path,) = self._artifact_paths(store)
        impostor_dir = store.root / "other-ns"
        impostor_dir.mkdir()
        path.rename(impostor_dir / path.name)
        report = store.audit()
        assert report["corrupt"] == 1
        assert report["corrupt_paths"][0].startswith("other-ns/")

    def test_wrong_format_version_is_caught(self, store):
        store.save("ns", {"k": 1}, "value")
        (path,) = self._artifact_paths(store)
        store._write(path, (STORE_FORMAT_VERSION + 1, "ns", "value"))
        report = store.audit()
        assert report["corrupt"] == 1

    def test_audit_sweeps_tmp_unconditionally(self, store):
        store.save("ns", {"k": 1}, "value")
        leftover = store.root / "ns" / ".tmp-killed-writer"
        leftover.write_bytes(b"partial")
        report = store.audit()
        assert report["tmp_swept"] == 1
        assert not leftover.exists()
        assert store.audit(sweep=False)["tmp_swept"] == 0

    def test_sweep_tmp_age_threshold_spares_live_writers(self, store):
        store.save("ns", {"k": 1}, "value")
        fresh = store.root / "ns" / ".tmp-live-writer"
        fresh.write_bytes(b"in flight")
        assert store.sweep_tmp(max_age_seconds=3600) == 0
        assert fresh.exists()
        assert store.sweep_tmp(max_age_seconds=0) == 1
        assert not fresh.exists()

    def test_open_time_sweep_removes_stale_tmp(self, tmp_path):
        import time as _time

        root = tmp_path / "store"
        first = ArtifactStore(root=root, fingerprint="test-fp")
        first.save("ns", {"k": 1}, "value")
        stale = root / "ns" / ".tmp-dead-writer"
        stale.write_bytes(b"partial")
        two_hours_ago = _time.time() - 7200
        os.utime(stale, (two_hours_ago, two_hours_ago))
        reopened = ArtifactStore(root=root, fingerprint="test-fp")
        assert not stale.exists()
        assert reopened.load("ns", {"k": 1}) == "value"

    def test_cli_audit(self, tmp_path):
        import contextlib
        import io

        from repro.experiments.__main__ import main

        root = tmp_path / "cli-store"
        store = ArtifactStore(root=root, fingerprint="cli-fp")
        store.save("ns", {"k": 1}, "value")
        store.save("ns", {"k": 2}, "other")
        path = [p for _, _, p in store._artifact_files()][0]
        path.write_bytes(b"not a pickle")

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            status = main(["store", "audit", "--store-dir", str(root)])
        assert status == 0
        output = buffer.getvalue()
        assert "verified" in output and "corrupt" in output

    def test_cli_audit_json(self, tmp_path):
        import contextlib
        import io
        import json

        from repro.experiments.__main__ import main

        root = tmp_path / "cli-store"
        ArtifactStore(root=root, fingerprint="cli-fp").save("ns", {"k": 1}, "value")
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            status = main(["store", "audit", "--store-dir", str(root), "--json"])
        assert status == 0
        payload = json.loads(buffer.getvalue())
        assert payload["verified"] == 1
        assert payload["corrupt"] == 0
