"""Per-layer tracing of one pass, from outside the program.

:meth:`Tracer.install` wraps public functions and methods of each ``repro``
layer (listed in ``FUNCTIONS`` and ``METHODS``; the layer is the first part
of the span name).  A module-level function is replaced in every loaded
``repro`` module that holds a reference to it, including values of
module-level dicts such as ``repro.analysis.incremental.ANALYSIS_PASSES``.
References captured elsewhere (closures, default arguments) keep the
original, so their time stays with the caller's span.

Each call records one span ``(id, parent id, name, start ns, end ns)`` in an
in-memory list.  Spans nest on one stack per process: a pass runs one cell
at a time, and the watchdog's helper thread runs only while its caller waits
on it.  Worker processes of the ``core.parallel`` pool are forked from the
pass process, so they inherit the wrappers; each starts an empty span list
and writes it, with the counters of the stores it opened, to ``trace_dir``
when it exits.  :meth:`Tracer.end_pass` merges those files with the parent's
spans and writes every span of the pass to ``trace_dir/spans.json`` as
``[pass id, process, id, parent, name, start ns, end ns]``.  A worker's
top-level task span gets, as parent, ``"main:<id>"`` of the ``map_tasks``
span whose interval holds it (``perf_counter_ns`` is system-wide on Linux).

Self time is a span's duration minus the time its children cover.  Counts
come from span counts and from the layers' public snapshots
(``ArtifactStore.stats``, ``perf.cache.cache_stats()``).
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import multiprocessing.util
import os
import statistics
import sys
import time
from pathlib import Path

#: the tracer of this process (inherited by forked pool workers)
_ACTIVE: "Tracer | None" = None


def _count_records(tracer: "Tracer", parent: str, args, result) -> None:
    if not parent.startswith("formats"):
        tracer.counters["formats.records_parsed"] += len(result)


def _count_infra_failures(tracer: "Tracer", parent: str, args, result) -> None:
    tracer.counters["core.transplant.infra_failures"] += len(result.infra_failures)


def _count_decoded_files(tracer: "Tracer", parent: str, args, result) -> None:
    if parent.startswith("store.codec.decode"):
        return
    files = getattr(result, "files", None)  # SuiteResult
    if files is None and hasattr(result, "result"):
        files = result.result.files  # TransplantResult
    if files is not None:
        tracer.counters["store.codec.decoded_files"] += len(files)
    elif hasattr(result, "results"):  # FileResult
        tracer.counters["store.codec.decoded_files"] += 1


def _note_store(tracer: "Tracer", parent: str, args, result) -> None:
    store = args[0]
    tracer.stores[id(store)] = store


#: (module, function, span name, result hook)
FUNCTIONS = (
    ("repro.corpus.generate", "build_all_suites", "corpus", None),
    ("repro.corpus.generate", "build_suite", "corpus", None),
    ("repro.corpus.generate", "generate_corpus", "corpus", None),
    ("repro.formats", "parse_test_text", "formats", _count_records),
    ("repro.formats", "parse_test_file", "formats", _count_records),
    ("repro.dialects.translator", "translate", "dialects.translate", None),
    ("repro.dialects.translator", "translate_script", "dialects.translate_script", None),
    ("repro.sqlparser.tokenizer", "tokenize", "sqlparser.tokenize", None),
    ("repro.engine.parser", "parse_sql", "engine.parse", None),
    ("repro.core.comparison", "compare_query_result", "core.comparison", None),
    ("repro.core.transplant", "run_transplant", "core.transplant", _count_infra_failures),
    ("repro.core.coverage", "measure_coverage", "core.coverage", None),
    ("repro.core.coverage", "combine_reports", "core.coverage", None),
    ("repro.store.keys", "canonical_bytes", "store.keys", None),
    ("repro.store.keys", "key_digest", "store.keys", None),
    ("repro.store.keys", "content_hash", "store.keys", None),
    ("repro.store.keys", "suite_content_hash", "store.keys", None),
    ("repro.store.keys", "file_result_key", "store.keys", None),
    ("repro.store.keys", "analysis_file_key", "store.keys", None),
    ("repro.store.keys", "donor_file_key", "store.keys", None),
    ("repro.store.codec", "encode_file_result", "store.codec.encode", None),
    ("repro.store.codec", "encode_analysis_partial", "store.codec.encode", None),
    ("repro.store.codec", "encode_suite_result", "store.codec.encode", None),
    ("repro.store.codec", "encode_transplant_result", "store.codec.encode", None),
    ("repro.store.codec", "encode_transplant_bundle", "store.codec.encode", None),
    ("repro.store.codec", "decode_file_result", "store.codec.decode", _count_decoded_files),
    ("repro.store.codec", "decode_analysis_partial", "store.codec.decode", None),
    ("repro.store.codec", "decode_suite_result", "store.codec.decode", _count_decoded_files),
    ("repro.store.codec", "decode_transplant_result", "store.codec.decode", _count_decoded_files),
    ("repro.store.codec", "decode_transplant_bundle", "store.codec.decode", _count_decoded_files),
    ("repro.analysis.incremental", "suite_partials", "analysis", None),
    ("repro.analysis.incremental", "direct_report", "analysis", None),
    ("repro.analysis.features", "file_command_census", "analysis.file", None),
    ("repro.analysis.statements", "file_statement_profile", "analysis.file", None),
    ("repro.analysis.predicates", "file_predicate_profile", "analysis.file", None),
    ("repro.analysis.filesize", "file_size_profile", "analysis.file", None),
)

#: (module, class, method, span name, result hook)
METHODS = (
    ("repro.engine.session", "Session", "execute", "engine.execute", None),
    ("repro.adapters.sqlite_adapter", "SQLite3Adapter", "execute", "adapters.sqlite3", None),
    ("repro.core.runner", "TestRunner", "run_file", "core.runner.file", None),
    ("repro.store.artifacts", "ArtifactStore", "load", "store.load", _note_store),
    ("repro.store.artifacts", "ArtifactStore", "save", "store.save", _note_store),
)

#: perf.cache caches whose hit rates are reported
CACHES = ("plan", "tokenize", "translate", "statement_type", "fault_match")

ROOT = "experiments.pass"


class _TimedTask:
    """Picklable stand-in for a pool task function: runs it inside a span."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, *args):
        if _ACTIVE is None:
            return self.fn(*args)
        return _ACTIVE.traced("core.parallel.task", self.fn)(*args)


def _timed_map_tasks(original):
    @functools.wraps(original)
    def map_tasks(pool, fn, tasks, retry_tasks=None):
        return original(pool, _TimedTask(fn), tasks, retry_tasks)

    return map_tasks


class Tracer:
    """Spans and counters of one pass in one process."""

    def __init__(self, pass_id: str, trace_dir: str):
        self.pass_id = pass_id
        self.trace_dir = Path(trace_dir)
        self._reset()
        self.workers: list[dict] = []
        #: (start, end, id) of the parent's map_tasks spans, set by end_pass
        self.maps: list[tuple[int, int, int]] = []

    def _reset(self) -> None:
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.stack: list[tuple[int, str]] = []
        self.counters: collections.Counter = collections.Counter()
        self.stores: dict[int, object] = {}
        self._ids = itertools.count(1)

    def traced(self, name: str, func, hook=None):
        """``func`` wrapped so that each call records a span named ``name``."""
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent_id, parent_name = stack[-1] if stack else (0, "")
            span_id = next(tracer._ids)
            stack.append((span_id, name))
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((span_id, parent_id, name, start, end))
            if hook is not None:
                hook(tracer, parent_name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        global _ACTIVE
        _ACTIVE = self
        # pass_process.import_repro() has loaded every module a pass can reach
        modules = [module for key, module in sys.modules.items() if key == "repro" or key.startswith("repro.")]
        for module_name, attribute, name, hook in FUNCTIONS:
            original = getattr(sys.modules[module_name], attribute)
            wrapper = self.traced(name, original, hook)
            for module in modules:
                namespace = vars(module)
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = wrapper
                    elif type(value) is dict:
                        for inner_key, inner_value in list(value.items()):
                            if inner_value is original:
                                value[inner_key] = wrapper
        for module_name, class_name, attribute, name, hook in METHODS:
            owner = getattr(sys.modules[module_name], class_name)
            setattr(owner, attribute, self.traced(name, vars(owner)[attribute], hook))
        pool_class = sys.modules["repro.core.parallel"].WorkerPool
        pool_class.map_tasks = self.traced("core.parallel.map", _timed_map_tasks(vars(pool_class)["map_tasks"]))
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        # runs in a freshly forked pool worker, after multiprocessing cleared
        # the inherited finalizers
        self._reset()
        multiprocessing.util.Finalize(self, Tracer._dump_worker, args=(self,), exitpriority=100)

    def _dump_worker(self) -> None:
        payload = {
            "spans": self.spans,
            "stores": [store.stats.snapshot() for store in self.stores.values()],
            "counters": dict(self.counters),
        }
        (self.trace_dir / f"worker-{os.getpid()}.json").write_text(json.dumps(payload))

    def begin_pass(self) -> None:
        self.stack.append((next(self._ids), ROOT))
        self._root_start = time.perf_counter_ns()

    def end_pass(self) -> None:
        end = time.perf_counter_ns()
        root_id, _ = self.stack.pop()
        self.spans.append((root_id, 0, ROOT, self._root_start, end))
        self.maps = [(start, end, span_id) for span_id, _, name, start, end in self.spans if name == "core.parallel.map"]
        for path in sorted(self.trace_dir.glob("worker-*.json")):
            worker = json.loads(path.read_text())
            worker["process"] = path.stem
            self.workers.append(worker)
            for key, value in worker["counters"].items():
                self.counters[key] += value
        records = [[self.pass_id, "main", *span] for span in self.spans]
        for worker in self.workers:
            for span_id, parent_id, name, start, end in worker["spans"]:
                # a worker's top-level span is a task of the parent's map_tasks call
                parent = parent_id if parent_id else f"main:{self._map_of(start, end)}"
                records.append([self.pass_id, worker["process"], span_id, parent, name, start, end])
        (self.trace_dir / "spans.json").write_text(json.dumps({"pass_id": self.pass_id, "spans": records}))

    def _map_of(self, start: int, end: int) -> int:
        """Id of the parent's ``map_tasks`` span whose interval holds ``[start, end]`` (0 if none)."""
        for map_start, map_end, span_id in self.maps:
            if map_start <= start and end <= map_end:
                return span_id
        return 0

    def layer_metrics(self, cache_stats: dict, store_summary: dict) -> dict:
        """Per-layer metrics of the pass: ``{"values": {...}, "bases": {...}}``.

        Times ending in ``_s`` are summed self times over every process, except
        ``core.runner.file_p50_s``/``file_max_s`` (per-file durations),
        ``core.parallel.parent_wait_s`` (the parent's self time in
        ``map_tasks``) and ``core.parallel.worker_busy_s`` (summed task
        durations).  ``bases`` gives each ratio as ``numerator/denominator``.
        """
        self_ns: collections.Counter = collections.Counter()
        calls: collections.Counter = collections.Counter()
        entries: collections.Counter = collections.Counter()
        file_ns: list[int] = []
        task_groups: dict[int, list[int]] = collections.defaultdict(list)
        root_ns = root_self_ns = 0
        processes = [self.spans] + [worker["spans"] for worker in self.workers]
        for index, spans in enumerate(processes):
            names = {span_id: name for span_id, _, name, _, _ in spans}
            covered: collections.Counter = collections.Counter()
            for _, parent_id, _, start, end in spans:
                if parent_id in names:
                    covered[parent_id] += end - start
            for span_id, parent_id, name, start, end in spans:
                duration = end - start
                self_ns[name] += duration - covered[span_id]
                calls[name] += 1
                if names.get(parent_id) != name:
                    entries[name] += 1
                if name == "core.runner.file":
                    file_ns.append(duration)
                elif name == "core.parallel.task":
                    task_groups[self._map_of(start, end) if index else parent_id].append(duration)
                elif name == ROOT and index == 0:
                    root_ns, root_self_ns = duration, duration - covered[span_id]

        store = _merged_store_stats(
            [store.stats.snapshot() for store in self.stores.values()]
            + [snapshot for worker in self.workers for snapshot in worker["stores"]]
        )
        analysis = store["namespaces"].get("file-analysis", {"hits": 0, "misses": 0})
        worker_task_ns = [
            end - start
            for worker in self.workers
            for _, _, name, start, end in worker["spans"]
            if name == "core.parallel.task"
        ]
        makespan = sum(max(group) for group in task_groups.values())
        balanced = sum(statistics.mean(group) for group in task_groups.values())
        ratios = {
            "store.hit_rate": (store["hits"], store["hits"] + store["misses"]),
            "analysis.partial_reuse_ratio": (analysis["hits"], analysis["hits"] + analysis["misses"]),
            "core.parallel.shard_imbalance": (makespan / 1e9, balanced / 1e9),
            "trace.unattributed_share": (root_self_ns / 1e9, root_ns / 1e9),
        }
        for cache in CACHES:
            stats = cache_stats.get(cache, {"hits": 0, "misses": 0})
            ratios[f"perf.cache.{cache}.hit_rate"] = (stats["hits"], stats["hits"] + stats["misses"])

        def seconds(*names: str) -> float:
            return sum(self_ns[name] for name in names) / 1e9

        values = {
            "corpus.build_s": seconds("corpus"),
            "corpus.files_recorded": store["namespaces"].get("file-donor", {"misses": 0})["misses"],
            "formats.parse_s": seconds("formats"),
            "formats.records_parsed": self.counters["formats.records_parsed"],
            "dialects.translate_s": seconds("dialects.translate", "dialects.translate_script"),
            "dialects.translate_calls": calls["dialects.translate"],
            "sqlparser.tokenize_s": seconds("sqlparser.tokenize"),
            "sqlparser.tokenize_calls": calls["sqlparser.tokenize"],
            "engine.parse_s": seconds("engine.parse"),
            "engine.execute_s": seconds("engine.execute"),
            "engine.statements": calls["engine.execute"],
            "adapters.sqlite3_s": seconds("adapters.sqlite3"),
            "adapters.sqlite3_statements": calls["adapters.sqlite3"],
            "core.runner.files": len(file_ns),
            "core.runner.file_p50_s": statistics.median(file_ns) / 1e9 if file_ns else 0.0,
            "core.runner.file_max_s": max(file_ns, default=0) / 1e9,
            "core.comparison.compare_s": seconds("core.comparison"),
            "core.comparison.compares": calls["core.comparison"],
            "core.transplant.cells": calls["core.transplant"],
            "core.transplant.cell_s": seconds("core.transplant"),
            "core.transplant.infra_failures": self.counters["core.transplant.infra_failures"],
            "core.coverage.measure_s": seconds("core.coverage"),
            "core.parallel.tasks": calls["core.parallel.task"],
            "core.parallel.parent_wait_s": seconds("core.parallel.map"),
            "core.parallel.worker_busy_s": sum(worker_task_ns) / 1e9,
            "store.lookups": store["hits"] + store["misses"],
            "store.writes": store["writes"],
            "store.bytes_written": store_summary["bytes_written"],
            "store.errors": store["errors"],
            "store.load_s": seconds("store.load"),
            "store.save_s": seconds("store.save"),
            "store.codec.encode_s": seconds("store.codec.encode"),
            "store.codec.decode_s": seconds("store.codec.decode"),
            "store.codec.decoded_files": self.counters["store.codec.decoded_files"],
            "store.keys.hash_s": seconds("store.keys"),
            "store.keys.hash_calls": entries["store.keys"],
            "analysis.scan_s": seconds("analysis", "analysis.file"),
            "analysis.files_scanned": calls["analysis.file"],
        }
        bases = {}
        for metric, (numerator, denominator) in ratios.items():
            values[metric] = numerator / denominator if denominator else 0.0
            bases[metric] = f"{numerator:g}/{denominator:g}"
        return {"values": values, "bases": bases}


def _merged_store_stats(snapshots: list[dict]) -> dict:
    """Sum of ``StoreStats.snapshot()`` counters over every store the pass used."""
    merged = {"hits": 0, "misses": 0, "writes": 0, "errors": 0, "namespaces": {}}
    for snapshot in snapshots:
        for key in ("hits", "misses", "writes", "errors"):
            merged[key] += snapshot[key]
        for namespace, bucket in snapshot["namespace_lookups"].items():
            total = merged["namespaces"].setdefault(namespace, {"hits": 0, "misses": 0})
            total["hits"] += bucket["hits"]
            total["misses"] += bucket["misses"]
    return merged
