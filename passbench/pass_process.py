"""Pass server: runs each reproduction pass in a freshly forked process.

``run.py`` starts this script once per lane.  The server imports every
``repro`` module once, then reads one JSON request per stdin line and forks
a child for it.  The child runs one pass and writes its measurements as JSON
to ``result_path``; the server waits for the child and answers with one line,
``{"status": <exit code, or "timeout">}``.  A forked child holds the imported
modules and nothing else: the server never runs a pass, so the program's
in-process caches start cold in every pass, as they do for a user who runs
``python -m repro.experiments``.  Forking only saves the import, which
``run.py``'s set-up step times separately.

A request::

    {"spec": {"seed": 123, "scale": 0.5, "workers": 1, "use_store": true, "trace": false,
              "pass_id": "cold_full/c0/r0", "trace_dir": "..."},
     "store_dir": "...", "result_path": "...", "stderr_path": "...",
     "timeout": 60}

The pass runs every registered experiment through ``stream_experiments(...,
max_inflight=1)`` on an :class:`ExperimentContext` with the journal off and
the default store, which is ``store_dir`` (``REPRO_STORE_DIR``).  It is timed
from the first pull to ``context.close()``.  A child that outlives
``timeout`` is killed together with its pool workers (its process group).
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import pkgutil
import resource
import signal
import sys
import threading
import time
import traceback


def _cpu_seconds() -> float:
    """CPU time of this process plus every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def import_repro(package_name: str = "repro") -> None:
    """Import every ``repro`` module a pass can reach.

    Imports are set-up work, timed by ``run.py``'s set-up step, so none
    happens inside a timed pass; the tracer also needs every module loaded to
    patch each reference to a wrapped function.
    """
    package = importlib.import_module(package_name)
    for info in pkgutil.iter_modules(package.__path__, package_name + "."):
        # test helpers register chaos adapters; __main__ modules are entry points
        if info.name == "repro.testing" or info.name.endswith(".__main__"):
            continue
        importlib.import_module(info.name)
        if info.ispkg:
            import_repro(info.name)


def run_pass(spec: dict) -> dict:
    """Run one pass in this process and return its measurements."""
    from repro.experiments.context import ExperimentContext
    from repro.experiments.stream import stream_experiments
    from repro.perf.cache import cache_stats
    from repro.store import get_default_store

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer(spec["pass_id"], spec["trace_dir"])
        tracer.install()

    context = ExperimentContext(
        scale=spec["scale"], seed=spec["seed"], workers=spec["workers"], use_store=spec["use_store"], journal=None
    )

    digests: dict[str, str] = {}
    if tracer is not None:
        tracer.begin_pass()
    cpu_start = _cpu_seconds()
    start = time.perf_counter()
    for result in stream_experiments(context=context, max_inflight=1):
        digests[result.experiment_id] = hashlib.sha256(result.text.encode("utf-8")).hexdigest()
    # close() joins the worker pool, so its processes are reaped (and their
    # CPU time is in RUSAGE_CHILDREN) before the clocks are read
    context.close()
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_seconds() - cpu_start
    if tracer is not None:
        tracer.end_pass()

    # outside the timed section: the matrices were adopted by the pass, so
    # reading them runs nothing
    records = sum(
        cell.result.total_cases for matrix in (context.matrix, context.translated_matrix) for cell in matrix.entries.values()
    )
    maxrss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    # the default store the pass opened; its lifetime counters are this pass's
    snapshot = get_default_store().snapshot() if spec["use_store"] else None
    payload = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": maxrss_kb * 1024 / 1e6,
        "digests": digests,
        "records": records,
        "infra_failures": len(context.infra_failures()),
        "store": None
        if snapshot is None
        else {
            "bytes": snapshot["bytes"],
            # every pass starts with an empty store
            "bytes_written": snapshot["bytes"],
            "misses": snapshot["misses"],
            "writes": snapshot["writes"],
        },
    }
    if tracer is not None:
        payload["layers"] = tracer.layer_metrics(cache_stats(), payload["store"])
    return payload


def _child(request: dict) -> int:
    """Body of a forked child: one pass, its result written to ``result_path``."""
    os.setpgid(0, 0)
    # stdin and stdout are the server's protocol pipes: keep the pass off them
    with open(os.devnull, "rb") as nothing_in, open(os.devnull, "wb") as nothing_out:
        os.dup2(nothing_in.fileno(), 0)
        os.dup2(nothing_out.fileno(), 1)
    with open(request["stderr_path"], "wb") as errors:
        os.dup2(errors.fileno(), 2)
    os.environ["REPRO_STORE_DIR"] = request["store_dir"]
    try:
        payload = run_pass(request["spec"])
        with open(request["result_path"], "w") as handle:
            json.dump(payload, handle)
        return 0
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        sys.stdout.flush()
        sys.stderr.flush()


def _expire(pid: int, expired: threading.Event) -> None:
    expired.set()
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the child ended just before the deadline


def serve() -> int:
    import_repro()
    for line in sys.stdin:
        request = json.loads(line)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = _child(request)
            finally:
                os._exit(code)
        # the watchdog thread lives only while the child runs, never across a fork
        expired = threading.Event()
        watchdog = threading.Timer(request["timeout"], _expire, args=(pid, expired))
        watchdog.start()
        _, wait_status = os.waitpid(pid, 0)
        watchdog.cancel()
        watchdog.join()
        status = "timeout" if expired.is_set() else os.waitstatus_to_exitcode(wait_status)
        print(json.dumps({"status": status}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(serve())
