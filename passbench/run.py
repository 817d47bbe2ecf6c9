"""Benchmark of full reproduction passes, end to end and per layer.

Usage, from the repository root::

    python3 passbench/run.py --workload cold_full --seed 1 --seconds 40 --trace 0

A pass is one ``python -m repro.experiments``-equivalent campaign: all
registered experiments through ``stream_experiments(..., max_inflight=1)`` at
scale 0.5, in a freshly forked process of a pass server (``pass_process.py``).
A run derives several corpus seeds from ``--seed``, gives every corpus the
same number of passes, and checks each pass against a storeless
``workers=1`` reference pass of the same corpus.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of traced passes
(``tracing.py``).  The last stdout line is one JSON object.  See README.md
for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
SCALE = 0.5
EXPERIMENTS = 14
#: corpus seeds per untraced run.  Host noise moves a pass more than its
#: corpus does, so a run spends its time on repeated passes of two corpora
#: rather than on the reference passes of more.
CORPORA = 2
TRACED_CORPORA = 1
SETUPS = 5
#: set-ups that run before the reference passes; the rest run after the
#: timed passes, so that setup_s samples the host at both ends of a run
SETUPS_FIRST = 3
PASS_TIMEOUT_S = 60
SPIN_ITERATIONS = 1_000_000

#: workload -> pool workers; every pass of either starts with an empty store
WORKLOADS = {
    "cold_full": 1,
    "sharded_cold": 2,
}

#: layer counts that must repeat exactly across two traced passes of one corpus
REPEATED_COUNTS = (
    "store.lookups",
    "store.writes",
    "store.bytes_written",
    "store.errors",
    "store.codec.decoded_files",
    "store.keys.hash_calls",
    "core.runner.files",
    "engine.statements",
    "dialects.translate_calls",
    "core.comparison.compares",
)

SETUP_CODE = (
    "import compileall, sys\n"
    "ok = compileall.compile_dir(sys.argv[1], quiet=1)\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import pass_process\n"
    "pass_process.import_repro()\n"
    "sys.exit(0 if ok else 1)\n"
)


class Bench:
    """One run: set-ups, untimed references, then gated timed or traced passes."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: int, trace: bool):
        self.root = root
        # metric names and units are declared once, in BENCHMARK.json
        spec = json.loads((root / "BENCHMARK.json").read_text())
        self.units = {metric["name"]: metric["unit"] for metric in spec["per_layer" if trace else "end_to_end"]}
        self.workload = workload
        self.workers = WORKLOADS[workload]
        self.seconds = seconds
        self.trace = trace
        rng = random.Random(seed)
        seeds = [rng.randrange(1, 2**31) for _ in range(CORPORA)]
        self.corpora = seeds[:TRACED_CORPORA] if trace else seeds
        self.work = root / ".passbench" / "run"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.pycache = self.work / "pycache"
        self.problems: list[str] = []
        self.spins: list[float] = []
        self.lanes: list[subprocess.Popen] = []
        self.attempted = 0
        self.failed = 0

    # -- processes -------------------------------------------------------------------

    def env(self, pycache: Path) -> dict:
        env = {key: value for key, value in os.environ.items() if not key.startswith(("REPRO_", "PYTHON"))}
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONPYCACHEPREFIX"] = str(pycache)
        # no process may fall back to the user's ~/.cache/repro-store; each
        # pass gets its own REPRO_STORE_DIR from the pass server
        env["REPRO_STORE_DIR"] = str(self.work / "unused-store")
        return env

    def set_up(self, index: int) -> float:
        """Interpreter start, bytecode compilation of ``repro`` and its imports, timed.

        The first set-up's compiled files become the bytecode cache of every pass.
        """
        prefix = self.work / f"setup-{index}"
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(self.root / "src" / "repro"), str(HERE)],
            env=self.env(prefix),
            cwd=self.root,
            capture_output=True,
            text=True,
            timeout=PASS_TIMEOUT_S,
        )
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            raise SystemExit(f"set-up failed:\n{done.stderr}")
        if index == 0:
            prefix.rename(self.pycache)
        else:
            shutil.rmtree(prefix)
        return elapsed

    def start_lanes(self) -> None:
        """One pass server per lane, up to nproc: lane 0 runs the timed passes."""
        self.lanes = [
            subprocess.Popen(
                [sys.executable, str(HERE / "pass_process.py")],
                env=self.env(self.pycache),
                cwd=self.root,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            for _ in range(min(2, os.cpu_count() or 1))
        ]

    def stop_lanes(self) -> None:
        for lane in self.lanes:
            lane.stdin.close()
            lane.wait()

    def run_pass(self, pass_id: str, seed: int, store_dir: Path, use_store=True, workers=1, traced=False, lane=0):
        """One pass in a freshly forked process: its result dict, or None with a problem recorded.

        Every pass gets its own store directory, so it can never read another
        pass's artifacts: the ablations experiment writes to the default store
        even when the context is storeless.
        """
        store_dir.mkdir(parents=True, exist_ok=True)
        name = pass_id.replace("/", "-")
        trace_dir = self.work / "trace" / name
        if traced:
            trace_dir.mkdir(parents=True)
        request = {
            "spec": {
                "seed": seed,
                "scale": SCALE,
                "workers": workers,
                "use_store": use_store,
                "trace": traced,
                "pass_id": pass_id,
                "trace_dir": str(trace_dir),
            },
            "store_dir": str(store_dir),
            "result_path": str(self.work / f"{name}.result.json"),
            "stderr_path": str(self.work / f"{name}.stderr"),
            "timeout": PASS_TIMEOUT_S,
        }
        server = self.lanes[lane]
        server.stdin.write(json.dumps(request) + "\n")
        server.stdin.flush()
        answer = server.stdout.readline()
        if not answer:
            raise SystemExit(f"pass server exited with code {server.wait()}")
        status = json.loads(answer)["status"]
        if status != 0:
            errors = Path(request["stderr_path"]).read_text(errors="replace").strip()[-2000:]
            self.problems.append(f"{pass_id}: exit {status}: {errors}")
            return None
        result = json.loads(Path(request["result_path"]).read_text())
        result["pass_id"] = pass_id
        return result

    # -- phases ----------------------------------------------------------------------

    def prepare(self) -> None:
        """Untimed: one reference pass per corpus, up to nproc at once."""
        self.references: list = [None] * len(self.corpora)

        def run_lane(lane: int) -> None:
            for index in range(lane, len(self.corpora), len(self.lanes)):
                store_dir = self.work / "stores" / f"reference-c{index}"
                self.references[index] = self.run_pass(f"reference/c{index}", self.corpora[index], store_dir, use_store=False, lane=lane)

        with ThreadPoolExecutor(max_workers=len(self.lanes)) as pool:
            for done in [pool.submit(run_lane, lane) for lane in range(len(self.lanes))]:
                done.result()
        for index, reference in enumerate(self.references):
            if reference is not None and (len(reference["digests"]) != EXPERIMENTS or reference["infra_failures"]):
                self.problems.append(f"reference/c{index}: {len(reference['digests'])} experiments, {reference['infra_failures']} infrastructure failures")
                self.references[index] = None

    def timed_pass(self, pass_id: str, index: int, traced: bool = False):
        """One gated pass of corpus ``index``: the result, or None if it failed."""
        self.spins.append(spin())
        self.attempted += 1
        store_dir = self.work / "stores" / pass_id.replace("/", "-")
        result = self.run_pass(pass_id, self.corpora[index], store_dir, workers=self.workers, traced=traced)
        shutil.rmtree(store_dir, ignore_errors=True)
        problems = self.gate(result, self.references[index])
        if problems:
            self.failed += 1
            self.problems.extend(f"{pass_id}: {problem}" for problem in problems)
        return result

    def gate(self, result, reference) -> list[str]:
        if result is None:
            return ["pass process failed"]
        if reference is None:
            return ["no reference to check against"]
        problems = []
        if result["digests"] != reference["digests"]:
            differing = sorted(
                key for key in set(result["digests"]) | set(reference["digests"])
                if result["digests"].get(key) != reference["digests"].get(key)
            )
            problems.append(f"experiment texts differ from the reference: {', '.join(differing)}")
        if result["records"] != reference["records"]:
            problems.append(f"{result['records']} matrix records, reference has {reference['records']}")
        if result["infra_failures"]:
            problems.append(f"{result['infra_failures']} infrastructure failures")
        return problems

    # -- runs ------------------------------------------------------------------------

    def end_to_end(self, setups: list[float]) -> tuple[dict, list[float]]:
        passes: list[list[dict]] = [[] for _ in self.corpora]
        rounds = 1
        round_index = 0
        while round_index < rounds:
            start = time.perf_counter()
            for index in range(len(self.corpora)):
                result = self.timed_pass(f"{self.workload}/c{index}/r{round_index}", index)
                if result is not None:
                    passes[index].append(result)
            if round_index == 0:
                # as many whole rounds as fit in --seconds, judged by the first
                rounds = max(1, round(self.seconds / (time.perf_counter() - start)))
            round_index += 1
        if not all(passes):
            raise SystemExit("no pass of some corpus completed:\n" + "\n".join(self.problems))
        setups += [self.set_up(index) for index in range(len(setups), SETUPS)]

        def per_corpus(key) -> list[float]:
            return [statistics.median(key(result) for result in results) for results in passes]

        walls = per_corpus(lambda result: result["wall_s"])
        records = sum(results[0]["records"] for results in passes)
        metrics = {
            "pass_s": statistics.mean(walls),
            "records_per_s": records / sum(walls),
            "cpu_s": statistics.mean(per_corpus(lambda result: result["cpu_s"])),
            "peak_rss_mb": statistics.mean(per_corpus(lambda result: result["peak_rss_mb"])),
            "store_mb": statistics.mean(per_corpus(lambda result: result["store"]["bytes"])) / 1e6,
            "setup_s": statistics.median(setups),
        }
        print(f"{len(self.corpora)} corpora x {rounds} rounds; per-corpus median pass_s: {', '.join(f'{wall:.3f}' for wall in walls)}")
        for name, value in metrics.items():
            print(f"  {name:14s} {value:12.4f} {self.units[name]}")
        return self.report(metrics), [result["wall_s"] for results in passes for result in results]

    def report(self, values: dict) -> dict:
        if set(values) != set(self.units):
            raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(self.units))}")
        return {name: {"value": value, "unit": self.units[name]} for name, value in values.items()}

    def per_layer(self) -> tuple[dict, list[float]]:
        metrics: dict[str, list[float]] = {}
        bases: dict[str, str] = {}
        walls = []
        for index in range(len(self.corpora)):
            plain, traced = [], []
            for attempt in range(2):
                plain.append(self.timed_pass(f"{self.workload}/c{index}/plain{attempt}", index))
                traced.append(self.timed_pass(f"{self.workload}/c{index}/traced{attempt}", index, traced=True))
            if None in plain or None in traced:
                raise SystemExit("a pass of the traced run did not complete:\n" + "\n".join(self.problems))
            walls += [result["wall_s"] for result in plain]
            first, second = (result["layers"]["values"] for result in traced)
            first_bases, second_bases = (result["layers"]["bases"] for result in traced)
            for name in REPEATED_COUNTS:
                if first[name] != second[name]:
                    self.problems.append(f"c{index}: {name} did not repeat across traced passes: {first[name]} vs {second[name]}")
            for name in first:
                metrics.setdefault(name, []).append(statistics.median([first[name], second[name]]))
            for name, base in first_bases.items():
                bases[name] = f"{base}; {second_bases[name]}"
            overhead = statistics.median(r["wall_s"] for r in traced) / statistics.median(r["wall_s"] for r in plain)
            metrics.setdefault("trace.overhead_ratio", []).append(overhead)
            self.keep_spans(index)
        values = {name: statistics.mean(samples) for name, samples in metrics.items()}
        for name, value in values.items():
            base = f" ({bases[name]})" if name in bases else ""
            print(f"  {name:38s} {value:14.6g} {self.units[name]}{base}")
        return self.report(values), walls

    def keep_spans(self, index: int) -> None:
        """Keep the traced passes' spans under .passbench/trace/<workload>/ for inspection."""
        kept = self.root / ".passbench" / "trace" / self.workload
        if index == 0:
            shutil.rmtree(kept, ignore_errors=True)
        kept.mkdir(parents=True, exist_ok=True)
        for attempt in range(2):
            name = f"{self.workload}-c{index}-traced{attempt}"
            shutil.copy(self.work / "trace" / name / "spans.json", kept / f"{name}.spans.json")

    def run(self) -> dict:
        setups = [self.set_up(index) for index in range(1 if self.trace else SETUPS_FIRST)]
        self.start_lanes()
        self.prepare()
        metrics, walls = self.per_layer() if self.trace else self.end_to_end(setups)
        spins = self.spins
        print(f"host spin: median {statistics.median(spins):.4f} s over {len(spins)}, one before each timed pass (range {min(spins):.4f}-{max(spins):.4f} s)")
        print(f"pass tail: {tail(walls)}")
        for problem in self.problems:
            print(f"FAILED {problem}")
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def spin() -> float:
    """A fixed pure-Python loop, timed: a change in it is the host, not the program."""
    start = time.perf_counter()
    total = 0
    for value in range(SPIN_ITERATIONS):
        total += value & 7
    return time.perf_counter() - start


def tail(walls: list[float]) -> str:
    """The highest percentile of pass wall times with at least 10 passes beyond it."""
    count = len(walls)
    if count <= 10:
        return f"n={count} passes; no percentile has 10 passes beyond it"
    rank = count - 10
    return f"p{math.floor(100 * rank / count)} = {sorted(walls)[rank - 1]:.4f} s (n={count} passes)"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "experiments" / "stream.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print(f"error: {root} holds no repro sources (src/repro) or no BENCHMARK.json; run from the repository root", file=sys.stderr)
        return 2
    # a terminated run still stops its pass servers and removes its working files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench = Bench(root, arguments.workload, arguments.seed, arguments.seconds, bool(arguments.trace))
    try:
        outcome = bench.run()
    finally:
        bench.stop_lanes()
        shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
