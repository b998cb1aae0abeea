"""Child-process side of the benchmark.

``run.py`` starts this script with ``PYTHONPATH`` pointing at the
checkout's ``src``; it never imports ``repro`` itself.  Modes:

``warm-table2`` / ``scaled-sweep``
    One long-lived evaluation process: timed set-up, then probe-bracketed
    operations until its time share is spent.  With ``--trace 1`` the
    operations run untraced, traced (the first under cProfile as well),
    then untraced again after every original binding is restored.
``cold-traced``
    A traced ``repro.cli table2`` in a fresh interpreter.
``serve-traced``
    ``eval-serve`` with the tracer installed; the first job it executes
    also runs under cProfile.  Stops on SIGINT and writes its spans.
``payloads``
    The canonical payload digests of every single-model Table II job,
    computed in-process, which the served results are checked against.

Results go to the JSON file named by ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import hashlib
import json
import os
import pstats
import random
import resource
import shutil
import sys
import threading
import time
from pathlib import Path

import calib
import tracing

HERE = Path(__file__).resolve().parent
CONFIG = json.loads((HERE / "config.json").read_text())


def run_digest(run_dir: Path) -> tuple:
    """sha256 over sorted checkpoints (name NUL bytes NUL), file count."""
    files = sorted(p for p in Path(run_dir).glob("*.jsonl")
                   if p.name != "commits.jsonl")
    combined = hashlib.sha256()
    for path in files:
        combined.update(path.name.encode() + b"\0" + path.read_bytes()
                        + b"\0")
    return combined.hexdigest(), len(files)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_hooks(tracer: tracing.Tracer) -> dict:
    """Counters read where the work happens, as the traced calls return."""

    def wrote(args, kwargs, result):
        text = args[1] if len(args) > 1 else kwargs["text"]
        tracer.count("results_io.bytes_written", len(text.encode("utf-8")))

    def ran(args, kwargs, result):
        stats = args[0].last_stats
        if stats is None:
            return
        tracer.count("engine.units", len(stats.units()))
        tracer.count("engine.retries", stats.total_retries)
        tracer.count("engine.units_failed", stats.failed)
        tracer.count("runcache.hits", stats.cache_hits)
        tracer.count("runcache.misses", stats.cache_misses)

    return {"results_io.atomic_write_text": wrote, "runner.run": ran}


def perf_delta(before: dict) -> dict:
    from repro.core import perfstats

    moved = perfstats.delta(before, perfstats.snapshot())
    perception = moved.get("perception", {})
    stages = moved.get(perfstats.STAGE_TIMINGS_NAME, {})
    return {"perception.hits": perception.get("hits", 0),
            "perception.misses": perception.get("misses", 0),
            "sweep.build_wait_s": stages.get("build_wait_ns", 0) / 1e9}


def crosscheck(tracer: tracing.Tracer, profile: cProfile.Profile,
               traced: dict) -> dict:
    """``{name: [tracer calls, cProfile calls]}`` for one profiled span."""
    seen = tracing.cprofile_counts(pstats.Stats(profile).stats,
                                 tracer.code_keys())
    return {name: [traced.get(name, 0), seen[name]] for name in seen}


# -- in-process workloads ------------------------------------------------------


class WarmTable2:
    """Serial full-zoo Table II in one warm process."""

    def setup(self, work: Path, seed: int, index: int) -> None:
        from repro.core.benchmark import build_chipvqa, build_chipvqa_challenge
        from repro.core.harness import EvaluationHarness, run_table2
        from repro.models.zoo import model_names

        build_chipvqa()
        build_chipvqa_challenge()
        self.run_table2 = run_table2
        self.harness = EvaluationHarness()
        self.names = model_names()
        run_dir = work / "setup-run"
        first = run_table2(self.names, self.harness, run_dir=run_dir)
        self.golden = self.payloads(first)
        digest, files = run_digest(run_dir)
        self.setup_ok = (digest == CONFIG["golden_table2_digest"]
                         and files == CONFIG["golden_table2_files"])
        self.notes = [f"warm-table2 setup run digest {digest[:8]}... "
                      f"({files} checkpoints)"]
        shutil.rmtree(run_dir)
        self.answers = CONFIG["table2_answers"]

    def payloads(self, results) -> list:
        from repro.core.engine import EvalEngine

        return [sha(EvalEngine.canonical_payload(cell))
                for name in self.names
                for _, cell in sorted(results[name].items())]

    def op(self):
        return self.run_table2(self.names, self.harness)

    def check(self, result) -> bool:
        return self.payloads(result) == self.golden


class ScaledSweep:
    """Fresh-seed 3-model scaled sweeps over >= 5 shards of 284."""

    def setup(self, work: Path, seed: int, index: int) -> None:
        from repro.core.results_io import verify_run
        from repro.core.sweep import run_scaled_table2

        cfg = CONFIG["scaled"]
        self.run_scaled_table2 = run_scaled_table2
        self.verify_run = verify_run
        self.models = cfg["models"]
        self.total = cfg["shards"] * cfg["shard_size"]
        self.shard_size = cfg["shard_size"]
        self.work = work
        self.seeds = random.Random(f"{seed}:{index}")
        self.answers = self.total * len(self.models) * 2
        self.notes = []
        self.setup_ok = self.check(self._sweep(cfg["warmup_seed"]))

    def _sweep(self, dataset_seed: int):
        self.current = self.work / f"sweep-{dataset_seed}"
        report = self.run_scaled_table2(
            self.models, self.total, dataset_seed,
            shard_size=self.shard_size,
            run_dir=self.current / "run", spill_dir=self.current / "spill")
        return dataset_seed, report

    def op(self):
        return self._sweep(self.seeds.randrange(1, 10 ** 6))

    def check(self, result) -> bool:
        dataset_seed, report = result
        audit = self.verify_run(self.current / "run")
        answers = sum(len(multi.samples[0].records)
                      for settings in report.results.values()
                      for multi in settings.values())
        summary = json.dumps(report.passk_summary(), sort_keys=True)
        self.notes.append(f"scaled-sweep dataset seed {dataset_seed}: "
                          f"passk_summary sha256 {sha(summary)}")
        self.peak_resident = report.peak_resident_questions
        shutil.rmtree(self.current)
        return bool(audit.ok and audit.files and answers == self.answers)


WORKLOADS = {"warm-table2": WarmTable2, "scaled-sweep": ScaledSweep}


def bracketed(fn):
    """Run ``fn`` between two probes: (result, raw s, probe s, probe s)."""
    before = calib.probe_s()
    start = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - start
    return result, raw, before, calib.probe_s()


def profiled_op(workload) -> tuple:
    """One traced op under cProfile too, with a tracer of its own that
    is restored before anything else runs: (crosscheck, output check).
    """
    tracer = tracing.Tracer()
    tracer.install()
    profile = cProfile.Profile()
    tracer.begin_operation()
    profile.enable()
    try:
        result = workload.op()
    finally:
        profile.disable()
        counts = tracer.call_counts()
        tracer.restore()
    return crosscheck(tracer, profile, counts), workload.check(result)


def run_ops(workload, seconds: float, min_ops: int, ops: list) -> None:
    deadline = time.perf_counter() + seconds
    while len(ops) < min_ops or time.perf_counter() < deadline:
        try:
            result, raw, before, after = bracketed(workload.op)
            ok = workload.check(result)
        except Exception as exc:  # a failed op is counted, not fatal
            print(f"operation failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            ops.append([0.0, 1.0, 1.0, False])
            continue
        ops.append([raw, before, after, ok])


def inproc(args) -> dict:
    calib.assert_probe_isolated()
    work = Path(args.work)
    workload = WORKLOADS[args.mode]()
    (_, setup_raw, setup_before, setup_after) = bracketed(
        lambda: workload.setup(work, args.seed, args.index))
    out = {"setup": [setup_raw, setup_before, setup_after],
           "setup_ok": workload.setup_ok, "answers": workload.answers}
    if not args.trace:
        ops: list = []
        run_ops(workload, args.seconds, 2, ops)
        out["ops"] = ops
    else:
        from repro.core import perfstats

        plain: list = []
        traced: list = []
        run_ops(workload, args.seconds / 3, 1, plain)
        checked, profiled_ok = profiled_op(workload)
        tracer = tracing.Tracer()
        tracer.install(hooks=layer_hooks(tracer))
        before = perfstats.snapshot()
        for _ in range(3):
            tracer.begin_operation()
            run_ops(workload, 0, 1, traced)
        tracer.counters.update(perf_delta(before))
        if hasattr(workload, "peak_resident"):
            tracer.counters["sweep.peak_resident_questions"] = \
                workload.peak_resident
        tracer.restore()
        run_ops(workload, args.seconds / 3, 1, plain)
        spans_path = work / "spans.json"
        tracer.dump(str(spans_path), layer_ops=len(traced))
        out.update(ops=plain, traced_ops=traced, crosscheck=checked,
                   profiled_ok=profiled_ok, spans=[str(spans_path)])
    out["rss_mb"] = rss_mb()
    out["notes"] = workload.notes
    return out


# -- traced children -----------------------------------------------------------


def cold_traced(args) -> dict:
    import repro.cli
    from repro.core import perfstats

    tracer = tracing.Tracer()
    tracer.install(hooks=layer_hooks(tracer))
    before = perfstats.snapshot()
    profile = cProfile.Profile() if args.profile else None
    tracer.begin_operation()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        if profile:
            profile.enable()
        try:
            code = repro.cli.main(["table2", "--run-dir", args.run_dir])
        finally:
            if profile:
                profile.disable()
    counts = tracer.call_counts()
    tracer.counters.update(perf_delta(before))
    tracer.restore()
    tracer.dump(args.spans)
    return {"code": code,
            "crosscheck": (crosscheck(tracer, profile, counts)
                           if profile else {})}


def serve_traced(args) -> dict:
    from repro.core import perfstats
    from repro.service import server
    from repro.service.jobs import JobQueue

    tracer = tracing.Tracer()
    tracer.install(hooks=layer_hooks(tracer))
    profile = cProfile.Profile()
    state: dict = {"jobs": 0}
    lock = threading.Lock()
    execute = JobQueue._execute

    def traced_execute(queue, job):
        with lock:
            first = state["jobs"] == 0
            state["jobs"] += 1
        tracer.begin_operation(excluded=first)
        if not first:
            return execute(queue, job)
        # the warm-up job: cross-checked under cProfile, kept out of
        # the per-layer totals
        profile.enable()
        try:
            return execute(queue, job)
        finally:
            profile.disable()
            state["counts"] = tracer.call_counts(
                [threading.get_ident()])
            state["before"] = perfstats.snapshot()

    JobQueue._execute = traced_execute
    try:
        server.main(["--port", "0", "--run-root", args.run_root])
    finally:
        JobQueue._execute = execute
        if "before" in state:
            tracer.counters.update(perf_delta(state["before"]))
        tracer.restore()
        checked = (crosscheck(tracer, profile, state["counts"])
                   if "counts" in state else {})
        tracer.dump(args.spans, crosscheck=checked,
                    layer_ops=max(0, state["jobs"] - 1))
    return {}


def payloads(args) -> dict:
    from repro.core.engine import EvalEngine
    from repro.core.harness import EvaluationHarness, run_table2
    from repro.models.zoo import model_names

    harness = EvaluationHarness()
    digests = {}
    for name in model_names():
        cells = run_table2([name], harness)[name]
        digests[name] = sorted(sha(EvalEngine.canonical_payload(cell))
                               for cell in cells.values())
    return {"payloads": digests}


MODES = {"warm-table2": inproc, "scaled-sweep": inproc,
         "cold-traced": cold_traced, "serve-traced": serve_traced,
         "payloads": payloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--out", required=True)
    parser.add_argument("--work", default=".")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--profile", type=int, default=0)
    parser.add_argument("--run-dir")
    parser.add_argument("--run-root")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    result = MODES[args.mode](args)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
