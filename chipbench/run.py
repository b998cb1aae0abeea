"""ChipVQA end-to-end benchmark with a host-normalised, traced ledger.

Run from the root of a checkout::

    python3 chipbench/run.py --workload warm-table2 --seed 1 --seconds 20 --trace 0

Workloads (see README.md): ``cold-cli``, ``warm-table2``,
``scaled-sweep`` and ``serve``.  Every operation's output is checked;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ledger with ``--trace 1``.

Every timing is host-normalised: raw time x ``calib_ref_ms`` / the mean
of the calibration probes that bracket the operation (``calib.py``);
the raw values are printed beside the normalised ones.  This process
never imports ``repro``; the program runs in child processes built from
the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import calib
import loadgen
import tracing
from worker import CONFIG, run_digest, sha

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REF_S = CONFIG["calib_ref_ms"] / 1000.0

#: End-to-end metrics, reported by every workload (README.md).
E2E = {
    "setup_s": "s",
    "wall_p50_s": "s",
    "answers_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "goodput_jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer ledger from the traced run: name -> unit.  Call counts and
#: self times are per operation; times are host-normalised.
PER_LAYER = {
    "benchmark.build_chipvqa.calls": "count",
    "benchmark.build_chipvqa.self_s": "s",
    "databuild.build_shard.calls": "count",
    "databuild.build_shard.self_s": "s",
    "sweep.build_wait_s": "s",
    "sweep.peak_resident_questions": "count",
    "visual.content_key.calls": "count",
    "visual.content_key.self_s": "s",
    "models.perceive.calls": "count",
    "models.perceive.self_s": "s",
    "models.answer_batch.calls": "count",
    "models.answer_batch.self_s": "s",
    "perception.hit_rate": "ratio",
    "judge.judge.calls": "count",
    "judge.judge.self_s": "s",
    "judge.answers_equivalent.calls": "count",
    "judge.answers_equivalent.self_s": "s",
    "runcache.question_key.calls": "count",
    "runcache.question_key.self_s": "s",
    "runcache.hit_rate": "ratio",
    "runner.run.calls": "count",
    "runner.run.self_s": "s",
    "engine.units": "count",
    "engine.retries": "count",
    "engine.units_failed": "count",
    "engine.canonical_payload.calls": "count",
    "engine.canonical_payload.self_s": "s",
    "results_io.atomic_write_text.calls": "count",
    "results_io.atomic_write_text.self_s": "s",
    "results_io.bytes_written": "bytes",
    "service.submit_ms_p50": "ms",
    "service.queue_wait_ms_p50": "ms",
    "service.polls_per_job": "ratio",
    "service.refused": "count",
    "service.refuse_ms_p50": "ms",
    "service.gen_lag_ms_p90": "ms",
    "service.units_evaluated": "count",
    "host.calib_ms": "ms",
    "host.steal_share": "ratio",
    **{f"host.raw.{name}": unit for name, unit in E2E.items()},
    "trace.overhead_share": "ratio",
}

#: Traced calls whose count and self time go into the ledger as is.
LEDGER_CALLS = [name for name, _, _ in tracing.TARGETS
                if name != "service.submit"]


def pct(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


class Run:
    """One benchmark run: its options, scratch space and probe log."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.work = ROOT / ".bench_work" / f"{self.workload}-{os.getpid()}"
        self.env = dict(os.environ)
        # bytecode is precompiled once and then read, as an installed
        # package would be; a host default of not writing it would make
        # every cold start recompile the package
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env.update(PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED="1")
        self.probes: List[float] = []
        self.notes: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.correct = True

    # -- probes and processes ------------------------------------------------

    def probe(self) -> float:
        value = calib.probe_s()
        self.probes.append(value)
        return value

    def bracket(self, fn):
        """(result, raw s, normalised s) of ``fn`` between two probes."""
        before = self.probe()
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        return result, raw, calib.normalise_time(raw, before, self.probe(),
                                                 REF_S)

    def spawn(self, cmd: List[str], log: str) -> tuple:
        """Run a child to completion: (exit code, its peak RSS in MB)."""
        with open(self.work / log, "ab") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                    stderr=err, env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss / 1024.0

    def worker(self, mode: str, *extra: str) -> dict:
        out = self.work / f"{mode}-{len(os.listdir(self.work))}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), mode,
               "--out", str(out), *extra]
        code, _ = self.spawn(cmd, f"{mode}.log")
        if code != 0:
            raise RuntimeError(f"worker {mode} exited {code}; see "
                               f"{self.work / (mode + '.log')}")
        return json.loads(out.read_text())

    def record(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = False


def op_metrics(norm: Sequence[float], answers: int, limit_s: float
               ) -> Dict[str, float]:
    """Operation-time metrics shared by the non-serving workloads."""
    total = sum(norm)
    return {
        "wall_p50_s": statistics.median(norm),
        "answers_per_s": answers * len(norm) / total,
        "job_p50_ms": 1000.0 * statistics.median(norm),
        "job_p90_ms": 1000.0 * pct(norm, 0.9),
        "goodput_jobs_per_s": sum(t <= limit_s for t in norm) / total,
    }


def both(ops: Sequence[Sequence[float]], answers: int, limit_s: float
         ) -> tuple:
    """:func:`op_metrics` over normalised op times, and over raw ones."""
    good = [op for op in ops if op[3]]
    normed = [calib.normalise_time(raw, b, a, REF_S)
              for raw, b, a, _ in good]
    return (op_metrics(normed, answers, limit_s),
            op_metrics([op[0] for op in good], answers, limit_s))


# -- workloads -----------------------------------------------------------------


def cold_cli(run: Run) -> tuple:
    """Fresh interpreters running ``python -m repro.cli table2``."""
    py = sys.executable
    golden = (CONFIG["golden_table2_digest"], CONFIG["golden_table2_files"])
    setups, setups_raw = [], []
    for _ in range(CONFIG["setup_samples"]["cold-cli"]):
        (code, _), raw, norm = run.bracket(
            lambda: run.spawn([py, "-c", "import repro.cli"], "setup.log"))
        run.correct &= code == 0
        setups.append(norm)
        setups_raw.append(raw)

    def table2(run_dir: Path, cmd: Optional[List[str]] = None):
        cmd = cmd or [py, "-m", "repro.cli", "table2",
                      "--run-dir", str(run_dir)]
        return run.spawn(cmd, "cold.log")

    # the first child after set-up is discarded: it warms the OS caches
    table2(run.work / "discard")
    ops, rss = [], []
    deadline = time.perf_counter() + run.seconds
    while len(ops) < 3 or time.perf_counter() < deadline:
        run_dir = run.work / f"cold-{len(ops)}"
        before = run.probe()
        start = time.perf_counter()
        code, peak = table2(run_dir)
        raw = time.perf_counter() - start
        after = run.probe()
        ok = code == 0 and run_digest(run_dir) == golden
        shutil.rmtree(run_dir, ignore_errors=True)
        run.record(ok)
        ops.append([raw, before, after, ok])
        rss.append(peak)
    if ops[0][3]:
        run.notes.append(f"cold-cli checkpoints digest {golden[0][:8]}... "
                         f"({golden[1]} files) on every op")
    limit = CONFIG["latency_limit_s"]["cold-cli"]
    norm, raw = both(ops, CONFIG["table2_answers"], limit)
    norm.update(setup_s=statistics.median(setups),
                peak_rss_mb=statistics.median(rss))
    raw.update(setup_s=statistics.median(setups_raw),
               peak_rss_mb=norm["peak_rss_mb"])
    ledger = cold_ledger(run, ops, table2) if run.trace else {}
    return norm, raw, ledger


def cold_ledger(run: Run, plain_ops: list, table2) -> dict:
    py = sys.executable
    worker = str(HERE / "worker.py")
    files, traced = [], []
    for index in range(4):
        run_dir = run.work / f"traced-{index}"
        spans = run.work / f"spans-{index}.json"
        out = run.work / f"cold-traced-{index}.json"
        cmd = [py, worker, "cold-traced", "--out", str(out),
               "--run-dir", str(run_dir), "--spans", str(spans),
               "--profile", str(int(index == 0))]
        before = run.probe()
        start = time.perf_counter()
        code, _ = table2(run_dir, cmd)
        raw = time.perf_counter() - start
        after = run.probe()
        ok = code == 0 and run_digest(run_dir) == (
            CONFIG["golden_table2_digest"], CONFIG["golden_table2_files"])
        run.record(ok)
        if not ok:
            continue
        result = json.loads(out.read_text())
        if index == 0:
            # the profiled child only cross-checks call counts
            check_crosscheck(run, result["crosscheck"], "cold-cli")
            continue
        files.append(spans)
        traced.append(calib.normalise_time(raw, before, after, REF_S))
    plain = [calib.normalise_time(raw, b, a, REF_S)
             for raw, b, a, ok in plain_ops if ok]
    ledger = ledger_from_spans(run, files)
    ledger["trace.overhead_share"] = (statistics.median(traced)
                                      / statistics.median(plain) - 1.0)
    return ledger


def inproc(run: Run) -> tuple:
    """warm-table2 / scaled-sweep: several long-lived worker processes."""
    count = CONFIG["setup_samples"][run.workload]
    share = run.seconds / count
    results = [run.worker(run.workload, "--work", str(run.work),
                          "--seed", str(run.seed), "--index", str(k),
                          "--seconds", f"{share:.3f}")
               for k in range(count)]
    ops, setups, setups_raw = [], [], []
    for result in results:
        run.correct &= bool(result["setup_ok"])
        raw, before, after = result["setup"]
        setups.append(calib.normalise_time(raw, before, after, REF_S))
        setups_raw.append(raw)
        run.probes += [before, after]
        for op in result["ops"]:
            run.record(op[3])
            run.probes += op[1:3]
            ops.append(op)
        run.notes += result["notes"]
    limit = CONFIG["latency_limit_s"][run.workload]
    norm, raw = both(ops, results[0]["answers"], limit)
    rss = statistics.median(r["rss_mb"] for r in results)
    norm.update(setup_s=statistics.median(setups), peak_rss_mb=rss)
    raw.update(setup_s=statistics.median(setups_raw), peak_rss_mb=rss)
    ledger = {}
    if run.trace:
        result = run.worker(run.workload, "--work", str(run.work),
                            "--seed", str(run.seed), "--index", str(count),
                            "--seconds", f"{0.6 * run.seconds:.3f}",
                            "--trace", "1")
        run.correct &= bool(result["setup_ok"] and result["profiled_ok"])
        check_crosscheck(run, result["crosscheck"], run.workload)
        for op in result["ops"] + result["traced_ops"]:
            run.record(op[3])
        plain = [calib.normalise_time(*op[:3], REF_S)
                 for op in result["ops"] if op[3]]
        traced = [calib.normalise_time(*op[:3], REF_S)
                  for op in result["traced_ops"] if op[3]]
        ledger = ledger_from_spans(run, [Path(p) for p in result["spans"]])
        ledger["trace.overhead_share"] = (statistics.median(traced)
                                          / statistics.median(plain) - 1.0)
    return norm, raw, ledger


# -- serve ---------------------------------------------------------------------


class Server:
    """An ``eval-serve`` child on an ephemeral port."""

    def __init__(self, run: Run, traced: bool = False) -> None:
        root = run.work / f"serve-root-{len(os.listdir(run.work))}"
        self.spans = run.work / f"serve-spans-{root.name}.json"
        if traced:
            cmd = [sys.executable, str(HERE / "worker.py"), "serve-traced",
                   "--out", str(run.work / f"{root.name}.json"),
                   "--run-root", str(root), "--spans", str(self.spans)]
        else:
            cmd = [sys.executable, "-m", "repro.service.server",
                   "--port", "0", "--run-root", str(root)]
        self.log = open(run.work / "serve.log", "ab")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self.log, env=run.env,
                                     cwd=ROOT, text=True)
        line = self.proc.stdout.readline()
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"eval-serve did not start: {line!r}")
        host_port = line.split("http://", 1)[1].split()[0]
        host, port = host_port.rsplit(":", 1)
        self.conns = loadgen.Connections(host, int(port))
        deadline = time.perf_counter() + 30.0
        while True:
            try:
                if self.conns.request("GET", "/healthz")[0] == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("eval-serve never became healthy")
            time.sleep(0.005)

    def units_evaluated(self) -> int:
        """``repro_service_units_evaluated`` from ``/metrics``."""
        text = self.conns.request("GET", "/metrics")[1].get("text", "")
        for line in text.splitlines():
            if line.startswith("repro_service_units_evaluated "):
                return int(float(line.split()[1]))
        return 0

    def stop(self) -> float:
        """SIGINT the server, reap it; its peak RSS in MB."""
        self.proc.send_signal(signal.SIGINT)
        killer = threading.Timer(30.0, self.proc.kill)
        killer.start()
        try:
            self.proc.stdout.read()
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            killer.cancel()
            self.proc.stdout.close()
            self.log.close()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return usage.ru_maxrss / 1024.0


def serve(run: Run) -> tuple:
    cfg = CONFIG["serve"]
    expected = run.worker("payloads")["payloads"]
    models = sorted(expected)
    picks = loadgen.deck(random.Random(run.seed), models)

    def spec(model: str) -> dict:
        return {"models": [model], "backend": "serial"}

    def checked(records) -> None:
        for record in records:
            if record.status == 503:
                run.attempted += 1
                continue
            ok = (not record.error and record.done is not None
                  and sorted(sha(line) for line in record.lines)
                  == expected[record.model])
            run.record(ok)

    def generator(server: Server) -> loadgen.LoadGenerator:
        return loadgen.LoadGenerator(server.conns, spec, cfg["poll_s"],
                                     probe=run.probe,
                                     job_timeout_s=cfg["job_timeout_s"])

    def start(traced: bool = False) -> Server:
        server = Server(run, traced)
        # the same warm-up job every time, so set-ups compare
        checked(generator(server).run([(0.0, models[0])]))
        return server

    setups, setups_raw = [], []
    server = None
    for index in range(CONFIG["setup_samples"]["serve"]):
        if server is not None:
            server.stop()
        server, raw, norm = run.bracket(start)
        setups.append(norm)
        setups_raw.append(raw)

    light = loadgen.schedule(run.seed, cfg["light_rate_per_s"],
                             cfg["light_share"] * run.seconds, models)
    gen = generator(server)
    records = gen.run(light, probe_gaps=True)
    checked(records)
    light_norm, light_raw = light_latencies(gen, records)
    run.probes += [p[2] for p in gen.probes]

    period = 1.0 / cfg["overload_rate_per_s"]
    heavy = [(period * (i + 1), next(picks))
             for i in range(int(cfg["overload_s"] * cfg["overload_rate_per_s"]))]
    over = generator(server)
    heavy_records = over.run(heavy)
    run.probe()
    checked(heavy_records)
    # The overload phase has no idle gaps to probe in, so it is
    # normalised by the median of every probe this run took (dozens,
    # spread over it): a few probes around the phase added more noise
    # than they removed.
    speed = statistics.median(run.probes)
    units = server.units_evaluated()
    rss = server.stop()

    limit = CONFIG["latency_limit_s"]["serve"]
    done = [r for r in heavy_records if r.done is not None and not r.error]
    within = sum(calib.normalise_time(r.latency_s, speed, speed, REF_S)
                 <= limit for r in done)
    end = max([r.done for r in done] + [r.sent for r in heavy_records])
    window = end - heavy_records[0].due
    answers = CONFIG["table2_answers"] // len(models)
    rates = {"answers_per_s": answers * len(done) / window,
             "goodput_jobs_per_s": within / window}
    norm = {"setup_s": statistics.median(setups),
            "wall_p50_s": statistics.median(light_norm),
            "job_p50_ms": 1000.0 * statistics.median(light_norm),
            "job_p90_ms": 1000.0 * pct(light_norm, 0.9),
            "peak_rss_mb": rss}
    # a rate scales opposite to a time
    norm.update({name: value * speed / REF_S
                 for name, value in rates.items()})
    raw = {"setup_s": statistics.median(setups_raw),
           "wall_p50_s": statistics.median(light_raw),
           "job_p50_ms": 1000.0 * statistics.median(light_raw),
           "job_p90_ms": 1000.0 * pct(light_raw, 0.9),
           "peak_rss_mb": rss, **rates}
    refused = [r for r in heavy_records if r.status == 503]
    run.notes.append(
        f"serve: {len(light_norm)} light jobs at "
        f"{cfg['light_rate_per_s']}/s; overload {len(heavy_records)} jobs "
        f"in {heavy_records[-1].sent - heavy_records[0].sent:.2f} s, "
        f"{len(done)} completed and {len(refused)} refused (503) in "
        f"{window:.2f} s; at most {gen.conns.max_open} connection(s) open")
    ledger = {}
    if run.trace:
        every = records + heavy_records
        ledger = {
            "service.polls_per_job": ((gen.useful_polls + over.useful_polls)
                                      / max(1, gen.polls + over.polls)),
            "service.refused": len(refused),
            "service.refuse_ms_p50": 1000.0 * statistics.median(
                [r.response_s for r in refused] or [0.0]),
            "service.gen_lag_ms_p90": 1000.0 * pct(
                [r.lag_s for r in every if r.sent], 0.9),
            "service.units_evaluated": units,
        }
        traced = start(traced=True)
        tgen = generator(traced)
        plan = loadgen.schedule(run.seed + 1, cfg["light_rate_per_s"],
                                0.4 * run.seconds, models)
        trecords = tgen.run(plan, probe_gaps=True)
        checked(trecords)
        traced.stop()
        dump = json.loads(traced.spans.read_text())
        check_crosscheck(run, dump["crosscheck"], "serve")
        tl, _ = light_latencies(tgen, trecords)
        ledger.update(ledger_from_spans(run, [traced.spans]))
        ledger.update(service_spans(run, dump))
        ledger["trace.overhead_share"] = (statistics.median(tl)
                                          / statistics.median(light_norm)
                                          - 1.0)
    return norm, raw, ledger


def light_latencies(gen: loadgen.LoadGenerator, records) -> tuple:
    """Normalised and raw latencies of a light phase's finished jobs."""
    norm, raw = [], []
    for r in records:
        if r.done is None or r.error:
            continue
        before, after = loadgen.bracket(gen.probes, r.sent, r.done)
        norm.append(calib.normalise_time(r.latency_s, before, after, REF_S))
        raw.append(r.latency_s)
    return norm, raw


def service_spans(run: Run, dump: dict) -> dict:
    """Submit time and FIFO-paired submit -> runner-start queue wait."""
    skip = set(dump["excluded"])
    spans = dump["spans"]
    submits = sorted((s for s in spans if s[0] == "service.submit"),
                     key=lambda s: s[1])[1:]
    starts = sorted((s for s in spans
                     if s[0] == "runner.run" and s[5] not in skip),
                    key=lambda s: s[1])
    scale = REF_S / statistics.median(run.probes)
    waits = [run_span[1] - submit[2]
             for submit, run_span in zip(submits, starts)]
    return {
        "service.submit_ms_p50": 1000.0 * scale * statistics.median(
            [s[2] - s[1] for s in submits] or [0.0]),
        "service.queue_wait_ms_p50": 1000.0 * scale * statistics.median(
            waits or [0.0]),
    }


# -- ledger --------------------------------------------------------------------


def check_crosscheck(run: Run, checked: dict, label: str) -> None:
    """Tracer call counts must equal cProfile's for every traced call."""
    bad = {name: pair for name, pair in checked.items()
           if pair[0] != pair[1]}
    seen = {name: pair[0] for name, pair in checked.items() if pair[0]}
    run.notes.append(f"{label} cProfile cross-check "
                     f"{'ok' if checked and not bad else 'FAILED'}: {seen}")
    if bad or not checked:
        run.correct = False
        run.notes.append(f"{label} tracer/cProfile mismatch: {bad}")


def ledger_from_spans(run: Run, files: Sequence[Path]) -> dict:
    """Per-operation calls and self time (host-normalised) per layer."""
    calls: Dict[str, float] = {}
    self_s: Dict[str, float] = {}
    counters: Dict[str, float] = {}
    ops = 0
    for path in files:
        dump = json.loads(Path(path).read_text())
        ops += dump.get("layer_ops", 1)
        for name, (n, own) in tracing.layer_totals(
                dump["spans"], dump["excluded"]).items():
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + own
        for name, value in dump["counters"].items():
            if name == "sweep.peak_resident_questions":
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
    ops = max(ops, 1)
    scale = REF_S / statistics.median(run.probes)
    ledger = {}
    for name in LEDGER_CALLS:
        ledger[f"{name}.calls"] = calls.get(name, 0) / ops
        ledger[f"{name}.self_s"] = scale * self_s.get(name, 0.0) / ops

    def rate(hits: str, misses: str) -> float:
        total = counters.get(hits, 0) + counters.get(misses, 0)
        return counters.get(hits, 0) / total if total else 0.0

    ledger.update({
        "perception.hit_rate": rate("perception.hits", "perception.misses"),
        "runcache.hit_rate": rate("runcache.hits", "runcache.misses"),
        "sweep.build_wait_s": scale * counters.get("sweep.build_wait_s", 0)
        / ops,
        "sweep.peak_resident_questions": counters.get(
            "sweep.peak_resident_questions", 0),
        "results_io.bytes_written": counters.get(
            "results_io.bytes_written", 0) / ops,
    })
    for name in ("engine.units", "engine.retries", "engine.units_failed"):
        ledger[name] = counters.get(name, 0) / ops
    return ledger


# -- entry point ---------------------------------------------------------------

WORKLOADS = {"cold-cli": cold_cli, "warm-table2": inproc,
             "scaled-sweep": inproc, "serve": serve}


def report(run: Run, norm: dict, raw: dict, ledger: dict,
           steal: float) -> dict:
    print(f"workload {run.workload}  seed {run.seed}  "
          f"seconds {run.seconds:g}  trace {int(run.trace)}")
    for line in run.notes:
        print("  " + line)
    print(f"  {'metric':<20} {'normalised':>14} {'raw':>14}  unit")
    for name, unit in E2E.items():
        print(f"  {name:<20} {norm[name]:>14.6g} {raw[name]:>14.6g}  {unit}")
    calib_ms = 1000.0 * statistics.median(run.probes)
    print(f"  host.calib_ms {calib_ms:.3f} (calib_ref_ms "
          f"{CONFIG['calib_ref_ms']})  host.steal_share {steal:.4f}")
    if not run.trace:
        return {name: {"value": norm[name], "unit": unit}
                for name, unit in E2E.items()}
    ledger = dict(ledger)
    ledger["host.calib_ms"] = calib_ms
    ledger["host.steal_share"] = steal
    for name in E2E:
        ledger[f"host.raw.{name}"] = raw[name]
    metrics = {}
    for name, unit in PER_LAYER.items():
        metrics[name] = {"value": float(ledger.get(name, 0.0)), "unit": unit}
        print(f"  {name:<38} {metrics[name]['value']:>14.6g}  {unit}")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is "
              "missing", file=sys.stderr)
        return 2
    calib.assert_probe_isolated()
    run = Run(args)
    run.work.mkdir(parents=True, exist_ok=True)
    # serve keeps its client off the server's CPU; every other workload
    # runs its children on the probe's CPU
    if args.workload != "serve":
        # A probe measures the CPU it runs on, and the two CPUs of a
        # small VM can run at different speeds at the same moment: the
        # single-threaded workloads run, with their probes, on one CPU
        # (children inherit it).  The server's threads use every CPU.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        str(ROOT / "src")], check=True, env=run.env,
                       stdout=subprocess.DEVNULL)
        steal_before = calib.steal_ticks()
        norm, raw, ledger = WORKLOADS[args.workload](run)
        steal = calib.steal_share(steal_before, calib.steal_ticks())
        if calib.repro_modules():
            raise RuntimeError("the benchmark process imported repro")
        metrics = report(run, norm, raw, ledger, steal)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
