"""Tests of the benchmark's own machinery (not of the program).

Run from the repository root::

    python -m pytest chipbench/tests -q
"""

import json
import os
import sys
import threading
import types
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import calib  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


# -- normalisation -------------------------------------------------------------


def test_normalised_time_scales_by_reference_over_bracket_mean():
    # probes 20 ms and 30 ms: the host ran at 25/25 of reference speed
    assert calib.normalise_time(2.0, 0.020, 0.030, 0.025) == pytest.approx(2.0)
    # a host twice as slow as reference halves the reported time
    assert calib.normalise_time(2.0, 0.050, 0.050, 0.025) == pytest.approx(1.0)


def test_rates_come_from_normalised_times():
    metrics = run.op_metrics([1.0, 3.0], answers=100, limit_s=2.0)
    assert metrics["answers_per_s"] == pytest.approx(200 / 4.0)
    assert metrics["goodput_jobs_per_s"] == pytest.approx(1 / 4.0)
    assert metrics["wall_p50_s"] == pytest.approx(2.0)
    assert metrics["job_p90_ms"] == pytest.approx(2800.0)


def test_steal_share_from_proc_stat_lines(tmp_path):
    stat = tmp_path / "stat"
    stat.write_text("cpu  100 0 50 800 10 0 5 20 0 0\n")
    before = calib.steal_ticks(str(stat))
    stat.write_text("cpu  150 0 60 860 10 0 5 40 0 0\n")
    after = calib.steal_ticks(str(stat))
    # 20 stolen jiffies out of 50 + 10 + 60 + 20 = 140
    assert calib.steal_share(before, after) == pytest.approx(20 / 140)
    assert calib.steal_share(None, after) == 0.0


def test_probe_loads_no_repro_module(monkeypatch):
    calib.assert_probe_isolated()

    def leaky():
        sys.modules["repro.leak"] = types.ModuleType("repro.leak")
        return 0

    monkeypatch.setattr(calib, "_work", leaky)
    try:
        with pytest.raises(RuntimeError, match="repro.leak"):
            calib.assert_probe_isolated()
    finally:
        sys.modules.pop("repro.leak", None)


def test_quantile_interpolates():
    assert run.pct([1, 2, 3, 4, 5], 0.5) == 3
    assert run.pct(list(range(11)), 0.9) == pytest.approx(9.0)
    assert run.pct([1.0, 2.0], 0.9) == pytest.approx(1.9)


# -- self time -----------------------------------------------------------------


def span(name, start, end, span_id, parent, trace_id, thread):
    return (name, start, end, span_id, parent, trace_id, thread)


def test_self_time_subtracts_the_union_of_children_across_threads():
    spans = [
        span("a", 0.0, 10.0, 1, 0, 1, 100),
        span("b", 1.0, 4.0, 2, 1, 1, 100),
        span("d", 1.5, 2.0, 3, 2, 1, 100),
        # a child recorded on another thread, overlapping b
        span("c", 3.0, 6.0, 4, 1, 1, 200),
        # an unrelated tree on the second thread
        span("e", 2.0, 8.0, 5, 0, 5, 200),
        span("f", 2.0, 3.0, 6, 5, 5, 200),
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0)  # union of [1,4] and [3,6]
    assert own[2] == pytest.approx(3.0 - 0.5)
    assert own[3] == pytest.approx(0.5)
    assert own[4] == pytest.approx(3.0)
    assert own[5] == pytest.approx(5.0)
    totals = tracing.layer_totals(spans, excluded=[5])
    assert totals == {"a": (1, pytest.approx(5.0)),
                      "b": (1, pytest.approx(2.5)),
                      "d": (1, pytest.approx(0.5)),
                      "c": (1, pytest.approx(3.0))}


def test_child_spilling_past_its_parent_is_clipped():
    spans = [span("a", 0.0, 2.0, 1, 0, 1, 1), span("b", 1.0, 3.0, 2, 1, 1, 2)]
    assert tracing.self_times(spans)[1] == pytest.approx(1.0)


# -- tracer patching -----------------------------------------------------------


@pytest.fixture()
def fake_program(monkeypatch):
    """A defining module, a ``from``-importer and a class."""
    lib = types.ModuleType("fakeprog_lib")
    exec("def leaf(x):\n    return x + 1\n"
         "class Engine:\n"
         "    @staticmethod\n"
         "    def payload(x):\n        return str(leaf(x))\n"
         "    def run(self, n):\n"
         "        return [self.payload(i) for i in range(n)]\n",
         lib.__dict__)
    user = types.ModuleType("fakeprog_user")
    user.leaf = lib.leaf
    exec("def twice(x):\n    return leaf(leaf(x))\n", user.__dict__)
    monkeypatch.setitem(sys.modules, "fakeprog_lib", lib)
    monkeypatch.setitem(sys.modules, "fakeprog_user", user)
    return lib, user


TARGETS = (("lib.leaf", "fakeprog_lib", "leaf"),
           ("lib.payload", "fakeprog_lib", "Engine.payload"),
           ("lib.run", "fakeprog_lib", "Engine.run"))


def test_tracer_patches_every_binding_and_restores_them(fake_program):
    import cProfile
    import pstats

    lib, user = fake_program
    leaf, payload, run_fn = (lib.leaf, lib.Engine.__dict__["payload"],
                             lib.Engine.__dict__["run"])
    tracer = tracing.Tracer()
    tracer.install(TARGETS)
    assert tracer.bindings == 4  # leaf twice, payload, run
    profile = cProfile.Profile()
    tracer.begin_operation()
    profile.enable()
    assert lib.Engine().run(3) == ["1", "2", "3"]
    assert user.twice(0) == 2
    profile.disable()
    counts = tracer.call_counts()
    assert counts == {"lib.leaf": 5, "lib.payload": 3, "lib.run": 1}
    seen = tracing.cprofile_counts(pstats.Stats(profile).stats,
                                   tracer.code_keys())
    assert seen == counts
    traces = {s[5] for s in tracer.spans if s[0] == "lib.payload"}
    assert len(traces) == 1  # one trace id per operation
    tracer.restore()
    assert lib.leaf is leaf and user.leaf is leaf
    assert lib.Engine.__dict__["payload"] is payload
    assert lib.Engine.__dict__["run"] is run_fn
    before = len(tracer.spans)
    lib.Engine().run(2)
    assert len(tracer.spans) == before


def test_excluded_operation_keeps_its_counts_out(fake_program):
    lib, _ = fake_program
    tracer = tracing.Tracer()
    tracer.install(TARGETS[:1], hooks={
        "lib.leaf": lambda args, kwargs, result: tracer.count("leaves")})
    tracer.begin_operation(excluded=True)
    lib.leaf(1)
    tracer.begin_operation()
    lib.leaf(2)
    tracer.restore()
    assert tracer.counters == {"leaves": 1}
    assert sum(c for c, _ in tracing.layer_totals(
        tracer.spans, tracer.excluded).values()) == 1


# -- open-loop load generation -------------------------------------------------


def test_schedule_is_fixed_by_seed():
    models = ["a", "b", "c"]
    first = loadgen.schedule(7, 3.0, 10.0, models)
    assert first == loadgen.schedule(7, 3.0, 10.0, models)
    assert first != loadgen.schedule(8, 3.0, 10.0, models)
    gaps = [b[0] - a[0] for a, b in zip(first, first[1:])]
    assert all(1 / 6 <= gap <= 1 / 2 for gap in gaps)


class _StubService(BaseHTTPRequestHandler):
    jobs = 0

    def log_message(self, *args):
        pass

    def _json(self, code, payload):
        body = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):  # noqa: N802
        self.rfile.read(int(self.headers["Content-Length"]))
        type(self).jobs += 1
        self._json(202, {"job_id": str(type(self).jobs)})

    def do_GET(self):  # noqa: N802
        done = not self.path.endswith("offset=1")
        self._json(200, {"lines": ["payload"] if done else [],
                         "complete": True, "status": "completed"})


@pytest.fixture()
def stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubService)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    thread.join(5)
    assert not thread.is_alive()


def test_lateness_is_timed_from_the_due_time(stub):
    conns = loadgen.Connections(*stub.server_address[:2])
    slow = threading.Event()

    def spec(model):
        if not slow.is_set():  # the generator stalls on its first send
            slow.set()
            threading.Event().wait(0.2)
        return {"models": [model]}

    gen = loadgen.LoadGenerator(conns, spec, poll_s=0.001)
    records = gen.run([(0.0, "a"), (0.05, "b")])
    late = records[1]
    assert late.lag_s >= 0.1
    assert late.latency_s == pytest.approx(late.done - late.due)
    assert late.latency_s >= late.lag_s
    assert all(r.lines == ["payload"] for r in records)


def test_threads_and_connections_stay_within_nproc(stub):
    conns = loadgen.Connections(*stub.server_address[:2])
    seen = []

    def spec(model):
        seen.append(sum(t.name.startswith("loadgen")
                        for t in threading.enumerate()) + 1)
        return {"models": [model]}

    gen = loadgen.LoadGenerator(conns, spec, poll_s=0.001)
    records = gen.run([(0.002 * i, "a") for i in range(40)])
    nproc = os.cpu_count() or 1
    assert len(records) == 40 and all(r.done for r in records)
    assert max(seen) <= loadgen.THREADS <= nproc
    assert 1 <= conns.max_open <= nproc
    assert gen.useful_polls <= gen.polls


# -- the declared metrics ------------------------------------------------------


def test_benchmark_json_declares_what_the_run_reports():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert doc["paths"] == [BENCH.name]
