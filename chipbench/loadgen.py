"""Open-loop load generator for the ``serve`` workload.

Jobs are sent on a seeded, fixed schedule whatever the server does
(independent users, not callers waiting on each other), so a stall
shows as queueing on later jobs.  Each job is timed from the moment it
was *due*, not from when the generator got round to sending it, and the
generator's own lateness is recorded beside it.

The client uses two threads (the sender and one poller) and so at most
two HTTP connections at a time: load comes from one process with no
more threads or connections than the host has CPUs.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

#: Threads the generator runs (sender + poller); see the module docstring.
THREADS = 2


def deck(rng: random.Random, models: Sequence[str]) -> Iterator[str]:
    """Models in seeded shuffled rounds, each model once per round.

    Jobs cost differently per model, so drawing models independently
    would let the seed's model mix move the latency percentiles."""
    while True:
        round_ = list(models)
        rng.shuffle(round_)
        yield from round_


def schedule(seed: int, rate_per_s: float, duration_s: float,
             models: Sequence[str]) -> List[Tuple[float, str]]:
    """``(due offset s, model)`` pairs: gaps of ``1/rate`` scaled by a
    seeded uniform factor in [0.5, 1.5]."""
    rng = random.Random(seed)
    picks = deck(rng, models)
    plan: List[Tuple[float, str]] = []
    due = 0.0
    while True:
        due += rng.uniform(0.5, 1.5) / rate_per_s
        if due > duration_s:
            return plan
        plan.append((due, next(picks)))


@dataclass
class JobRecord:
    model: str
    due: float
    sent: float = 0.0
    status: int = 0
    job_id: str = ""
    response_s: float = 0.0
    done: Optional[float] = None
    lines: List[str] = field(default_factory=list)
    error: str = ""

    @property
    def latency_s(self) -> Optional[float]:
        return None if self.done is None else self.done - self.due

    @property
    def lag_s(self) -> float:
        return self.sent - self.due


class Connections:
    """HTTP/1.0 round trips that count how many are open at once."""

    def __init__(self, host: str, port: int, timeout_s: float = 30.0):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.open = 0
        self.max_open = 0
        self._lock = threading.Lock()

    def request(self, method: str, path: str,
                body: Optional[dict] = None) -> Tuple[int, dict]:
        with self._lock:
            self.open += 1
            self.max_open = max(self.max_open, self.open)
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout_s)
        try:
            payload = json.dumps(body) if body is not None else None
            conn.request(method, path, body=payload,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            raw = response.read()
            try:
                data = json.loads(raw) if raw else {}
            except ValueError:
                data = {"text": raw.decode("utf-8", "replace")}
            return response.status, data
        finally:
            conn.close()
            with self._lock:
                self.open -= 1


class LoadGenerator:
    """Sends a plan open-loop and polls each admitted job's results."""

    def __init__(self, conns: Connections, spec: Callable[[str], dict],
                 poll_s: float,
                 probe: Optional[Callable[[], float]] = None,
                 job_timeout_s: float = 60.0):
        self.conns = conns
        self.spec = spec
        self.poll_s = poll_s
        self.probe = probe
        self.clock = time.perf_counter
        self.job_timeout_s = job_timeout_s
        #: (probe start, probe end, probe seconds) taken between sends
        self.probes: List[Tuple[float, float, float]] = []
        self.polls = 0
        self.useful_polls = 0
        self._inflight: List[JobRecord] = []
        self._lock = threading.Lock()

    def _take_probe(self) -> None:
        start = self.clock()
        value = self.probe()
        self.probes.append((start, self.clock(), value))

    def run(self, plan: Sequence[Tuple[float, str]],
            probe_gaps: bool = False) -> List[JobRecord]:
        """Send ``plan`` (offsets from now); return when every admitted
        job is done or timed out.  With ``probe_gaps`` the sender runs
        the probe in each idle gap long enough to hold it.  Only the
        oldest admitted job is polled (the queue is FIFO), so polling
        adds little load to the server it measures."""
        origin = self.clock()
        records = [JobRecord(model=model, due=origin + offset)
                   for offset, model in plan]
        sending = threading.Event()
        sending.set()
        poller = threading.Thread(target=self._poll_loop, args=(sending,),
                                  name="loadgen-poller", daemon=True)
        poller.start()
        probe_s = 0.0
        try:
            for record in records:
                if probe_gaps and self.probe is not None:
                    # only while the server is idle: the probe shares
                    # the server's CPU
                    while record.due - self.clock() > 3 * probe_s + 0.005:
                        with self._lock:
                            idle = not self._inflight
                        if idle:
                            self._take_probe()
                            probe_s = self.probes[-1][2]
                            break
                        time.sleep(self.poll_s)
                wait = record.due - self.clock()
                if wait > 0:
                    time.sleep(wait)
                self._send(record)
        finally:
            sending.clear()
            poller.join(self.job_timeout_s + 5.0)
        if probe_gaps and self.probe is not None:
            self._take_probe()
        return records

    def _send(self, record: JobRecord) -> None:
        record.sent = self.clock()
        try:
            status, data = self.conns.request("POST", "/v1/jobs",
                                              self.spec(record.model))
        except OSError as exc:
            record.error = f"submit: {exc}"
            return
        record.response_s = self.clock() - record.sent
        record.status = status
        if status == 202:
            record.job_id = str(data["job_id"])
            with self._lock:
                self._inflight.append(record)
        elif status != 503:
            record.error = f"submit -> {status}: {data}"

    def _poll_loop(self, sending: threading.Event) -> None:
        while True:
            with self._lock:
                head = self._inflight[0] if self._inflight else None
            if head is None:
                if not sending.is_set():
                    return
                time.sleep(self.poll_s)
            elif not self._poll(head):
                time.sleep(self.poll_s)

    def _poll(self, record: JobRecord) -> bool:
        """One results poll; True if it brought lines or completion."""
        self.polls += 1
        path = (f"/v1/jobs/{record.job_id}/results"
                f"?offset={len(record.lines)}")
        try:
            status, data = self.conns.request("GET", path)
        except OSError as exc:
            record.error = f"poll: {exc}"
            self._retire(record)
            return True
        if status != 200:
            record.error = f"poll -> {status}: {data}"
            self._retire(record)
            return True
        lines = data.get("lines", [])
        record.lines.extend(lines)
        if data.get("complete"):
            record.done = self.clock()
            if data.get("status") != "completed":
                record.error = f"job {data.get('status')}"
            self._retire(record)
        elif self.clock() - record.sent > self.job_timeout_s:
            record.error = "job timed out"
            self._retire(record)
        useful = bool(lines) or record.done is not None
        self.useful_polls += int(useful)
        return useful

    def _retire(self, record: JobRecord) -> None:
        with self._lock:
            self._inflight.remove(record)


def bracket(probes: Sequence[Tuple[float, float, float]], start: float,
            end: float) -> Tuple[float, float]:
    """The last probe that ended by ``start`` and the first that began
    at or after ``end`` (falling back to the nearest ones)."""
    before = [p for p in probes if p[1] <= start]
    after = [p for p in probes if p[0] >= end]
    first = before[-1] if before else probes[0]
    last = after[0] if after else probes[-1]
    return first[2], last[2]

