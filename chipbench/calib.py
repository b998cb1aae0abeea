"""Host-speed calibration probe.

A fixed block of interpreter-bound work (dict churn, a JSON round-trip,
sha256 and a numpy block-reduce) that imports only the standard library
and numpy, never ``repro``, so no change to the program can move it.
The benchmark runs it immediately before and after every timed
operation and divides the operation's time by the mean of the two
bracketing probes: the host this benchmark was built on changes speed
by up to 2x for minutes at a time, and the ratio cancels that drift.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from typing import Optional, Sequence

import numpy as np

_SMALL_KEYS = [f"k{i:04d}" for i in range(600)]
_LARGE_KEYS = [f"key{i:06d}" for i in range(40000)]
_DOC = {"rows": [{"id": i, "name": f"q{i}", "score": i * 0.5,
                  "tags": ["mc", "sa", str(i % 7)]} for i in range(120)]}
_BLOCK = np.arange(64 * 64, dtype=np.float64).reshape(64, 64)


def _work() -> int:
    acc = 0
    for keys, rounds in ((_SMALL_KEYS, 10), (_LARGE_KEYS, 1)):
        for r in range(rounds):
            table = {}
            for i, key in enumerate(keys):
                table[key] = i ^ r
            for key in keys[::3]:
                acc += table.pop(key)
    for _ in range(15):
        acc += len(json.loads(json.dumps(_DOC, sort_keys=True))["rows"])
    blob = json.dumps(_DOC).encode()
    for _ in range(600):
        acc += hashlib.sha256(blob).digest()[0]
    for r in range(300):
        block = (_BLOCK + r).reshape(16, 4, 16, 4).sum(axis=(1, 3))
        acc += int(block[3, 5])
    return acc


def probe_s() -> float:
    """Seconds one pass of the fixed probe work takes right now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def repro_modules() -> Sequence[str]:
    """Names of loaded ``repro`` modules (the probe must load none)."""
    return [name for name in sys.modules
            if name == "repro" or name.startswith("repro.")]


def assert_probe_isolated() -> None:
    """Run the probe once and fail if that loaded any ``repro`` module."""
    before = set(repro_modules())
    probe_s()
    added = set(repro_modules()) - before
    if added:
        raise RuntimeError(f"calibration probe loaded {sorted(added)}")


def normalise_time(raw_s: float, probe_before_s: float,
                   probe_after_s: float, calib_ref_s: float) -> float:
    """A time at reference host speed: raw x ref / mean(bracket)."""
    return raw_s * calib_ref_s / ((probe_before_s + probe_after_s) / 2.0)


def steal_ticks(path: str = "/proc/stat") -> Optional[tuple]:
    """(steal, total) jiffies from the aggregate cpu line, if readable."""
    try:
        with open(path) as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    values = [int(v) for v in fields[1:]]
    steal = values[7] if len(values) > 7 else 0
    return steal, sum(values[:8])


def steal_share(before: Optional[tuple], after: Optional[tuple]) -> float:
    """Share of CPU time stolen by the hypervisor between two reads."""
    if before is None or after is None:
        return 0.0
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0
