"""The shared evaluation-engine core behind every execution driver.

Before this module existed, the artifact/accounting logic of a run —
resume scanning, checkpoint writing, manifest assembly, telemetry
attachment, breaker fast-fail bookkeeping, exactly-once commit
reconciliation — was entangled across
:class:`~repro.core.runner.ParallelRunner`,
:class:`~repro.core.coordinator.SweepCoordinator` and
:func:`~repro.core.sweep.run_scaled_table2`, each carrying a
near-duplicate copy.  :class:`EvalEngine` extracts that core into one
submit-units/collect-results surface:

* :meth:`prepare` — validate the unit list, create the run directory,
  and resume every recoverable unit (checkpoints, and — when the
  engine carries a commit log / shared store — reconciled against the
  exactly-once accounting);
* :meth:`checkpoint` / :meth:`commit_payload` — the canonical artifact
  writes (atomic, injectable for the chaos harness), with commit-log
  dedup when configured;
* :meth:`attach_telemetry`, :meth:`fast_fail`, :meth:`write_manifest`
  — the per-unit epilogue every driver shares, byte-identical across
  backends and fleets;
* :meth:`finalize` — perf-counter snapshot, final manifest, and the
  ordered :class:`~repro.core.runner.RunOutcome`.

Drivers — the thread/process/async ``ParallelRunner``, the multi-node
``SweepCoordinator``, and the evaluation service's job executor
(:mod:`repro.service.jobs`) — own *scheduling* only: how pending units
reach :meth:`~repro.core.runner.ParallelRunner.evaluate_unit`.
Everything the artifacts are made of flows through here, which is what
keeps the golden Table II digest byte-identical whichever driver ran
the sweep.

Admission (circuit breaking, cancellation, per-tenant deadlines,
queue rejection) is delegated to a
:class:`~repro.core.resilience.AdmissionPolicy`; the optional
``on_unit_complete`` hook streams each completed unit's result to an
observer (the service's stream-results endpoint) without touching the
artifact path.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple,
)

from repro.core import perfstats, results_io
from repro.core.metrics import EvalResult
from repro.core.resilience import AdmissionPolicy

if TYPE_CHECKING:  # driver types only; engine never schedules
    from repro.core.runner import (
        RunOutcome, RunStats, UnitStats, WorkUnit,
    )

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT_VERSION = 1

#: Unit statuses that count as failures in ``RunOutcome.failures``.
FAILURE_STATUSES = ("failed", "fast_failed", "timed_out")


def payload_digest(payload: str) -> str:
    """SHA-256 of a canonical checkpoint payload — the committed identity."""
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class EvalEngine:
    """Artifact, resume and accounting core shared by all drivers.

    One engine serves one driver; per-run state (commit log, shared
    store) is attached by the driver before :meth:`prepare` and read
    by the resume/commit paths.  ``checkpoint_writer`` defaults to the
    atomic write-then-rename and is injectable so the chaos harness
    can tear writes at exactly the artifact boundary.
    """

    def __init__(
        self,
        run_dir: "Optional[Path | str]" = None,
        resume: bool = True,
        checkpoint_writer: Optional[Callable[[Path, str], None]] = None,
        admission: Optional[AdmissionPolicy] = None,
        on_unit_complete: Optional[
            Callable[["WorkUnit", EvalResult], None]] = None,
        on_unit_payload: Optional[
            Callable[["WorkUnit", str], None]] = None,
    ) -> None:
        self.run_dir = Path(run_dir) if run_dir is not None else None
        self.resume = resume
        self.checkpoint_writer = (checkpoint_writer
                                  or results_io.atomic_write_text)
        self.admission = admission or AdmissionPolicy()
        self.on_unit_complete = on_unit_complete
        #: byte-level completion hook: receives each unit's canonical
        #: checkpoint payload verbatim (serialize-once; the service's
        #: result stream attaches here)
        self.on_unit_payload = on_unit_payload
        #: exactly-once accounting, attached per run by coordinated
        #: drivers (duck-typed: ``committed(unit_id)`` / ``commit``)
        self.commit_log = None
        #: shared cross-node result tier, attached per run (duck-typed:
        #: ``get(unit, expected_sha256)`` / ``put(unit, payload)``)
        self.store = None
        self._manifest_lock = threading.Lock()
        #: unit id -> (provider, fingerprint), cleared by :meth:`prepare`
        self._fingerprints: Dict[str, Tuple[object, str]] = {}

    # -- canonical forms -----------------------------------------------------

    @staticmethod
    def canonical_payload(result: EvalResult) -> str:
        """The byte-stable checkpoint payload of one unit result.

        ``telemetry=False`` keeps checkpoints canonical across worker
        counts, retry histories and drivers; the timing side lives in
        ``manifest.json``.  This is the **serialize-once** site: drivers
        call it exactly once per completed unit and pass the bytes (and
        their digest) through checkpoint, store, commit log and stream
        verbatim.  Each call is credited to the ``serialize`` stage
        timer, so redundant serialization shows up as counted calls.
        """
        with perfstats.stage("serialize"):
            return results_io.dumps(result, telemetry=False) + "\n"

    @staticmethod
    def matches(result: EvalResult, unit: "WorkUnit") -> bool:
        """Does a recovered result belong to this exact unit?"""
        return (result.model_name == unit.provider.name
                and result.dataset_name == unit.dataset.name
                and result.setting == unit.setting
                and result.resolution_factor == unit.resolution_factor
                and len(result.records) == len(unit.dataset))

    def checkpoint_path(self, unit: "WorkUnit") -> Optional[Path]:
        """Where ``unit``'s checkpoint lives (None without a run dir)."""
        if self.run_dir is None:
            return None
        return self.run_dir / f"{unit.unit_id}.jsonl"

    # -- run lifecycle -------------------------------------------------------

    def prepare(self, units: "Sequence[WorkUnit]", stats: "RunStats"
                ) -> "Tuple[Dict[str, EvalResult], List[WorkUnit]]":
        """Validate, create the run dir, and resume recoverable units.

        Returns ``(collected, pending)``: results recovered without
        re-evaluation (marked ``resumed`` in the stats, streamed to
        ``on_unit_complete``) and the units the driver must execute.
        """
        ids = [unit.unit_id for unit in units]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate unit ids in {ids}")
        self._fingerprints = {}
        if self.run_dir is not None:
            self.run_dir.mkdir(parents=True, exist_ok=True)
        collected: Dict[str, EvalResult] = {}
        pending: "List[WorkUnit]" = []
        for unit in units:
            unit_stats = stats.unit(unit.unit_id)
            resumed = self.resume_unit(unit, unit_stats)
            if resumed is not None:
                unit_stats.status = "resumed"
                resumed.telemetry = {"resumed": 1.0}
                collected[unit.unit_id] = resumed
                self.unit_completed(unit, resumed)
            else:
                pending.append(unit)
        return collected, pending

    def resume_unit(self, unit: "WorkUnit",
                    unit_stats: "UnitStats") -> Optional[EvalResult]:
        """Recover one unit from its checkpoint (and, when attached,
        the shared store), reconciled against the commit log.

        Rejections are never silent: a file that fails to parse or
        checksum counts as a ``corrupt_checkpoint``, a metadata or
        record-count mismatch as a ``stale_checkpoint``.  With a commit
        log attached, the log is the identity authority — an intact
        checkpoint whose digest disagrees with the committed one counts
        corrupt; an uncommitted artifact (a torn log tail) is
        re-committed on the spot; a commit with no surviving artifact
        falls through to the store, then to re-execution (which the
        commit gate dedups).
        """
        if not self.resume:
            return None
        log = self.commit_log
        unit_id = unit.unit_id
        committed = log.committed(unit_id) if log is not None else None
        path = self.checkpoint_path(unit)
        if path is not None and path.exists():
            result: Optional[EvalResult] = None
            try:
                result = results_io.load(path)
            except (ValueError, KeyError):
                # truncated, torn or checksum-mismatched: re-evaluate
                unit_stats.corrupt_checkpoints += 1
            if result is not None:
                if not self.matches(result, unit):
                    unit_stats.stale_checkpoints += 1
                elif log is None:
                    return result
                else:
                    canonical = self.canonical_payload(result)
                    if committed is None:
                        # the chain digest is computed over the exact
                        # canonical bytes, inside the log, once
                        log.append_commit(unit_id, canonical, "resume")
                        return result
                    if payload_digest(canonical) == committed:
                        return result
                    unit_stats.corrupt_checkpoints += 1
        if self.store is not None:
            payload = self.store.get(unit, expected_sha256=committed)
            if payload is not None:
                if self.run_dir is not None:
                    self.checkpoint_writer(
                        self.run_dir / f"{unit_id}.jsonl", payload)
                if log is not None and committed is None:
                    log.append_commit(unit_id, payload, "store")
                return results_io.loads(payload)
        return None

    # -- artifact writes -----------------------------------------------------

    def checkpoint(self, unit: "WorkUnit", result: EvalResult) -> None:
        """Write ``unit``'s canonical checkpoint (no-op without a run
        dir); the writer is atomic by default and chaos-injectable."""
        path = self.checkpoint_path(unit)
        if path is None:
            return
        payload = self.canonical_payload(result)
        with perfstats.stage("commit"):
            self.checkpoint_writer(path, payload)

    def checkpoint_bytes(self, unit: "WorkUnit", payload: str) -> None:
        """Write an already-serialized checkpoint payload verbatim."""
        path = self.checkpoint_path(unit)
        if path is None:
            return
        with perfstats.stage("commit"):
            self.checkpoint_writer(path, payload)

    def commit_payload(self, unit: "WorkUnit", payload: str,
                       node: str, digest: Optional[str] = None) -> str:
        """Write one already-serialized payload through every attached
        tier — checkpoint, shared store, commit log — and return the
        commit status (``"committed"``, ``"duplicate"``, or
        ``"untracked"`` when no log is attached).

        ``digest`` is the payload's sha256 when the caller already
        computed it (the coordinator's dedup gate does); it is computed
        here exactly once otherwise and carried verbatim into the store
        and the commit log — no tier re-hashes the bytes.

        The exactly-once gate lives in the log: a re-executed unit
        whose bytes match the committed digest is a counted duplicate,
        a mismatch raises
        :class:`~repro.core.coordinator.CommitConflict`.
        """
        with perfstats.stage("commit"):
            if digest is None:
                digest = payload_digest(payload)
            if self.run_dir is not None:
                self.checkpoint_writer(
                    self.run_dir / f"{unit.unit_id}.jsonl", payload)
            if self.store is not None:
                self.store.put(unit, payload, digest=digest)
            if self.commit_log is None:
                return "untracked"
            return self.commit_log.commit(unit.unit_id, digest, node)

    # -- per-unit epilogue ---------------------------------------------------

    @staticmethod
    def attach_telemetry(result: EvalResult, unit_stats: "UnitStats",
                         perf_delta: Dict[str, Dict[str, int]]) -> None:
        """Attach the run-side telemetry block to a completed result.

        Telemetry never reaches checkpoints (they are canonical); it
        rides on the in-memory result so callers see wall time, retry
        and cache movement per unit.
        """
        result.telemetry = {
            "wall_time_s": unit_stats.wall_time_s,
            "attempts": float(unit_stats.attempts),
            "retries": float(unit_stats.retries),
            "cache_hits": float(unit_stats.cache_hits),
            "cache_misses": float(unit_stats.cache_misses),
            "perf_cache_hits": float(
                perfstats.total(perf_delta, "hits")),
            "perf_cache_misses": float(
                perfstats.total(perf_delta, "misses")),
        }
        if unit_stats.quarantined:
            result.telemetry["quarantined"] = float(
                unit_stats.quarantined)

    def fast_fail(self, unit_stats: "UnitStats", error: str) -> None:
        """Record an admission refusal as the unit's terminal state."""
        unit_stats.status = "fast_failed"
        unit_stats.error = error

    def unit_completed(self, unit: "WorkUnit", result: EvalResult,
                       payload: Optional[str] = None) -> None:
        """Fire the completion hooks (resumed and fresh units alike).

        ``payload`` is the unit's canonical checkpoint bytes when the
        driver already holds them; the byte-level ``on_unit_payload``
        hook (the service result stream) receives them verbatim instead
        of re-serialising the result.  Drivers that never produced the
        bytes (a resume from an in-memory artifact) leave ``payload``
        unset and the hook serialises once on their behalf.
        """
        if self.on_unit_complete is not None:
            self.on_unit_complete(unit, result)
        if self.on_unit_payload is not None:
            if payload is None:
                payload = self.canonical_payload(result)
            with perfstats.stage("stream"):
                self.on_unit_payload(unit, payload)

    # -- manifest + outcome --------------------------------------------------

    def _provider_fingerprint(self, unit: "WorkUnit") -> str:
        """``unit.provider.config_fingerprint()``, computed once per run.

        Every manifest rewrite lists every unit's fingerprint, so an
        unmemoised write re-hashes each full model config.  Providers
        are not mutated mid-run (the attempt context and the run cache
        assume the same), so the memo holds for the run's lifetime; an
        entry is reused only for the same provider object.
        """
        provider = unit.provider
        memo = self._fingerprints.get(unit.unit_id)
        if memo is None or memo[0] is not provider:
            memo = (provider, provider.config_fingerprint())
            self._fingerprints[unit.unit_id] = memo
        return memo[1]

    def write_manifest(self, units: "Sequence[WorkUnit]",
                       stats: "RunStats",
                       extra: Optional[Dict[str, object]] = None) -> None:
        """Write the run's progress manifest (atomic, lock-serialized).

        ``extra`` merges driver-specific top-level blocks (the
        coordinator's fleet counters); the breaker snapshot appears
        whenever the admission policy carries one.
        """
        if self.run_dir is None:
            return
        with self._manifest_lock:
            payload: Dict[str, object] = {
                "format_version": MANIFEST_FORMAT_VERSION,
                "units": [
                    dict(stats.unit(unit.unit_id).as_dict(),
                         path=f"{unit.unit_id}.jsonl",
                         provider=unit.provider.name,
                         provider_fingerprint=(
                             self._provider_fingerprint(unit)))
                    for unit in units
                ],
                "totals": stats.as_dict(),
            }
            if extra:
                payload.update(extra)
            if self.admission.breaker is not None:
                payload["breaker"] = self.admission.breaker.as_dict()
            results_io.atomic_write_text(
                self.run_dir / MANIFEST_NAME,
                json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def finalize(self, units: "Sequence[WorkUnit]", stats: "RunStats",
                 collected: Dict[str, EvalResult],
                 extra: Optional[Dict[str, object]] = None
                 ) -> "RunOutcome":
        """Snapshot perf counters, write the final manifest, and fold
        everything into an input-ordered :class:`RunOutcome`."""
        from repro.core.runner import RunOutcome

        stats.record_perf_caches(perfstats.snapshot())
        self.write_manifest(units, stats, extra=extra)
        ordered = {unit.unit_id: collected[unit.unit_id]
                   for unit in units if unit.unit_id in collected}
        failures = {
            unit.unit_id: stats.unit(unit.unit_id).error or "failed"
            for unit in units
            if stats.unit(unit.unit_id).status in FAILURE_STATUSES
        }
        return RunOutcome(results=ordered, stats=stats, failures=failures)


def build_driver(
    harness=None,
    *,
    workers: int = 1,
    nodes: int = 1,
    backend=None,
    run_dir: "Optional[Path | str]" = None,
    resume: bool = True,
    quarantine=None,
    breaker=None,
    deadline_s: Optional[float] = None,
    spill_dir: "Optional[Path | str]" = None,
):
    """Resolve the (workers, nodes, backend) knobs to an execution driver.

    The selection logic the CLI and :mod:`repro.core.sweep` used to
    duplicate: ``nodes > 1`` builds a fault-tolerant
    :class:`~repro.core.coordinator.SweepCoordinator` fleet (inline
    nodes by default, process groups under ``backend="process"``),
    anything else a single :class:`~repro.core.runner.ParallelRunner`
    over the requested backend.  The two parallelism knobs are
    exclusive — a coordinated fleet runs one unit per node.
    """
    if nodes < 1:
        raise ValueError("nodes must be >= 1")
    if nodes > 1:
        if workers > 1:
            raise ValueError(
                "pass workers (one runner) or nodes (a coordinated "
                "fleet), not both")
        from repro.core.coordinator import SweepCoordinator

        return SweepCoordinator(
            nodes=nodes,
            harness=harness,
            node_backend=("process" if backend == "process" else "inline"),
            run_dir=run_dir,
            resume=resume,
            quarantine=quarantine,
            breaker=breaker,
            deadline_s=deadline_s,
            spill_dir=spill_dir)
    from repro.core.runner import ParallelRunner

    return ParallelRunner(
        harness=harness,
        workers=workers,
        run_dir=run_dir,
        resume=resume,
        quarantine=quarantine,
        breaker=breaker,
        deadline_s=deadline_s,
        backend=backend,
        spill_dir=spill_dir)
