"""In-memory span tracer that wraps calls into the program's layers.

The tracer lives entirely in the benchmark: it replaces each traced
function or method with a wrapper that records one span per call
(name, start, end, own id, parent id, trace id, thread), keeps the spans
in a list and writes nothing until :meth:`Tracer.dump` at the end of a
run.  :meth:`Tracer.install` rebinds *every* module attribute that holds
a traced function (``from x import f`` copies the binding into the
importer's globals, so patching the defining module alone misses
callers), and :meth:`Tracer.restore` puts every original back and checks
it.  :func:`cprofile_counts` gives the independent call counts the
traced run is cross-checked against.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (metric prefix, defining module, attribute path) of every traced call.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("benchmark.build_chipvqa", "repro.core.benchmark", "build_chipvqa"),
    ("databuild.build_shard", "repro.core.databuild", "build_shard"),
    ("visual.content_key", "repro.visual", "content_key"),
    ("models.perceive", "repro.models.encoder", "VisualEncoder.perceive"),
    ("models.answer_batch", "repro.models.providers",
     "LocalProvider.answer_batch"),
    ("judge.judge", "repro.judge.llm_judge", "HybridJudge.judge"),
    ("judge.answers_equivalent", "repro.judge.equivalence",
     "answers_equivalent"),
    ("runcache.question_key", "repro.core.runcache", "question_key"),
    ("runner.run", "repro.core.runner", "ParallelRunner.run"),
    ("engine.canonical_payload", "repro.core.engine",
     "EvalEngine.canonical_payload"),
    ("results_io.atomic_write_text", "repro.core.results_io",
     "atomic_write_text"),
    ("service.submit", "repro.service.jobs", "JobQueue.submit"),
)

#: A span: (name, start, end, span id, parent id or 0, trace id, thread).
Span = Tuple[str, float, float, int, int, int, int]


@dataclass
class _Patch:
    owner: object
    attr: str
    original: object
    is_class: bool


class Tracer:
    """Records spans around wrapped calls; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.excluded: set = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[_Patch] = []
        self._code: Dict[str, object] = {}

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_operation(self, excluded: bool = False) -> int:
        """Start a new trace id for this thread; its root spans carry it.
        An ``excluded`` operation's spans and counts leave the totals."""
        trace_id = self._local.trace_id = next(self._ids)
        if excluded:
            self.excluded.add(trace_id)
        return trace_id

    def count(self, name: str, amount: float = 1) -> None:
        if getattr(self._local, "trace_id", 0) in self.excluded:
            return
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to record a span named ``name`` per call;
        ``after(args, kwargs, result)`` runs once the span is closed."""
        clock = time.perf_counter
        spans = self.spans
        ids = self._ids
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            if stack:
                parent_id, trace_id = stack[-1]
            else:
                parent_id = 0
                trace_id = getattr(self._local, "trace_id", 0) or span_id
            stack.append((span_id, trace_id))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((name, start, end, span_id, parent_id,
                              trace_id, threading.get_ident()))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def install(self, targets: Sequence[Tuple[str, str, str]] = TARGETS,
                hooks: Optional[Dict[str, Callable]] = None) -> None:
        """Wrap every target, at every binding loaded modules hold."""
        hooks = hooks or {}
        for name, module_name, path in targets:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                func = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self.wrap(name, func, hooks.get(name))
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(wrapped)
                setattr(cls, meth, wrapped)
                self._patches.append(_Patch(cls, meth, raw, True))
            else:
                func = getattr(module, path)
                wrapped = self.wrap(name, func, hooks.get(name))
                for holder in list(sys.modules.values()):
                    namespace = getattr(holder, "__dict__", None)
                    if not isinstance(namespace, dict):
                        continue
                    for attr, value in list(namespace.items()):
                        if value is func:
                            setattr(holder, attr, wrapped)
                            self._patches.append(
                                _Patch(holder, attr, func, False))
            self._code[name] = func.__code__

    def restore(self) -> None:
        """Put every original binding back and check that it is back."""
        for patch in reversed(self._patches):
            setattr(patch.owner, patch.attr, patch.original)
        for patch in self._patches:
            current = (patch.owner.__dict__[patch.attr] if patch.is_class
                       else getattr(patch.owner, patch.attr))
            if current is not patch.original:
                raise RuntimeError(
                    f"tracer left {patch.attr} on {patch.owner!r} patched")
        self._patches.clear()

    @property
    def bindings(self) -> int:
        """Number of attribute bindings currently patched."""
        return len(self._patches)

    def code_keys(self) -> Dict[str, Tuple[str, int, str]]:
        """cProfile's key for each traced function's original code."""
        return {name: (code.co_filename, code.co_firstlineno, code.co_name)
                for name, code in self._code.items()}

    def call_counts(self, thread_ids: Optional[Iterable[int]] = None
                    ) -> Dict[str, int]:
        keep = set(thread_ids) if thread_ids is not None else None
        counts: Dict[str, int] = {}
        for span in list(self.spans):
            if keep is None or span[6] in keep:
                counts[span[0]] = counts.get(span[0], 0) + 1
        return counts

    def dump(self, path: str, **extra: object) -> None:
        """Write the run's spans and counters (once, at the end)."""
        with open(path, "w") as handle:
            json.dump(dict(extra, spans=self.spans, counters=self.counters,
                           excluded=sorted(self.excluded)), handle)


def cprofile_counts(stats: Dict[tuple, tuple],
                    keys: Dict[str, Tuple[str, int, str]]
                    ) -> Dict[str, int]:
    """Total calls cProfile saw for each traced function's code."""
    return {name: int(stats[key][1]) if key in stats else 0
            for name, key in keys.items()}


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children are matched by parent id, whatever thread recorded them;
    overlapping children (from two threads) are counted once.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[4]:
            children.setdefault(span[4], []).append((span[1], span[2]))
    result: Dict[int, float] = {}
    for name, start, end, span_id, _parent, _trace, _thread in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span_id] = (end - start) - covered
    return result


def layer_totals(spans: Sequence[Span], excluded: Iterable[int] = ()
                 ) -> Dict[str, Tuple[int, float]]:
    """``{name: (calls, self seconds)}`` over one process's spans (span
    ids are unique per process only), leaving out excluded traces."""
    own = self_times(spans)
    skip = set(excluded)
    totals: Dict[str, Tuple[int, float]] = {}
    for span in spans:
        if span[5] in skip:
            continue
        calls, self_s = totals.get(span[0], (0, 0.0))
        totals[span[0]] = (calls + 1, self_s + own[span[3]])
    return totals
