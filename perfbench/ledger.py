"""In-memory span ledger for the traced benchmark runs.

Spans are recorded around calls into each layer's public functions by
patching those functions from here, never by editing the program.  Each
thread keeps its own span list and open-span stack; nothing is written
until :meth:`Ledger.summary` folds the spans at the end of a run.

A layer's *self time* is its span's duration minus the durations of its
direct child spans (children nest strictly on one thread), so the self
times of every span under a root sum to the root's duration exactly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from collections import defaultdict

_clock = time.perf_counter


class Ledger:
    """Thread-safe span recorder with per-name self-time aggregation."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[list[list]] = []
        self._counts: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _spans(self) -> tuple[list[list], list[int]]:
        local = self._local
        spans = getattr(local, "spans", None)
        if spans is None:
            spans = local.spans = []
            local.stack = []
            with self._lock:
                self._threads.append(spans)
        return spans, local.stack

    def enter(self, name: str) -> int:
        spans, stack = self._spans()
        index = len(spans)
        spans.append([name, _clock(), None, stack[-1] if stack else -1])
        stack.append(index)
        return index

    def exit(self, index: int) -> None:
        spans, stack = self._spans()
        spans[index][2] = _clock()
        stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block (for the benchmark's own calls)."""
        index = self.enter(name)
        try:
            yield
        finally:
            self.exit(index)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[name] += amount

    # -- patching ------------------------------------------------------------

    def wrap(self, name: str, fn):
        ledger = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = ledger.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                ledger.exit(index)

        return traced

    def patch(self, target: str, name: str) -> None:
        """Record a span named ``name`` around every call of ``target``.

        ``target`` is ``module:attr`` or ``module:Class.attr``.  Module
        attributes are replaced where the caller looks them up, so a
        function bound by name in another module must be patched there.
        """
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        self.patch_hook(owner, attr, lambda original: self._wrap_member(name, original))

    def _wrap_member(self, name: str, original):
        if isinstance(original, (classmethod, staticmethod)):
            return type(original)(self.wrap(name, original.__func__))
        return self.wrap(name, original)

    def patch_hook(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)`` (restored by unpatch)."""
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- folding -------------------------------------------------------------

    def summary(self) -> dict:
        """Fold the closed spans into per-name totals.

        Returns ``self_s`` / ``total_s`` / ``calls`` per span name, the
        recorded ``counts``, ``roots`` (summed duration of top-level spans
        per name) and ``self_sum`` (summed self time of every span under
        each top-level name, the root included).  ``self_sum`` equals
        ``roots`` by construction; the self-tests check that it does.
        """
        with self._lock:
            threads = list(self._threads)
            counts = dict(self._counts)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        roots: dict[str, float] = defaultdict(float)
        self_sum: dict[str, float] = defaultdict(float)
        for spans in threads:
            spans = list(spans)
            child = [0.0] * len(spans)
            # A child always follows its parent in its thread's list, so one
            # reverse pass folds every child's duration into its parent.
            for i in range(len(spans) - 1, -1, -1):
                name, start, end, parent = spans[i]
                if end is not None and parent >= 0:
                    child[parent] += end - start
            root_of = [0] * len(spans)
            for i, (name, start, end, parent) in enumerate(spans):
                root_of[i] = i if parent < 0 else root_of[parent]
                if end is None:
                    continue
                own = (end - start) - child[i]
                self_s[name] += own
                total_s[name] += end - start
                calls[name] += 1
                self_sum[spans[root_of[i]][0]] += own
                if parent < 0:
                    roots[name] += end - start
        return {
            "self_s": dict(self_s),
            "total_s": dict(total_s),
            "calls": dict(calls),
            "roots": dict(roots),
            "self_sum": dict(self_sum),
            "counts": counts,
        }
