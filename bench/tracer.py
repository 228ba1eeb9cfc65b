"""Span tracer that times calls into a package's public functions from the
outside, without instrumenting the package.

Each traced function is replaced by a wrapper in *every* module namespace of
the package that binds it, so ``from .cepstral import cqcc`` in another
module is traced too.  Every thread keeps its own span stack (``extract
--jobs N`` runs trials on pool threads); a span that opens on an empty stack
outside the command's thread is parented to the open command span.  Spans
stay in memory until :meth:`Tracer.write`.

A span's self time is its duration minus the part of its interval covered by
its child spans (the union of their intervals, so children running in
parallel threads are not subtracted twice).
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    command: int | None
    thread: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._command: int | None = None
        self._counter_lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # ---- recording ----------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, counter: str, amount: float) -> None:
        with self._counter_lock:
            self.counters[counter] += amount

    def wrap(self, name: str, fn: Callable, command: bool = False,
             measure: Callable | None = None) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``.

        A ``command`` span becomes the parent of root spans on other threads.
        ``measure(args, kwargs)`` returns ``(counter, amount)`` to add after a
        call that returned normally.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else (None if command else tracer._command)
            if command:
                tracer._command = span_id
            command_id = tracer._command
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if command:
                    tracer._command = None
                tracer.spans.append(Span(span_id, name, start, end, parent,
                                         command_id, threading.get_ident()))
            if measure is not None:
                tracer.add(*measure(args, kwargs))
            return result

        return traced

    # ---- patching -----------------------------------------------------
    def install(self, package: str, names: list[str], commands: tuple[str, ...] = (),
                measures: dict[str, Callable] | None = None) -> None:
        """Wrap ``<module>.<function>`` for each name, in every module of
        ``package`` (already imported) that binds the same function object."""
        measures = measures or {}
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for name in names:
            module_name, func_name = name.rsplit(".", 1)
            original = getattr(sys.modules[f"{package}.{module_name}"], func_name)
            wrapper = self.wrap(name, original, command=name in commands,
                                measure=measures.get(name))
            bound = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError(f"{name} is bound in no {package} module")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # ---- results ------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        result = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[span.span_id] = (span.end - span.start) - covered
        return result

    def summary(self) -> dict[str, dict]:
        """Per traced name: calls, total self time and every span duration."""
        own = self.self_times()
        out: dict[str, dict] = {}
        for span in self.spans:
            entry = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["self_s"] += own[span.span_id]
            entry["durations"].append(span.end - span.start)
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
