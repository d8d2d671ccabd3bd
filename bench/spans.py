"""Span recording around metamine's public functions, installed from outside
the package.

A `Tracer` replaces each target function with a wrapper, both in the module
that defines it and in every metamine module that imported the name, and
puts the originals back on `remove()`. Span wrappers append one record per
call (name, start, end, parent span, op id, measured attributes); counter
wrappers only count calls per op, for functions called thousands of times
inside one descent. Spans stay in memory until `write_csv`.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into the span list, -1 for a root span
    op: object           # op id the span belongs to
    attrs: Optional[dict] = None


@dataclass(frozen=True)
class Target:
    """One function to wrap: `owner` is a module name, optionally followed by
    `:Class` for a method; `measure(args, kwargs, result)` returns attributes
    for the span. With `count_only`, calls are counted and no span is kept."""

    owner: str
    attr: str
    name: str
    measure: Optional[Callable] = None
    count_only: bool = False


def self_times(spans):
    """Per span: its duration minus the part of its interval covered by its
    children (overlapping children are merged, so nothing is subtracted
    twice)."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        intervals = sorted((max(spans[c].start, span.start),
                            min(spans[c].end, span.end))
                           for c in children[index])
        covered = 0.0
        run_start = run_end = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out.append((span.end - span.start) - covered)
    return out


def _resolve(owner):
    module_name, _, class_name = owner.partition(":")
    module = sys.modules[module_name]
    return getattr(module, class_name) if class_name else module


PACKAGE = "metamine"


class Tracer:
    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans = []
        self.counts = {}          # (op, name) -> calls
        self.op = None
        self._stack = []
        self._patched = []        # (holder, attr, original)

    # -- wrappers -------------------------------------------------------
    def _span_wrapper(self, target, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = Span(target.name, time.perf_counter(), 0.0,
                        stack[-1] if stack else -1, tracer.op)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if target.measure is not None:
                span.attrs = target.measure(args, kwargs, result)
            return result
        return wrapper

    def _count_wrapper(self, target, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (tracer.op, target.name)
            tracer.counts[key] = tracer.counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ---------------------------------------------------
    def install(self):
        """Wrap every target wherever a package module holds it."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        try:
            for target in self.targets:
                holder = _resolve(target.owner)
                original = holder.__dict__[target.attr]
                make = (self._count_wrapper if target.count_only
                        else self._span_wrapper)
                wrapper = make(target, original)
                if isinstance(holder, type):
                    self._patch(holder, target.attr, original, wrapper)
                    continue
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, original, wrapper)
        except BaseException:
            self.remove()
            raise

    def _patch(self, holder, attr, original, wrapper):
        setattr(holder, attr, wrapper)
        self._patched.append((holder, attr, original))

    def remove(self):
        """Put every original function back."""
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    # -- output ---------------------------------------------------------
    def write_csv(self, path):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,op\n")
            for index, s in enumerate(self.spans):
                fh.write(f"{index},{s.name},{s.start!r},{s.end!r},{s.parent},{s.op}\n")


def file_bytes(path):
    """Size of a file, or the total size of the files directly inside a
    directory."""
    path = Path(path)
    if path.is_dir():
        return sum(os.path.getsize(p) for p in path.iterdir() if p.is_file())
    return os.path.getsize(path)
