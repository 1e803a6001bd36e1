"""In-memory spans around the public functions of the coil2coil modules.

A span is ``[name, start, end, parent]`` with ``perf_counter`` seconds and
the index of the span that was open when it began (-1 at top level).  Spans
are kept in a list and written out when the run ends.

Modules import one another's functions by name (``train`` calls its own
binding of ``make_training_pair``), so a wrapper is installed at every
binding of the function inside the package, not only where it is defined.
All bindings are restored when the ``instrument`` block exits.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from contextlib import contextmanager

PACKAGE = "coil2coil"


class Tracer:
    """Span and counter store for one traced phase of a run.

    ``only`` limits which span targets ``instrument`` installs; None means
    all of them.
    """

    def __init__(self, only=None):
        self.only = only
        self.spans = []
        self.counts = {}
        self._open = []

    def begin(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def lowest(self, key, value):
        self.counts[key] = min(self.counts.get(key, value), value)


def summarize(spans):
    """{name: (calls, total seconds, self seconds)} over closed spans.

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap, since the program is
    single-threaded.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        calls, total, self_time = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, total + (end - start), self_time + (end - start) - child[i])
    return out


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _bindings(modules, func):
    """(module, attribute) pairs among modules that currently hold func."""
    return [(mod, attr) for mod in modules for attr, value in vars(mod).items() if value is func]


def _wrap(tracer, func, name, hook):
    if callable(name):
        name_of = name
    else:
        def name_of(args, kwargs):
            return name

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name_of(args, kwargs))
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.end(idx)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return wrapper


@contextmanager
def instrument(tracer, targets):
    """Wrap each target for the duration of the block.

    targets: iterable of (target, module, function, name, hook) where name is
    the span name or a function (args, kwargs) -> span name, and hook is None
    or a function (tracer, args, kwargs, result) called after a successful
    call to record counts.
    """
    saved = []
    modules = _package_modules()
    try:
        for target, module, function, name, hook in targets:
            if tracer.only is not None and target not in tracer.only:
                continue
            original = getattr(importlib.import_module(module), function)
            wrapper = _wrap(tracer, original, name, hook)
            for mod, attr in _bindings(modules, original):
                saved.append((mod, attr, original))
                setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def tail_percentile(samples, q=90, min_beyond=10):
    """The q-th percentile of samples, refused when fewer than min_beyond
    samples lie beyond it (a p90 needs at least 100 samples)."""
    n = len(samples)
    if n * (100 - q) / 100 < min_beyond:
        raise ValueError(f"p{q} of {n} samples has fewer than {min_beyond} samples beyond it")
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
