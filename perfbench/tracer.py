"""Spans around the calls into the program's layers, recorded from outside.

For the traced run only, :class:`Tracer` replaces named public functions in
the namespace of the module that calls them (``proverb.controller.nevc_multi``,
``proverb.profiles.solve``, ...) and methods on their classes with wrappers
that record one span per call: name, start, end, parent span and operation
id.  Spans stay in memory until :meth:`Tracer.write`.  A span's self time
is its duration minus the time its direct child spans cover; calls are
synchronous and single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from pathlib import Path

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: dict[str, int] = defaultdict(int)
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = _clock()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = _clock()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span: for the benchmark's own direct calls."""
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    def wrap(self, owner, attr: str, name: str, tally=None) -> None:
        """Replace ``owner.attr`` with a spanning wrapper until :meth:`restore`.

        ``tally(*args, **kwargs)`` reads a counter off the call's arguments
        before and after each call; the difference adds to ``counts[name]``.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            before = tally(*args, **kwargs) if tally is not None else 0
            rec = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(rec)
            if tally is not None:
                tracer.counts[name] += tally(*args, **kwargs) - before
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def own_times(self) -> list[float]:
        """Self time of each span, in span order, in seconds."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - c for (_n, start, end, _p, _o), c in zip(self.spans, covered)]

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, the self time of each span in seconds."""
        out: dict[str, list[float]] = defaultdict(list)
        for (name, *_rest), own in zip(self.spans, self.own_times()):
            out[name].append(own)
        return out

    def durations(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = defaultdict(list)
        for name, start, end, _parent, _op in self.spans:
            out[name].append(end - start)
        return out

    def write(self, path: Path) -> None:
        """Write the spans as tab-separated lines: name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            fh.writelines(
                f"{n}\t{s:.9f}\t{e:.9f}\t{p}\t{o}\n" for n, s, e, p, o in self.spans
            )
