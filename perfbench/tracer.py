"""In-memory span tracing around calls into rsrforge's layers.

The tracer replaces a function on the module attribute that its caller
looks up (for example ``rsrforge.discovery.cross_validate``) with a
timing wrapper, so only calls that cross a module boundary are traced
and recursion inside a module stays untraced.  Each span records its
name, start, end, parent span and job id; spans are kept in per-thread
buffers and written out when the run ends.  Spans opened on a
``run_bench`` worker thread, whose own stack is empty, take the span
open on the job's client thread (``run_bench`` itself) as parent, so
self time accounts for work done on the pool.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import threading
from array import array
from collections import defaultdict
from time import perf_counter


class _Buffer:
    """Closed spans of one thread, stored column-wise to stay compact."""

    def __init__(self):
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.job = array("q")
        self.start = array("d")
        self.end = array("d")

    def record(self, sid, parent, name, job, start, end) -> None:
        self.sid.append(sid)
        self.parent.append(parent)
        self.name.append(name)
        self.job.append(job)
        self.start.append(start)
        self.end.append(end)


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers = []
        self._names = []
        self._name_index = {}
        self._lock = threading.Lock()
        self._counts = defaultdict(float)
        self._installed = []
        self.absent = []
        self.job = 0
        self._client = []  # stack of the thread that opened the job span

    # -- recording ---------------------------------------------------------

    def _thread_state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            st = self._local.state = ([], buf)
        return st

    def name_id(self, name: str) -> int:
        with self._lock:
            idx = self._name_index.get(name)
            if idx is None:
                idx = self._name_index[name] = len(self._names)
                self._names.append(name)
            return idx

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self._counts[key] += amount

    def span(self, name_idx: int, fn, args, kwargs):
        stack, buf = self._thread_state()
        sid = next(self._ids)
        parent = stack[-1] if stack else self._adopted_parent()
        job = self.job
        stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            buf.record(sid, parent, name_idx, job, t0, t1)

    def _adopted_parent(self) -> int:
        """Innermost open span of the job's client thread, or 0."""
        try:
            return self._client[-1]
        except IndexError:
            return 0

    def open_job(self, job: int):
        """Open job ``job``'s root span on the calling thread.

        Returns a function that closes it.  Until then, spans opened on
        threads with an empty stack (the run_bench worker pool) become
        children of whatever span is innermost on this thread.
        """
        self.job = job
        idx = self.name_id("job")
        stack, buf = self._thread_state()
        self._client = stack
        sid = next(self._ids)
        stack.append(sid)
        t0 = perf_counter()

        def close():
            t1 = perf_counter()
            stack.pop()
            buf.record(sid, 0, idx, job, t0, t1)

        return close

    # -- hook installation -------------------------------------------------

    def patch(self, target: str, make) -> bool:
        """Replace module attribute ``target`` with ``make(original)``.

        A missing module or attribute is recorded in ``absent`` and
        skipped, so a refactored program still runs under the tracer.
        """
        mod_name, _, attr = target.rpartition(".")
        try:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return False
        replacement = make(original)
        replacement.__wrapped__ = original
        setattr(module, attr, replacement)
        self.on_uninstall(lambda: setattr(module, attr, original))
        return True

    def on_uninstall(self, undo) -> None:
        """Register ``undo`` to run when the hooks come out."""
        self._installed.append(undo)

    def wrap(self, target: str, span_name, on_return=None) -> bool:
        """Time every call of ``target`` as a span.

        ``span_name`` is a string, or a function of the call's arguments
        returning one.  ``on_return(result, args, kwargs)`` runs after
        each call that returns.
        """
        tracer = self
        ids = {}

        def make(original):
            def wrapper(*args, **kwargs):
                name = span_name if isinstance(span_name, str) else span_name(args, kwargs)
                idx = ids.get(name)
                if idx is None:
                    idx = ids[name] = tracer.name_id(name)
                out = tracer.span(idx, original, args, kwargs)
                if on_return is not None:
                    on_return(out, args, kwargs)
                return out

            return wrapper

        return self.patch(target, make)

    def uninstall(self) -> None:
        for undo in reversed(self._installed):
            undo()
        self._installed.clear()

    # -- results -----------------------------------------------------------

    def spans(self):
        """All closed spans as (sid, parent, name, job, start, end) tuples."""
        out = []
        for buf in self._buffers:
            for row in zip(buf.sid, buf.parent, buf.name, buf.job, buf.start, buf.end):
                out.append(row)
        out.sort()
        return [(s, p, self._names[n], j, t0, t1) for s, p, n, j, t0, t1 in out]

    def counts(self) -> dict:
        with self._lock:
            return dict(self._counts)

    def write(self, path) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tname\tjob\tstart\tend\n")
            for s, p, n, j, t0, t1 in self.spans():
                fh.write(f"{s}\t{p}\t{n}\t{j}\t{t0!r}\t{t1!r}\n")


def self_times(spans) -> dict:
    """Per span name: (calls, self seconds).

    A span's self time is its duration minus the union of its children's
    intervals clipped to it; children on parallel worker threads overlap,
    so the union, not the sum, is subtracted.
    """
    children = defaultdict(list)
    for sid, parent, _name, _job, t0, t1 in spans:
        if parent:
            children[parent].append((t0, t1))
    calls = defaultdict(int)
    busy = defaultdict(float)
    for sid, _parent, name, _job, t0, t1 in spans:
        covered = 0.0
        kids = children.get(sid)
        if kids:
            kids.sort()
            cur_lo = cur_hi = None
            for lo, hi in kids:
                lo, hi = max(lo, t0), min(hi, t1)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                elif hi > cur_hi:
                    cur_hi = hi
            if cur_hi is not None:
                covered += cur_hi - cur_lo
        calls[name] += 1
        busy[name] += max(0.0, (t1 - t0) - covered)
    return {name: (calls[name], busy[name]) for name in calls}
