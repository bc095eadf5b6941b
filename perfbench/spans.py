"""In-memory span tracing around the package's layer boundaries.

The package has no timers of its own, so the traced pass wraps, from
outside, the names the engine and the CLI actually call. ``oap.engine`` and
``oap.cli`` bind ``forward``, ``sample_batch`` and friends at import, so the
wrappers replace those bindings (and the methods on the classes), not the
defining modules' names. Each wrapper records one span: name, start, end,
parent span and the id of the operation it served (the frame index for
engine work, the call number for CLI work). Work a wrapper does to count
things is recorded as its own ``trace.bookkeeping`` span, so it is never
charged to a layer. Spans stay in memory until ``write_csv`` at the end of
the run.

A tracer made with ``roots`` records a span only under one of those root
names: a wrapped call made outside any root span (say the head copy in
``Engine.__init__``, which runs outside the timed ``process_frame`` call)
passes straight through, so every span lies inside measured time.

A name that no longer exists at the measured commit is skipped and listed in
``Tracer.missing``; the metrics built on it read 0 and the run goes on.
"""

from __future__ import annotations

import collections
from time import perf_counter_ns

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self, roots=None) -> None:
        self.roots = None if roots is None else frozenset(roots)
        self.spans: list[tuple] = []  # (name, start_ns, end_ns, parent, stream, op)
        self.stack: list[int] = []
        self.stream = 0
        self.op = 0
        self.counts: collections.Counter = collections.Counter()
        self.missing: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrapper(self, name, fn, before=None, after=None, on_error=None, op_arg=None):
        spans, stack = self.spans, self.stack
        untraced_at_root = self.roots is not None and name not in self.roots

        def bookkeeping(parent, start):
            spans.append((BOOKKEEPING, start, perf_counter_ns(), parent, self.stream, self.op))

        def traced(*args, **kwargs):
            if untraced_at_root and not stack:
                return fn(*args, **kwargs)
            if op_arg is not None:
                self.op = args[op_arg]
            parent = stack[-1] if stack else -1
            state = None
            if before is not None:
                b0 = perf_counter_ns()
                state = before(args)
                bookkeeping(parent, b0)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.stream, self.op)
                if on_error is not None:
                    on_error(self.counts, exc)
                raise
            end = perf_counter_ns()
            stack.pop()
            spans[idx] = (name, start, end, parent, self.stream, self.op)
            if after is not None:
                b0 = perf_counter_ns()
                after(self.counts, args, result, state)
                bookkeeping(parent, b0)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` by a traced wrapper until ``unpatch``.
        Class methods and static methods keep their descriptor kind."""
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            self.missing.add(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrapper(name, raw.__func__, **hooks))
        else:
            wrapped = self._wrapper(name, raw, **hooks)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def clear(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    # -- analysis --------------------------------------------------------

    def table(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, total (inclusive) ns and self ns, where
        self time is the duration minus the time of the span's children.
        Spans nest strictly (one thread), so children never overlap."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, int]] = {}
        for i, (name, start, end, parent, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child_ns[i]
        return out

    def root_ns(self) -> int:
        return sum(end - start for _, start, end, parent, _, _ in self.spans if parent < 0)

    def root_names(self) -> list[str]:
        return sorted({name for name, _, _, parent, _, _ in self.spans if parent < 0})

    def write_csv(self, path) -> None:
        """Spans in recording order; ``parent`` is a row number (-1 for a
        root), ``stream`` and ``op`` together are the shared operation id."""
        with open(path, "w") as fh:
            fh.write("row,name,start_ns,end_ns,parent,stream,op\n")
            for i, (name, start, end, parent, stream, op) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent},{stream},{op}\n")
