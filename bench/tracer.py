"""Span recorder for traced benchmark runs, and the arithmetic on its spans.

The launcher wraps public functions of ``schro_gsp`` from outside; no code of
the library changes.  Each wrapped call opens a span (name, start, end,
parent).  Calls that happen hundreds of thousands of times per run are
"hot": they add a count and their summed time to the innermost open span
instead of opening a span each.  Counts computed from a call's arguments or
result go to the innermost open span as well.  Everything stays in memory;
``dump`` returns it once the run is over.

A span's self time is its duration minus the part of it covered by its
child spans and minus the time of hot calls made while it was innermost.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# Fields of one recorded span.
NAME, START, END, PARENT, HOT, COUNTS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.root_hot: dict[str, list] = {}
        self.root_counts: dict[str, float] = {}

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, None, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while {popped} was innermost")

    def _innermost(self, field: int, root: dict) -> dict:
        if not self._stack:
            return root
        span = self.spans[self._stack[-1]]
        if span[field] is None:
            span[field] = {}
        return span[field]

    def hot(self, name: str, seconds: float, vectors: int) -> None:
        bucket = self._innermost(HOT, self.root_hot)
        entry = bucket.get(name)
        if entry is None:
            bucket[name] = [1, seconds, vectors]
        else:
            entry[0] += 1
            entry[1] += seconds
            entry[2] += vectors

    def count(self, key: str, amount: float) -> None:
        bucket = self._innermost(COUNTS, self.root_counts)
        bucket[key] = bucket.get(key, 0) + amount

    def dump(self) -> dict:
        return {"spans": self.spans, "root_hot": self.root_hot,
                "root_counts": self.root_counts}


# ---------------------------------------------------------------------------
# Wrappers.
# ---------------------------------------------------------------------------


def span_wrapper(tracer: Tracer, fn, name, after=None):
    """Wrap ``fn`` in a span; ``name`` is a string or a function of the args.

    ``after(tracer, args, kwargs, result)`` runs while the span is still
    innermost, so the counts it records land on this span."""

    def wrapper(*args, **kwargs):
        idx = tracer.open(name if isinstance(name, str) else name(args, kwargs))
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result
        finally:
            tracer.close(idx)

    wrapper.__wrapped__ = fn
    return wrapper


def hot_wrapper(tracer: Tracer, fn, name: str, operand: int):
    """Count calls and summed time of ``fn``; ``operand`` indexes the array
    argument whose column count is recorded as the number of vectors."""
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            shape = getattr(args[operand], "shape", ()) if len(args) > operand else ()
            tracer.hot(name, elapsed, shape[1] if len(shape) == 2 else 1)

    wrapper.__wrapped__ = fn
    return wrapper


def patch_everywhere(package: str, original, replacement) -> int:
    """Rebind every module-level reference to ``original`` inside ``package``.

    Modules that did ``from .x import f`` hold their own reference, so the
    function is replaced in each of them.  Returns how many were rebound."""
    hits = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    return hits


# ---------------------------------------------------------------------------
# Arithmetic on recorded spans.
# ---------------------------------------------------------------------------


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` after clipping them to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> list[float]:
    """Self time of each span: duration minus child coverage and hot time."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for idx, span in enumerate(spans):
        start, end = span[START], span[END]
        hot = sum(entry[1] for entry in (span[HOT] or {}).values())
        covered = covered_length(children.get(idx, ()), start, end)
        out.append(max(0.0, end - start - covered - hot))
    return out
