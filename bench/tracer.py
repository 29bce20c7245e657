"""Spans around calls into the package's public functions, taken from outside.

The tracer replaces module attributes (``elements.apply_hwp`` and so on) with
timing wrappers.  Callers that reach a function through its module, or through
a global lookup inside the defining module, go through the wrapper; names
imported by value elsewhere (``from .states import ket``) do not, so their time
counts towards the caller's self time.

Span stacks are kept per thread.  A span opened on a thread whose stack is
empty and which is not the main thread (a ``sweep`` pool worker) takes the
innermost open ``cli`` span of the main thread as its parent.  A span's self
time is its duration minus the union of its children's intervals, so children
running concurrently on pool threads are not subtracted twice.  Spans are kept
in memory, one list per traced pass, and written out once by ``dump``.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    terms_in: int
    terms_out: int


class Target(NamedTuple):
    """One wrapped function: where it lives and what to count at its boundary."""

    module: str
    func: str
    name: Callable[[tuple], str] | None = None  # span name from the call's args
    count_in: bool = False    # len(args[0].terms)
    count_out: str = ""       # "state": len(result.terms); "pair": len(result[0].terms)


class Tracer:
    def __init__(self, modules: dict[str, object], targets: list[Target]) -> None:
        self._modules = modules
        self._targets = targets
        self._originals: list[tuple[object, str, Callable]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._cli_open: list[int] = []  # innermost open cli span on the main thread
        self.spans: list[Span] = []
        self.passes: list[list[Span]] = []

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        for target in self._targets:
            module = self._modules[target.module]
            original = getattr(module, target.func, None)
            if original is None:
                continue
            self._originals.append((module, target.func, original))
            setattr(module, target.func, self._wrap(target, original))

    def uninstall(self) -> None:
        for module, func, original in reversed(self._originals):
            setattr(module, func, original)
        self._originals.clear()

    def begin_pass(self) -> None:
        self.spans = []
        self.passes.append(self.spans)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        fixed_name = f"{target.module}.{target.func}"
        is_cli = target.module == "cli"
        ids, main, cli_open = self._ids, self._main, self._cli_open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            thread = threading.get_ident()
            if stack:
                parent = stack[-1]
            elif thread != main and cli_open:
                parent = cli_open[-1]
            else:
                parent = None
            span_id = next(ids)
            terms_in = len(args[0].terms) if target.count_in else 0
            terms_out = 0
            stack.append(span_id)
            track_cli = is_cli and thread == main
            if track_cli:
                cli_open.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if target.count_out == "state":
                    terms_out = len(result.terms)
                elif target.count_out == "pair":
                    terms_out = len(result[0].terms)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if track_cli:
                    cli_open.pop()
                name = target.name(args) if target.name else fixed_name
                self.spans.append(
                    Span(span_id, parent, name, thread, start, end, terms_in, terms_out)
                )

        return wrapper

    # --- aggregation ------------------------------------------------------

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for k, spans in enumerate(self.passes):
                for s in spans:
                    fh.write(json.dumps({"pass": k, **s._asdict()}) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_s, terms_in, terms_out summed over ``spans``."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "terms_in": 0, "terms_out": 0}
    )
    for s in spans:
        clipped = [
            (max(lo, s.start), min(hi, s.end))
            for lo, hi in children.get(s.id, ())
            if hi > s.start and lo < s.end
        ]
        row = out[s.name]
        row["calls"] += 1
        row["self_s"] += (s.end - s.start) - _union_length(clipped)
        row["terms_in"] += s.terms_in
        row["terms_out"] += s.terms_out
    return dict(out)
