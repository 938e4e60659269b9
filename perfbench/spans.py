"""Outside-in tracing of fsoqkd's public functions, and self-time arithmetic.

Functions are wrapped where their callers resolve them (module globals),
so the package itself is not edited.  Each wrapped call records a span
``[name, start, end, parent, hidden]`` in memory; ``hidden`` is time spent
in counted calls made directly inside the span.  ``rate_per_pulse`` runs
up to ~10^5 times per run, so it gets an accumulated counter and timer
instead of spans, and its time is charged to the enclosing span as hidden
child time.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Sequence, Tuple

SPANNED: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    (
        "fsoqkd.cli",
        (
            "cmd_rates",
            "cmd_validate",
            "cmd_transmissivity",
            "scan",
            "derive",
            "fb_turb_eta",
            "gaussian_pib_53",
            "gaussian_pib_turb",
        ),
    ),
    (
        "fsoqkd.planner",
        (
            "lg_envelope",
            "fb_envelope",
            "optimize_allocation",
            "lg_turb_matrix",
            "fb_turb_matrix",
            "lg_vacuum_matrix",
            "fb_vacuum_matrix",
            "lg_vacuum_capacity",
            "gaussian_pib_turb",
            "derive",
        ),
    ),
    ("fsoqkd.turbulence", ("hg_sample", "integrate_1d")),
    ("fsoqkd.vacuum", ("integrate_1d",)),
)
"""(module, attributes) whose calls become spans."""

COUNTED: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("fsoqkd.planner", ("rate_per_pulse",)),
)
"""(module, attributes) whose calls are only counted and timed."""

Span = List  # [name, start, end, parent index or -1, hidden seconds]


def layer_name(fn: Callable) -> str:
    """``module.function`` after the package prefix, e.g. ``numerics.hg_sample``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, List[float]] = {}
        self._stack: List[int] = []

    def span(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        total = self.counters.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                total[0] += 1
                total[1] += elapsed
                if stack:
                    spans[stack[-1]][4] += elapsed

        return wrapper

    def install(self) -> None:
        """Replace every SPANNED and COUNTED attribute by its wrapper."""
        for targets, wrap in ((SPANNED, self.span), (COUNTED, self.counted)):
            for module_name, attrs in targets:
                module = importlib.import_module(module_name)
                for attr in attrs:
                    fn = getattr(module, attr)
                    setattr(module, attr, wrap(layer_name(fn), fn))


def _covered(intervals: List[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    covered, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def summarize(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``self_s`` and outermost-only ``incl_s``.

    Self time is a span's duration minus the part its child spans cover and
    minus its hidden (counted-call) time.  Inclusive time adds a span's
    duration only when no ancestor has the same name, so a re-entrant
    function is not counted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent, _hidden in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: Dict[str, Dict[str, float]] = {}
    for index, (name, start, end, parent, hidden) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += end - start - _covered(children.get(index, []), start, end) - hidden
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["incl_s"] += end - start
    return out
