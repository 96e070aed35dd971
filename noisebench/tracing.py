"""Spans recorded from outside the program, around calls into each layer.

A traced run wraps the program's layer entry points (module attributes
that the orchestration code looks up at call time) for the duration of
the traced operations and restores them afterwards.  Spans stay in
memory; at the end they are written as Chrome trace-event JSON, which
Perfetto and ``chrome://tracing`` load, and folded into a self-time
table whose layer rows plus ``unattributed`` add up to the traced wall
time.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layer rows of the self-time table, in print order.
LAYERS = ("extraction", "vpec", "noise", "circuit", "pipeline", "service")
UNATTRIBUTED = "unattributed"


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    layer: Optional[str]
    start: float
    end: float = 0.0
    lane: int = 0
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one open-span stack per lane."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stacks: Dict[int, List[Span]] = {}
        #: Per-call facts the wrappers record (steps, columns, ...).
        self.facts: Dict[str, float] = {}

    def add_fact(self, name: str, amount: float) -> None:
        self.facts[name] = self.facts.get(name, 0.0) + amount

    def max_fact(self, name: str, value: float) -> None:
        self.facts[name] = max(self.facts.get(name, value), value)

    def open(self, name: str, layer: Optional[str], lane: int = 0,
             start: Optional[float] = None) -> Span:
        stack = self._stacks.setdefault(lane, [])
        span = Span(
            id=len(self.spans),
            parent=stack[-1].id if stack else None,
            name=name,
            layer=layer,
            start=time.perf_counter() if start is None else start,
            lane=lane,
        )
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span, end: Optional[float] = None) -> None:
        span.end = time.perf_counter() if end is None else end
        stack = self._stacks[span.lane]
        if stack and stack[-1] is span:
            stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: Optional[str], lane: int = 0
             ) -> Iterator[Span]:
        opened = self.open(name, layer, lane)
        try:
            yield opened
        finally:
            self.close(opened)

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent is None]


# ----------------------------------------------------------------------
# Wrapping the program's layer entry points
# ----------------------------------------------------------------------
def _wrapped(tracer: Tracer, fn: Callable, name: str, layer: str,
             after: Optional[Callable[[Tracer, tuple, dict, Any], None]]
             ) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name, layer):
            result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


def _after_transient(tracer: Tracer, args: tuple, kwargs: dict,
                     result: Any) -> None:
    # transient_analysis_multi(circuit, t_stop, dt, scenarios, ...)
    t_stop, dt, scenarios = args[1], args[2], args[3]
    steps = int(math.ceil(t_stop / dt))
    tracer.add_fact("circuit.calls", 1)
    tracer.add_fact("circuit.columns", len(scenarios))
    # One DC solve, then one multi-RHS back-substitution per step.
    tracer.add_fact("circuit.lu_solves", steps + 1)
    tracer.max_fact("noise.horizon_s", float(t_stop))


def _after_build(tracer: Tracer, args: tuple, kwargs: dict,
                 result: Any) -> None:
    tracer.add_fact("circuit.build_s", float(result.build_seconds))


def _targets() -> List[Tuple[Any, str, str, str, Optional[Callable]]]:
    from repro.experiments import runner
    from repro.noise import engine, sweep
    from repro.pipeline import cache

    return [
        (cache, "extract", "extraction.extract", "extraction", None),
        (engine, "run_noise_scan", "noise.scan", "noise", None),
        (sweep, "run_sweep", "noise.sweep", "noise", None),
        (engine, "screen_tier", "noise.screen", "noise", None),
        (sweep, "screen_tier", "noise.screen", "noise", None),
        (engine, "arrival_times", "noise.arrival", "noise", None),
        (engine, "screen_pairs", "noise.pairs", "noise", None),
        (engine, "align_all", "noise.align", "noise", None),
        (engine, "simulate_escalated", "noise.simulate", "noise",
         _after_build),
        (runner, "build_model", "vpec.build_model", "vpec", None),
        (engine, "build_model", "vpec.build_model", "vpec", None),
        (sweep, "build_model", "vpec.build_model", "vpec", None),
        (engine, "transient_analysis_multi", "circuit.transient",
         "circuit", _after_transient),
        (sweep, "transient_analysis_multi", "circuit.transient",
         "circuit", _after_transient),
        (sweep, "_screen_scenario", "sweep.screen", "noise", None),
        (sweep, "_simulate_group", "sweep.simulate", "noise",
         _after_build),
        (sweep, "assemble_sweep_results", "sweep.assemble", "noise", None),
        (cache.PipelineCache, "get", "pipeline.cache_get", "pipeline",
         None),
        (cache.PipelineCache, "put", "pipeline.cache_put", "pipeline",
         None),
    ]


@contextlib.contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Wrap every layer entry point for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, layer, after in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrapped(tracer, original, name, layer,
                                          after))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Resident-set sampling (traced runs only)
# ----------------------------------------------------------------------
class RssSampler:
    """Samples this process's resident set every ``period`` seconds."""

    def __init__(self, period: float = 0.01) -> None:
        self.period = period
        self.samples: List[Tuple[float, int]] = []
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _read(self) -> int:
        with open("/proc/self/statm") as handle:
            return int(handle.read().split()[1]) * self._page

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.samples.append((time.perf_counter(), self._read()))
            self._stop.wait(self.period)

    def __enter__(self) -> "RssSampler":
        if os.path.exists("/proc/self/statm"):
            self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()

    def growth_mb(self, span: Span) -> float:
        """Peak resident growth over a span, MiB (0 without samples)."""
        inside = [rss for t, rss in self.samples
                  if span.start <= t <= span.end]
        before = [rss for t, rss in self.samples if t <= span.start]
        if not inside or not before:
            return 0.0
        return max(0.0, (max(inside) - before[-1]) / 2**20)


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def self_times(spans: List[Span]) -> Dict[str, float]:
    """Seconds of self time per layer; roots' self time is unattributed.

    A span's self time is its duration minus its children's; children
    of one lane run one after another, so they never overlap.
    """
    child_time: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = (
                child_time.get(span.parent, 0.0) + span.seconds
            )
    table = {layer: 0.0 for layer in LAYERS}
    table[UNATTRIBUTED] = 0.0
    for span in spans:
        own = span.seconds - child_time.get(span.id, 0.0)
        key = span.layer if span.layer in table else UNATTRIBUTED
        table[key] += own
    return table


def layer_seconds(spans: List[Span], name: str) -> float:
    """Inclusive seconds of every span with this name."""
    return sum(s.seconds for s in spans if s.name == name)


def format_table(table: Dict[str, float], wall: float, unit: str) -> str:
    lines = [f"{'layer':<14} {'self s':>10} {'share':>7}"]
    for layer, seconds in table.items():
        share = seconds / wall if wall > 0 else 0.0
        lines.append(f"{layer:<14} {seconds:>10.4f} {share:>6.1%}")
    lines.append(f"{'total':<14} {sum(table.values()):>10.4f}  "
                 f"(traced wall {wall:.4f} {unit})")
    return "\n".join(lines)


def chrome_trace(spans: List[Span], pid: int) -> Dict[str, Any]:
    """Chrome trace-event JSON (complete events, microseconds)."""
    origin = min((s.start for s in spans), default=0.0)
    events = [
        {
            "name": s.name,
            "cat": s.layer or UNATTRIBUTED,
            "ph": "X",
            "ts": (s.start - origin) * 1e6,
            "dur": s.seconds * 1e6,
            "pid": pid,
            "tid": s.lane + 1,
            "args": {"id": s.id, "parent": s.parent, **s.args},
        }
        for s in spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}
