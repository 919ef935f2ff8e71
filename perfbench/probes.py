"""Instrumentation installed from outside the program by swapping module names.

A module that did ``from cisched.domain import filter_eligible`` looks the
name up in its own namespace on every call, so replacing that attribute
puts a wrapper in the call path without editing the program. ``Patches``
restores every swapped name on exit.

``CycleCapture`` is the only instrumentation of an untraced run: one clock
read on entry to ``filter_eligible`` and one on return from
``emit_test_plans`` per cycle, plus references to values the program
already produced (instance, solve statistics, schedule). ``Tracer`` adds a
timed span around every public call a layer makes into another.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

import cisched.cli
import cisched.scheduling
import cisched.simulator
import cisched.solver


class Patches:
    """Swaps module attributes for wrappers and puts the originals back on exit."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, module: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(module, name)
        self._saved.append((module, name, original))
        setattr(module, name, make(original))

    def __enter__(self) -> Patches:
        return self

    def __exit__(self, *exc: object) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)


@dataclass
class CycleRecord:
    """What one scheduled cycle (or one ``cisched schedule`` call) produced."""

    cycle: int
    filter_to_emit_ms: float
    schedule: Any
    prioritized: Any
    agents: Any
    instance: Any = None
    stats: Any = None


class CycleCapture:
    """Two clock reads per cycle and references to the cycle's own outputs.

    ``keep_instances`` holds each cycle's SchedulingInstance, which the
    seed comparison of optimizing runs needs; greedy runs leave it off so a
    long campaign does not keep every cycle's pair history alive.
    """

    def __init__(self, keep_instances: bool) -> None:
        self.keep_instances = keep_instances
        self.records: list[CycleRecord] = []
        self._start = 0.0
        self._instance = None
        self._stats = None

    def install(self, patches: Patches, module: Any) -> None:
        patches.wrap(module, "filter_eligible", self._on_filter)
        patches.wrap(module, "emit_test_plans", self._on_emit)
        patches.wrap(module, "solve_detailed", self._on_solve)
        if self.keep_instances:
            patches.wrap(module, "build_instance", self._on_build)

    def take(self) -> list[CycleRecord]:
        records, self.records = self.records, []
        return records

    def _on_filter(self, original: Callable) -> Callable:
        def filter_eligible(*args, **kwargs):
            self._start = time.perf_counter()
            self._instance = self._stats = None
            return original(*args, **kwargs)

        return filter_eligible

    def _on_build(self, original: Callable) -> Callable:
        def build_instance(*args, **kwargs):
            self._instance = original(*args, **kwargs)
            return self._instance

        return build_instance

    def _on_solve(self, original: Callable) -> Callable:
        def solve_detailed(*args, **kwargs):
            schedule, self._stats = original(*args, **kwargs)
            return schedule, self._stats

        return solve_detailed

    def _on_emit(self, original: Callable) -> Callable:
        def emit_test_plans(schedule, prioritized, agents, cycle):
            plans = original(schedule, prioritized, agents, cycle)
            end = time.perf_counter()
            self.records.append(
                CycleRecord(
                    cycle=cycle,
                    filter_to_emit_ms=(end - self._start) * 1000.0,
                    schedule=schedule,
                    prioritized=prioritized,
                    agents=agents,
                    instance=self._instance,
                    stats=self._stats,
                )
            )
            return plans

        return emit_test_plans


# Span name for each name a consumer module calls, per consumer. Span names
# are the per-layer metric names without their "_ms" suffix.
SIMULATOR_SPANS = {
    "filter_eligible": "domain.filter",
    "prioritize_all": "priority.prioritize",
    "build_instance": "scheduling.build_instance",
    "schedule_greedy": "scheduling.greedy",
    "solve_detailed": "solver.solve",
    "emit_test_plans": "execution.emit",
    "execute_plan": "execution.execute",
    "collect_results": "execution.collect",
    "save_plan": "execution.save",
    "save_result": "execution.save",
    "make_cycle_report": "reporting.make_report",
    "save_report": "reporting.save_report",
    "append_history": "domain.append_history",
}
# schedule_greedy and solve_detailed reach these through their own modules.
PACKING_SPANS = {
    "PackedInstance": "scheduling.pack",
    "greedy_assignment": "scheduling.greedy",
    "check_schedule": "scheduling.check",
}
CLI_SPANS = {
    "parse_config": "config.parse",
    "load_repository": "domain.load_repository",
    "validate_repository": "domain.validate",
    "load_history": "domain.load_history",
    "filter_eligible": "domain.filter",
    "prioritize_all": "priority.prioritize",
    "build_instance": "scheduling.build_instance",
    "solve_detailed": "solver.solve",
    "emit_test_plans": "execution.emit",
    "save_plan": "execution.save",
    "load_report": "reporting.load_report",
    "load_plan": "execution.load_plan",
    "export_plot_data": "reporting.export",
}
# Work counted at a span's boundary, from its arguments and result.
SPAN_COUNTS = {
    "execution.execute": lambda args, result: len(args[0].entries),
    "domain.append_history": lambda args, result: len(args[1]),
    "kernels.search": lambda args, result: int(result[1]),
}


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    count: int = 0


@dataclass
class _Open:
    child_s: float = 0.0


@dataclass
class Tracer:
    """Timed spans at layer boundaries, aggregated per span name.

    Spans nest through a stack: each span's self time is its duration minus
    the durations of the spans opened inside it, so self times partition
    the time of the outermost spans. Counts (kernel nodes, plan entries,
    history records) are taken at the same boundaries.
    """

    stats: dict[str, SpanStats] = field(default_factory=dict)
    _stack: list[_Open] = field(default_factory=list)

    def install(self, patches: Patches) -> None:
        for module, spans in (
            (cisched.simulator, SIMULATOR_SPANS),
            (cisched.scheduling, PACKING_SPANS),
            (cisched.solver, PACKING_SPANS),
            (cisched.cli, CLI_SPANS),
        ):
            for attr, span in spans.items():
                patches.wrap(module, attr, lambda fn, span=span: self.wrap(span, fn))
        patches.wrap(cisched.solver, "get_kernel", self._on_get_kernel)
        patches.wrap(cisched.solver, "ensure_obligatory_coverage", self._on_reseed)

    def stat(self, name: str) -> SpanStats:
        return self.stats.setdefault(name, SpanStats())

    def wrap(self, name: str, fn: Callable) -> Callable:
        count = SPAN_COUNTS.get(name)

        def traced(*args, **kwargs):
            frame = _Open()
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1].child_s += elapsed
                stat = self.stat(name)
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame.child_s
            if count is not None:
                stat.count += count(args, result)
            return result

        return traced

    def _on_get_kernel(self, original: Callable) -> Callable:
        def get_kernel(backend):
            return self.wrap("kernels.search", original(backend))

        return get_kernel

    def _on_reseed(self, original: Callable) -> Callable:
        # Counted, not timed: the reseed stays part of the solver's self time.
        def ensure_obligatory_coverage(packed):
            self.stat("solver.reseed").count += 1
            return original(packed)

        return ensure_obligatory_coverage
