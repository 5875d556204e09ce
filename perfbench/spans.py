"""In-memory span recorder for the traced benchmark run.

The recorder patches the public functions of each layer of the stack
from outside (class methods, module functions, and the names that
``repro.ops.base`` and ``repro.plan.autotune`` import), records one
span per call and restores every original on ``uninstall``.  Nothing
is patched until ``install_stack`` (or ``SpanRecorder.wrap``) runs, so
an untraced run executes the program exactly as shipped.

A span is ``(name, t0, t1, parent, op)``: ``parent`` is the index of
the enclosing span on the same thread (-1 for a root) and ``op`` the
operation id current when it opened.  A span's self time is its
duration minus the durations of its direct children; children nest
strictly inside their parent, so they never overlap each other.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    name: str
    t0: float
    t1: float
    parent: int
    op: int
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class SpanRecorder:
    """Records spans around patched callables; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.op = -1
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self) -> int:
        """Start a new operation; later spans carry its id."""
        self.op += 1
        return self.op

    def open(self, name: str) -> int:
        stack = self._stack()
        idx = len(self.spans)
        parent = stack[-1] if stack else -1
        self.spans.append(
            Span(name, time.perf_counter(), 0.0, parent, self.op)
        )
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span.t1 = time.perf_counter()
        self._stack().pop()
        if span.parent >= 0:
            self.spans[span.parent].child_time += span.duration

    # -- patching -------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        before: Callable[..., Any] | None = None,
        after: Callable[..., None] | None = None,
        starts_op: bool = False,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``before(*args, **kw)`` runs ahead of the call and its return
        value is handed to ``after(span, token, result, *args, **kw)``,
        which runs once the call returned; both feed ``counters`` (and
        ``after`` may rename the span, e.g. to mark a cache miss).
        """
        original = getattr(owner, attr)
        rec = self

        def wrapper(*args, **kw):
            if starts_op:
                rec.begin_op()
            token = before(*args, **kw) if before is not None else None
            idx = rec.open(name)
            try:
                result = original(*args, **kw)
            finally:
                rec.close(idx)
            if after is not None:
                after(rec.spans[idx], token, result, *args, **kw)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def per_op(self, name: str, attr: str = "duration") -> dict[int, float]:
        """Sum of ``attr`` over spans named ``name``, keyed by op id.

        Nested spans of the same name (``GlobalMemory.zeros`` calling
        ``add``) are counted once, at the outermost level.
        """
        out: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.name != name or s.op < 0:
                continue
            if s.parent >= 0 and self.spans[s.parent].name == name:
                continue
            out[s.op] += getattr(s, attr)
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines (one object per span)."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "t0": s.t0, "t1": s.t1,
                    "parent": s.parent, "op": s.op,
                }) + "\n")


# ---------------------------------------------------------------------------
# The stack's layers.
# ---------------------------------------------------------------------------

def install_stack(rec: SpanRecorder, autotune_ops: bool = False) -> None:
    """Wrap the public entry points of ops, plan, progcache, isa and sim.

    ``autotune_ops=True`` makes every ``plan_cycles`` call the autotuner
    makes start a new operation (the unit of ``autotune-cold``).
    """
    import numpy as np

    from repro.isa.program import Program
    from repro.ops import api, base
    from repro.plan import autotune, planner
    from repro.sim import aicore, chip, compile as jit, memory, progcache

    for fn in ("maxpool", "avgpool", "maxpool_backward", "avgpool_backward"):
        rec.wrap(api, fn, "ops.api")
    # ``repro.ops.base`` imported these names; plan_cycles (and so the
    # autotuner) reaches lower/dispatch through ``repro.plan.planner``.
    for owner in (base, planner):
        rec.wrap(owner, "lower", "plan.lower")
        rec.wrap(owner, "dispatch", "plan.dispatch")
    rec.wrap(base, "resolve_plan", "plan.resolve")
    rec.wrap(autotune, "plan_cycles", "plan.plan_cycles",
             starts_op=autotune_ops)
    rec.wrap(autotune, "search", "plan.search")

    def cache_before(self, *a, **kw):
        return self.stats.misses, self.stats.jit_misses

    def lookup_after(span, token, result, self, *a, **kw):
        miss = self.stats.misses != token[0]
        rec.counters["progcache.misses" if miss else "progcache.hits"] += 1
        if miss:
            span.name = "progcache.build"

    def jit_after(span, token, result, self, *a, **kw):
        miss = self.stats.jit_misses != token[1]
        rec.counters[
            "progcache.jit_misses" if miss else "progcache.jit_hits"
        ] += 1
        if miss:
            span.name = "progcache.compile"

    rec.wrap(progcache.ProgramCache, "get_or_build", "progcache.lookup",
             before=cache_before, after=lookup_after)
    rec.wrap(progcache.ProgramCache, "compiled", "progcache.jit_lookup",
             before=cache_before, after=jit_after)
    # Memoized summaries call this only on a miss.
    rec.wrap(progcache, "summarize", "progcache.summarize")

    rec.wrap(Program, "relocate", "isa.relocate")
    rec.wrap(chip.Chip, "__post_init__", "chip.build")
    rec.wrap(chip.Chip, "run_tiles", "chip.run")
    rec.wrap(chip.Chip, "run_tile_groups", "chip.run")
    rec.wrap(aicore.AICore, "run", "aicore.run")

    def kernel_after(span, token, result, self, *a, **kw):
        rec.counters["compile.steps"] += len(self.steps)
        rec.counters["compile.fallbacks"] += self.stats.fallbacks

    rec.wrap(jit.CompiledKernel, "__call__", "compile.kernel",
             after=kernel_after)

    def gm_add(span, token, result, self, name, array):
        rec.counters["memory.gm_bytes"] += int(np.asarray(array).nbytes)

    def gm_read(span, token, result, self, name, shape):
        rec.counters["memory.gm_bytes"] += int(result.nbytes)

    rec.wrap(memory.GlobalMemory, "add", "memory.gm", after=gm_add)
    rec.wrap(memory.GlobalMemory, "zeros", "memory.gm")
    rec.wrap(memory.GlobalMemory, "read", "memory.gm", after=gm_read)


def _ms(seconds: float) -> float:
    return seconds * 1e3


def stack_metrics(rec: SpanRecorder) -> dict[str, dict]:
    """Per-layer metrics of the ops/plan/progcache/isa/sim stack.

    ``*_ms.p50`` is the median over operations of the layer's time in
    one operation (self time where the name says so); counts are per
    operation; ``*.total`` sums over the whole traced section.
    """
    from harness import median, metric

    ops = sorted({s.op for s in rec.spans if s.op >= 0})
    n = max(len(ops), 1)

    def p50(name: str, attr: str = "duration") -> float:
        per = rec.per_op(name, attr)
        return _ms(median(per.get(op, 0.0) for op in ops)) if ops else 0.0

    def count(name: str) -> float:
        return sum(1 for s in rec.spans if s.name == name and s.op >= 0) / n

    def total(name: str) -> float:
        return _ms(sum(rec.per_op(name).values()))

    def ratio(hit: str, miss: str) -> tuple[float, int]:
        h, m = rec.counters[hit], rec.counters[miss]
        return (h / (h + m) if h + m else 0.0), h + m

    op_wall: dict[int, float] = {}
    for s in rec.spans:
        if s.op >= 0 and (s.parent < 0 or rec.spans[s.parent].op != s.op):
            op_wall[s.op] = op_wall.get(s.op, 0.0) + s.duration
    hit, lookups = ratio("progcache.hits", "progcache.misses")
    jit_hit, jit_lookups = ratio("progcache.jit_hits", "progcache.jit_misses")
    ms, cnt = "ms", "count"
    return {
        "bench.op_ms.p50": metric(_ms(median(op_wall.values())), ms),
        "bench.ops_traced": metric(len(ops), cnt),
        "ops.self_ms.p50": metric(p50("ops.api", "self_time"), ms),
        "plan.resolve_ms.p50": metric(p50("plan.resolve"), ms),
        "plan.lower_self_ms.p50": metric(p50("plan.lower", "self_time"), ms),
        "plan.dispatch_self_ms.p50":
            metric(p50("plan.dispatch", "self_time"), ms),
        "plan.plan_cycles_ms.p50": metric(p50("plan.plan_cycles"), ms),
        "plan.search_ms.p50": metric(
            _ms(median(s.duration for s in rec.by_name("plan.search"))), ms),
        "plan.plans_costed": metric(len(rec.by_name("plan.plan_cycles")), cnt),
        "progcache.hit_ratio": metric(hit, "ratio"),
        "progcache.lookups": metric(lookups, cnt),
        "progcache.jit_hit_ratio": metric(jit_hit, "ratio"),
        "progcache.jit_lookups": metric(jit_lookups, cnt),
        "progcache.build_ms.total": metric(total("progcache.build"), ms),
        "progcache.summary_ms.total": metric(total("progcache.summarize"), ms),
        "progcache.compile_ms.total": metric(total("progcache.compile"), ms),
        "isa.relocate_calls": metric(count("isa.relocate"), cnt),
        "isa.relocate_ms.p50": metric(p50("isa.relocate"), ms),
        "chip.builds": metric(count("chip.build"), cnt),
        "chip.build_ms.p50": metric(p50("chip.build"), ms),
        "chip.run_self_ms.p50": metric(p50("chip.run", "self_time"), ms),
        "aicore.runs": metric(count("aicore.run"), cnt),
        "aicore.run_self_ms.p50": metric(p50("aicore.run", "self_time"), ms),
        "compile.kernel_ms.p50": metric(p50("compile.kernel"), ms),
        "compile.steps": metric(rec.counters["compile.steps"] / n, cnt),
        "compile.fallbacks": metric(rec.counters["compile.fallbacks"], cnt),
        "memory.gm_ms.p50": metric(p50("memory.gm"), ms),
        "memory.gm_bytes":
            metric(rec.counters["memory.gm_bytes"] / n, "bytes"),
    }
