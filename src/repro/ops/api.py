"""User-facing operator entry points.

These are the functions a downstream user calls::

    from repro.ops import maxpool, maxpool_backward, PoolSpec

    spec = PoolSpec.square(kernel=3, stride=2)
    res = maxpool(x, spec, impl="im2col", with_mask=True)
    bwd = maxpool_backward(res.mask, grad, spec, ih, iw, impl="col2im")

``x`` is an ``(N, C1, Ih, Iw, C0)`` float16 tensor in the fractal
layout; use :mod:`repro.fractal` to convert from NCHW/NHWC.

Every entry point exposes the full resilience surface of the drivers
in :mod:`repro.ops.base`: ``faults=``/``retry=`` switch on the
fault-tolerant dispatcher (the recovery account lands in
``result.resilience``) and ``cache=`` selects the program cache the
lowering and the JIT-kernel memoization go through (``None`` disables
caching entirely).
"""

from __future__ import annotations

import numpy as np

from ..config import ASCEND910, ChipConfig
from ..sim import (
    PROGRAM_CACHE,
    FaultInjector,
    FaultPlan,
    ProgramCache,
    RetryPolicy,
)
from ..plan.planner import ExecutionPlan
from .base import PoolRunResult, run_backward, run_forward
from .registry import backward_impl, forward_impl
from .spec import PoolSpec

_RESILIENCE_DOC = """
    ``faults`` (a :class:`~repro.sim.FaultPlan` or
    :class:`~repro.sim.FaultInjector`) and ``retry`` (a
    :class:`~repro.sim.RetryPolicy`) enable the resilient dispatcher --
    bounded retry, tile reassignment, core quarantine, global-memory
    rollback; see :mod:`repro.sim.faults` -- and the recovery account
    is returned as ``result.resilience``.  Both ``None`` (the default)
    keeps the historical zero-overhead path.  ``cache`` selects the
    :class:`~repro.sim.ProgramCache` used for lowered programs, their
    summaries and compiled JIT kernels (default: the process-wide
    shared cache; ``None`` disables caching).  ``plan`` selects the
    planning policy (see :mod:`repro.plan.planner`): ``"default"`` is
    the historical heuristic, ``"autotuned"`` consults the persisted
    autotune table (:mod:`repro.plan.autotune`, falling back to the
    default plan for untuned workloads), and an explicit
    :class:`~repro.plan.planner.ExecutionPlan` is validated against the
    workload and dispatched as-is."""


def maxpool(
    x: np.ndarray,
    spec: PoolSpec,
    impl: str = "im2col",
    with_mask: bool = False,
    config: ChipConfig = ASCEND910,
    collect_trace: bool = True,
    execute: str = "numeric",
    model: str | None = None,
    sanitize: bool = False,
    faults: "FaultPlan | FaultInjector | None" = None,
    retry: RetryPolicy | None = None,
    cache: ProgramCache | None = PROGRAM_CACHE,
    plan: "str | ExecutionPlan" = "default",
) -> PoolRunResult:
    """MaxPool forward on the simulated chip.

    ``impl`` is one of ``standard``, ``im2col``, ``expansion``,
    ``xysplit``.  With ``with_mask=True`` the result also carries the
    Argmax mask needed for training (not supported by ``xysplit``).
    ``execute="cycles"`` runs the analytic fast path: cycle counts are
    identical but no data is computed (``output``/``mask`` are ``None``).
    ``execute="jit"`` computes the data through compiled batch kernels
    (:mod:`repro.sim.compile`) -- bit-identical outputs, masks and
    cycle counts, much faster dispatch than the default
    per-instruction interpreter.
    ``model`` picks the timing model (``serial``/``pipelined``); it only
    shapes cycle counts, never the numeric results.  ``sanitize=True``
    runs in the strict memory-checking mode
    (:mod:`repro.sim.sanitizer`); a clean run's report is
    ``result.sanitizer``.
    """
    return run_forward(
        x, spec, forward_impl(impl, "max", with_mask), config, collect_trace,
        execute=execute, model=model, sanitize=sanitize,
        faults=faults, retry=retry, cache=cache, plan=plan,
    )


def avgpool(
    x: np.ndarray,
    spec: PoolSpec,
    impl: str = "im2col",
    config: ChipConfig = ASCEND910,
    collect_trace: bool = True,
    execute: str = "numeric",
    model: str | None = None,
    sanitize: bool = False,
    faults: "FaultPlan | FaultInjector | None" = None,
    retry: RetryPolicy | None = None,
    cache: ProgramCache | None = PROGRAM_CACHE,
    plan: "str | ExecutionPlan" = "default",
) -> PoolRunResult:
    """AvgPool forward (Section V-C): sum reduction plus the element-wise
    division by the window size.  ``execute="jit"`` runs the data pass
    through compiled batch kernels (bit-identical, faster);
    ``sanitize=True`` enables the strict memory-checking mode."""
    return run_forward(
        x, spec, forward_impl(impl, "avg"), config, collect_trace,
        execute=execute, model=model, sanitize=sanitize,
        faults=faults, retry=retry, cache=cache, plan=plan,
    )


def maxpool_backward(
    mask: np.ndarray,
    grad: np.ndarray,
    spec: PoolSpec,
    ih: int,
    iw: int,
    impl: str = "col2im",
    config: ChipConfig = ASCEND910,
    collect_trace: bool = True,
    execute: str = "numeric",
    model: str | None = None,
    sanitize: bool = False,
    faults: "FaultPlan | FaultInjector | None" = None,
    retry: RetryPolicy | None = None,
    cache: ProgramCache | None = PROGRAM_CACHE,
    plan: "str | ExecutionPlan" = "default",
) -> PoolRunResult:
    """MaxPool backward: gradients routed through the Argmax mask, then
    merged (``impl`` = ``standard`` for the vadd scatter, ``col2im`` for
    the Col2Im instruction).  ``execute="jit"`` runs the data pass
    through compiled batch kernels (bit-identical, faster);
    ``sanitize=True`` enables the strict memory-checking mode."""
    return run_backward(
        grad, spec, backward_impl(impl, "max"), ih, iw,
        mask=mask, config=config, collect_trace=collect_trace,
        execute=execute, model=model, sanitize=sanitize,
        faults=faults, retry=retry, cache=cache, plan=plan,
    )


def avgpool_backward(
    grad: np.ndarray,
    spec: PoolSpec,
    ih: int,
    iw: int,
    impl: str = "col2im",
    config: ChipConfig = ASCEND910,
    collect_trace: bool = True,
    execute: str = "numeric",
    model: str | None = None,
    sanitize: bool = False,
    faults: "FaultPlan | FaultInjector | None" = None,
    retry: RetryPolicy | None = None,
    cache: ProgramCache | None = PROGRAM_CACHE,
    plan: "str | ExecutionPlan" = "default",
) -> PoolRunResult:
    """AvgPool backward: scaled gradients broadcast to every window
    position, then merged (no mask needed, Section V-C).
    ``execute="jit"`` runs the data pass through compiled batch
    kernels (bit-identical, faster); ``sanitize=True`` enables the
    strict memory-checking mode."""
    return run_backward(
        grad, spec, backward_impl(impl, "avg"), ih, iw,
        mask=None, config=config, collect_trace=collect_trace,
        execute=execute, model=model, sanitize=sanitize,
        faults=faults, retry=retry, cache=cache, plan=plan,
    )


for _fn in (maxpool, avgpool, maxpool_backward, avgpool_backward):
    _fn.__doc__ = (_fn.__doc__ or "") + _RESILIENCE_DOC
del _fn
