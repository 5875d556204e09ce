"""``table1-train``: closed-loop training steps on the paper's Table I /
Figure 7 InceptionV3 input 3 (35x35x288, k3 s2, N=1).

One caller, in process.  A step is the JIT forward with the Argmax
mask (``im2col``) followed by the JIT backward (``col2im``) -- the data
path through ``sim.compile`` kernel steps and per-slice relocation does
most of the work, chip construction a small share.
"""

from __future__ import annotations

import os
import time

import numpy as np

from harness import (
    Outcome, Window, closed_loop, metric, median, pct, pid_peak_rss_mb,
    reset_peak_rss, scaled_ms, time_setup,
)
from spans import SpanRecorder, install_stack, stack_metrics

#: Per-layer metric names (prefixes) only this workload measures.
OWNS: tuple[str, ...] = ()

H = W = 35
C = 288
N = 1


def _spec():
    from repro.ops import PoolSpec

    return PoolSpec.square(kernel=3, stride=2)


def make_inputs(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The step's seeded input activation and incoming gradient."""
    from repro.workloads import make_gradient, make_input

    oh, ow = _spec().with_image(H, W).out_hw()
    x = make_input(H, W, C, N, seed=2 * seed)
    return x, make_gradient(x.shape[1], oh, ow, N, seed=2 * seed + 1)


def step(x: np.ndarray, grad: np.ndarray, execute: str = "jit"):
    """One training step through the public operator API."""
    from repro.ops import api

    spec = _spec()
    fwd = api.maxpool(x, spec, impl="im2col", with_mask=True, execute=execute)
    bwd = api.maxpool_backward(
        fwd.mask, grad, spec, H, W, impl="col2im", execute=execute
    )
    return fwd, bwd


class Oracle:
    """Goldens from the numeric interpreter and ``ops.reference``."""

    def __init__(self, x: np.ndarray, grad: np.ndarray) -> None:
        from repro.ops.reference import maxpool_argmax_ref, maxpool_forward_ref

        fwd, bwd = step(x, grad, execute="numeric")
        self.arrays = {
            "output": fwd.output, "mask": fwd.mask, "dx": bwd.output,
            "output-vs-reference": maxpool_forward_ref(x, _spec()),
            "mask-vs-reference": maxpool_argmax_ref(x, _spec()),
        }
        self.step_cycles = (fwd.cycles, bwd.cycles)

    @property
    def cycles(self) -> int:
        return sum(self.step_cycles)

    def check(self, fwd, bwd) -> str:
        """Empty when the step is bit-identical, else what differs."""
        got = {
            "output": fwd.output, "mask": fwd.mask, "dx": bwd.output,
            "output-vs-reference": fwd.output, "mask-vs-reference": fwd.mask,
        }
        bad = [
            name for name, want in self.arrays.items()
            if got[name] is None or not np.array_equal(
                got[name].view(np.uint16), want.view(np.uint16)
            )
        ]
        if (fwd.cycles, bwd.cycles) != self.step_cycles:
            bad.append("cycles")
        return ",".join(bad)


def _cold_step(inputs) -> None:
    from repro.sim import PROGRAM_CACHE

    PROGRAM_CACHE.clear()
    step(*inputs)


def _checked_step(inputs, oracle, outcome, rec=None) -> float:
    """One step, checked by the oracle; returns the seconds it took."""
    from repro.errors import ReproError

    if rec is not None:
        rec.begin_op()
        idx = rec.open("bench.op")
    t0 = time.perf_counter()
    try:
        fwd, bwd = step(*inputs)
        error = ""
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if rec is not None:
        rec.close(idx)
    bad = error or oracle.check(fwd, bwd)
    outcome.record(not bad, wrong=bool(bad) and not error,
                   note=f"step {outcome.attempted + 1}: {bad}")
    return seconds


def _steps(inputs, oracle, outcome, seconds, rec=None) -> list[Window]:
    return closed_loop(
        lambda: _checked_step(inputs, oracle, outcome, rec), seconds
    )


def run(seed: int, seconds: float, trace: bool):
    inputs = make_inputs(seed)
    outcome = Outcome()
    setup_s, setup_unscaled = time_setup(lambda: _cold_step(inputs))
    oracle = Oracle(*inputs)
    _cold_step(inputs)
    if not trace:
        # The peak covers the timed steps, not set-up or the oracle.
        rss_reset = reset_peak_rss(os.getpid())
        windows = _steps(inputs, oracle, outcome, seconds)
        ms = scaled_ms(windows)
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(pid_peak_rss_mb(os.getpid()), "MB"),
            "ops_ok_ratio": metric(outcome.ok_ratio, "ratio"),
            "op_p50_ms": metric(pct(ms, 50), "ms"),
            "op_p90_ms": metric(pct(ms, 90), "ms"),
            "ops_per_s": metric(len(ms) / sum(ms) * 1e3, "1/s"),
            "sim_cycles": metric(oracle.cycles, "cycles"),
        }
        extra = {"steps": outcome.attempted, "steps_timed": len(ms),
                 "setup_s_unscaled": setup_unscaled,
                 "window_p50_ms": [median(w.times) * 1e3 for w in windows],
                 "window_probe_ms": [w.probe_ms for w in windows],
                 "rss_peak_reset": rss_reset}
        return outcome, metrics, extra, None

    plain = [t for w in _steps(inputs, oracle, outcome, seconds * 0.3)
             for t in w.times]
    rec = SpanRecorder()
    install_stack(rec)
    try:
        rec.begin_op()
        idx = rec.open("bench.op")
        _cold_step(inputs)
        rec.close(idx)
        traced = [t for w in _steps(inputs, oracle, outcome, seconds * 0.5,
                                    rec) for t in w.times]
    finally:
        rec.uninstall()
    metrics = stack_metrics(rec)
    metrics["bench.trace_overhead_ratio"] = metric(
        median(traced) / median(plain), "ratio"
    )
    return outcome, metrics, {"steps_plain": len(plain),
                              "steps_traced": len(traced)}, rec
