"""``autotune-cold``: offline, cycles-only plan search from cold caches.

A sweep tunes the forward and backward workload of every
``DEFAULT_GRID`` geometry plus ``K_DRAWS`` seeded
``sample_pool_geometry`` draws; every ``autotune_grid`` call builds a
fresh ``ProgramCache``, so lowering, timing-model summaries and a
``Chip`` per candidate are paid again each time.  No data pass runs,
so JIT changes should not show here.

The operation timed is tuning one geometry (its two workloads).  The
timings cover the fixed grid only, so runs with different seeds
compare like-for-like: a run tunes the grid in whole rounds and keeps
each geometry's median round, scaled by probes of the host.  The
seeded draws are tuned once per run, untimed, and checked by the
oracle; they also feed the traced per-layer numbers.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import time

from harness import (
    ROOT, Outcome, host_scale, median, metric, pct, pid_peak_rss_mb, probe,
    reset_peak_rss, rotate_cpu, time_setup,
)
from spans import SpanRecorder, install_stack, stack_metrics

#: Per-layer metric names (prefixes) only this workload measures.
OWNS = ("plan.cycles_won_median",)
#: Seeded geometries added to the fixed grid.
K_DRAWS = 4
COMMITTED_TABLE = ROOT / "results" / "autotune_table.json"
ENV = {"k_draws": K_DRAWS}


def geometries(seed: int):
    """``(workloads, fixed)`` per geometry: its forward and backward
    workload, and whether the committed table holds their winners."""
    from repro.plan.autotune import grid_workloads
    from repro.validate import DEFAULT_GRID
    from repro.workloads import sample_pool_geometry

    rng = random.Random(seed)
    drawn = [sample_pool_geometry(rng) for _ in range(K_DRAWS)]
    return (
        [(grid_workloads([g]), True) for g in DEFAULT_GRID]
        + [(grid_workloads([g]), False) for g in drawn]
    )


class Oracle:
    """Fixed-grid winners must equal the committed table; a drawn
    workload's winner, costed again, must reproduce its cycles and
    be no worse than the heuristic baseline."""

    def __init__(self) -> None:
        self.committed = json.loads(COMMITTED_TABLE.read_text())["entries"]

    def check(self, key: str, entry: dict, fixed: bool) -> str:
        from repro.config import ASCEND910
        from repro.plan.planner import ExecutionPlan, plan_cycles
        from repro.sim import ProgramCache

        if fixed:
            # The winner only: how many candidates the search costed
            # may change without the answer changing.
            want = self.committed.get(key) or {}
            same = all(want.get(k) == entry[k] for k in ("plan", "cycles"))
            return "" if same else "table"
        plan = ExecutionPlan.from_dict(entry["plan"])
        cycles = plan_cycles(plan, ASCEND910, cache=ProgramCache()).cycles
        if cycles != entry["cycles"]:
            return "recost"
        if entry["cycles"] > entry["baseline_cycles"]:
            return "worse-than-baseline"
        return ""


def sweep(geoms, oracle: Oracle | None, outcome: Outcome | None):
    """Tune every geometry once from cold caches.

    Returns per geometry ``(seconds, rows, fixed)``, where ``rows`` are
    ``autotune_grid``'s rows of its two workloads, or ``None`` if it
    failed.
    """
    from repro.config import ASCEND910
    from repro.errors import ReproError
    from repro.plan.autotune import autotune_grid

    out = []
    for wls, fixed in geoms:
        t0 = time.perf_counter()
        try:
            table, rows = autotune_grid(wls, ASCEND910)
        except ReproError as exc:
            if outcome is not None:
                for w in wls:
                    outcome.record(False, note=f"{w.key(ASCEND910)}: {exc}")
            out.append(None)
            continue
        out.append((time.perf_counter() - t0, rows, fixed))
        if oracle is None:
            continue
        for row in rows:
            key = row["workload"]
            bad = oracle.check(key, table.lookup(key), fixed)
            outcome.record(not bad, wrong=bool(bad), note=f"{key}: {bad}")
    return out


def timed_rounds(geoms, oracle: Oracle, outcome: Outcome, seconds: float):
    """The seeded draws once, checked but untimed (they also warm up the
    process), then whole rounds of the fixed grid while time is left.

    Geometry ``i`` runs on CPU ``i + round`` in turn, and the host's
    speed is probed on that CPU between geometries; each time is scaled
    by the probes on both sides of it.  Returns ``(times, rows)``: per
    fixed geometry its scaled seconds in each round it did not fail,
    and its rows from the last round.
    """
    cpus = sorted(os.sched_getaffinity(0))
    fixed = [g for g in geoms if g[1]]
    times: list[list[float]] = [[] for _ in fixed]
    rows: list = [[] for _ in fixed]
    start = time.perf_counter()
    sweep([g for g in geoms if not g[1]], oracle, outcome)
    try:
        for rnd in itertools.count():
            round_start = time.perf_counter()
            for i, g in enumerate(fixed):
                rotate_cpu(cpus, rnd + i)
                before = probe()
                (got,) = sweep([g], oracle, outcome)
                if got is not None:
                    times[i].append(got[0] * host_scale([before, probe()]))
                    rows[i] = got[1]
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds * 1.05:
                return times, rows
    finally:
        os.sched_setaffinity(0, cpus)


def _import_grid() -> None:
    from repro.plan import autotune  # noqa: F401
    from repro.validate import DEFAULT_GRID  # noqa: F401


def run(seed: int, seconds: float, trace: bool):
    from repro.plan.autotune import summarize_rows

    geoms = geometries(seed)
    outcome = Outcome()
    setup_s, setup_unscaled = time_setup(_import_grid)
    oracle = Oracle()
    if not trace:
        rss_reset = reset_peak_rss(os.getpid())
        times, rows = timed_rounds(geoms, oracle, outcome, seconds)
        # Each geometry's median round, so every geometry weighs alike.
        ms = [median(ts) * 1e3 for ts in times if ts]
        last = [r for rs in rows for r in rs]
        plans = sum(r["evaluated"] for r in last)
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(pid_peak_rss_mb(os.getpid()), "MB"),
            "ops_ok_ratio": metric(outcome.ok_ratio, "ratio"),
            "op_p50_ms": metric(pct(ms, 50), "ms"),
            "op_p90_ms": metric(pct(ms, 90), "ms"),
            "ops_per_s": metric(plans / (sum(ms) / 1e3), "1/s"),
            "sim_cycles": metric(sum(r["best_cycles"] for r in last),
                                 "cycles"),
        }
        extra = {"rounds": min(map(len, times)), "fixed_grid_plans": plans,
                 "geometry_ms": ms, "setup_s_unscaled": setup_unscaled,
                 "rss_peak_reset": rss_reset,
                 "summary_fixed_grid": summarize_rows(last)}
        return outcome, metrics, extra, None

    def plain_sweep() -> float:
        t0 = time.perf_counter()
        sweep(geoms, oracle, outcome)
        return time.perf_counter() - t0

    # Untraced sweeps on both sides of the traced one, so host drift
    # does not land on one side of the overhead ratio.
    before = plain_sweep()
    rec = SpanRecorder()
    install_stack(rec, autotune_ops=True)
    try:
        t0 = time.perf_counter()
        done = sweep(geoms, None, None)
        traced = time.perf_counter() - t0
    finally:
        rec.uninstall()
    plain = (before + plain_sweep()) / 2
    metrics = stack_metrics(rec)
    metrics["bench.trace_overhead_ratio"] = metric(traced / plain, "ratio")
    metrics["plan.cycles_won_median"] = metric(
        summarize_rows(
            [r for _, rows, f in filter(None, done) if f for r in rows]
        )["median_cycles_won"],
        "ratio",
    )
    return outcome, metrics, {"sweep_s_plain": plain,
                              "sweep_s_traced": traced}, rec
