"""The benchmark's own self-tests.

Run from the repository root with ``python3 -m pytest perfbench -q``
(a few minutes on a 2-core host: each workload runs briefly for two
seeds untraced and once traced).
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from harness import OUT_DIR, ROOT, SRC

sys.path.insert(0, str(SRC))

import autotune_cold  # noqa: E402
import run  # noqa: E402
import serve_open  # noqa: E402
import table1  # noqa: E402
from spans import SpanRecorder, install_stack, stack_metrics  # noqa: E402


def _run(workload: str, seed: int, trace: int = 0) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "1", "--trace", str(trace)])
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_changes_inputs_not_metric_names_or_units(workload):
    first, second = _run(workload, 1), _run(workload, 2)
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert {k: v["unit"] for k, v in first["metrics"].items()} == {
        k: v["unit"] for k, v in second["metrics"].items()
    }
    # The cost model ignores data values, so simulated cycles repeat.
    assert (first["metrics"]["sim_cycles"]["value"]
            == second["metrics"]["sim_cycles"]["value"])


def test_seed_changes_inputs():
    a, b = table1.make_inputs(1), table1.make_inputs(2)
    assert not np.array_equal(a[0], b[0])
    ra, rb = serve_open.make_requests(1), serve_open.make_requests(2)
    key = serve_open.keys()[0]
    assert not np.array_equal(ra[key][0].x, rb[key][0].x)
    # The arrival schedule and mix are fixed; the payloads drawn vary.
    sa = serve_open.schedule(serve_open.Draws.for_seed(1), 50.0, 2.0)
    sb = serve_open.schedule(serve_open.Draws.for_seed(2), 50.0, 2.0)
    assert [(t, k) for t, k, _, _ in sa] == [(t, k) for t, k, _, _ in sb]
    assert [p for _, _, p, _ in sa] != [p for _, _, p, _ in sb]
    ga, gb = autotune_cold.geometries(1), autotune_cold.geometries(2)
    assert [w for w, f in ga if not f] != [w for w, f in gb if not f]
    assert [w for w, f in ga if f] == [w for w, f in gb if f]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_measures_every_layer_it_enters(workload):
    res = _run(workload, 3, trace=1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    assert set(res["metrics"]) == names
    report = json.loads((OUT_DIR / f"{workload}-s3-t1.json").read_text())
    measured = report["all_metrics"]
    owned = {n for n in names
             if n.startswith(sys.modules[run.MODULES[workload]].OWNS)}
    required = (set(stack_metrics(SpanRecorder())) | owned
                | {"bench.trace_overhead_ratio"})
    assert required <= set(measured)
    assert set(report["not_entered"]) == names - set(measured)

    value = {k: v["value"] for k, v in measured.items()}
    assert value["chip.builds"] > 0 and value["bench.ops_traced"] > 0
    if workload == "autotune-cold":
        assert value["plan.plans_costed"] > 0
        assert value["compile.kernel_ms.p50"] == 0
    else:
        assert value["compile.kernel_ms.p50"] > 0
    if workload == "table1-train":
        assert value["chip.build_ms.p50"] < value["compile.kernel_ms.p50"]
    if workload == "serve-open":
        assert value["serve.worker_exec_ms.p50"] > 0


def test_unmeasured_metric_fails_the_run(monkeypatch):
    real = table1.run

    def dropping(*args):
        outcome, metrics, extra, rec = real(*args)
        del metrics["chip.builds"]
        return outcome, metrics, extra, rec

    monkeypatch.setattr(table1, "run", dropping)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "table1-train", "--seed", "1",
                         "--seconds", "1", "--trace", "1"])
    assert code != 0
    assert '"metrics"' not in out.getvalue()


def test_timings_scale_by_the_probe_next_to_them():
    from harness import PROBE_REF_MS, Window, closed_loop, scaled_ms

    # A window run while the host probed twice as slow counts half.
    windows = [Window([0.1, 0.1], PROBE_REF_MS),
               Window([0.2, 0.2], 2 * PROBE_REF_MS)]
    assert scaled_ms(windows) == pytest.approx([100.0] * 4)

    def op():
        time.sleep(0.01)
        return 0.01

    got = closed_loop(op, 2.5)
    assert len(got) >= 2 and all(w.times and w.probe_ms > 0 for w in got)

    phase = serve_open.Phase("light", 1.0)
    phase.probes = [(0.0, PROBE_REF_MS), (10.0, 2 * PROBE_REF_MS)]
    for due in (0.1, 9.9):
        phase.records.append(
            serve_open.Record(due, 0.0, 0.02, None, ("avgpool", 16), 0))
    assert phase.scaled_latencies_ms() == pytest.approx([20.0, 10.0])


def test_self_times_non_negative_and_within_wall_time():
    from repro.ops import PoolSpec, api
    from repro.workloads import make_input

    x = make_input(20, 20, 32, 1, seed=0)
    rec = SpanRecorder()
    install_stack(rec)
    try:
        t0 = time.perf_counter()
        for _ in range(3):
            rec.begin_op()
            res = api.maxpool(x, PoolSpec.square(3, 2), with_mask=True,
                              execute="jit")
            api.maxpool_backward(res.mask, res.output, PoolSpec.square(3, 2),
                                 20, 20, execute="jit")
        wall = time.perf_counter() - t0
    finally:
        rec.uninstall()
    assert len(rec.spans) > 10
    assert all(s.self_time >= -1e-9 for s in rec.spans)
    assert sum(s.self_time for s in rec.spans) <= wall


def test_no_wrapper_left_installed():
    from repro.ops import api, base
    from repro.sim import chip

    before = (api.maxpool, base.lower, chip.Chip.__post_init__)
    rec = SpanRecorder()
    install_stack(rec)
    assert api.maxpool is not before[0]
    rec.uninstall()
    assert (api.maxpool, base.lower, chip.Chip.__post_init__) == before
    assert not hasattr(api.maxpool, "__wrapped__")


def test_flipped_bit_counts_as_failed():
    from repro.serve.workers import corrupt_result, execute_request

    from harness import Outcome

    requests = {k: v[:1] for k, v in serve_open.make_requests(5).items()}
    key = serve_open.keys()[0]
    golden = serve_open.goldens({key: requests[key]})
    good = execute_request(requests[key][0])

    @dataclasses.dataclass
    class Response:
        result: object
        completed_at: float = 0.01

    class Service:
        async def submit(self, request):
            return Response(results.pop(0))

    # The answers go through the generator's own recording path.
    results = [good, corrupt_result(good, 0, 0, "output")]
    phase = serve_open.Phase("light", 1.0)
    for _ in range(2):
        asyncio.run(serve_open._send(Service(), requests, phase, 0.0, 0.0,
                                     key, 0, "tenant-a"))
    assert all(r.response.result is None for r in phase.records)
    outcome = Outcome()
    assert serve_open.check(phase, golden, outcome) == 1
    assert (outcome.attempted, outcome.failed, outcome.wrong) == (2, 1, 1)

    inputs = table1.make_inputs(5)
    oracle = table1.Oracle(*inputs)
    fwd, bwd = table1.step(*inputs)
    assert oracle.check(fwd, bwd) == ""
    fwd.output.view(np.uint16).reshape(-1)[7] ^= 1
    assert "output" in oracle.check(fwd, bwd)


def test_cycles_won_median_repeats_with_same_seed():
    from repro.plan.autotune import summarize_rows

    def median_won(seed):
        done = autotune_cold.sweep(autotune_cold.geometries(seed), None, None)
        return summarize_rows(
            [r for _, rows, _ in filter(None, done) for r in rows])[
            "median_cycles_won"]

    assert median_won(4) == median_won(4)


def test_fails_without_the_program():
    bare = OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "table1-train",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
