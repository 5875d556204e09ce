"""``serve-open``: seeded Poisson arrivals into ``PoolService``.

Open loop: requests are sent on a schedule drawn from the seed,
whether or not earlier ones have completed, and each latency is timed
from the request's *scheduled* send time, so a stall is charged to
every request it delays.  A refused or failed request counts as
missing any latency limit.

The mix is 50% ``maxpool`` with the Argmax mask, 25%
``maxpool_backward`` and 25% ``avgpool``, JIT execution, N1 C32 at
extents 16/18/20/22 (12 geometry keys), spread over three tenants.
Fixed-rate phases run at fractions of the fleet's calibrated capacity:
``light`` (a quarter) gives the latency a lone user sees and ``heavy``
(three quarters) the queueing under load.  The throughput the fleet
sustains comes from a ``saturated`` phase instead: ``CLIENTS``
closed-loop callers, each sending its next request as soon as the
previous one is answered, keep both workers busy without an
ever-growing backlog.
"""

from __future__ import annotations

import asyncio
import bisect
import math
import os
import random
import time
from typing import Any, NamedTuple

from harness import (
    SETUP_REPS, Outcome, host_scale, import_seconds, median, metric, pct,
    pid_peak_rss_mb, probe, reset_peak_rss, sample_speed,
)
from spans import SpanRecorder, install_stack, stack_metrics

#: Per-layer metric names (prefixes) only this workload measures.
OWNS = ("serve.",)

EXTENTS = (16, 18, 20, 22)
CHANNELS = 32
#: Share of each request kind in the mix.
MIX = (("maxpool", 2), ("maxpool_backward", 1), ("avgpool", 1))
TENANTS = ("tenant-a", "tenant-b", "tenant-c")
#: Distinct seeded payloads per geometry key.
PAYLOADS = 3
#: Seed of the arrival schedule and the mix (see :meth:`Draws.for_seed`).
SCHEDULE_SEED = 20211
WORKERS = 2
#: Throughput of the mix the 2-worker fleet sustains on a 2-core host
#: (requests/s; five calibration runs read 74 to 93); the phase rates
#: derive from it.
CAPACITY_RPS = 80.0
LIGHT_RPS = 0.25 * CAPACITY_RPS
HEAVY_RPS = 0.75 * CAPACITY_RPS
#: Closed-loop callers of the ``saturated`` phase: enough that each
#: worker always has queued work, although each serves only the keys
#: bound to it.
CLIENTS = 16
#: Shares of ``--seconds`` the phases last.  An untraced run sends
#: ``light`` and ``saturated`` traffic (all of its seconds), a traced
#: one half the ``light`` and then ``heavy``.
LIGHT_SHARE, HEAVY_SHARE, SATURATED_SHARE = 0.55, 0.2, 0.45
#: The open loop probes the host when nothing is in flight and the next
#: send is at least this far off (s); a probe takes 15 to 30 ms.
IDLE_PROBE_S = 0.06
#: A request's latency is scaled by the probes this close (s) to it.
PAIR_S = 0.5
#: The saturated phase probes the host this often (s).
BUSY_PROBE_S = 0.5
#: Admission limit, and every tenant's quota, so that neither caps a
#: phase.
QUEUE_LIMIT = 512
ENV = {
    "capacity_rps": CAPACITY_RPS, "light_rps": LIGHT_RPS,
    "heavy_rps": HEAVY_RPS, "saturating_clients": CLIENTS,
    "workers": WORKERS, "schedule_seed": SCHEDULE_SEED,
}


def _spec():
    from repro.ops import PoolSpec

    return PoolSpec.square(kernel=3, stride=2)


def keys() -> list[tuple[str, int]]:
    return [(kind, e) for kind, _ in MIX for e in EXTENTS]


def make_requests(seed: int) -> dict:
    """``{(kind, extent): [PoolRequest] * PAYLOADS}`` from the seed."""
    from repro.ops.reference import maxpool_argmax_ref
    from repro.serve import PoolRequest
    from repro.workloads import make_gradient, make_input

    spec = _spec()
    out: dict = {k: [] for k in keys()}
    for e in EXTENTS:
        oh, ow = spec.with_image(e, e).out_hw()
        for p in range(PAYLOADS):
            base = seed * 104729 + e * 31 + p * 2
            x = make_input(e, e, CHANNELS, 1, seed=base)
            grad = make_gradient(x.shape[1], oh, ow, 1, seed=base + 1)
            mask = maxpool_argmax_ref(x, spec)
            out[("maxpool", e)].append(PoolRequest(
                kind="maxpool", x=x, spec=spec, impl="im2col",
                with_mask=True, execute="jit"))
            out[("maxpool_backward", e)].append(PoolRequest(
                kind="maxpool_backward", x=grad, mask=mask, spec=spec,
                ih=e, iw=e, impl="col2im", execute="jit"))
            out[("avgpool", e)].append(PoolRequest(
                kind="avgpool", x=x, spec=spec, impl="im2col",
                execute="jit"))
    return out


def goldens(requests: dict) -> dict:
    """Fingerprints of the numeric interpreter's answer per payload."""
    from dataclasses import replace

    from repro.serve import execute_request
    from repro.sim import fingerprint_result

    return {
        k: [fingerprint_result(execute_request(replace(r, execute="numeric")))
            for r in reqs]
        for k, reqs in requests.items()
    }


class Draws(NamedTuple):
    """The generators a run draws its traffic from."""

    #: Arrival times, request kinds, extents and tenants.
    mix: random.Random
    #: Which of a key's payloads each request carries.
    payloads: random.Random

    @classmethod
    def for_seed(cls, seed: int) -> "Draws":
        """The arrival schedule and the mix are the same in every run,
        so that runs compare like-for-like; the seed draws the payloads
        (and :func:`make_requests` their data)."""
        return cls(random.Random(SCHEDULE_SEED), random.Random(seed))


def draw(rngs: Draws) -> tuple[tuple[str, int], int, str]:
    """One request of the mix: ``(key, payload, tenant)``."""
    kinds = [kind for kind, weight in MIX for _ in range(weight)]
    return ((rngs.mix.choice(kinds), rngs.mix.choice(EXTENTS)),
            rngs.payloads.randrange(PAYLOADS), rngs.mix.choice(TENANTS))


def schedule(rngs: Draws, rate: float, seconds: float):
    """Poisson arrivals: ``[(offset_s, key, payload, tenant)]``."""
    out, t = [], 0.0
    while True:
        t += rngs.mix.expovariate(rate)
        if t >= seconds:
            return out
        out.append((t, *draw(rngs)))


class Record(NamedTuple):
    """One request sent by the generator (times on ``time.monotonic``)."""

    due: float
    late: float
    #: Seconds from ``due`` to completion; ``inf`` if refused or failed.
    latency: float
    #: The service's answer without its arrays (``None`` if refused or
    #: failed), so that memory does not grow with the answers kept.
    response: Any
    key: tuple[str, int]
    payload: int
    #: ``fingerprint_result`` of the answer's arrays.
    fingerprint: int | None = None


class Phase:
    """One fixed-rate run of the open-loop generator."""

    def __init__(self, name: str, rate: float) -> None:
        self.name = name
        self.rate = rate
        self.records: list[Record] = []
        self.inflight_max = 0
        #: ``(time, ms)`` probes of the host's speed taken while idle.
        self.probes: list[tuple[float, float]] = []

    def latencies_ms(self) -> list[float]:
        return [r.latency * 1e3 for r in self.records]

    def scaled_latencies_ms(self) -> list[float]:
        """Latencies scaled by the probes within :data:`PAIR_S` of each
        request's send time (all of the phase's if none is that close)."""
        times = [t for t, _ in self.probes]
        out = []
        for r in self.records:
            lo = bisect.bisect_left(times, r.due - PAIR_S)
            hi = bisect.bisect_right(times, r.due + PAIR_S)
            near = self.probes[lo:hi] or self.probes
            out.append(r.latency * 1e3 * host_scale(ms for _, ms in near))
        return out

    def throughput(self) -> float:
        """Answers per second from the first send to the last answer."""
        done = [r.due + r.latency for r in self.records
                if r.response is not None]
        if not done:
            return 0.0
        return len(done) / (max(done) - min(r.due for r in self.records))


async def _send(svc, requests, phase: Phase, due, late, key, p, tenant):
    """Submit one request and record it in ``phase``."""
    from dataclasses import replace

    from repro.errors import ReproError
    from repro.sim import fingerprint_result

    try:
        resp = await svc.submit(replace(requests[key][p], tenant=tenant))
    except ReproError:
        phase.records.append(Record(due, late, math.inf, None, key, p))
    else:
        phase.records.append(Record(
            due, late, resp.completed_at - due, replace(resp, result=None),
            key, p, fingerprint_result(resp.result)))


async def run_phase(svc, requests, phase: Phase, rngs, seconds) -> Phase:
    """Open loop: send on the schedule, whatever is in flight."""
    plan = schedule(rngs, phase.rate, seconds)
    inflight = 0

    async def send(due, late, key, p, tenant):
        nonlocal inflight
        inflight += 1
        phase.inflight_max = max(phase.inflight_max, inflight)
        try:
            await _send(svc, requests, phase, due, late, key, p, tenant)
        finally:
            inflight -= 1

    tasks = []
    phase.probes.append((time.monotonic(), probe()))
    start = time.monotonic() + 0.02
    for offset, key, p, tenant in plan:
        due = start + offset
        delay = due - time.monotonic()
        if inflight == 0 and delay > IDLE_PROBE_S:
            # Nothing to collect and nothing due: probe the host.
            phase.probes.append((time.monotonic(), probe()))
            delay = due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        late = max(0.0, time.monotonic() - due)
        tasks.append(asyncio.create_task(send(due, late, key, p, tenant)))
    await asyncio.gather(*tasks)
    return phase


async def run_saturated(svc, requests, phase: Phase, rngs,
                        seconds) -> Phase:
    """Closed loop: ``CLIENTS`` callers, each sending the next request of
    one drawn sequence as soon as its previous one is answered."""
    # Far more requests than the fleet can answer in ``seconds``.
    count = int(4 * seconds * CAPACITY_RPS)
    sequence = iter([draw(rngs) for _ in range(count)])
    end = time.monotonic() + seconds

    async def client():
        for key, p, tenant in sequence:
            now = time.monotonic()
            if now >= end:
                return
            await _send(svc, requests, phase, now, 0.0, key, p, tenant)

    async def prober():
        # The workers keep busy from their inboxes while this blocks.
        # Both CPUs are busy, so the probe counts its own CPU time only.
        while True:
            phase.probes.append(
                (time.monotonic(), probe(clock=time.thread_time)))
            if time.monotonic() + BUSY_PROBE_S >= end:
                return
            await asyncio.sleep(BUSY_PROBE_S)

    await asyncio.gather(prober(), *(client() for _ in range(CLIENTS)))
    phase.inflight_max = CLIENTS
    return phase


def check(phase: Phase, golden: dict, outcome: Outcome | None) -> int:
    """Oracle: every answer's fingerprint equals the numeric golden.

    Counts into ``outcome`` (refusals and errors as failures) when
    given; returns the number of wrong answers either way.
    """
    wrong = 0
    for r in phase.records:
        want = golden[r.key][r.payload]
        bad = r.response is not None and r.fingerprint != want
        wrong += bad
        if outcome is not None:
            outcome.record(
                r.response is not None and not bad, wrong=bad,
                note=f"{phase.name} {r.key} payload {r.payload}: "
                + ("wrong answer" if bad else "refused or failed"))
    return wrong


async def start_service(requests):
    """Start the fleet and warm every geometry key once.

    Keys are warmed two at a time, so each pair binds one key to each
    worker (the coalescer routes a key's later requests to the worker
    that first served it); the pairing below gives both workers a
    similar share of the mix.
    """
    from repro.serve import PoolService, TenantQuota

    svc = PoolService(
        workers=WORKERS, queue_limit=QUEUE_LIMIT,
        quotas={t: TenantQuota(max_pending=QUEUE_LIMIT) for t in TENANTS},
    )
    await svc.start()
    try:
        for kind, _ in MIX:
            for a, b in ((16, 18), (22, 20)) if kind != "maxpool_backward" \
                    else ((18, 16), (20, 22)):
                await asyncio.gather(
                    svc.submit(requests[(kind, a)][0]),
                    svc.submit(requests[(kind, b)][0]),
                )
    except BaseException:
        await svc.close()
        raise
    return svc


def fleet_pids(svc) -> list[int]:
    return [os.getpid()] + [h.process.pid for h in svc.workers]


def fleet_rss_mb(svc) -> float:
    """Peak resident set of this process plus each worker's."""
    return sum(pid_peak_rss_mb(pid) for pid in fleet_pids(svc))


async def _untraced(svc, seed, seconds, requests, golden, setup, outcome):
    setup_s, setup_unscaled = setup
    rngs = Draws.for_seed(seed)
    light = Phase("light", LIGHT_RPS)
    saturated = Phase("saturated", 0.0)
    # The peak covers the timed phases, not set-up or the goldens.
    rss_reset = all([reset_peak_rss(pid) for pid in fleet_pids(svc)])
    try:
        # Light runs in two halves around the saturated phase, so a
        # slow spell of the host weighs on a smaller share of it.
        await run_phase(svc, requests, light, rngs,
                        LIGHT_SHARE / 2 * seconds)
        await run_saturated(svc, requests, saturated, rngs,
                            SATURATED_SHARE * seconds)
        await run_phase(svc, requests, light, rngs,
                        LIGHT_SHARE / 2 * seconds)
        rss = fleet_rss_mb(svc)
    finally:
        await svc.close()
    check(light, golden, outcome)
    check(saturated, golden, outcome)
    ms = light.scaled_latencies_ms()
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss, "MB"),
        "ops_ok_ratio": metric(outcome.ok_ratio, "ratio"),
        "op_p50_ms": metric(pct(ms, 50), "ms"),
        "op_p90_ms": metric(pct(ms, 90), "ms"),
        "ops_per_s": metric(saturated.throughput() / host_scale(
            ms for _, ms in saturated.probes), "1/s"),
        "sim_cycles": metric(sum(golden_cycles(requests)), "cycles"),
    }
    extra = {"rss_peak_reset": rss_reset, "setup_s_unscaled": setup_unscaled,
             "light_probes": len(light.probes),
             "light_p50_ms_unscaled": pct(light.latencies_ms(), 50),
             "saturated_probes": len(saturated.probes),
             "ops_per_s_unscaled": saturated.throughput(), "phases": [
        {"name": ph.name, "rate": ph.rate, "sent": len(ph.records),
         "p50_ms": pct(ph.latencies_ms(), 50),
         "p90_ms": pct(ph.latencies_ms(), 90),
         "p99_ms": pct(ph.latencies_ms(), 99),
         "throughput": ph.throughput(), "inflight_max": ph.inflight_max}
        for ph in (light, saturated)
    ]}
    return metrics, extra


def golden_cycles(requests) -> list[int]:
    """Simulated cycles of one request per geometry key (data-free)."""
    from dataclasses import replace

    from repro.serve import execute_request

    return [
        execute_request(replace(reqs[0], execute="cycles")).cycles
        for reqs in requests.values()
    ]


class QueueProbe:
    """Times each request's stay in the service's ``FairQueue``."""

    def __init__(self, rec: SpanRecorder) -> None:
        from repro.serve import tenancy

        self.pushed: dict[int, float] = {}
        self.popped: dict[int, float] = {}
        self.backlog_max = 0

        def on_push(span, token, result, queue, tenant, item):
            self.pushed.setdefault(item, span.t0)
            self.backlog_max = max(self.backlog_max, len(queue))

        def on_pop(span, token, result, queue):
            if result is not None:
                self.popped[result[1]] = span.t1

        rec.wrap(tenancy.FairQueue, "push", "serve.queue_push", after=on_push)
        rec.wrap(tenancy.FairQueue, "pop", "serve.queue_pop", after=on_pop)

    def waits_ms(self, phase: Phase) -> list[float]:
        ids = [r.response.request_id for r in phase.records
               if r.response is not None]
        return [(self.popped[i] - self.pushed[i]) * 1e3
                for i in ids if i in self.pushed and i in self.popped]

    def inbox_waits_ms(self, phase: Phase, offset: float) -> list[float]:
        """Estimated wait in a worker's inbox after dispatch: the time
        until the worker's previous request (in dispatch order)
        completed, as seen by the service.  ``offset`` converts the
        service clock to the recorder's."""
        by_worker: dict[int, list[tuple[float, float]]] = {}
        for r in phase.records:
            resp = r.response
            if resp is None or resp.request_id not in self.popped:
                continue
            by_worker.setdefault(resp.worker, []).append(
                (self.popped[resp.request_id], resp.completed_at + offset))
        waits = []
        for items in by_worker.values():
            items.sort()
            prev_done = -math.inf
            for dispatched, done in items:
                waits.append(max(0.0, prev_done - dispatched) * 1e3)
                prev_done = max(prev_done, done)
        return waits


def _replay(requests, rec: SpanRecorder | None = None) -> list[float]:
    """Run every payload once through ``execute_request`` in process;
    with ``rec``, each request is one traced operation."""
    from repro.serve import workers

    times = []
    for reqs in requests.values():
        for r in reqs:
            if rec is not None:
                rec.begin_op()
            t0 = time.perf_counter()
            workers.execute_request(r)
            times.append(time.perf_counter() - t0)
    return times


def replay_traced(requests):
    """Replay the payloads from cold caches under the tracer, then in
    alternating untraced and traced warm passes.

    Returns the recorder and the warm per-request seconds untraced and
    traced; alternating keeps drift from landing on one side.
    """
    from repro.serve import workers
    from repro.sim import PROGRAM_CACHE

    rec = SpanRecorder()

    def traced_pass():
        install_stack(rec)
        rec.wrap(workers, "execute_request", "serve.execute_request")
        try:
            return _replay(requests, rec)
        finally:
            rec.uninstall()

    PROGRAM_CACHE.clear()
    traced_pass()
    plain, traced = [], []
    for _ in range(2):
        plain += _replay(requests)
        traced += traced_pass()
    return rec, plain, traced


async def _traced(svc, seed, seconds, requests, golden, outcome):
    from repro.serve import workers

    rec = SpanRecorder()
    probe = QueueProbe(rec)
    offset = time.perf_counter() - time.monotonic()
    try:
        rngs = Draws.for_seed(seed)
        try:
            light = await run_phase(svc, requests, Phase("light", LIGHT_RPS),
                                    rngs, LIGHT_SHARE / 2 * seconds)
            heavy = await run_phase(svc, requests, Phase("heavy", HEAVY_RPS),
                                    rngs, HEAVY_SHARE * seconds)
            caches = await svc.worker_cache_stats()
            coalescer, stats = svc.coalescer, svc.stats
        finally:
            await svc.close()
    finally:
        rec.uninstall()
    check(light, golden, outcome)
    check(heavy, golden, outcome)

    rec_stack, plain, traced = replay_traced(requests)
    metrics = stack_metrics(rec_stack)
    for ph in (light, heavy):
        for name, values in (
            ("latency_ms", ph.latencies_ms()),
            ("queue_wait_ms", probe.waits_ms(ph)),
            ("inbox_wait_ms", probe.inbox_waits_ms(ph, offset)),
        ):
            for q in (50, 99):
                metrics[f"serve.{name}.p{q}.{ph.name}"] = metric(
                    pct(values, q), "ms")
    hits = sum(c["hits"] for c in caches.values())
    lookups = hits + sum(c["misses"] for c in caches.values())
    late = [r.late * 1e3 for ph in (light, heavy) for r in ph.records]
    metrics.update({
        "serve.overhead_ms.p50": metric(
            pct(light.latencies_ms(), 50) - median(plain) * 1e3, "ms"),
        "serve.worker_exec_ms.p50": metric(1e3 * median(
            s.duration for s in rec_stack.by_name("serve.execute_request")
        ), "ms"),
        "serve.coalesce_hit_ratio": metric(coalescer.hit_rate, "ratio"),
        "serve.coalesce_lookups": metric(
            coalescer.hits + coalescer.misses, "count"),
        "serve.worker_cache_hit_ratio": metric(
            hits / lookups if lookups else 0.0, "ratio"),
        "serve.worker_cache_lookups": metric(lookups, "count"),
        "serve.backlog_max": metric(probe.backlog_max, "count"),
        "serve.inflight_max": metric(
            max(light.inflight_max, heavy.inflight_max), "count"),
        "serve.retries": metric(stats.retries, "count"),
        "serve.rejected": metric(
            stats.rejected_queue_full + stats.rejected_quota
            + stats.rejected_circuit, "count"),
        "serve.gen_late_ms.p99": metric(pct(late, 99), "ms"),
        "bench.trace_overhead_ratio": metric(
            median(traced) / median(plain), "ratio"),
    })
    return metrics, {"replayed_warm_untraced": len(plain),
                     "replayed_warm_traced": len(traced)}, rec_stack


async def _setup(requests):
    """Median over reps of imports plus starting and warming a fleet,
    each rep scaled by a probe of the host right after it; returns it,
    the unscaled median and the last rep's fleet, still running."""
    reps, scaled, svc = [], [], None
    for _ in range(SETUP_REPS):
        if svc is not None:
            await svc.close()
        t_import = import_seconds()
        t0 = time.perf_counter()
        svc = await start_service(requests)
        reps.append(t_import + time.perf_counter() - t0)
        scaled.append(reps[-1] * host_scale([sample_speed()]))
    return (median(scaled), median(reps)), svc


def run(seed: int, seconds: float, trace: bool):
    requests = make_requests(seed)
    outcome = Outcome()

    async def main():
        setup, svc = await _setup(requests)
        try:
            golden = goldens(requests)
        except BaseException:
            await svc.close()
            raise
        if trace:
            return await _traced(svc, seed, seconds, requests, golden,
                                 outcome)
        metrics, extra = await _untraced(
            svc, seed, seconds, requests, golden, setup, outcome)
        return metrics, extra, None

    metrics, extra, rec = asyncio.run(main())
    return outcome, metrics, extra, rec
