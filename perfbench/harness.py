"""Shared plumbing for the benchmark's workloads: statistics, set-up
timing, memory, the environment record and the result line."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Spans and full reports of each run land here (ignored by git).
OUT_DIR = ROOT / ".perfbench"

#: Set-up is repeated this many times per run and the median reported.
SETUP_REPS = 5

#: The modules every workload imports, timed in a fresh interpreter.
IMPORTS = (
    "numpy", "repro", "repro.ops.api", "repro.plan.autotune",
    "repro.serve", "repro.validate",
)


def pct(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linearly interpolated."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    data = list(values)
    return statistics.median(data) if data else 0.0


#: A closed loop's timed operations fall into windows of this length (s).
WINDOW_S = 1.0
#: Share of a closed loop's seconds spent warming up, untimed.
WARMUP_SHARE = 0.08
#: Milliseconds :func:`probe` takes on the reference host, a quiet
#: 2-vCPU Xeon; timings are scaled to what they would read there.
PROBE_REF_MS = 16.0
#: Probe calls per sample of the host's speed.
PROBES = 3


def probe(clock: Callable[[], float] = time.perf_counter) -> float:
    """Milliseconds of a fixed piece of work that never calls the program.

    It mixes what the workloads do -- strided NumPy copies and maxima of
    float16 images, fresh allocations, plain Python dictionary work --
    so that it slows with the host as they do.  ``clock`` times it.
    """
    t0 = clock()
    img = (np.arange(64 * 35 * 35) % 251).astype(np.float16)
    img = img.reshape(64, 35, 35)
    acc, seen = 0, {}
    for i in range(40):
        rows = img[:, i % 3::2, :].copy()
        acc += int(np.maximum(rows[:, :-1, :], rows[:, 1:, :]).argmax())
        buf = np.zeros(1 << 18, np.uint8)
        buf[::4096] = i
        acc += int(buf.sum())
        for j in range(200):
            key = (i * 7 + j) % 61
            seen[key] = seen.get(key, 0) + j
    return (clock() - t0) * 1e3


def sample_speed(probes: list[float] | None = None) -> float:
    """Probe the host :data:`PROBES` times; returns the median, also
    appended to ``probes`` when given."""
    got = statistics.median(probe() for _ in range(PROBES))
    if probes is not None:
        probes.append(got)
    return got


def host_scale(probes: Iterable[float]) -> float:
    """Factor from timings taken while the host probed as ``probes`` to
    the reference host's.

    The shared host switches between a quiet state and one up to about
    twice as slow, every few seconds and for minutes at a time.  Scaling each
    timing by probes taken next to it lets runs made in either state
    agree; a change to the program does not move the probe and shows.
    """
    return PROBE_REF_MS / statistics.median(probes)


def rotate_cpu(allowed: list[int], turn: int) -> None:
    """Pin this thread to the ``turn``-th of ``allowed`` CPUs, cyclically.

    A neighbour on the host can slow one virtual CPU for many seconds
    while the other runs at full speed; taking turns keeps such a spell
    from deciding a whole run.
    """
    os.sched_setaffinity(0, {allowed[turn % len(allowed)]})


class Window(NamedTuple):
    """One window of a closed loop."""

    #: Seconds of each operation.
    times: list[float]
    #: The host's speed around the window: the mean of the probes
    #: (:func:`sample_speed`) right before and right after it.
    probe_ms: float


def closed_loop(op: Callable[[], float], seconds: float) -> list[Window]:
    """Call ``op`` back to back for ``seconds``, one caller.

    ``op`` returns the seconds it timed.  The first
    :data:`WARMUP_SHARE` of the time is warm-up and not kept; the rest
    is cut into windows of :data:`WINDOW_S`, each run on the next CPU
    in turn, with probes of the host's speed between them.
    """
    allowed = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    end = start + seconds
    warm_end = start + seconds * WARMUP_SHARE
    windows: list[Window] = []
    probes: list[float] = []
    try:
        while time.perf_counter() < warm_end:
            op()
        while time.perf_counter() < end or not windows:
            rotate_cpu(allowed, len(windows))
            sample_speed(probes)
            close = time.perf_counter() + WINDOW_S
            times = [op()]
            while time.perf_counter() < min(close, end):
                times.append(op())
            sample_speed(probes)
            windows.append(Window(times, statistics.median(probes[-2:])))
    finally:
        os.sched_setaffinity(0, allowed)
    return windows


def scaled_ms(windows: list[Window]) -> list[float]:
    """Every timed operation in ms, scaled by the probes around its
    window."""
    return [t * 1e3 * host_scale([w.probe_ms]) for w in windows
            for t in w.times]


def import_seconds() -> float:
    """Wall time of importing the stack in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); "
        + "; ".join(f"import {m}" for m in IMPORTS)
        + "; print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
        capture_output=True, text=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def time_setup(warm: Callable[[], None]) -> tuple[float, float]:
    """Median over :data:`SETUP_REPS` of imports plus ``warm()``, each
    rep scaled by a probe of the host right after it; returns it with
    the unscaled median.

    ``warm`` must start from cold program caches each time it is called;
    it does whatever a user pays before the first useful result.
    """
    reps, scaled = [], []
    for _ in range(SETUP_REPS):
        t_import = import_seconds()
        t0 = time.perf_counter()
        warm()
        reps.append(t_import + time.perf_counter() - t0)
        scaled.append(reps[-1] * host_scale([sample_speed()]))
    return statistics.median(scaled), statistics.median(reps)


def reset_peak_rss(pid: int) -> bool:
    """Reset the peak resident set (``VmHWM``) of a live process to its
    current size, so a later :func:`pid_peak_rss_mb` covers only what
    ran since.  Returns whether the kernel allowed it."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def cpu_times() -> tuple[int, int]:
    """``(busy, steal)`` clock ticks of the whole host so far.

    Steal is time the hypervisor gave this machine's virtual CPUs to
    someone else; a run with a large share of it ran on a slower host.
    """
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    user, nice, system, idle, iowait, irq, softirq, steal = fields[:8]
    return user + nice + system + irq + softirq + steal, steal


def _source_digest() -> str:
    h = hashlib.sha1()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None  # not a git checkout; source_digest identifies the code
    return out.stdout.strip()


def environment(workload: str, seed: int, seconds: int, trace: bool,
                start_cpu: tuple[int, int], **extra) -> dict:
    """What a result must carry to be compared like-for-like.

    ``start_cpu`` is :func:`cpu_times` at the start of the run.
    """
    import numpy

    busy, steal = (b - a for a, b in zip(start_cpu, cpu_times()))
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host_cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "cpu_steal_share": steal / busy if busy else 0.0,
        "window_s": WINDOW_S,
        "warmup_share": WARMUP_SHARE,
        "probe_ref_ms": PROBE_REF_MS,
        **extra,
    }


@dataclass
class Outcome:
    """Operations attempted and failed (errors, refusals, wrong results)."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, wrong: bool = False, note: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += int(wrong)
            if note and len(self.notes) < 20:
                self.notes.append(note)

    @property
    def ok_ratio(self) -> float:
        if not self.attempted:
            return 0.0
        return (self.attempted - self.failed) / self.attempted


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit(env: dict, outcome: Outcome, metrics: dict,
         extra: dict | None = None) -> dict:
    """Write the full report and print the result as the last line."""
    result = {
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{env['workload']}-s{env['seed']}-t{int(env['trace'])}.json"
    report = {"env": env, "result": result, "failures": outcome.notes,
              **(extra or {})}
    (OUT_DIR / name).write_text(json.dumps(report, indent=1, default=str))
    print("env " + json.dumps(env, default=str))
    for note in outcome.notes:
        print("failure " + note)
    print(json.dumps(result), flush=True)
    return result
