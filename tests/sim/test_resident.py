"""Thread-resident scratch-pads (:meth:`repro.sim.chip.Chip.resident`).

The operator drivers keep each thread's scratch-pads from one call to
the next instead of building and zero-filling them per call.  That is
only sound because every kernel writes what it reads: these tests run
every registered implementation on pads left dirty (poison, then NaN)
and demand bit-identical results to a fresh, zeroed chip.  They also
pin that a cycles-only call allocates no scratch at all, that threads
never share pads, and that directly built chips stay fresh.
"""

import sys
import threading

import numpy as np
import pytest

from repro.config import ChipConfig
from repro.dtypes import FLOAT16
from repro.ops import PoolSpec
from repro.ops.api import avgpool, avgpool_backward, maxpool, maxpool_backward
from repro.ops.conv2d import conv2d, conv2d_input_grad
from repro.ops.reference import maxpool_argmax_ref, maxpool_forward_ref
from repro.ops.registry import backward_variants, forward_variants
from repro.sim import AICore
from repro.sim.chip import _RESIDENT_LIMIT, Chip
from repro.workloads import make_gradient, make_input

CFG = ChipConfig(num_cores=4)
SPEC = PoolSpec.square(3, 2)
IH = IW = 13


def _pads(config=CFG):
    """Every scratch buffer of this thread's resident chip."""
    return [
        buf
        for core in Chip.resident(config, FLOAT16).cores
        for buf in core.buffers.values()
    ]


@pytest.fixture
def fresh_chip(monkeypatch):
    """Run the operator drivers on a freshly built, zeroed chip."""

    def use_fresh():
        monkeypatch.setattr(
            Chip, "resident",
            classmethod(lambda cls, config, dtype=FLOAT16: cls(config, dtype)),
        )

    return use_fresh


def _dirty_pads():
    """Leave every resident pad dirty: one sanitized call poison-fills
    the pads it uses, then every pad is overwritten with NaN."""
    x = make_input(IH, IW, 32, seed=3)
    maxpool(x, SPEC, config=CFG, sanitize=True)
    for buf in _pads():
        buf.data.fill(np.nan)


def _run(kind, name, op, with_mask, execute):
    x = make_input(IH, IW, 32, seed=0)
    if kind == "fwd":
        fn = maxpool if op == "max" else avgpool
        kw = dict(with_mask=with_mask) if op == "max" else {}
        return fn(x, SPEC, impl=name, config=CFG, execute=execute, **kw)
    oh, ow = SPEC.with_image(IH, IW).out_hw()
    grad = make_gradient(x.shape[1], oh, ow, seed=1)
    if op == "max":
        return maxpool_backward(
            maxpool_argmax_ref(x, SPEC), grad, SPEC, IH, IW, impl=name,
            config=CFG, execute=execute,
        )
    return avgpool_backward(
        grad, SPEC, IH, IW, impl=name, config=CFG, execute=execute
    )


VARIANTS = [("fwd", *v) for v in forward_variants()] + [
    ("bwd", name, op, False) for name, op in backward_variants()
]


@pytest.mark.parametrize("execute", ["numeric", "jit"])
@pytest.mark.parametrize(
    "kind, name, op, with_mask", VARIANTS,
    ids=[f"{k}-{n}-{o}{'-mask' if m else ''}" for k, n, o, m in VARIANTS],
)
def test_dirty_pads_give_bit_identical_results(
    fresh_chip, kind, name, op, with_mask, execute
):
    _dirty_pads()
    got = _run(kind, name, op, with_mask, execute)
    fresh_chip()
    want = _run(kind, name, op, with_mask, execute)
    assert got.cycles == want.cycles
    assert np.array_equal(got.output, want.output, equal_nan=True)
    assert not np.isnan(got.output).any()
    if want.mask is not None:
        assert np.array_equal(got.mask, want.mask)


def test_dirty_pads_give_identical_convolutions(fresh_chip):
    rng = np.random.default_rng(5)
    x = make_input(9, 9, 16, seed=4)
    w = (rng.standard_normal((16, 16, 3, 3)) * 0.1).astype(np.float16)
    dy = rng.standard_normal((1, 1, 4, 4, 16)).astype(np.float16)

    def both():
        return (
            conv2d(x, w, SPEC, config=CFG),
            conv2d_input_grad(dy, w, SPEC, 9, 9, config=CFG),
        )

    _dirty_pads()
    got = both()
    fresh_chip()
    for g, f in zip(got, both()):
        assert g.cycles == f.cycles
        assert np.array_equal(g.output, f.output)


def _in_thread(fn):
    out = {}

    def target():
        try:
            out["value"] = fn()
        except Exception as exc:  # re-raised in the test thread
            out["error"] = exc

    t = threading.Thread(target=target)
    t.start()
    t.join(timeout=120)
    assert not t.is_alive()
    if "error" in out:
        raise out["error"]
    return out["value"]


def test_cycles_call_materialises_no_scratch():
    x = make_input(IH, IW, 32, seed=0)

    def touched(execute):
        maxpool(x, SPEC, config=CFG, execute=execute, with_mask=True)
        return sum(buf.materialized for buf in _pads())

    # A new thread starts with no resident pads of its own.
    assert _in_thread(lambda: touched("cycles")) == 0
    assert _in_thread(lambda: (touched("cycles"), touched("numeric"))[1]) > 0


def test_pads_persist_per_thread_and_are_never_shared():
    mine = [core.buffers for core in Chip.resident(CFG).cores]
    again = [core.buffers for core in Chip.resident(CFG).cores]
    assert all(a is b for a, b in zip(mine, again))
    assert len({id(b) for b in mine}) == CFG.num_cores
    theirs = _in_thread(
        lambda: [core.buffers for core in Chip.resident(CFG).cores]
    )
    assert not any(a is b for a, b in zip(mine, theirs))


def test_pads_kept_for_a_bounded_number_of_geometries():
    first = Chip.resident(CFG).cores[0].buffers
    for cores in range(1, _RESIDENT_LIMIT + 1):
        Chip.resident(ChipConfig(num_cores=cores, l1_bytes=512 * 1024))
    assert Chip.resident(CFG).cores[0].buffers is not first


def test_concurrent_threads_with_different_geometries():
    # More threads than host cores and a short switch interval, so the
    # calls interleave mid-dispatch; each thread must still get its own
    # geometry's exact answer.
    shapes = {"a": (13, 32), "b": (20, 48), "c": (9, 16), "d": (17, 32)}
    inputs = {k: make_input(h, h, c, seed=h) for k, (h, c) in shapes.items()}
    want = {k: maxpool_forward_ref(x, SPEC) for k, x in inputs.items()}
    start = threading.Barrier(len(shapes))
    outcomes: list[str] = []

    def worker(key):
        start.wait()
        for i in range(4):
            execute = ("numeric", "jit")[i % 2]
            try:
                got = maxpool(inputs[key], SPEC, config=CFG, execute=execute)
                same = np.array_equal(got.output, want[key])
            except Exception as exc:  # reported by the assert below
                same = repr(exc)
            outcomes.append("ok" if same is True else f"{key}/{i}: {same}")

    threads = [threading.Thread(target=worker, args=(k,)) for k in shapes]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert outcomes == ["ok"] * 16, outcomes


def test_direct_constructions_read_zeros():
    for buf in _pads():
        buf.data.fill(7)
    chip = Chip(CFG)
    resident = Chip.resident(CFG)
    for core, kept in zip(chip.cores, resident.cores):
        assert core.buffers is not kept.buffers
        assert not any(b.data.any() for b in core.buffers.values())
    assert not AICore(CFG).view("UB").any()
