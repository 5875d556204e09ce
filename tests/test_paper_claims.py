"""Acceptance tests: the paper's experimental claims, as reproduced.

These tests assert the *shape* of the results -- who wins, in which
regime, by roughly what factor -- rather than exact cycle counts, which
depend on the calibrated cost constants (EXPERIMENTS.md records the
point values).
"""

import numpy as np
import pytest

from repro.config import ASCEND910, ASCEND910_SINGLE_CORE
from repro.ops import (
    PoolSpec,
    avgpool,
    avgpool_backward,
    maxpool,
    maxpool_backward,
)
from repro.ops.reference import maxpool_argmax_ref
from repro.workloads import evaluated_layers, make_gradient, make_input


# These tests read only cycle counts, which are data-independent, so
# they skip the data pass (``execute="cycles"``); the differential
# fuzzer checks cycles are identical across execution modes.
def fwd_cycles(layer, impl, with_mask=False):
    x = make_input(layer.h, layer.w, layer.c, seed=0)
    return maxpool(x, layer.spec, impl=impl, with_mask=with_mask,
                   collect_trace=False, execute="cycles").cycles


def bwd_cycles(layer, impl):
    x = make_input(layer.h, layer.w, layer.c, seed=0)
    mask = maxpool_argmax_ref(x, layer.spec)
    oh, ow = layer.out_hw()
    grad = make_gradient(x.shape[1], oh, ow, seed=1)
    return maxpool_backward(mask, grad, layer.spec, layer.h, layer.w,
                            impl=impl, collect_trace=False,
                            execute="cycles").cycles


class TestFigure7Shape:
    """Figure 7 on the smallest evaluated layer (35,35,288): the
    accelerated implementation wins every panel."""

    LAYER = evaluated_layers()[2]

    def test_forward_speedup_band(self):
        s = fwd_cycles(self.LAYER, "standard") / fwd_cycles(self.LAYER, "im2col")
        assert 2.0 <= s <= 4.5, s  # paper: ~3x at the small sizes

    def test_forward_with_mask_speedup_band(self):
        s = (fwd_cycles(self.LAYER, "standard", True)
             / fwd_cycles(self.LAYER, "im2col", True))
        assert 2.5 <= s <= 6.0, s

    def test_backward_speedup_band(self):
        s = bwd_cycles(self.LAYER, "standard") / bwd_cycles(self.LAYER, "col2im")
        assert 3.5 <= s <= 7.5, s


class TestHeadlineSpeedups:
    """Section VI-A: "In the largest input, the accelerated
    implementations achieve speedups of 3.2x, 5x, and 5.8x".  We accept
    a +/-30% band around each headline."""

    LAYER = evaluated_layers()[0]  # (147, 147, 64)

    @pytest.fixture(scope="class")
    def speedups(self):
        return {
            "fwd": (fwd_cycles(self.LAYER, "standard")
                    / fwd_cycles(self.LAYER, "im2col")),
            "mask": (fwd_cycles(self.LAYER, "standard", True)
                     / fwd_cycles(self.LAYER, "im2col", True)),
            "bwd": (bwd_cycles(self.LAYER, "standard")
                    / bwd_cycles(self.LAYER, "col2im")),
        }

    def test_forward_near_3_2(self, speedups):
        assert 3.2 * 0.7 <= speedups["fwd"] <= 3.2 * 1.3, speedups

    def test_mask_near_5(self, speedups):
        assert 5.0 * 0.7 <= speedups["mask"] <= 5.0 * 1.3, speedups

    def test_backward_near_5_8(self, speedups):
        assert 5.8 * 0.7 <= speedups["bwd"] <= 5.8 * 1.3, speedups

    def test_ordering_backward_gt_mask_gt_forward(self, speedups):
        # "The best improvement is on Maxpool backward."
        assert speedups["bwd"] > speedups["mask"] > speedups["fwd"]


class TestFigure8Shape:
    """Figure 8: implementation ordering per stride, single core."""

    def cycles(self, impl, size, stride):
        x = make_input(size, size, 16, seed=0)
        spec = PoolSpec.square(3, stride)
        return maxpool(x, spec, impl=impl,
                       config=ASCEND910_SINGLE_CORE,
                       collect_trace=False, execute="cycles").cycles

    def test_stride2_ordering(self):
        # Figure 8b at a mid-range size: im2col < expansion < xy < std.
        c = {i: self.cycles(i, 35, 2)
             for i in ("standard", "im2col", "expansion", "xysplit")}
        assert c["im2col"] < c["expansion"] < c["xysplit"] < c["standard"], c

    def test_stride3_ordering(self):
        # Figure 8c: no patch overlap; accelerated variants still win.
        c = {i: self.cycles(i, 36, 3)
             for i in ("standard", "im2col", "expansion")}
        assert c["im2col"] < c["expansion"] < c["standard"], c

    def test_stride1_standard_fastest_at_threshold(self):
        # Figure 8a: "the direct Maxpool implementation is the fastest".
        from repro.bench import fig8_sizes

        size = fig8_sizes(1)[-1]
        c = {i: self.cycles(i, size, 1)
             for i in ("standard", "im2col", "expansion")}
        assert c["standard"] < c["im2col"], c
        assert c["standard"] < c["expansion"], c

    def test_im2col_advantage_grows_with_size(self):
        # Figures 7/8: the gap widens as the input grows.
        small = self.cycles("standard", 19, 2) / self.cycles("im2col", 19, 2)
        large = self.cycles("standard", 49, 2) / self.cycles("im2col", 49, 2)
        assert large > small


class TestMechanism:
    """Section V's explanation, asserted on the traces."""

    def test_vmax_issue_counts(self):
        # standard: Oh*Ow*Kh vmax issues; im2col: Kh*Kw.
        x = make_input(35, 35, 16, seed=0)
        spec = PoolSpec.square(3, 2)
        std = maxpool(x, spec, impl="standard",
                      config=ASCEND910_SINGLE_CORE)
        i2c = maxpool(x, spec, impl="im2col",
                      config=ASCEND910_SINGLE_CORE)
        oh, ow = spec.out_hw(35, 35)
        std_vmax = sum(t.trace.issues("vmax") for t in std.chip.per_tile)
        i2c_vmax = sum(t.trace.issues("vmax") for t in i2c.chip.per_tile)
        assert std_vmax == oh * ow * 3
        # per tile: Kh*Kw (plus repeat chunking on large planes)
        assert i2c_vmax <= 2 * 9 * len(i2c.tiles)

    def test_lane_utilization_explains_speedup(self):
        # "The speedups follow from ... better utilization of the
        # vector processing unit" (abstract).
        x = make_input(35, 35, 16, seed=0)
        spec = PoolSpec.square(3, 2)
        std = maxpool(x, spec, impl="standard", config=ASCEND910_SINGLE_CORE)
        i2c = maxpool(x, spec, impl="im2col", config=ASCEND910_SINGLE_CORE)
        assert std.chip.vector_lane_utilization < 0.2
        assert i2c.chip.vector_lane_utilization > 0.9

    def test_im2col_memory_blowup_only_in_target_buffer(self):
        # Section III-C: the duplication exists only in the UB; global
        # memory holds the original image either way.
        x = make_input(17, 17, 16, seed=0)
        spec = PoolSpec.square(3, 2)
        res = maxpool(x, spec, impl="im2col", config=ASCEND910_SINGLE_CORE)
        oh, ow = spec.out_hw(17, 17)
        planes_bytes = 9 * -(-oh * ow // 16) * 16 * 16 * 2
        # the planes region really is ~kh*kw times the output tile
        assert planes_bytes > 5 * (oh * ow * 16 * 2)


class TestAvgpoolClaims:
    """Section V-C: AvgPool benefits the same way."""

    def test_avg_forward_accelerated(self):
        x = make_input(35, 35, 16, seed=0)
        spec = PoolSpec.square(3, 2)
        std = avgpool(x, spec, impl="standard",
                      config=ASCEND910_SINGLE_CORE, collect_trace=False)
        i2c = avgpool(x, spec, impl="im2col",
                      config=ASCEND910_SINGLE_CORE, collect_trace=False)
        assert std.cycles / i2c.cycles > 2.0

    def test_avg_backward_accelerated(self):
        spec = PoolSpec.square(3, 2)
        grad = make_gradient(1, 17, 17, seed=2)
        std = avgpool_backward(grad, spec, 35, 35, impl="standard",
                               config=ASCEND910_SINGLE_CORE,
                               collect_trace=False)
        c2i = avgpool_backward(grad, spec, 35, 35, impl="col2im",
                               config=ASCEND910_SINGLE_CORE,
                               collect_trace=False)
        assert std.cycles / c2i.cycles > 3.0
