"""Fixtures shared by the simulator tests."""

import pytest

from repro.config import ChipConfig
from repro.dtypes import FLOAT16
from repro.ops import PoolSpec, forward_impl
from repro.plan import lower, plan_default
from repro.sim import GlobalMemory, ProgramCache
from repro.workloads import make_input

TWO_CORES = ChipConfig(num_cores=2)


@pytest.fixture
def pool_tiles():
    """Factory for the flat tile lists of a small im2col MaxPool.

    ``pool_tiles(execute, c1)`` lowers a 9x9 k3 s2 forward pass with
    ``c1`` channel blocks for :data:`TWO_CORES` through a fresh program
    cache and returns ``(programs, summaries, kernels, make_gm)``:
    one program, summary and (under ``"jit"``) kernel per tile, and a
    factory for a fresh global memory holding the input.
    """

    def build(execute: str = "numeric", c1: int = 3):
        x = make_input(9, 9, 16 * c1, seed=0)
        plan = plan_default(
            "fwd", forward_impl("im2col", "max"), PoolSpec.square(3, 2),
            FLOAT16, *x.shape[:4], TWO_CORES, execute=execute,
        )
        low = lower(plan, TWO_CORES, cache=ProgramCache())
        oh, ow = plan.out_hw

        def flat(nested):
            return None if nested is None else [i for g in nested for i in g]

        def make_gm() -> GlobalMemory:
            gm = GlobalMemory()
            gm.add("x", x)
            gm.zeros("out", plan.num_slices * oh * ow * 16, FLOAT16)
            return gm

        return flat(low.groups), flat(low.summaries), flat(low.kernels), make_gm

    return build
