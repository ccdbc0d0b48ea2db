"""Access-plan IR tests: lowering is lossless and a pure function of the plan.

The IR is the contract every emitter and both static passes consume, so
the property that matters most is round-trip exactness: reconstructing
the plan's :class:`BlockWorkload` from the IR must be *equality*, not
approximation — that is what makes the codegen-time estimator exact
against the simulator's counters by construction.
"""

import dataclasses

import pytest

from repro.analysis.planir import (
    BARRIERS_PER_PLANE,
    DEFAULT_GRID,
    LoweringError,
    _check_region_sums,
    kernel_symbol,
    lower_plan,
    plan_vector_width,
)
from repro.codegen import generate_kernel
from repro.kernels.config import BlockConfig
from repro.kernels.inplane import INPLANE_VARIANTS, InPlaneKernel
from repro.kernels.multigrid import MultiGridKernel
from repro.kernels.nvstencil import NvStencilKernel
from repro.stencils.applications import laplacian
from repro.stencils.spec import symmetric


def all_plans():
    plans = []
    for variant in INPLANE_VARIANTS:
        for order in (2, 8):
            for dtype in ("sp", "dp"):
                plans.append(InPlaneKernel(
                    symmetric(order), BlockConfig(32, 4, 2, 2), dtype,
                    variant=variant,
                ))
    for dtype in ("sp", "dp"):
        plans.append(NvStencilKernel(symmetric(4), BlockConfig(32, 8), dtype))
    return plans


@pytest.mark.parametrize("plan", all_plans(), ids=lambda p: p.name)
class TestRoundTrip:
    def test_workload_reconstruction_is_exact(self, plan, gtx580):
        ir = lower_plan(plan)
        assert ir.to_workload() == plan.block_workload(gtx580, DEFAULT_GRID)

    def test_memory_stats_reconstruction_is_exact(self, plan, gtx580):
        ir = lower_plan(plan)
        mem = plan.block_workload(gtx580, DEFAULT_GRID).memory
        assert ir.to_memory_stats() == mem

    def test_grid_workload_matches_plan(self, plan, gtx580):
        ir = lower_plan(plan)
        assert ir.grid_workload() == plan.grid_workload(gtx580, DEFAULT_GRID)

    def test_region_sums_hold(self, plan):
        ir = lower_plan(plan)
        total = sum(r.transactions for r in ir.regions)
        declared = (
            ir.traffic.load_transactions + ir.traffic.store_transactions
        )
        assert total == pytest.approx(declared, rel=1e-12)


class TestIdentity:
    def test_kernel_symbol_matches_emitted_name(self):
        plan = InPlaneKernel(
            symmetric(6), BlockConfig(32, 4, 2, 2), "sp", variant="fullslice"
        )
        assert kernel_symbol(plan) == generate_kernel(plan).name

    def test_method_and_depths(self):
        inp = lower_plan(
            InPlaneKernel(symmetric(8), BlockConfig(32, 4), "sp")
        )
        fwd = lower_plan(NvStencilKernel(symmetric(8), BlockConfig(32, 8)))
        assert (inp.method, inp.zqueue_depth, inp.queue_depth) == (
            "inplane", 4, 4
        )
        assert (fwd.method, fwd.zqueue_depth, fwd.queue_depth) == (
            "forward", 9, 0
        )
        assert inp.barriers_per_plane == BARRIERS_PER_PLANE

    def test_vector_width_matches_emitter_behaviour(self):
        # order 8 (r=4) fullslice SP: float4 merged loads (the pinned
        # emitter behaviour in test_codegen.py).
        plan = InPlaneKernel(
            symmetric(8), BlockConfig(32, 4, 1, 1), "sp", variant="fullslice"
        )
        assert plan_vector_width(plan) == 4
        assert lower_plan(plan).vector_width == 4
        assert plan_vector_width(
            NvStencilKernel(symmetric(4), BlockConfig(32, 8))
        ) == 1

    def test_tile_pitch_matches_emitted_define(self):
        for dtype in ("sp", "dp"):
            plan = InPlaneKernel(
                symmetric(4), BlockConfig(32, 4, 2, 2), dtype
            )
            ir = lower_plan(plan)
            src = generate_kernel(plan)
            assert f"#define TILE_PITCH {ir.tile.pitch_elems}" in src.text
            assert ir.tile.width_elems == plan.block.tile_x + 2 * 2
            assert ir.tile.bytes == ir.smem_bytes

    def test_launch_bounds(self):
        ir = lower_plan(InPlaneKernel(symmetric(2), BlockConfig(64, 8)))
        assert ir.launch_bounds == (512, 1)
        assert ir.threads == 512


class TestLoweringContract:
    def test_unsupported_family_raises_typeerror(self):
        with pytest.raises(TypeError):
            lower_plan(MultiGridKernel(laplacian(), BlockConfig(32, 4)))

    def test_region_sum_check_catches_divergence(self):
        ir = lower_plan(InPlaneKernel(symmetric(4), BlockConfig(32, 4)))
        broken = dataclasses.replace(
            ir.traffic,
            load_transactions=ir.traffic.load_transactions + 10.0,
        )
        with pytest.raises(LoweringError):
            _check_region_sums(ir.regions, broken)

    def test_lowering_is_deterministic(self):
        plan = InPlaneKernel(symmetric(6), BlockConfig(32, 4, 2, 2), "dp")
        assert lower_plan(plan) == lower_plan(plan)

    def test_json_rendering(self):
        ir = lower_plan(InPlaneKernel(symmetric(4), BlockConfig(32, 4)))
        obj = ir.to_json_obj()
        assert obj["kernel"] == ir.kernel
        assert obj["tile"]["pitch_elems"] == ir.tile.pitch_elems
        assert len(obj["regions"]) == len(ir.regions)
