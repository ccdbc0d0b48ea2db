"""Read-only-cache (texture path) kernel — the no-shared-memory design.

The era's alternative to staging tiles in shared memory (used by
Holewinski's overlapped-tiling codegen, which the paper benchmarks
against in section V-B): read every in-plane neighbour straight through
the texture / read-only data cache and keep only the z-column in
registers.  The cache captures the intra-block reuse that the shared tile
would have provided, so the *bytes* look like a merged full-slice load —
but every neighbour access remains a separate load instruction, there are
no barriers, and no shared-memory footprint caps occupancy.

The resulting trade-off (regenerated by the texture ablation bench):

* low orders: competitive — no barriers, higher occupancy;
* high orders: the 4r+1 per-point cache loads swamp the issue pipelines,
  while the shared-tile kernels pay 4r+1 cheap smem reads instead.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.arch import WARP_SIZE
from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import KIND_INTERIOR, MemoryStats
from repro.gpusim.smem import SmemAccessProfile
from repro.gpusim.workload import BlockWorkload
from repro.kernels.loads import add_row_region
from repro.kernels.pipeline import forward_sweep
from repro.kernels.symmetric import SymmetricKernelPlan


class TexturePathKernel(SymmetricKernelPlan):
    """2.5-D streaming kernel reading neighbours via the read-only cache."""

    family = "texture"
    variant = "readonly-cache"

    def loaded_elems_per_plane(self) -> int:
        r = self.spec.radius
        return (self.block.tile_x + 2 * r) * (self.block.tile_y + 2 * r)

    def smem_bytes(self) -> int:
        """No shared tile: neighbours come through the read-only cache."""
        return 0

    def block_workload(
        self, device: DeviceSpec, grid_shape: tuple[int, int, int]
    ) -> BlockWorkload:
        self.check_grid_shape(grid_shape)
        r = self.spec.radius
        tx, ty = self.block.tile_x, self.block.tile_y
        layout = self.layout(grid_shape, aligned_x=-r)

        stats = MemoryStats(line_bytes=layout.line_bytes)
        # DRAM traffic: the cache coalesces the block's overlapping
        # neighbour reads into one fetch of the (tile + 2r)^2 footprint —
        # the same lines the merged full-slice load would move.
        frac_halo = 1.0 - (tx * ty) / ((tx + 2 * r) * (ty + 2 * r))
        add_row_region(
            stats,
            layout,
            x_start_rel=-r,
            width_elems=tx + 2 * r,
            rows=ty + 2 * r,
            tile_stride=tx,
            kind=KIND_INTERIOR,
            use_vectors=False,
            halo_fraction=frac_halo,
        )
        self.add_store_traffic(stats, layout)
        stats.load_phases = 1

        # Instruction stream: every in-plane neighbour is its own __ldg —
        # 4r+1 cache-load instructions per point (cache hits still issue).
        points = self.block.points_per_plane
        cache_loads = points * (4 * r + 1) / WARP_SIZE
        stats.load_instructions += cache_loads

        shifts = points * 2 * r / WARP_SIZE

        return BlockWorkload(
            threads_per_block=self.block.threads,
            regs_per_thread=self.estimate_registers(2 * r + 2),
            smem_bytes=self.smem_bytes(),
            elem_bytes=self.elem_bytes,
            points_per_plane=points,
            flops_per_point=self.spec.flops_forward,
            arith_instructions_per_point=6 * r + 1,
            memory=stats,
            smem_profile=SmemAccessProfile(read_instructions=0, write_instructions=0),
            extra_instructions=int(shifts + 4),
            ilp=float(self.block.register_tile),
            prologue_planes=2 * r,
            syncs_per_plane=0,  # no shared tile, no barriers
        )

    def execute(self, grid: np.ndarray) -> np.ndarray:
        """Numerically the forward schedule (loading path only differs)."""
        return forward_sweep(self.spec, self.prepare_grid(grid))
