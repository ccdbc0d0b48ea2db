"""Temporal blocking (ghost zones) on top of the in-plane method.

The paper's related work (section II) discusses temporal blocking — Meng's
ghost zones and Nguyen's 3.5-D blocking — as the complementary axis to its
spatial optimization.  This extension fuses ``time_steps`` Jacobi sweeps
into one pass over the grid: each block loads a tile *enlarged by
r * time_steps ghost cells per side*, advances it ``time_steps`` steps
locally (recomputing the shrinking ghost pyramid redundantly), and writes
only the final values.

The arithmetic of the trade-off, per *logical* sweep and block plane:

* global loads and stores amortize by ``1 / time_steps``;
* ghost loads grow with the (tile + 2 r T) rectangle;
* compute inflates by the pyramid ratio (every fused step recomputes the
  still-needed ghost ring);
* shared memory must hold one staged plane per fused step and the
  register pipelines deepen accordingly — the resource pressure that
  bounds useful T.

The crossover this produces (T = 2..3 wins for low orders, then resource
pressure and ghost redundancy take over) is the classic temporal-blocking
result, regenerated by ``benchmarks/test_extension_temporal.py``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.gpusim.arch import WARP_SIZE
from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import KIND_INTERIOR, MemoryStats
from repro.gpusim.smem import SmemAccessProfile
from repro.gpusim.workload import BlockWorkload, GridWorkload
from repro.kernels.config import BlockConfig
from repro.kernels.layout import blocks_in_plane
from repro.kernels.loads import add_row_region
from repro.kernels.pipeline import inplane_sweep
from repro.kernels.symmetric import SymmetricKernelPlan
from repro.stencils.spec import SymmetricStencil


class TemporalInPlaneKernel(SymmetricKernelPlan):
    """Full-slice in-plane kernel fusing ``time_steps`` sweeps per pass."""

    family = "temporal"
    variant = "ghostzone"

    def __init__(
        self,
        spec: SymmetricStencil,
        block: BlockConfig,
        dtype: str = "sp",
        time_steps: int = 2,
    ) -> None:
        super().__init__(spec, block, dtype)
        if time_steps < 1:
            raise ConfigurationError(f"time_steps must be >= 1, got {time_steps}")
        self.time_steps = time_steps

    @property
    def name(self) -> str:
        return (
            f"{self.family}.{self.variant}"
            f"[order{self.spec.order},{self.dtype_name},T{self.time_steps}]"
            f"{self.block.label()}"
        )

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def ghost(self) -> int:
        """Ghost-zone width per side: r * T."""
        return self.spec.radius * self.time_steps

    def loaded_elems_per_plane(self) -> int:
        g = self.ghost()
        return (self.block.tile_x + 2 * g) * (self.block.tile_y + 2 * g)

    def compute_inflation(self) -> float:
        """Recomputed points per produced point (the ghost pyramid).

        Fused step t (t = 1..T) must compute the rectangle that still has
        (T - t) more steps to survive: (tile + 2 r (T - t)) per side.
        """
        r = self.spec.radius
        tx, ty = self.block.tile_x, self.block.tile_y
        total = sum(
            (tx + 2 * r * (self.time_steps - t)) * (ty + 2 * r * (self.time_steps - t))
            for t in range(1, self.time_steps + 1)
        )
        return total / (self.time_steps * tx * ty)

    # ------------------------------------------------------------------
    # Contract
    # ------------------------------------------------------------------
    def smem_bytes(self) -> int:
        """The ghost-enlarged staged tile plus — the real capacity bound
        on T — one (2r + 1)-plane window of intermediate values per extra
        fused step, since every intermediate time slice is skewed along z
        by 2r planes."""
        r = self.spec.radius
        return self.smem_tile_bytes(self.ghost(), self.ghost()) + (
            self.time_steps - 1
        ) * (2 * r + 1) * self.smem_tile_bytes(r, r)

    def block_workload(
        self, device: DeviceSpec, grid_shape: tuple[int, int, int]
    ) -> BlockWorkload:
        self.check_grid_shape(grid_shape)
        r = self.spec.radius
        g = self.ghost()
        tx, ty = self.block.tile_x, self.block.tile_y
        layout = self.layout(grid_shape, aligned_x=-g)

        stats = MemoryStats(line_bytes=layout.line_bytes)
        # One ghost-enlarged full-slice load per plane per fused pass.
        frac_halo = 1.0 - (tx * ty) / ((tx + 2 * g) * (ty + 2 * g))
        add_row_region(
            stats,
            layout,
            x_start_rel=-g,
            width_elems=tx + 2 * g,
            rows=ty + 2 * g,
            tile_stride=tx,
            kind=KIND_INTERIOR,
            use_vectors=True,
            halo_fraction=frac_halo,
        )
        self.add_store_traffic(stats, layout)
        stats.load_phases = 1

        inflation = self.compute_inflation()
        points = self.block.points_per_plane
        flops = self.spec.flops_inplane * inflation * self.time_steps

        # Each fused step keeps its own partial queue and backward column.
        per_elem_state = (2 * r + 2) + (self.time_steps - 1) * (r + 2)

        reads = points * inflation * self.time_steps * (4 * r + 1) / WARP_SIZE
        writes = (
            self.loaded_elems_per_plane()
            + (self.time_steps - 1) * points * inflation
        ) / WARP_SIZE
        shifts = points * r * self.time_steps / WARP_SIZE

        return BlockWorkload(
            threads_per_block=self.block.threads,
            regs_per_thread=self.estimate_registers(per_elem_state),
            smem_bytes=self.smem_bytes(),
            elem_bytes=self.elem_bytes,
            points_per_plane=points,
            flops_per_point=flops,
            arith_instructions_per_point=(6 * r + 1) * inflation * self.time_steps,
            memory=stats,
            smem_profile=SmemAccessProfile(
                read_instructions=int(reads), write_instructions=int(writes)
            ),
            extra_instructions=int(shifts + 4 * self.time_steps),
            ilp=float(self.block.register_tile),
            prologue_planes=2 * g,
            syncs_per_plane=2 * self.time_steps,
        )

    def grid_workload(
        self, device: DeviceSpec, grid_shape: tuple[int, int, int]
    ) -> GridWorkload:
        """One fused pass advances the whole grid by ``time_steps`` sweeps,
        so the produced points — and hence the MPoint/s metric — count
        every logical sweep."""
        lx, ly, lz = grid_shape
        self.check_grid_shape(grid_shape)
        return GridWorkload(
            blocks=blocks_in_plane(lx, ly, self.block.tile_x, self.block.tile_y),
            planes=lz,
            total_points=lx * ly * lz * self.time_steps,
        )

    def execute(self, grid: np.ndarray) -> np.ndarray:
        """``time_steps`` in-plane sweeps — numerically the ghost-zone
        fusion is exactly repeated application (the redundant ghost work
        reproduces what neighbouring blocks would have computed)."""
        out = self.prepare_grid(grid)
        for _ in range(self.time_steps):
            out = inplane_sweep(self.spec, out)
        return out
