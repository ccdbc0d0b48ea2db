"""Kernels for multi-grid application stencils (section V).

A :class:`MultiGridKernel` executes one :class:`~repro.stencils.expr.StencilExpr`
with either the forward-plane or the in-plane schedule.  The traffic model
generalizes the symmetric kernels per input grid:

* a grid with x/y halo taps is loaded like a stencil grid — split regions
  (forward method) or a merged rectangle (in-plane full-slice);
* a grid read only at the centre (coefficient volumes, sources,
  right-hand sides) is a plain coalesced tile load, *identical for both
  methods* — which is why Hyperthermia's nine coefficient volumes cap the
  achievable speedup in Fig 11 while Laplacian's single input grid shows
  the largest gain.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, StencilDefinitionError
from repro.gpusim.arch import WARP_SIZE
from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import KIND_HALO, KIND_INTERIOR, KIND_WRITE, MemoryStats
from repro.gpusim.smem import SmemAccessProfile
from repro.gpusim.workload import BlockWorkload
from repro.kernels.base import (
    ADDR_REGISTERS_PER_ELEM,
    BASE_REGISTERS,
    KernelPlan,
)
from repro.kernels.config import BlockConfig
from repro.kernels.layout import GridLayout
from repro.kernels.loads import add_column_strip, add_corner_patches, add_row_region
from repro.kernels.pipeline import expr_forward_sweep, expr_inplane_sweep
from repro.stencils.expr import StencilExpr

#: Supported schedules.
METHODS = ("forward", "inplane")


class MultiGridKernel(KernelPlan):
    """Application-stencil kernel for a general expression."""

    family = "multigrid"

    def __init__(
        self,
        expr: StencilExpr,
        block: BlockConfig,
        dtype: str = "sp",
        method: str = "inplane",
        use_vectors: bool | None = None,
    ) -> None:
        super().__init__(block, dtype)
        if method not in METHODS:
            raise ConfigurationError(
                f"unknown method {method!r}; pick one of {METHODS}"
            )
        self.expr = expr
        self.method = method
        self.variant = f"{method}-{expr.name}"
        # The forward baseline (nvstencil-style) issues scalar loads; the
        # in-plane kernels use memory-level parallelism.
        self.use_vectors = (method == "inplane") if use_vectors is None else use_vectors

    @property
    def name(self) -> str:
        return f"{self.family}.{self.variant}[{self.dtype_name}]{self.block.label()}"

    def halo_radius(self) -> int:
        return self.expr.radius()

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    def _add_stencil_grid_loads(
        self, stats: MemoryStats, layout: GridLayout, hx: int, hy: int
    ) -> int:
        """Loads for one grid with x/y halos; returns phase count added."""
        tx, ty = self.block.tile_x, self.block.tile_y
        if self.method == "inplane":
            # Full-slice merged rectangle (the winning variant of Fig 7 —
            # the application benchmarks use it, section V-A).
            frac_halo = 1.0 - (tx * ty) / ((tx + 2 * hx) * (ty + 2 * hy))
            add_row_region(
                stats,
                layout,
                x_start_rel=-hx,
                width_elems=tx + 2 * hx,
                rows=ty + 2 * hy,
                tile_stride=tx,
                kind=KIND_INTERIOR,
                use_vectors=self.use_vectors,
                halo_fraction=frac_halo,
            )
            return 1
        # Forward: nvstencil-style split loading.
        add_row_region(
            stats,
            layout,
            x_start_rel=0,
            width_elems=tx,
            rows=ty,
            tile_stride=tx,
            kind=KIND_INTERIOR,
            use_vectors=self.use_vectors,
        )
        phases = 1
        if hy:
            add_row_region(
                stats,
                layout,
                x_start_rel=0,
                width_elems=tx,
                rows=2 * hy,
                tile_stride=tx,
                kind=KIND_HALO,
                use_vectors=self.use_vectors,
            )
            phases += 1
        if hx:
            add_column_strip(
                stats, layout, x_start_rel=-hx, width_elems=hx, rows=ty, tile_stride=tx
            )
            add_column_strip(
                stats, layout, x_start_rel=tx, width_elems=hx, rows=ty, tile_stride=tx
            )
            phases += 1
            if hy:
                add_corner_patches(
                    stats,
                    layout,
                    radius=max(hx, hy),
                    tile_x=tx,
                    tile_y=ty,
                    tile_stride=tx,
                )
                phases += 1
        return phases

    def _register_state(self) -> int:
        """Per-element live register state of the chosen schedule."""
        state = 1  # the accumulator / store value
        for g in range(self.expr.n_grids):
            hx, hy = self.expr.halo_extent(g)[:2]
            back, fwd = self.expr.z_extent(g)
            if self.method == "forward":
                # The z-column window of each grid with z-taps.
                if back or fwd:
                    state += back + fwd + 1
            else:
                # Backward window per grid plus queued partials per output.
                state += back + (1 if (back or fwd) else 0)
        if self.method == "inplane":
            for out in self.expr.outputs:
                fwd = max((t.offset[2] for t in out.taps), default=0)
                state += max(0, fwd)
        return state + 1

    def flops_per_point(self) -> float:
        """Flops per point; the in-plane schedule pays one extra accumulate
        per forward tap (the Eqn (5) incremental updates)."""
        flops = self.expr.flops_per_point()
        if self.method == "inplane":
            flops += sum(
                1
                for out in self.expr.outputs
                for t in out.taps
                if t.offset[2] > 0
            )
        return float(flops)

    def smem_bytes(self) -> int:
        """One padded shared tile per grid with x/y halo taps; coefficient
        volumes and z-only grids load straight to registers."""
        total = 0
        for g in range(self.expr.n_grids):
            hx, hy, _hz = self.expr.halo_extent(g)
            if hx or hy:
                total += self.smem_tile_bytes(hx, hy)
        return total

    def block_workload(
        self, device: DeviceSpec, grid_shape: tuple[int, int, int]
    ) -> BlockWorkload:
        self.check_grid_shape(grid_shape)
        tx, ty = self.block.tile_x, self.block.tile_y
        # Every grid is its own allocation with its own array padding:
        # coefficient volumes and outputs align their interior start, while
        # a stenciled grid aligns whatever its loading pattern needs (the
        # merged-region start -hx for the in-plane method).
        plain_layout = self.layout(grid_shape, aligned_x=0)

        stats = MemoryStats(line_bytes=plain_layout.line_bytes)
        phases = 0
        smem_writes = 0.0
        smem_reads = 0.0

        for g in range(self.expr.n_grids):
            hx, hy, _hz = self.expr.halo_extent(g)
            if hx == 0 and hy == 0:
                # Coefficient volume / source / z-only grid: plain tile.
                add_row_region(
                    stats,
                    plain_layout,
                    x_start_rel=0,
                    width_elems=tx,
                    rows=ty,
                    tile_stride=tx,
                    kind=KIND_INTERIOR,
                    use_vectors=self.use_vectors,
                )
                phases += 1
                continue
            grid_layout = self.layout(
                grid_shape, aligned_x=-hx if self.method == "inplane" else 0
            )
            phases += self._add_stencil_grid_loads(stats, grid_layout, hx, hy)
            # Stencil grids stage through a shared tile (see smem_bytes).
            smem_writes += (tx + 2 * hx) * (ty + 2 * hy) / WARP_SIZE
            taps_on_g = sum(
                1
                for t in self.expr.all_taps()
                if t.grid == g and (t.offset[0] or t.offset[1])
            )
            smem_reads += self.block.points_per_plane * (taps_on_g + 1) / WARP_SIZE

        for _out in self.expr.outputs:
            add_row_region(
                stats,
                plain_layout,
                x_start_rel=0,
                width_elems=tx,
                rows=ty,
                tile_stride=tx,
                kind=KIND_WRITE,
                use_vectors=False,
            )
        stats.load_phases = max(1, phases)

        r = self.expr.radius()
        shifts = self.block.points_per_plane * max(1, r) / WARP_SIZE
        extra = int(shifts + 2 * phases)

        return BlockWorkload(
            threads_per_block=self.block.threads,
            regs_per_thread=(
                BASE_REGISTERS
                + self._register_state() * self.block.register_tile
                + ADDR_REGISTERS_PER_ELEM * (self.block.register_tile - 1)
            ),
            smem_bytes=self.smem_bytes(),
            elem_bytes=self.elem_bytes,
            points_per_plane=self.block.points_per_plane,
            flops_per_point=self.flops_per_point(),
            arith_instructions_per_point=float(
                len(self.expr.all_taps()) + len(self.expr.outputs)
            ),
            memory=stats,
            smem_profile=SmemAccessProfile(
                read_instructions=int(smem_reads),
                write_instructions=int(smem_writes),
            ),
            extra_instructions=extra,
            ilp=float(self.block.register_tile),
            prologue_planes=2 * r,
        )

    # ------------------------------------------------------------------
    # Numerics
    # ------------------------------------------------------------------
    def execute(self, *grids: np.ndarray) -> list[np.ndarray]:
        """One sweep over the expression's input grids."""
        if len(grids) != self.expr.n_grids:
            raise StencilDefinitionError(
                f"{self.expr.name} needs {self.expr.n_grids} input grids, "
                f"got {len(grids)}",
                rule="DSL-ARITY",
            )
        ins = [np.asarray(g, dtype=self.dtype) for g in grids]
        if self.method == "inplane":
            return expr_inplane_sweep(self.expr, ins)
        return expr_forward_sweep(self.expr, ins)
