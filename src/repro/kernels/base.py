"""Kernel-plan base class: the contract between kernels and the simulator.

A :class:`KernelPlan` is the library's analogue of one compiled CUDA kernel
plus its launch configuration.  It must provide:

* ``execute(...)`` — a numerically exact sweep (the correctness side);
* ``block_workload(device, grid_shape)`` — the per-block/per-plane traffic,
  resources and instruction mix the timing model prices;
* ``smem_bytes()`` — the shared-memory footprint per block, the single
  source of ``BlockWorkload.smem_bytes`` and of the tuner's constraint
  (iii) probe, which needs no traffic enumeration;
* ``grid_workload(device, grid_shape)`` — block/plane/point counts
  (Eqn (6)).

Register-footprint estimation lives here because it is shared policy: the
paper's two methods differ in per-element register state (the in-plane
pipeline keeps ``r`` partial outputs, the forward pipeline ``2r + 1``
column values), which in turn drives occupancy and therefore the
register-blocking trade-off the auto-tuner balances (section IV-C).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import ConfigurationError, GridShapeError
from repro.gpusim.device import DeviceSpec
from repro.gpusim.smem import padded_pitch_words
from repro.gpusim.workload import BlockWorkload, GridWorkload
from repro.kernels.config import BlockConfig
from repro.kernels.layout import GridLayout, blocks_in_plane
from repro.stencils.spec import dtype_for

#: Registers every kernel needs for indices, loop counters and pointers.
BASE_REGISTERS = 16

#: Extra addressing registers per additional register-tile element.
ADDR_REGISTERS_PER_ELEM = 1


class KernelPlan(abc.ABC):
    """Abstract kernel: one variant at one blocking configuration.

    Subclasses set ``family`` (e.g. ``"inplane"``) and ``variant`` (e.g.
    ``"fullslice"``) and implement the contract methods.
    """

    family: str = "abstract"
    variant: str = "abstract"

    def __init__(self, block: BlockConfig, dtype: str = "sp") -> None:
        self.block = block
        self.dtype = dtype_for(dtype)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def dtype_name(self) -> str:
        """``"sp"`` or ``"dp"``."""
        return "sp" if self.dtype.itemsize == 4 else "dp"

    @property
    def elem_bytes(self) -> int:
        """Element size in bytes."""
        return self.dtype.itemsize

    @property
    def name(self) -> str:
        """Human-readable kernel identifier."""
        return f"{self.family}.{self.variant}[{self.dtype_name}]{self.block.label()}"

    def block_label(self) -> str:
        """Table IV-style (TX, TY, RX, RY) label."""
        return self.block.label()

    # ------------------------------------------------------------------
    # Simulator contract
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def block_workload(
        self, device: DeviceSpec, grid_shape: tuple[int, int, int]
    ) -> BlockWorkload:
        """Per-block, per-plane workload on ``device`` for (LX, LY, LZ)."""

    @abc.abstractmethod
    def halo_radius(self) -> int:
        """Halo width this kernel needs per axis."""

    @abc.abstractmethod
    def smem_bytes(self) -> int:
        """Shared-memory bytes per block; ``block_workload`` reports the
        same value as ``BlockWorkload.smem_bytes``."""

    def grid_workload(
        self, device: DeviceSpec, grid_shape: tuple[int, int, int]
    ) -> GridWorkload:
        """Block/plane/point counts for one sweep (Eqn (6))."""
        lx, ly, lz = grid_shape
        self.check_grid_shape(grid_shape)
        return GridWorkload(
            blocks=blocks_in_plane(lx, ly, self.block.tile_x, self.block.tile_y),
            planes=lz,
            total_points=lx * ly * lz,
        )

    def check_grid_shape(self, grid_shape: tuple[int, int, int]) -> None:
        """Reject grids smaller than the stencil extent or tile."""
        lx, ly, lz = grid_shape
        r = self.halo_radius()
        if min(lx, ly, lz) < 2 * r + 1:
            raise GridShapeError(
                f"grid {grid_shape} too small for radius {r}",
                rule="HALO-GRID-SMALL",
            )
        if self.block.tile_x > lx or self.block.tile_y > ly:
            raise ConfigurationError(
                f"tile {self.block.tile_x}x{self.block.tile_y} exceeds grid "
                f"plane {lx}x{ly}",
                rule="HALO-TILE-EXCEEDS",
            )

    # ------------------------------------------------------------------
    # Numeric contract
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def execute(self, *grids: np.ndarray) -> np.ndarray | list[np.ndarray]:
        """Run one numerically exact sweep."""

    # ------------------------------------------------------------------
    # Shared resource policy
    # ------------------------------------------------------------------
    def layout(self, grid_shape: tuple[int, int, int], aligned_x: int = 0) -> GridLayout:
        """Padded layout of one grid for this kernel's alignment choice."""
        lx, ly, lz = grid_shape
        return GridLayout(
            lx=lx, ly=ly, lz=lz, elem_bytes=self.elem_bytes, aligned_x=aligned_x
        )

    def smem_tile_bytes(self, halo_x: int, halo_y: int) -> int:
        """Shared-memory buffer: the effective tile plus halos, with the
        pitch padded one word when needed to dodge bank conflicts."""
        width_words = (
            (self.block.tile_x + 2 * halo_x) * self.elem_bytes + 3
        ) // 4
        pitch = padded_pitch_words(width_words)
        rows = self.block.tile_y + 2 * halo_y
        return pitch * 4 * rows

    def estimate_registers(self, per_element_state: int) -> int:
        """Per-thread register estimate.

        ``per_element_state`` is the method-specific live state per output
        element (pipeline partials / z-column values plus the accumulator);
        register tiling multiplies it by RX*RY and adds addressing temps.
        """
        tile = self.block.register_tile
        return (
            BASE_REGISTERS
            + per_element_state * tile
            + ADDR_REGISTERS_PER_ELEM * (tile - 1)
        )

    def validate_against(
        self,
        reference: np.ndarray | list[np.ndarray],
        result: np.ndarray | list[np.ndarray],
    ) -> None:
        """Assert ``result`` matches ``reference`` within dtype tolerance.

        Mirrors the paper's harness ("the output of each kernel is verified
        to be consistent with the result from the CPU-computed stencil
        output").  SP tolerates the reassociation the in-plane recurrence
        introduces; DP is near-exact.
        """
        refs = reference if isinstance(reference, list) else [reference]
        outs = result if isinstance(result, list) else [result]
        if len(refs) != len(outs):
            raise AssertionError(
                f"{self.name}: expected {len(refs)} outputs, got {len(outs)}"
            )
        rtol = 1e-4 if self.elem_bytes == 4 else 1e-10
        for i, (ref, out) in enumerate(zip(refs, outs)):
            if not np.allclose(out, ref, rtol=rtol, atol=rtol):
                worst = float(np.max(np.abs(out - ref)))
                raise AssertionError(
                    f"{self.name}: output {i} deviates from reference "
                    f"(max abs err {worst:.3e})"
                )
