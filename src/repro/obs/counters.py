"""Hardware-counter analogue — the ``nvprof --metrics`` layer.

One report-producing launch (``DeviceExecutor.run``) yields one
:class:`CounterSet`: a frozen, schema-validated set of profiler counters
(DRAM transactions and achieved-bandwidth fraction, load/store
efficiency, shared-memory replay rate, IPC, the warp-issue stall
breakdown, occupancy with its binding limiter named).  Every value is derived *mechanistically* from the same
quantities the cycle model priced — the memory enumerators
(:class:`repro.gpusim.memory.MemoryStats`), the instruction-issue
breakdown (:func:`repro.gpusim.timing.issue_slots`) and the wave
decomposition (:func:`repro.gpusim.timing.wave_geometry`) — never from
hard-coded expectations, so a counter cannot drift from the simulator it
describes (property-enforced in ``tests/test_obs_counters.py``).

Counting conventions (documented because nvprof has the same split):

* byte/transaction counters cover the sweep's *output* planes
  (``grid.planes``), matching ``SimReport.bandwidth_gbs`` and the
  ``sim.bytes_moved`` metric;
* instruction/cycle counters cover the planes the timing model actually
  priced (``timing.planes_per_block``, prologue included), matching
  ``TimingResult.total_cycles``.

``docs/OBSERVABILITY.md`` carries the nvprof ↔ repro name mapping table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.gpusim.device import DeviceSpec
    from repro.gpusim.timing import TimingParams, TimingResult
    from repro.gpusim.workload import BlockWorkload, GridWorkload

#: The frozen counter-name set.  This is stable API shared by the trace
#: schema (``sim.kernel`` spans carry exactly these keys), the telemetry
#: v2 records, the regression sentinel and the attribution engine;
#: additions require a telemetry schema bump.
COUNTER_KEYS: tuple[str, ...] = (
    "gld_transactions",       # global-load transactions issued per sweep
    "gst_transactions",       # global-store transactions issued per sweep
    "dram_bytes",             # effective DRAM bytes serviced per sweep
    "dram_bw_fraction",       # achieved fraction of measured bandwidth
    "gld_efficiency",         # requested / serviced load bytes (Fig 9)
    "gst_efficiency",         # requested / transferred store bytes
    "l2_halo_hit_bytes",      # halo bytes served from L2 per sweep
    "local_spill_bytes",      # register-spill local-memory bytes per sweep
    "shared_replay_rate",     # smem replay slots per smem instruction
    "inst_issued",            # warp instructions issued per sweep
    "ipc",                    # warp instructions per SM-cycle
    "stall_mem_frac",         # cycle share: DRAM bandwidth stream
    "stall_compute_frac",     # cycle share: arithmetic / instruction issue
    "stall_latency_frac",     # cycle share: exposed DRAM latency
    "stall_sync_frac",        # cycle share: barriers
    "stall_sched_frac",       # cycle share: block scheduling overhead
    "achieved_occupancy",     # resident-warp occupancy
)

#: The five ``stall_*_frac`` keys, in component-lane order.
STALL_KEYS: tuple[str, ...] = (
    "stall_mem_frac",
    "stall_compute_frac",
    "stall_latency_frac",
    "stall_sync_frac",
    "stall_sched_frac",
)


class CounterSchemaError(ValueError):
    """A counter set violates the frozen schema."""


@dataclass(frozen=True)
class CounterSet:
    """One launch's counter values plus the named occupancy limiter.

    ``values`` holds exactly :data:`COUNTER_KEYS` (validated at
    construction); ``occupancy_limiter`` is the
    :attr:`repro.gpusim.occupancy.OccupancyResult.limiter` string
    (``"registers"`` / ``"smem"`` / ``"warps"`` / ``"blocks"``).
    """

    values: dict[str, float] = field(default_factory=dict)
    occupancy_limiter: str = ""

    def __post_init__(self) -> None:
        validate_counters(self.values, self.occupancy_limiter)

    def __getitem__(self, key: str) -> float:
        return self.values[key]

    def as_dict(self) -> dict[str, Any]:
        """Flat JSON-ready mapping: the values plus the limiter name."""
        out: dict[str, Any] = {k: self.values[k] for k in COUNTER_KEYS}
        out["occupancy_limiter"] = self.occupancy_limiter
        return out


def validate_counters(values: Mapping[str, float], limiter: str) -> None:
    """Raise :class:`CounterSchemaError` unless the set matches the schema."""
    missing = set(COUNTER_KEYS) - set(values)
    unknown = set(values) - set(COUNTER_KEYS)
    if missing or unknown:
        raise CounterSchemaError(
            f"counter keys drift from the frozen set: missing {sorted(missing)}, "
            f"unknown {sorted(unknown)}"
        )
    for key in COUNTER_KEYS:
        v = values[key]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            raise CounterSchemaError(f"counter {key!r} must be a finite number, got {v!r}")
        if v < 0:
            raise CounterSchemaError(f"counter {key!r} must be non-negative, got {v!r}")
    if not limiter or not isinstance(limiter, str):
        raise CounterSchemaError("occupancy_limiter must be a non-empty string")


def load_efficiency(
    workload: "BlockWorkload", params: "TimingParams"
) -> float:
    """The Fig 9 metric: requested load bytes over the serviced request stream.

    Serviced = transferred lines plus the partition-camping serialization
    surcharge (no L2 discount: the profiler counts the request stream, and
    reuse credits would hide exactly the inefficiency the metric exists to
    expose).  This is the single source for ``SimReport.load_efficiency``,
    the ``gld_efficiency`` counter and ``LaunchScore.load_efficiency``
    (the tuner-grade price, which derives no other counter).
    """
    mem = workload.memory
    eff_loads = (
        mem.load_transferred_bytes
        + mem.camped_bytes * (params.partition_camping - 1.0)
    )
    if not eff_loads:
        return 1.0
    return min(1.0, mem.requested_load_bytes / eff_loads)


def shared_replay_slots(
    workload: "BlockWorkload", device: "DeviceSpec"
) -> tuple[float, float]:
    """``(base_instructions, replay_slots)`` for shared memory, per block-plane.

    Replays = effective issue slots (tile-profile conflict factor times the
    architectural DP factor, exactly as the compute stream prices them)
    minus the raw instruction count.
    """
    from repro.gpusim.timing import issue_slots  # deferred: package layering

    slots = issue_slots(workload, device)
    return slots.smem_base, slots.smem - slots.smem_base


def derive_counters(
    timing: "TimingResult",
    workload: "BlockWorkload",
    grid: "GridWorkload",
    device: "DeviceSpec",
    params: "TimingParams",
) -> CounterSet:
    """Derive the full counter set for one simulated sweep."""
    from repro.gpusim.timing import issue_slots, wave_geometry

    mem = workload.memory
    sweep = grid.planes * grid.blocks
    reuse = params.l2_halo_reuse if device.l2_bytes > 0 else 0.0

    time_s = timing.total_cycles / device.clock_hz
    # Multiplication order `x * grid.planes * grid.blocks` is kept from the
    # historical executor/simtrace expressions: the counters replaced those
    # inline computations and must stay bit-identical to them.
    dram_bytes = timing.effective_bytes_per_plane * grid.planes * grid.blocks
    spill_bytes_per_plane = (
        timing.spilled_regs * workload.threads_per_block
        * params.spill_bytes_per_reg
    )

    slots = issue_slots(workload, device, params, timing.spilled_regs)
    inst_issued = slots.total * timing.planes_per_block * grid.blocks
    replay_rate = (
        (slots.smem - slots.smem_base) / slots.smem_base if slots.smem_base else 0.0
    )

    # Cycle shares from the same wave decomposition the timeline uses.
    planes = timing.planes_per_block
    comp = {"mem": 0.0, "compute": 0.0, "exposed": 0.0, "sync": 0.0, "sched": 0.0}
    for wave in wave_geometry(timing):
        comp["mem"] += wave.plane_cost.mem_cycles * planes
        comp["compute"] += wave.plane_cost.compute_cycles * planes
        comp["exposed"] += wave.plane_cost.exposed_cycles * planes
        comp["sync"] += wave.plane_cost.sync_cycles * planes
        comp["sched"] += wave.blocks_per_sm * timing.sched_overhead_cycles
    comp_total = sum(comp.values())

    gst_eff = (
        min(1.0, mem.requested_store_bytes / mem.store_transferred_bytes)
        if mem.store_transferred_bytes
        else 1.0
    )

    values = {
        "gld_transactions": mem.load_transactions * sweep,
        "gst_transactions": mem.store_transactions * sweep,
        "dram_bytes": dram_bytes,
        "dram_bw_fraction": (
            dram_bytes / time_s / (device.measured_bandwidth_gbs * 1e9)
        ),
        "gld_efficiency": load_efficiency(workload, params),
        "gst_efficiency": gst_eff,
        "l2_halo_hit_bytes": (
            mem.halo_transferred_bytes * reuse * grid.planes * grid.blocks
        ),
        "local_spill_bytes": spill_bytes_per_plane * grid.planes * grid.blocks,
        "shared_replay_rate": replay_rate,
        "inst_issued": inst_issued,
        "ipc": inst_issued / (timing.total_cycles * device.sm_count),
        "stall_mem_frac": comp["mem"] / comp_total,
        "stall_compute_frac": comp["compute"] / comp_total,
        "stall_latency_frac": comp["exposed"] / comp_total,
        "stall_sync_frac": comp["sync"] / comp_total,
        "stall_sched_frac": comp["sched"] / comp_total,
        "achieved_occupancy": timing.occupancy.occupancy,
    }
    return CounterSet(values=values, occupancy_limiter=timing.occupancy.limiter)
