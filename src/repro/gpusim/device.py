"""Device specifications and registry.

Each :class:`DeviceSpec` captures one physical card from the paper's
Table III, plus the cards referenced for prior-work comparison in section
V-B.  Peak arithmetic rates are *derived* (cores x 2 ops x clock) so the
table-reproduction tests can check our specs against the paper's published
numbers rather than trusting a transcription.

Bandwidths: the paper reports both the pin bandwidth (Table III) and the
*measured* achievable bandwidth (section IV-A: 161 / 150 / 117.5 GB/s).
The timing model uses the measured number — the paper's own model does the
same implicitly by being validated against measured runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import UnknownDeviceError
from repro.gpusim.arch import ArchRules, Generation, rules_for


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of one GPU model.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"gtx580"``.
    generation:
        Micro-architecture generation (selects :class:`ArchRules`).
    sm_count:
        Number of streaming multiprocessors (SMX for Kepler).
    cores_per_sm:
        CUDA cores per SM; SP throughput is ``cores_per_sm * 2`` flop/cycle
        (FMA counts as two floating-point operations).
    shader_clock_mhz:
        Clock at which the cores execute (Fermi shader clock; Kepler core
        clock — Kepler dropped the 2x shader clock).
    dp_ratio:
        DP throughput as a fraction of SP throughput (1/8 GF110, 1/24
        GK104, 1/2 Tesla Fermi).
    pin_bandwidth_gbs / measured_bandwidth_gbs:
        Theoretical and empirically achievable global-memory bandwidth.
    registers_per_sm, smem_per_sm, max_threads_per_sm, max_warps_per_sm,
    max_blocks_per_sm, max_threads_per_block:
        Occupancy-limiting resources.
    dram_latency_cycles:
        Typical global-memory access latency in shader-clock cycles.
    l2_bytes:
        Total L2 cache size (used only for the small halo-reuse effect).
    """

    name: str
    generation: Generation
    sm_count: int
    cores_per_sm: int
    shader_clock_mhz: float
    dp_ratio: float
    pin_bandwidth_gbs: float
    measured_bandwidth_gbs: float
    registers_per_sm: int
    smem_per_sm: int
    max_threads_per_sm: int
    max_warps_per_sm: int
    max_blocks_per_sm: int
    max_threads_per_block: int
    dram_latency_cycles: int
    l2_bytes: int
    display_name: str = ""

    @property
    def rules(self) -> ArchRules:
        """Generation-wide architectural rules for this device."""
        return rules_for(self.generation)

    @property
    def clock_hz(self) -> float:
        """Shader clock in Hz."""
        return self.shader_clock_mhz * 1e6

    @property
    def cuda_cores(self) -> int:
        """Total CUDA cores on the card."""
        return self.sm_count * self.cores_per_sm

    @property
    def peak_sp_gflops(self) -> float:
        """Peak single-precision rate, GFlop/s (FMA = 2 flops)."""
        return self.cuda_cores * 2 * self.shader_clock_mhz / 1e3

    @property
    def peak_dp_gflops(self) -> float:
        """Peak double-precision rate, GFlop/s."""
        return self.peak_sp_gflops * self.dp_ratio

    @property
    def bandwidth_per_sm_bytes_per_cycle(self) -> float:
        """Measured bandwidth share of one SM, in bytes per shader cycle.

        This is the ``BW_SM = BW / SM`` quantity of the paper's Eqn (10),
        expressed per cycle so the timing model can stay in cycle units.
        """
        bytes_per_s = self.measured_bandwidth_gbs * 1e9
        return bytes_per_s / self.sm_count / self.clock_hz

    def sp_flops_per_sm_per_cycle(self) -> float:
        """SP floating-point operations one SM retires per cycle."""
        return self.cores_per_sm * 2.0

    def flops_per_sm_per_cycle(self, dtype_bytes: int) -> float:
        """Arithmetic throughput per SM per cycle for 4- or 8-byte floats."""
        if dtype_bytes == 4:
            return self.sp_flops_per_sm_per_cycle()
        if dtype_bytes == 8:
            return self.sp_flops_per_sm_per_cycle() * self.dp_ratio
        raise ValueError(f"unsupported element size {dtype_bytes}")


_REGISTRY: dict[str, DeviceSpec] = {}

#: Alternate spellings accepted by :func:`get_device`.
_ALIASES: dict[str, str] = {}


def register_device(spec: DeviceSpec, *aliases: str) -> DeviceSpec:
    """Add ``spec`` to the registry (and optional alias names); returns it."""
    _REGISTRY[spec.name] = spec
    for alias in aliases:
        _ALIASES[alias.lower()] = spec.name
    return spec


def get_device(name: str) -> DeviceSpec:
    """Look up a device by registry name or alias (case-insensitive)."""
    key = name.lower().replace(" ", "").replace("-", "").replace("_", "")
    key = _ALIASES.get(key, key)
    try:
        return _REGISTRY[key]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownDeviceError(f"unknown device {name!r}; known: {known}") from None


def list_devices() -> list[str]:
    """Names of all registered devices, sorted."""
    return sorted(_REGISTRY)


GTX580 = register_device(
    DeviceSpec(
        name="gtx580",
        display_name="GeForce GTX580",
        generation=Generation.FERMI,
        sm_count=16,
        cores_per_sm=32,
        shader_clock_mhz=1544.0,
        dp_ratio=1 / 8,
        pin_bandwidth_gbs=192.4,
        measured_bandwidth_gbs=161.0,
        registers_per_sm=32768,
        smem_per_sm=48 * 1024,
        max_threads_per_sm=1536,
        max_warps_per_sm=48,
        max_blocks_per_sm=8,
        max_threads_per_block=1024,
        dram_latency_cycles=600,
        l2_bytes=768 * 1024,
    ),
    "geforcegtx580",
)

GTX680 = register_device(
    DeviceSpec(
        name="gtx680",
        display_name="GeForce GTX680",
        generation=Generation.KEPLER,
        sm_count=8,
        cores_per_sm=192,
        shader_clock_mhz=1006.0,
        dp_ratio=1 / 24,
        pin_bandwidth_gbs=192.3,
        measured_bandwidth_gbs=150.0,
        registers_per_sm=65536,
        smem_per_sm=48 * 1024,
        max_threads_per_sm=2048,
        max_warps_per_sm=64,
        max_blocks_per_sm=16,
        max_threads_per_block=1024,
        dram_latency_cycles=400,
        l2_bytes=512 * 1024,
    ),
    "geforcegtx680",
)

C2070 = register_device(
    DeviceSpec(
        name="c2070",
        display_name="Tesla C2070",
        generation=Generation.FERMI,
        sm_count=14,
        cores_per_sm=32,
        shader_clock_mhz=1150.0,
        dp_ratio=1 / 2,
        pin_bandwidth_gbs=144.0,
        measured_bandwidth_gbs=117.5,
        registers_per_sm=32768,
        smem_per_sm=48 * 1024,
        max_threads_per_sm=1536,
        max_warps_per_sm=48,
        max_blocks_per_sm=8,
        max_threads_per_block=1024,
        dram_latency_cycles=600,
        l2_bytes=768 * 1024,
    ),
    "teslac2070",
)

# Tesla C2050: identical to C2070 except DRAM capacity (section V-B);
# capacity does not enter the timing model, so the spec matches C2070.
C2050 = register_device(
    DeviceSpec(
        name="c2050",
        display_name="Tesla C2050",
        generation=Generation.FERMI,
        sm_count=14,
        cores_per_sm=32,
        shader_clock_mhz=1150.0,
        dp_ratio=1 / 2,
        pin_bandwidth_gbs=144.0,
        measured_bandwidth_gbs=117.5,
        registers_per_sm=32768,
        smem_per_sm=48 * 1024,
        max_threads_per_sm=1536,
        max_warps_per_sm=48,
        max_blocks_per_sm=8,
        max_threads_per_block=1024,
        dram_latency_cycles=600,
        l2_bytes=768 * 1024,
    ),
    "teslac2050",
)

# GT200-class cards, used only for the section V-B prior-work extrapolation.
GTX285 = register_device(
    DeviceSpec(
        name="gtx285",
        display_name="GeForce GTX285",
        generation=Generation.GT200,
        sm_count=30,
        cores_per_sm=8,
        shader_clock_mhz=1476.0,
        dp_ratio=1 / 12,
        pin_bandwidth_gbs=159.0,
        measured_bandwidth_gbs=127.0,
        registers_per_sm=16384,
        smem_per_sm=16 * 1024,
        max_threads_per_sm=1024,
        max_warps_per_sm=32,
        max_blocks_per_sm=8,
        max_threads_per_block=512,
        dram_latency_cycles=550,
        l2_bytes=0,
    ),
    "geforcegtx285",
)

#: The three cards of the paper's main evaluation (Table III order).
PAPER_DEVICES: tuple[DeviceSpec, ...] = (GTX580, GTX680, C2070)
