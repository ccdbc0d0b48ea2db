"""Constraint (iii) probe parity: ``check_grid_shape`` + ``smem_bytes()``
must agree with the full ``block_workload`` on every tuner candidate.

The exhaustive tuner keeps a candidate only when its shared-memory tile
fits the SM (section IV-C).  It reads the footprint from
``KernelPlan.smem_bytes()`` instead of enumerating the block's traffic,
so the two must never diverge: same bytes whenever both succeed, and the
same ``ReproError`` type whenever either refuses.
"""

import pytest

from repro.errors import ReproError
from repro.gpusim.device import get_device
from repro.kernels.factory import KERNEL_FAMILIES, make_kernel
from repro.kernels.multigrid import METHODS, MultiGridKernel
from repro.stencils.applications import APPLICATIONS
from repro.tuning.space import default_space

ORDERS = (2, 4, 6, 8, 10, 12)
DTYPES = ("sp", "dp")
GRIDS = ((512, 512, 256), (64, 48, 32), (32, 32, 16))
DEVICE = get_device("gtx580")
CANDIDATES = tuple(default_space().candidates())


def _probe(plan, grid):
    """What the tuner's feasibility probe computes."""
    plan.check_grid_shape(grid)
    return plan.smem_bytes()


def _outcome(fn):
    """``("ok", value)`` or ``("error", ReproError subtype)``."""
    try:
        return "ok", fn()
    except ReproError as exc:
        return "error", type(exc)


def _assert_parity(build):
    checked = refused = 0
    for cfg in CANDIDATES:
        plan = build(cfg)
        for grid in GRIDS:
            probe = _outcome(lambda: _probe(plan, grid))
            full = _outcome(lambda: plan.block_workload(DEVICE, grid).smem_bytes)
            assert probe == full, (plan.name, grid)
            checked += 1
            refused += probe[0] == "error"
    assert checked == len(CANDIDATES) * len(GRIDS)
    return refused


@pytest.mark.parametrize("family", sorted(KERNEL_FAMILIES))
def test_symmetric_family_probe_matches_block_workload(family):
    refused = 0
    for order in ORDERS:
        for dtype in DTYPES:
            refused += _assert_parity(
                lambda cfg: make_kernel(family, order, cfg, dtype)
            )
    # The small grids refuse the wide tiles, so both branches are covered.
    assert refused > 0


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("app", sorted(APPLICATIONS))
def test_multigrid_probe_matches_block_workload(app, method):
    expr = APPLICATIONS[app]
    for dtype in DTYPES:
        _assert_parity(lambda cfg: MultiGridKernel(expr, cfg, dtype, method))


def test_shared_memory_free_families_report_zero():
    for family in ("naive", "texture"):
        assert make_kernel(family, 8, (32, 4)).smem_bytes() == 0


def test_stenciled_families_report_their_tiles():
    plain = make_kernel("inplane_fullslice", 4, (32, 4)).smem_bytes()
    assert plain > 0
    # 3D blocking buffers a rolling window of 2r + 1 planes.
    assert make_kernel("blocking3d", 4, (32, 4)).smem_bytes() == 5 * plain
    # One fused step is the plain ghost-zone tile; each extra step adds a
    # (2r + 1)-plane window of intermediates.
    t1 = make_kernel("temporal", 4, (32, 4), time_steps=1).smem_bytes()
    t2 = make_kernel("temporal", 4, (32, 4), time_steps=2).smem_bytes()
    assert t1 == plain
    assert t2 > t1 + 5 * plain
