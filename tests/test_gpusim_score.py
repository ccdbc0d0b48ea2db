"""``DeviceExecutor.score`` versus ``DeviceExecutor.run``: one launch, two prices.

``score()`` is the tuner-grade price of a launch — the rate, ``time_s``,
load efficiency and occupancy, without the counter set or the report.
Both methods share one launch step, so every number ``score()`` returns
must be *bit-identical* (``==`` on floats) to the same field of ``run()``'s
report, both must refuse the same launches with the same message, and
under identical fault plans both must fail, derate and advance the
launch stream identically.  The tuners must not be able to tell which
branch priced their trials: a traced sweep (which prices through
``run()``) and an untraced one (``score()``'s own path) return equal
results.
"""

import pytest

from repro.errors import FaultInjectedError, KernelHangError, ReproError, ResourceLimitError
from repro.gpusim.device import get_device, list_devices
from repro.gpusim.executor import DeviceExecutor, LaunchScore
from repro.gpusim.faults import FaultPlan
from repro.kernels.config import BlockConfig
from repro.kernels.factory import KERNEL_FAMILIES, make_kernel
from repro.obs.schema import CAT_SIM_KERNEL
from repro.obs.tracer import Tracer, tracing
from repro.stencils.spec import symmetric
from repro.tuning.exhaustive import exhaustive_tune
from repro.tuning.modelbased import model_based_tune
from repro.tuning.space import default_space

ORDERS = (2, 4, 8, 12)
DTYPES = ("sp", "dp")
GRIDS = ((512, 512, 256), (64, 48, 32))
CANDIDATES = tuple(default_space().candidates())
#: (device, grid) slices per (family, order, dtype) group.
SLICES = tuple((d, g) for d in list_devices() for g in GRIDS)


def price(price_fn, plan, grid, block):
    """The launch's price, or the ``ResourceLimitError`` that refused it."""
    try:
        return price_fn(plan, grid, block=block)
    except ResourceLimitError as exc:
        return exc


def assert_same_price(got, want):
    if isinstance(want, ResourceLimitError):
        assert isinstance(got, ResourceLimitError)
        assert str(got) == str(want)
        return
    assert not isinstance(got, Exception), got
    assert got.mpoints_per_s == want.mpoints_per_s  # bit-exact
    assert got.time_s == want.time_s
    assert got.load_efficiency == want.load_efficiency
    assert got.load_efficiency == want.counters["gld_efficiency"]
    assert got.occupancy == want.occupancy
    assert got.occupancy.limiter == want.counters.occupancy_limiter
    assert list(got.faults) == want.meta.get("faults", [])


@pytest.mark.parametrize("family", sorted(KERNEL_FAMILIES))
def test_score_matches_run_bit_for_bit(family):
    """Every family x order x dtype prices every default-space candidate.

    Within one (family, order, dtype) group the ten (device, grid) slices
    partition the candidate list, so each candidate is priced on some
    device and grid of every group, and each slice still sees a spread
    of block shapes — a tenth of the full product's launches.
    """
    priced = refused = 0
    for order in ORDERS:
        spec = symmetric(order)
        for dtype in DTYPES:
            for offset, (device_name, grid) in enumerate(SLICES):
                device = get_device(device_name)
                executor = DeviceExecutor(device)
                for cfg in CANDIDATES[offset::len(SLICES)]:
                    try:
                        plan = make_kernel(family, spec, cfg, dtype)
                        block = plan.block_workload(device, grid)
                    except ReproError:
                        continue  # never reaches an executor
                    want = price(executor.run, plan, grid, block)
                    got = price(executor.score, plan, grid, block)
                    assert_same_price(got, want)
                    if isinstance(want, ResourceLimitError):
                        refused += 1
                    else:
                        priced += 1
    # Both outcomes are exercised for every family.
    assert priced and refused


def test_score_builds_its_own_block():
    device = get_device("gtx580")
    plan = make_kernel("inplane_fullslice", symmetric(4), BlockConfig(32, 4, 1, 2))
    executor = DeviceExecutor(device)
    assert_same_price(
        executor.score(plan, GRIDS[0]), executor.run(plan, GRIDS[0])
    )


def test_score_honours_timing_params_override():
    from dataclasses import replace

    from repro.gpusim.timing import params_for

    device = get_device("c2070")
    params = replace(params_for(device), partition_camping=1.0, l2_halo_reuse=0.0)
    plan = make_kernel("nvstencil", symmetric(8), BlockConfig(16, 8, 1, 1))
    executor = DeviceExecutor(device, params)
    assert_same_price(
        executor.score(plan, GRIDS[0]), executor.run(plan, GRIDS[0])
    )


class TestFaultParity:
    """Identical fault plans: same exceptions, derates, meta and cursor."""

    SPEC = "seed=7,launch=0.15,hang=0.05,throttle=0.15,ecc=0.1"
    LAUNCHES = 120

    def plans(self):
        spec = symmetric(4)
        cfgs = [BlockConfig(32, 4, 1, 2), BlockConfig(64, 2, 1, 1), BlockConfig(16, 8, 2, 2)]
        return [make_kernel("inplane_fullslice", spec, c) for c in cfgs]

    def sequence(self, executor, price_fn_name, grid):
        out = []
        plans = self.plans()
        for i in range(self.LAUNCHES):
            plan = plans[i % len(plans)]
            try:
                result = getattr(executor, price_fn_name)(plan, grid)
            except (FaultInjectedError, KernelHangError) as exc:
                result = (type(exc), str(exc), exc.kind, getattr(exc, "launch_index", None))
            out.append(result)
        return out

    @pytest.mark.parametrize("extra", ["", ",watchdog=7e5"])
    def test_same_faults_at_same_index(self, extra):
        device = get_device("gtx580")
        grid = (256, 256, 64)
        run_plan = FaultPlan.parse(self.SPEC + extra)
        score_plan = FaultPlan.parse(self.SPEC + extra)
        run_ex = DeviceExecutor(device, faults=run_plan)
        score_ex = DeviceExecutor(device, faults=score_plan)
        ran = self.sequence(run_ex, "run", grid)
        scored = self.sequence(score_ex, "score", grid)
        kinds = set()
        for want, got in zip(ran, scored, strict=True):
            if isinstance(want, tuple):
                assert got == want
                kinds.add(want[2])
            else:
                assert_same_price(got, want)
                kinds.update(f["kind"] for f in got.faults)
        assert run_plan.next_index() == score_plan.next_index() == self.LAUNCHES
        expected = {"launch_failure", "hang", "throttle", "ecc"}
        if extra:
            expected.add("watchdog")
        assert expected <= kinds


class TestTracedBranch:
    def test_traced_score_is_the_report(self):
        device = get_device("gtx680")
        plan = make_kernel("inplane_fullslice", symmetric(8), BlockConfig(32, 8, 1, 2), "dp")
        executor = DeviceExecutor(device)
        with tracing(Tracer()) as scored_tracer:
            got = executor.score(plan, GRIDS[0])
        with tracing(Tracer()) as ran_tracer:
            want = executor.run(plan, GRIDS[0])
        assert got == LaunchScore.of(want)
        assert_same_price(got, want)
        # The traced branch keeps the sim.kernel span a traced run records.
        scored_spans = scored_tracer.device_spans(CAT_SIM_KERNEL)
        ran_spans = ran_tracer.device_spans(CAT_SIM_KERNEL)
        assert len(scored_spans) == len(ran_spans) == 1
        assert scored_spans[0].args == ran_spans[0].args

    def test_untraced_score_derives_no_counters(self, monkeypatch):
        import repro.gpusim.executor as executor_mod

        def refuse(*_args, **_kwargs):
            raise AssertionError("score() derived the counter set")

        monkeypatch.setattr(executor_mod, "derive_counters", refuse)
        device = get_device("gtx680")
        plan = make_kernel("inplane_fullslice", symmetric(2), BlockConfig(32, 4, 1, 4))
        assert DeviceExecutor(device).score(plan, GRIDS[0]).mpoints_per_s > 0


def build_for(order, dtype="sp"):
    spec = symmetric(order)
    return lambda cfg: make_kernel("inplane_fullslice", spec, cfg, dtype)


@pytest.mark.parametrize(
    "tune",
    [
        pytest.param(exhaustive_tune, id="exhaustive"),
        pytest.param(model_based_tune, id="model"),
    ],
)
@pytest.mark.parametrize("order,dtype,device", [(2, "sp", "gtx580"), (8, "dp", "c2070")])
def test_tuners_blind_to_the_pricing_branch(tune, order, dtype, device):
    """Traced and untraced sweeps return equal results, tie order included."""
    dev = get_device(device)
    grid = (512, 512, 64)
    plain = tune(build_for(order, dtype), dev, grid)
    with tracing(Tracer()):
        traced = tune(build_for(order, dtype), dev, grid)
    assert traced == plain
    assert [e.config for e in traced.entries] == [e.config for e in plain.entries]
    assert traced.info == plain.info
