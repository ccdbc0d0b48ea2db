"""VectorTrialEvaluator tests: the batch backend is a pure substitution.

The evaluator's contract: same outcomes (status, bit-identical rate, same
``info`` keys), same winner and tie-breaks as the serial
:class:`~repro.tuning.evaluator.SimTrialEvaluator` loop — only faster.
"""

from repro.gpusim.batch import BatchEngine
from repro.kernels.config import BlockConfig
from repro.kernels.factory import make_kernel
from repro.stencils.spec import symmetric
from repro.tuning.evaluator import (
    STATUS_OK,
    STATUS_REJECTED_SIMULATED,
    STATUS_REJECTED_STATIC,
    SimTrialEvaluator,
    batch_capable,
)
from repro.tuning.exhaustive import evaluate_configs, exhaustive_tune, feasible_configs
from repro.tuning.modelbased import model_based_tune
from repro.tuning.space import ParameterSpace
from repro.tuning.vectorized import VectorTrialEvaluator

GRID = (256, 256, 128)
SMALL_SPACE = ParameterSpace(
    tx_values=(16, 32, 64), ty_values=(2, 4, 8), rx_values=(1, 2), ry_values=(1, 2)
)
#: Rejected by the scalar executor (register file / shared memory).
DEAD_CONFIGS = [BlockConfig(64, 16, 2, 2), BlockConfig(64, 8, 4, 8)]


def builder(order=2, dtype="sp"):
    spec = symmetric(order)
    return lambda cfg: make_kernel("inplane_fullslice", spec, cfg, dtype)


class TestProtocol:
    def test_is_batch_capable(self, gtx580):
        ev = VectorTrialEvaluator(gtx580)
        assert batch_capable(ev) is ev
        assert ev.jobs == 1

    def test_accepts_device_name(self):
        ev = VectorTrialEvaluator("gtx580")
        assert ev.device.name == "gtx580"

    def test_shared_engine_is_reused(self, gtx580):
        engine = BatchEngine(gtx580)
        ev = VectorTrialEvaluator(gtx580, engine=engine)
        ev.measure_batch(builder(), [BlockConfig(32, 4, 1, 4)], GRID)
        assert engine._scores  # memo landed on the injected engine


class TestOutcomeParity:
    def test_outcomes_match_serial_evaluator(self, paper_device):
        build = builder()
        configs = feasible_configs(build, paper_device, GRID, SMALL_SPACE)
        serial = SimTrialEvaluator(paper_device)
        vector = VectorTrialEvaluator(paper_device)
        batched = vector.measure_batch(build, configs, GRID)
        assert len(batched) == len(configs)
        for cfg, got in zip(configs, batched):
            plan = build(cfg)
            block = plan.block_workload(paper_device, GRID)
            want = serial.measure(cfg, plan, GRID, block)
            assert got.config == cfg
            assert got.status == want.status
            assert got.mpoints_per_s == want.mpoints_per_s  # bit-exact
            assert got.info == want.info

    def test_rejects_static_with_prefilter(self, gtx580):
        ev = VectorTrialEvaluator(gtx580, prefilter=True)
        outcomes = ev.measure_batch(builder(), DEAD_CONFIGS, GRID)
        assert [o.status for o in outcomes] == [STATUS_REJECTED_STATIC] * 2

    def test_rejects_simulated_without_prefilter(self, gtx580):
        ev = VectorTrialEvaluator(gtx580, prefilter=False)
        outcomes = ev.measure_batch(builder(), DEAD_CONFIGS, GRID)
        assert [o.status for o in outcomes] == [STATUS_REJECTED_SIMULATED] * 2

    def test_measure_single_matches_batch(self, gtx580):
        build = builder()
        cfg = BlockConfig(32, 4, 1, 4)
        plan = build(cfg)
        block = plan.block_workload(gtx580, GRID)
        ev = VectorTrialEvaluator(gtx580)
        single = ev.measure(cfg, plan, GRID, block)
        (batched,) = ev.measure_batch(build, [cfg], GRID)
        assert single.status == STATUS_OK
        assert single.mpoints_per_s == batched.mpoints_per_s
        assert single.info == batched.info


class TestTunerIdentity:
    def test_exhaustive_winner_identical(self, paper_device):
        base = exhaustive_tune(builder(), paper_device, GRID, SMALL_SPACE)
        fast = exhaustive_tune(
            builder(), paper_device, GRID, SMALL_SPACE,
            evaluator=VectorTrialEvaluator(paper_device),
        )
        assert fast.best_config == base.best_config
        assert fast.best_mpoints == base.best_mpoints  # bit-exact
        assert [e.config for e in fast.entries] == [e.config for e in base.entries]
        assert [e.mpoints_per_s for e in fast.entries] == [
            e.mpoints_per_s for e in base.entries
        ]

    def test_model_based_winner_identical(self, gtx580):
        base = model_based_tune(builder(), gtx580, GRID, beta=0.2, space=SMALL_SPACE)
        fast = model_based_tune(
            builder(), gtx580, GRID, beta=0.2, space=SMALL_SPACE,
            evaluator=VectorTrialEvaluator(gtx580),
        )
        assert fast.best_config == base.best_config
        assert fast.best_mpoints == base.best_mpoints
        assert [e.mpoints_per_s for e in fast.entries] == [
            e.mpoints_per_s for e in base.entries
        ]

    def test_autotune_accepts_evaluator(self, gtx580):
        import repro

        base = repro.autotune("inplane_fullslice", 2, gtx580, GRID, method="model")
        fast = repro.autotune(
            "inplane_fullslice", 2, gtx580, GRID, method="model",
            evaluator=VectorTrialEvaluator(gtx580),
        )
        assert fast.best_config == base.best_config
        assert fast.best_mpoints == base.best_mpoints


class TestStatsShape:
    """``stats['jobs']`` is always populated — serial and batch alike."""

    def test_serial_evaluate_configs_sets_jobs(self, gtx580):
        build = builder()
        configs = feasible_configs(build, gtx580, GRID, SMALL_SPACE)
        stats = {}
        evaluate_configs(build, configs, gtx580, GRID, stats=stats)
        assert stats["jobs"] == 1

    def test_batch_evaluate_configs_sets_jobs(self, gtx580):
        build = builder()
        configs = feasible_configs(build, gtx580, GRID, SMALL_SPACE)
        stats = {}
        evaluate_configs(
            build, configs, gtx580, GRID, stats=stats,
            evaluator=VectorTrialEvaluator(gtx580),
        )
        assert stats["jobs"] == 1

    def test_exhaustive_info_jobs_both_backends(self, gtx580):
        serial = exhaustive_tune(builder(), gtx580, GRID, SMALL_SPACE)
        batch = exhaustive_tune(
            builder(), gtx580, GRID, SMALL_SPACE,
            evaluator=VectorTrialEvaluator(gtx580),
        )
        assert serial.info["jobs"] == 1
        assert batch.info["jobs"] == 1
        assert set(serial.info) == set(batch.info)

    def test_model_based_info_jobs_both_backends(self, gtx580):
        serial = model_based_tune(builder(), gtx580, GRID, beta=0.2, space=SMALL_SPACE)
        batch = model_based_tune(
            builder(), gtx580, GRID, beta=0.2, space=SMALL_SPACE,
            evaluator=VectorTrialEvaluator(gtx580),
        )
        assert serial.info["jobs"] == 1
        assert batch.info["jobs"] == 1
        assert set(serial.info) == set(batch.info)
