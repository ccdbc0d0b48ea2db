"""Exhaustive auto-tuning (section IV-C).

Every feasible configuration is executed (on the simulator — the stand-in
for the paper's timed CUDA launches) and ranked by measured MPoint/s.
Configurations that cannot launch at all (a block exceeding the register
file) are skipped, exactly as a real tuner skips launch failures.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import TuningError
from repro.gpusim.device import DeviceSpec
from repro.kernels.base import KernelPlan
from repro.kernels.config import BlockConfig
from repro.obs.events import emit as emit_event
from repro.obs.schema import CAT_TUNE_RUN, CAT_TUNE_TRIAL
from repro.obs.tracer import current_tracer, maybe_span
from repro.tuning.evaluator import (
    STATUS_QUARANTINED,
    STATUS_REJECTED_SIMULATED,
    STATUS_REJECTED_STATIC,
    SimTrialEvaluator,
    TrialEvaluator,
    TrialOutcome,
    batch_capable,
    record_trial,
)
from repro.tuning.result import TuneEntry, TuneResult
from repro.tuning.space import ParameterSpace, default_space

KernelBuilder = Callable[[BlockConfig], KernelPlan]


def evaluate_configs(
    build: KernelBuilder,
    configs: list[BlockConfig],
    device: DeviceSpec,
    grid_shape: tuple[int, int, int],
    *,
    prefilter: bool = True,
    stats: dict[str, Any] | None = None,
    evaluator: TrialEvaluator | None = None,
) -> list[TuneEntry]:
    """Execute each configuration; unlaunchable ones are dropped.

    With ``prefilter`` (the default) the static resource check rejects
    unlaunchable configurations from the workload record alone, skipping
    the full timing pipeline; the check is the identical occupancy test
    the executor would run, so the surviving set — and hence the chosen
    optimum — is unchanged.  ``stats`` (optional, mutated in place)
    receives ``rejected_static`` / ``rejected_simulated`` counts (and a
    ``quarantined`` count when a resilient evaluator gave up on configs).

    ``evaluator`` swaps the measurement backend (default: a plain
    :class:`~repro.tuning.evaluator.SimTrialEvaluator`; pass a
    :class:`~repro.tuning.robust.ResilientEvaluator` for retry /
    quarantine / journal semantics).  When given, it owns the prefilter
    decision and the ``prefilter`` argument is ignored.
    """
    evaluator = evaluator or SimTrialEvaluator(device, prefilter=prefilter)
    batch = batch_capable(evaluator)
    if batch is not None:
        outcomes = batch.measure_batch(build, configs, grid_shape)
        entries = _collect_outcomes(
            configs, outcomes, stats,
            build=build, device=device, grid_shape=grid_shape,
        )
        if stats is not None:
            stats["jobs"] = batch.jobs
        return entries
    tracer = current_tracer()
    entries: list[TuneEntry] = []
    rejected_static = 0
    rejected_simulated = 0
    quarantined = 0
    for cfg in configs:
        plan = build(cfg)
        block = plan.block_workload(device, grid_shape)
        if evaluator.statically_rejected(block):
            rejected_static += 1
            record_trial(
                TrialOutcome(config=cfg, status=STATUS_REJECTED_STATIC),
                build=build, device=device, grid_shape=grid_shape,
            )
            if tracer is not None:
                tracer.instant(
                    cfg.label(), CAT_TUNE_TRIAL,
                    config=cfg.label(), rejected="static",
                )
                tracer.metrics.counter("tune.rejected_static").inc()
            continue
        with maybe_span(tracer, cfg.label(), CAT_TUNE_TRIAL,
                        config=cfg.label()) as sp:
            outcome = evaluator.measure(cfg, plan, grid_shape, block)
            record_trial(
                outcome, build=build, device=device, grid_shape=grid_shape
            )
            if outcome.status == STATUS_REJECTED_SIMULATED:
                rejected_simulated += 1
                if sp is not None:
                    sp.args["rejected"] = "simulated"
                    tracer.metrics.counter("tune.rejected_simulated").inc()
                continue
            if outcome.status == STATUS_QUARANTINED:
                quarantined += 1
                if sp is not None:
                    sp.args["quarantined"] = True
                    sp.args["attempts"] = outcome.attempts
                    tracer.metrics.counter("tune.quarantined").inc()
                continue
            if sp is not None:
                sp.args["mpoints_per_s"] = outcome.mpoints_per_s
                tracer.metrics.counter("tune.trials").inc()
        entries.append(
            TuneEntry(
                config=cfg,
                mpoints_per_s=outcome.mpoints_per_s,
                info=dict(outcome.info),
            )
        )
    if stats is not None:
        stats["rejected_static"] = rejected_static
        stats["rejected_simulated"] = rejected_simulated
        if quarantined:
            stats["quarantined"] = quarantined
        # One inline worker: keep the stats shape identical to the batch
        # path so archives/JSON output don't change with the backend.
        stats["jobs"] = 1
    return entries


def _collect_outcomes(
    configs: list[BlockConfig],
    outcomes: list[TrialOutcome],
    stats: dict[str, Any] | None,
    *,
    build: KernelBuilder,
    device: DeviceSpec,
    grid_shape: tuple[int, int, int],
) -> list[TuneEntry]:
    """Batch-path bookkeeping: classify pre-measured outcomes.

    Emits the identical instants/spans/metric counters the serial loop
    emits (trial spans are near-zero here — the measurement already
    happened in the workers, whose wall-clock lives on the
    ``tune.worker`` lanes) and tallies the same stats, so the entry list
    and every counter are independent of which path produced them.
    """
    tracer = current_tracer()
    entries: list[TuneEntry] = []
    rejected_static = 0
    rejected_simulated = 0
    quarantined = 0
    for cfg, outcome in zip(configs, outcomes):
        record_trial(outcome, build=build, device=device, grid_shape=grid_shape)
        if outcome.status == STATUS_REJECTED_STATIC:
            rejected_static += 1
            if tracer is not None:
                tracer.instant(
                    cfg.label(), CAT_TUNE_TRIAL,
                    config=cfg.label(), rejected="static",
                )
                tracer.metrics.counter("tune.rejected_static").inc()
            continue
        with maybe_span(tracer, cfg.label(), CAT_TUNE_TRIAL,
                        config=cfg.label()) as sp:
            if outcome.status == STATUS_REJECTED_SIMULATED:
                rejected_simulated += 1
                if sp is not None:
                    sp.args["rejected"] = "simulated"
                    tracer.metrics.counter("tune.rejected_simulated").inc()
                continue
            if outcome.status == STATUS_QUARANTINED:
                quarantined += 1
                if sp is not None:
                    sp.args["quarantined"] = True
                    sp.args["attempts"] = outcome.attempts
                    tracer.metrics.counter("tune.quarantined").inc()
                continue
            if sp is not None:
                sp.args["mpoints_per_s"] = outcome.mpoints_per_s
                tracer.metrics.counter("tune.trials").inc()
        entries.append(
            TuneEntry(
                config=cfg,
                mpoints_per_s=outcome.mpoints_per_s,
                info=dict(outcome.info),
            )
        )
    if stats is not None:
        stats["rejected_static"] = rejected_static
        stats["rejected_simulated"] = rejected_simulated
        if quarantined:
            stats["quarantined"] = quarantined
    return entries


def feasible_configs(
    build: KernelBuilder,
    device: DeviceSpec,
    grid_shape: tuple[int, int, int],
    space: ParameterSpace | None = None,
) -> list[BlockConfig]:
    """The constrained space for this kernel family on this device.

    Constraint (iii) reads the plan's shared-memory footprint directly —
    the same value ``block_workload`` reports — so the probe costs O(1)
    per candidate instead of a full traffic enumeration.
    """
    space = space or default_space()

    def smem_of(cfg: BlockConfig) -> int:
        plan = build(cfg)
        plan.check_grid_shape(grid_shape)
        return plan.smem_bytes()

    return space.feasible(device, grid_shape, smem_of)


def exhaustive_tune(
    build: KernelBuilder,
    device: DeviceSpec,
    grid_shape: tuple[int, int, int],
    space: ParameterSpace | None = None,
    *,
    prefilter: bool = True,
    evaluator: TrialEvaluator | None = None,
) -> TuneResult:
    """Run the full feasible space; return the ranked result."""
    configs = feasible_configs(build, device, grid_shape, space)
    stats: dict[str, Any] = {}
    emit_event(
        "sweep.start", method="exhaustive", device=device.name,
        space_size=len(configs),
    )
    with maybe_span(
        current_tracer(), f"exhaustive on {device.name}", CAT_TUNE_RUN,
        method="exhaustive", device=device.name, space_size=len(configs),
    ) as run_span:
        entries = evaluate_configs(
            build, configs, device, grid_shape, prefilter=prefilter,
            stats=stats, evaluator=evaluator,
        )
        if run_span is not None:
            run_span.args.update(evaluated=len(entries), **stats)
    emit_event("sweep.finished", method="exhaustive", evaluated=len(entries))
    if not entries:
        raise TuningError(
            f"no configuration could be launched on {device.name} for {grid_shape}"
        )
    entries.sort(key=lambda e: e.mpoints_per_s, reverse=True)
    return TuneResult(
        best=entries[0],
        entries=tuple(entries),
        evaluated=len(entries),
        space_size=len(configs),
        method="exhaustive",
        info=stats,
    )
