"""The trial evaluator — the tuners' single seam for measuring a config.

All three tuners (exhaustive, stochastic, model-based) used to call
``DeviceExecutor.run`` inline; that made it impossible to interpose
retry/quarantine/journal logic without forking each search loop.  This
module extracts the per-trial measurement into a small protocol:

* :meth:`TrialEvaluator.statically_rejected` — the static resource
  pre-filter (identical occupancy check the executor would run);
* :meth:`TrialEvaluator.measure` — execute one configuration and
  classify the result into a :class:`TrialOutcome`.

:class:`SimTrialEvaluator` is the default implementation and reproduces
the tuners' historical behaviour exactly — a tuner built with
``evaluator=None`` is bit-identical to the pre-evaluator code path.  It
prices each trial with :meth:`repro.gpusim.executor.DeviceExecutor.score`:
the rate, load efficiency and occupancy a :class:`TrialOutcome` keeps,
without deriving the profiler counter set nobody reads during a search.
:class:`repro.tuning.robust.ResilientEvaluator` wraps it with retries,
per-config quarantine and a crash-safe journal.

The tuners keep ownership of tracing (spans, instants, metric counters):
the evaluator measures, the search loop narrates.  That split keeps the
obs-layer semantics frozen by ``tests/test_obs_reconcile.py`` untouched
regardless of which evaluator is plugged in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Protocol

from repro.analysis.resources import launch_failure
from repro.errors import ResourceLimitError
from repro.gpusim.device import DeviceSpec
from repro.gpusim.executor import DeviceExecutor
from repro.kernels.config import BlockConfig
from repro.obs.events import current_sink, emit as emit_event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.gpusim.workload import BlockWorkload
    from repro.kernels.base import KernelPlan

#: Trial classification vocabulary (also the journal's ``status`` field).
STATUS_OK = "ok"
STATUS_REJECTED_STATIC = "rejected_static"
STATUS_REJECTED_SIMULATED = "rejected_simulated"
STATUS_QUARANTINED = "quarantined"

TRIAL_STATUSES: tuple[str, ...] = (
    STATUS_OK,
    STATUS_REJECTED_STATIC,
    STATUS_REJECTED_SIMULATED,
    STATUS_QUARANTINED,
)


@dataclass(frozen=True)
class TrialOutcome:
    """What measuring one configuration produced.

    ``faults`` lists the fault kinds that touched the *returned*
    measurement (empty for a clean launch); a resilient evaluator retries
    faulted measurements, so a non-empty list here means retries were
    exhausted and the number should be treated as degraded.  ``attempts``
    counts executor launches spent on this config (1 for a clean first
    try); ``replayed`` marks outcomes restored from a resume journal
    without re-running anything.
    """

    config: BlockConfig
    status: str
    mpoints_per_s: float = 0.0
    info: dict[str, Any] = field(default_factory=dict)
    attempts: int = 1
    faults: tuple[str, ...] = ()
    replayed: bool = False

    @property
    def measured(self) -> bool:
        """Did this trial produce a usable rate?"""
        return self.status == STATUS_OK


def emit_trial_events(outcome: TrialOutcome) -> None:
    """Emit the trial-plane events one finished outcome implies.

    The event-layer side of "the evaluator measures, the search loop
    narrates": the loops call this **in input order** after a trial
    completes, never live from inside a measurement (which runs under
    :func:`repro.obs.events.suppress_events`).  The stream is thereby a
    pure function of the outcome sequence — byte-identical at any
    ``--jobs`` count, and its counts match the journal by construction.

    A replayed outcome emits only ``trial.replayed``: the work it
    describes happened (and was streamed) in the session that journaled
    it, so re-emitting measurement events would double-count a resumed
    campaign.
    """
    if current_sink() is None:
        return
    cfg = outcome.config.label()
    if outcome.replayed:
        emit_event("trial.replayed", config=cfg, status=outcome.status)
        return
    if outcome.attempts > 1:
        emit_event("trial.retried", config=cfg, retries=outcome.attempts - 1)
    for kind in outcome.faults:
        emit_event("fault.observed", config=cfg, kind=kind)
    if outcome.status == STATUS_OK:
        emit_event(
            "trial.measured", config=cfg,
            mpoints_per_s=outcome.mpoints_per_s, attempts=outcome.attempts,
        )
    elif outcome.status == STATUS_QUARANTINED:
        emit_event(
            "trial.quarantined", config=cfg,
            attempts=outcome.attempts, faults=list(outcome.faults),
        )
    elif outcome.status == STATUS_REJECTED_STATIC:
        emit_event("trial.rejected", config=cfg, reason="static")
    else:
        emit_event("trial.rejected", config=cfg, reason="simulated")


def record_trial(
    outcome: TrialOutcome,
    *,
    build: Callable[[BlockConfig], "KernelPlan"] | None = None,
    device: DeviceSpec | None = None,
    grid_shape: tuple[int, int, int] | None = None,
    predicted: float | None = None,
) -> None:
    """Narrate one finished trial: events plus the provenance archive.

    The one call the search loops make per completed outcome, **in input
    order, in the parent**.  It emits the trial-plane events
    (:func:`emit_trial_events`) and, when a
    :class:`repro.obs.archive.TrialArchive` is installed and the plan
    context (``build`` / ``device`` / ``grid_shape``) was provided,
    derives and appends the config's archive record.  Both planes are
    pure functions of the outcome sequence plus the plan, so everything
    written is byte-identical at any ``--jobs`` count; with neither a
    sink nor an archive installed the call is two contextvar lookups.

    ``predicted`` forwards a model score the tuner already computed
    (the model-based shortlist) so the archive records exactly the
    number the ranking used.
    """
    emit_trial_events(outcome)
    # Deferred import: repro.obs.archive imports this module.
    from repro.obs.archive import current_archive

    archive = current_archive()
    if (
        archive is None
        or build is None
        or device is None
        or grid_shape is None
    ):
        return
    archive.capture(
        outcome, build=build, device=device, grid_shape=grid_shape,
        predicted=predicted,
    )


class TrialEvaluator(Protocol):
    """What a tuner needs from its measurement backend."""

    def statically_rejected(self, block: "BlockWorkload") -> bool:
        """Would the static resource check refuse this launch?"""
        ...  # pragma: no cover - protocol

    def measure(
        self,
        cfg: BlockConfig,
        plan: "KernelPlan",
        grid_shape: tuple[int, int, int],
        block: "BlockWorkload",
    ) -> TrialOutcome:
        """Execute one configuration and classify the result."""
        ...  # pragma: no cover - protocol


class BatchTrialEvaluator(TrialEvaluator, Protocol):
    """A trial evaluator that can also measure whole batches at once.

    :meth:`measure_batch` owns the complete per-trial pipeline — plan
    construction, the static pre-filter *and* measurement — and returns
    one :class:`TrialOutcome` per input configuration **in input order**
    (statically rejected configurations come back as
    :data:`STATUS_REJECTED_STATIC` outcomes instead of being silently
    dropped).  Deterministic ordering is the contract that keeps a
    batched sweep's winner and tie-breaks bit-identical to the serial
    loop.  ``jobs`` reports the resolved worker count for
    ``TuneResult.info``.
    """

    jobs: int

    def measure_batch(
        self,
        build: Callable[["BlockConfig"], "KernelPlan"],
        configs: list[BlockConfig],
        grid_shape: tuple[int, int, int],
    ) -> list[TrialOutcome]:
        """Measure every configuration; outcomes in input order."""
        ...  # pragma: no cover - protocol


def batch_capable(evaluator: TrialEvaluator) -> "BatchTrialEvaluator | None":
    """The evaluator as a batch evaluator, or ``None`` when it is not one.

    The tuners' feature probe: a plain evaluator keeps the historical
    one-config-at-a-time loop; a batch-capable one (e.g.
    :class:`repro.tuning.parallel.ParallelEvaluator`) gets the whole
    config list in one call.
    """
    if hasattr(evaluator, "measure_batch"):
        return evaluator  # type: ignore[return-value]
    return None


class SimTrialEvaluator:
    """The plain evaluator: one simulator launch per measure call.

    Parameters
    ----------
    device:
        The simulated device trials run on.
    prefilter:
        Mirrors the tuners' historical ``prefilter`` flag: with it off,
        :meth:`statically_rejected` always answers ``False`` and
        unlaunchable configurations are discovered by the simulator
        (``rejected_simulated``) instead.
    executor:
        Injectable executor — the fault-injection tests and the resilient
        session pass one built with a :class:`repro.gpusim.faults.FaultPlan`.
    """

    def __init__(
        self,
        device: DeviceSpec,
        *,
        prefilter: bool = True,
        executor: DeviceExecutor | None = None,
    ) -> None:
        self.device = device
        self.prefilter = prefilter
        self.executor = executor or DeviceExecutor(device)

    def statically_rejected(self, block: "BlockWorkload") -> bool:
        return self.prefilter and launch_failure(block, self.device) is not None

    def measure(
        self,
        cfg: BlockConfig,
        plan: "KernelPlan",
        grid_shape: tuple[int, int, int],
        block: "BlockWorkload",
    ) -> TrialOutcome:
        try:
            score = self.executor.score(plan, grid_shape, block=block)
        except ResourceLimitError:
            return TrialOutcome(config=cfg, status=STATUS_REJECTED_SIMULATED)
        return TrialOutcome(
            config=cfg,
            status=STATUS_OK,
            mpoints_per_s=score.mpoints_per_s,
            info={
                "load_efficiency": score.load_efficiency,
                "occupancy": score.occupancy.occupancy,
                "limiter": score.occupancy.limiter,
            },
            faults=tuple(str(f.get("kind", "?")) for f in score.faults),
        )
