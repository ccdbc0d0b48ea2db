"""Host-side span recorder for the benchmark's traced pass.

The recorder wraps public entry points of each layer at run time — the
program's sources are never edited — and keeps one span per call: layer,
start, end, parent span and request id, in flat in-memory arrays that are
written out once the pass ends.  A layer's self time is its spans'
durations minus the time their direct child spans cover.

Every probe names a module and a qualified attribute.  A probe whose
module or attribute no longer exists is skipped and its layer is reported
as absent, so the benchmark keeps running against later refactors.
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
import sys
import time
import weakref
from array import array
from collections import defaultdict
from functools import wraps
from pathlib import Path
from typing import Any, Callable

Hook = Callable[..., None]


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request_of = array("i")
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request = -1
        self.absent: list[str] = []
        self.tally = TunerTally()

    def layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_ids[name]

    def open(self, layer: int) -> int:
        idx = len(self.start)
        self.layer_of.append(layer)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.request_of.append(self.request)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    # -- aggregation ---------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Per-layer self time: span time not covered by direct children."""
        child_ns = [0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        out: dict[str, float] = defaultdict(float)
        for i, layer in enumerate(self.layer_of):
            dur = self.end[i] - self.start[i]
            out[self.layers[layer]] += (dur - child_ns[i]) / 1e9
        return out

    def root_seconds(self) -> float:
        """Total time covered by spans that have no parent."""
        return sum(
            self.end[i] - self.start[i]
            for i, p in enumerate(self.parent) if p < 0
        ) / 1e9

    def write(self, path: Path) -> None:
        """Dump every span, columnar, as gzipped JSON."""
        doc = {
            "layers": self.layers,
            "columns": ["layer", "start_ns", "end_ns", "parent", "request"],
            "layer": list(self.layer_of),
            "start_ns": list(self.start),
            "end_ns": list(self.end),
            "parent": list(self.parent),
            "request": list(self.request_of),
            "counts": dict(self.counts),
            "absent": self.absent,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)


# -- patching ----------------------------------------------------------------


def _resolve(module: str, qualname: str) -> tuple[Any, str, Any]:
    """(owner, attribute, raw value) for ``module:qualname``."""
    owner: Any = importlib.import_module(module)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


def _subclasses(cls: type) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def patch(module: str, qualname: str, make: Callable[[Callable], Callable]) -> bool:
    """Replace an entry point by ``make(original)`` wherever it is bound.

    A module-level function is replaced in every loaded ``repro`` module
    (and in ``os`` for ``os.fsync``) that holds it; a method is replaced
    on its class and on each subclass that overrides it.  Returns False
    when the entry point does not exist.
    """
    try:
        owner, attr, raw = _resolve(module, qualname)
    except (ImportError, AttributeError, KeyError):
        return False
    if isinstance(owner, type):
        for cls in _subclasses(owner):
            own = cls.__dict__.get(attr)
            if own is None:
                continue
            if isinstance(own, classmethod):
                setattr(cls, attr, classmethod(make(own.__func__)))
            elif isinstance(own, staticmethod):
                setattr(cls, attr, staticmethod(make(own.__func__)))
            elif callable(own):
                setattr(cls, attr, make(own))
        return True
    wrapped = make(raw)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == module or name.startswith("repro")):
            continue
        for key, value in list(vars(mod).items()):
            if value is raw:
                setattr(mod, key, wrapped)
    return True


def spanned(
    rec: Recorder,
    layer: str,
    *,
    before: Callable[..., Any] | None = None,
    after: Hook | None = None,
    error: Hook | None = None,
) -> Callable[[Callable], Callable]:
    """Wrapper factory: one span of ``layer`` per call, plus count hooks.

    ``before(args, kwargs)`` runs ahead of the span and its return value
    is handed to ``after(args, kwargs, result, token)``; ``error(args,
    exc)`` runs when the call raises.  Every call counts in
    ``<layer>.calls``.
    """
    lid = rec.layer_id(layer)
    calls_key = f"{layer}.calls"
    counts = rec.counts

    def make(fn: Callable) -> Callable:
        @wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            token = before(args, kwargs) if before is not None else None
            idx = rec.open(lid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec.close(idx)
                counts[calls_key] += 1
                if error is not None:
                    error(args, exc)
                raise
            rec.close(idx)
            counts[calls_key] += 1
            if after is not None:
                after(args, kwargs, result, token)
            return result

        return wrapper

    return make


# -- the probes ---------------------------------------------------------------


def trial_counts(evaluated: int, info: dict[str, Any]) -> tuple[int, int]:
    """(configurations disposed of, configurations priced) of a tune result.

    Disposed of means priced, rejected before or by the simulator, or
    quarantined; ``evaluated`` already counts replayed trials.
    """
    trials = evaluated + sum(
        int(info.get(k, 0))
        for k in ("rejected_static", "rejected_simulated", "quarantined")
    )
    return trials, evaluated


def grid_points(shape: Any) -> int:
    lx, ly, lz = (int(v) for v in shape)
    return lx * ly * lz


class TunerTally:
    """Counts tuning trials from the results the outermost tuner returns."""

    TUNERS = (
        ("repro.tuning.exhaustive", "exhaustive_tune"),
        ("repro.tuning.modelbased", "model_based_tune"),
        ("repro.tuning.stochastic", "stochastic_tune"),
    )

    def __init__(self) -> None:
        self.trials = 0
        self.measured = 0
        self.cells = 0
        self.active = 0

    def install(self) -> None:
        for module, name in self.TUNERS:
            patch(module, name, self._wrap)

    def _wrap(self, fn: Callable) -> Callable:
        @wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self.active += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self.active -= 1
            if self.active == 0:
                trials, measured = trial_counts(result.evaluated, result.info)
                self.trials += trials
                self.measured += measured
                grid = args[2] if len(args) > 2 else kwargs.get("grid_shape")
                if grid is not None:
                    self.cells += measured * grid_points(grid)
            return result

        return wrapper


def install_probes(rec: Recorder) -> None:
    """Wrap every layer's entry points; record absent ones."""
    c = rec.counts

    def probe(layer: str, module: str, qualname: str, **hooks: Any) -> None:
        if not patch(module, qualname, spanned(rec, layer, **hooks)):
            rec.absent.append(f"{layer} ({module}:{qualname})")

    # Import the lazily-loaded layers first so their bindings get patched.
    for module in (
        "repro.cli", "repro.harness", "repro.tuning.vectorized",
        "repro.tuning.robust", "repro.obs.events", "repro.obs.archive",
        "repro.cluster", "repro.cluster.resilient", "repro.kernels",
    ):
        try:
            importlib.import_module(module)
        except ImportError:
            rec.absent.append(f"module {module}")

    # tuning.space
    def space_after(args, _kw, result, _t):
        c["tuning.space.candidates"] += args[0].raw_size()
        c["tuning.space.feasible"] += len(result)

    probe("tuning.space", "repro.tuning.space", "ParameterSpace.feasible",
          after=space_after)

    # kernels: plan construction and block-workload traffic enumeration
    probe("kernels.plan", "repro.kernels.factory", "make_kernel")
    probe("kernels.workload", "repro.kernels.base", "KernelPlan.block_workload")

    # gpusim.batch: fingerprinting and memoized pricing
    probe("gpusim.batch.fingerprint", "repro.gpusim.batch", "BlockClass.of")
    seen: dict[str, weakref.WeakKeyDictionary] = {
        "scores": weakref.WeakKeyDictionary(),
        "outcomes": weakref.WeakKeyDictionary(),
    }

    def lookups(memo: str) -> Hook:
        def after(args, _kw, _result, _t):
            engine, classes = args[0], args[1]
            known = seen[memo].setdefault(engine, set())
            fresh = set(classes) - known
            known |= fresh
            c["gpusim.batch.lookups"] += len(classes)
            c["gpusim.batch.priced"] += len(fresh)
        return after

    for memo in ("scores", "outcomes"):
        probe("gpusim.batch.price", "repro.gpusim.batch",
              f"BatchEngine.{memo}", after=lookups(memo))

    # scalar pricing: timing, counters, report assembly
    probe("gpusim.timing", "repro.gpusim.timing", "time_kernel")
    probe("obs.counters", "repro.obs.counters", "derive_counters")
    probe("gpusim.executor", "repro.gpusim.executor", "DeviceExecutor.run")

    # tuning.perfmodel
    def rows(n: Callable[[tuple], int]) -> Hook:
        def after(args, _kw, _result, _t):
            c["tuning.perfmodel.rows"] += n(args)
        return after

    probe("tuning.perfmodel", "repro.tuning.perfmodel", "PaperModel.predict",
          after=rows(lambda _a: 1))
    probe("tuning.perfmodel", "repro.tuning.perfmodel",
          "PaperModel.predict_batch", after=rows(lambda a: len(a[1])))
    probe("tuning.perfmodel", "repro.tuning.perfmodel", "ModelInputs.from_plan")

    # the tuning loop; trials are counted from the outermost tuner's result
    rec.tally.install()
    for module, name in TunerTally.TUNERS:
        probe("tuning", module, name)

    # harness: tune cache and result export
    def harness_before(_args, _kw):
        return c["tuning.calls"]

    def harness_after(_args, _kw, _result, tuner_calls):
        tuned = c["tuning.calls"] > tuner_calls
        c["harness.tunes" if tuned else "harness.cache_hits"] += 1

    probe("harness", "repro.harness.runner", "tune_family",
          before=harness_before, after=harness_after)
    probe("harness.export", "repro.harness.export", "write_result")
    for name in (
        "table1_specs", "table2_opcounts", "table3_devices", "table4_autotune",
        "fig7_variants", "fig8_surface", "fig9_load_efficiency",
        "fig10_breakdown", "fig11_applications", "fig12_modelbased",
        "high_order_crossover",
    ):
        probe("harness.experiments", "repro.harness.experiments", name)

    # tuning.robust: retries, quarantine, replay
    robust_keys = ("live_trials", "retries", "quarantined_configs", "replayed")

    def robust_before(args, _kw):
        stats = getattr(args[0], "stats", {})
        return tuple(stats.get(k, 0) for k in robust_keys)

    def robust_after(args, _kw, result, before):
        stats = getattr(args[0], "stats", {})
        live, retries, quarantined, replayed = (
            stats.get(k, 0) - b for k, b in zip(robust_keys, before)
        )
        c["tuning.robust.attempts"] += live
        c["tuning.robust.retries"] += retries
        c["tuning.robust.quarantined"] += quarantined
        c["tuning.robust.replayed"] += replayed
        if live and not quarantined:
            c["tuning.robust.useful"] += 1

    probe("tuning.robust", "repro.tuning.robust", "ResilientEvaluator.measure",
          before=robust_before, after=robust_after)
    for name in ("__init__", "run", "close"):
        probe("tuning.robust", "repro.tuning.robust", f"RobustTuningSession.{name}")

    # durable sinks: journal, events, archive, fsync
    def grows(prefix: str) -> tuple[Callable, Hook]:
        def before(args, _kw):
            try:
                return os.path.getsize(args[0].path)
            except OSError:
                return 0

        def after(args, _kw, _result, size):
            try:
                c[f"{prefix}.bytes"] += os.path.getsize(args[0].path) - size
            except OSError:
                pass
            c[f"{prefix}.records"] += 1
        return before, after

    def created(prefix: str, path_of: Callable[[tuple, Any], Any]) -> Hook:
        def after(args, _kw, result, _t):
            try:
                c[f"{prefix}.bytes"] += os.path.getsize(path_of(args, result))
            except (OSError, TypeError, AttributeError):
                pass
        return after

    jb, ja = grows("tuning.robust.journal")
    probe("tuning.robust.journal", "repro.tuning.robust", "TrialJournal.record",
          before=jb, after=ja)
    probe("tuning.robust.journal", "repro.tuning.robust", "TrialJournal.create",
          after=created("tuning.robust.journal", lambda _a, r: r.path))
    probe("tuning.robust.journal.replay", "repro.tuning.robust",
          "TrialJournal.resume")

    eb, ea = grows("obs.events")
    probe("obs.events", "repro.obs.events", "JsonlEventSink.write",
          before=eb, after=ea)
    probe("obs.events", "repro.obs.events", "JsonlEventSink.__init__",
          after=created("obs.events", lambda a, _r: a[0].path))
    probe("obs.events", "repro.obs.events", "EventSink.emit")

    ab, aa = grows("obs.archive")
    probe("obs.archive.write", "repro.obs.archive", "TrialArchive.record",
          before=ab, after=aa)
    probe("obs.archive.write", "repro.obs.archive", "TrialArchive.__init__",
          after=created("obs.archive", lambda a, _r: a[0].path))
    probe("obs.archive.derive", "repro.obs.archive", "derive_record")

    probe("sinks.fsync", "os", "fsync")

    # cluster: functional execution, decomposition, pricing, checkpoints
    def cells(args, _kw, _result, _t):
        grid = args[1] if len(args) > 1 else None
        c["kernels.execute.cell_updates"] += getattr(grid, "size", 0)

    probe("kernels.execute", "repro.kernels.base", "KernelPlan.execute",
          after=cells)

    def halo_bytes(args, _kw, _result, _t):
        c["cluster.resilient.exchange_attempts"] += 1
        for slab in args[0]:
            data = slab.data
            plane = data.nbytes // max(data.shape[0], 1)
            c["cluster.decompose.halo_bytes"] += (
                (slab.ghost_lo + slab.ghost_hi) * plane
            )

    def bad_exchange(_args, _exc):
        c["cluster.resilient.exchange_retries"] += 1

    def split_after(_args, _kw, _result, _t):
        c["cluster.decompose.splits"] += 1

    probe("cluster.decompose", "repro.cluster.decompose", "split_grid",
          after=split_after)
    probe("cluster.decompose", "repro.cluster.decompose", "merge_slabs")
    probe("cluster.decompose", "repro.cluster.decompose", "exchange_halos",
          after=halo_bytes)
    probe("cluster.decompose", "repro.cluster.decompose", "validate_halos",
          error=bad_exchange)
    probe("cluster.multigpu", "repro.cluster.multigpu",
          "MultiGpuStencil.step_cost")

    def checkpoint_after(_args, _kw, result, _t):
        c["cluster.checkpoint.writes"] += 1
        try:
            c["cluster.checkpoint.bytes"] += os.path.getsize(result)
        except (OSError, TypeError):
            pass

    probe("cluster.checkpoint", "repro.cluster.checkpoint", "save_checkpoint",
          after=checkpoint_after)
    probe("cluster.checkpoint", "repro.cluster.checkpoint", "load_checkpoint")

    def dropout_after(_args, _kw, result, _t):
        if result:
            c["cluster.resilient.quarantined"] += 1

    probe("cluster.faults", "repro.gpusim.faults",
          "ClusterFaultPlan.gpu_dropout", after=dropout_after)
    probe("cluster.resilient", "repro.cluster.resilient",
          "ResilientClusterStencil.run_campaign")


def layer_metrics(rec: Recorder, traced_wall: float) -> dict[str, float]:
    """The per-layer metric values of one traced pass."""
    c = rec.counts
    own = rec.self_seconds()

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    trials = rec.tally.trials
    measured = rec.tally.measured
    sink_bytes = (
        c["tuning.robust.journal.bytes"] + c["obs.events.bytes"]
        + c["obs.archive.bytes"]
    )
    exchanges = c["cluster.resilient.exchange_attempts"]
    retries = c["cluster.resilient.exchange_retries"]
    out = {
        "tuning.space.self_s": own["tuning.space"],
        "tuning.space.candidates": c["tuning.space.candidates"],
        "tuning.space.feasible": c["tuning.space.feasible"],
        "kernels.plan.self_s": own["kernels.plan"],
        "kernels.plan.calls": c["kernels.plan.calls"],
        "kernels.workload.self_s": own["kernels.workload"],
        "kernels.workload.block_calls": c["kernels.workload.calls"],
        "kernels.workload.block_calls_per_config": ratio(
            c["kernels.workload.calls"], trials
        ),
        "gpusim.batch.fingerprint_self_s": own["gpusim.batch.fingerprint"],
        "gpusim.batch.price_self_s": own["gpusim.batch.price"],
        "gpusim.batch.lookups": c["gpusim.batch.lookups"],
        "gpusim.batch.priced": c["gpusim.batch.priced"],
        "gpusim.batch.memo_hit_ratio": ratio(
            c["gpusim.batch.lookups"] - c["gpusim.batch.priced"],
            c["gpusim.batch.lookups"],
        ),
        "gpusim.timing.calls": c["gpusim.timing.calls"],
        "gpusim.timing.self_s": own["gpusim.timing"],
        "obs.counters.calls": c["obs.counters.calls"],
        "obs.counters.self_s": own["obs.counters"],
        "gpusim.executor.calls": c["gpusim.executor.calls"],
        "gpusim.executor.self_s": own["gpusim.executor"],
        "tuning.perfmodel.self_s": own["tuning.perfmodel"],
        "tuning.perfmodel.rows": c["tuning.perfmodel.rows"],
        "tuning.self_s": own["tuning"],
        "tuning.trials": trials,
        "tuning.measured": measured,
        "tuning.useful_ratio": ratio(measured, trials),
        "harness.tunes": c["harness.tunes"],
        "harness.cache_hit_ratio": ratio(
            c["harness.cache_hits"], c["harness.cache_hits"] + c["harness.tunes"]
        ),
        "harness.export.self_s": own["harness.export"],
        "tuning.robust.self_s": own["tuning.robust"],
        "tuning.robust.attempts": c["tuning.robust.attempts"],
        "tuning.robust.retries": c["tuning.robust.retries"],
        "tuning.robust.quarantined": c["tuning.robust.quarantined"],
        "tuning.robust.replayed": c["tuning.robust.replayed"],
        "tuning.robust.useful_ratio": ratio(
            c["tuning.robust.useful"], c["tuning.robust.attempts"]
        ),
        "tuning.robust.journal.self_s": own["tuning.robust.journal"],
        "tuning.robust.journal.records": c["tuning.robust.journal.records"],
        "tuning.robust.journal.bytes": c["tuning.robust.journal.bytes"],
        "tuning.robust.journal.replay_s": own["tuning.robust.journal.replay"],
        "obs.events.self_s": own["obs.events"],
        "obs.events.records": c["obs.events.records"],
        "obs.events.bytes": c["obs.events.bytes"],
        "obs.archive.derive_self_s": own["obs.archive.derive"],
        "obs.archive.write_self_s": own["obs.archive.write"],
        "obs.archive.records": c["obs.archive.records"],
        "obs.archive.bytes": c["obs.archive.bytes"],
        "sinks.fsyncs": c["sinks.fsync.calls"],
        "sinks.fsync_s": own["sinks.fsync"],
        "sinks.bytes_per_trial": ratio(sink_bytes, trials),
        "kernels.execute.self_s": own["kernels.execute"],
        "kernels.execute.cell_updates": c["kernels.execute.cell_updates"],
        "cluster.decompose.self_s": own["cluster.decompose"],
        "cluster.decompose.halo_bytes": c["cluster.decompose.halo_bytes"],
        "cluster.multigpu.price_self_s": own["cluster.multigpu"],
        "cluster.checkpoint.self_s": own["cluster.checkpoint"],
        "cluster.checkpoint.writes": c["cluster.checkpoint.writes"],
        "cluster.checkpoint.bytes": c["cluster.checkpoint.bytes"],
        "cluster.resilient.exchange_attempts": exchanges,
        "cluster.resilient.exchange_retries": retries,
        "cluster.resilient.quarantined": c["cluster.resilient.quarantined"],
        "cluster.resilient.redecompositions": max(
            c["cluster.decompose.splits"] - c["cluster.resilient.calls"], 0.0
        ),
        "cluster.resilient.exchange_useful_ratio": ratio(
            exchanges - retries, exchanges
        ),
        "trace.coverage": ratio(rec.root_seconds(), traced_wall),
    }
    return out
