"""One benchmark process: a workload's requests, or a set-up probe.

``run.py`` starts this file in fresh single-threaded interpreters::

    python3 perfbench/child.py setup   --workload W --tmp DIR --cpu K
    python3 perfbench/child.py startup
    python3 perfbench/child.py run     --workload W --seed N --seconds S \
                                       --tmp DIR --out RESULT.json --cpu K \
                                       [--trace-out SPANS.json.gz]

``setup`` runs the workload's fixed first request and prints ``ready``
when it returns.  ``startup`` times ``import repro``.  ``run`` warms up,
then sends the workload's seeded requests one at a time through
``repro.cli.main`` until ``--seconds`` have passed, and checks every
output after the timed region.  ``--trace-out`` turns on the span
recorder of :mod:`spans` and runs the workload's ``fixed_rounds``
instead.

``--cpu K`` places the process on the K-th of its allowed CPUs (counting
round-robin); ``run`` then moves to the next CPU at every round.  The
CPUs of a shared virtual machine do not run alike: one may share its
core with a busy neighbour for minutes, and tune-durable rounds ran 18%
slower on the CPU that does not take the disk interrupts (likely a
cross-CPU wake-up on every fsync).  Left to the scheduler, a run would
measure whichever CPU it landed on; taking turns, every run measures
them all alike.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import itertools
import json
import os
import random
import resource
import shutil
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Iterator

import spans

ROOT = Path(__file__).resolve().parent.parent
PAPER_GRID = (512, 512, 256)
PAPER_GRID_ARG = "512,512,256"

FAMILIES = (
    "blocking3d", "inplane_classical", "inplane_fullslice",
    "inplane_horizontal", "inplane_vertical", "naive", "nvstencil",
    "temporal", "texture",
)
ORDERS = (2, 4, 6, 8, 10, 12)
DTYPES = ("sp", "dp")
DEVICES = ("c2050", "c2070", "gtx285", "gtx580", "gtx680")

Record = dict[str, Any]


def cli(argv: list[str]) -> tuple[float, Any, str, BaseException | None]:
    """One in-process ``repro`` request: (latency, exit code, stdout, error).

    A nonzero exit comes back as ``rc`` with the request's last logged
    error line in ``stdout``'s place.
    """
    import repro.cli

    out, err = io.StringIO(), io.StringIO()
    exc: BaseException | None = None
    rc: Any = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = repro.cli.main(argv)
    except SystemExit as stop:  # argparse usage errors
        rc = stop.code
    except Exception as error:  # noqa: BLE001 - a raising request is an outcome
        exc = error
    lat = time.perf_counter() - t0
    if exc is None and rc != 0:
        return lat, rc, (err.getvalue().strip().splitlines() or [""])[-1], None
    return lat, rc, out.getvalue(), exc


def record(kind: str, lat: float, status: str, **fields: Any) -> Record:
    return {"kind": kind, "lat": lat, "status": status, "trials": 0,
            "cells": 0, **fields}


def ranked(obj: dict[str, Any]) -> list[tuple[str, float]]:
    return [(e["config"], e["mpoints_per_s"]) for e in obj["entries"]]


def failure(kind: str, lat: float, rc: Any, exc: BaseException | None,
            out: str = "", **fields: Any) -> Record:
    why = f"{type(exc).__name__}: {exc}" if exc is not None else f"exit {rc}: {out}"
    return record(kind, lat, "failed", error=why, **fields)


# -- workloads ----------------------------------------------------------------


class Workload:
    """Seeded requests of one workload, and the checks of their outputs."""

    name = ""
    #: Runs exactly one round regardless of ``--seconds``.
    one_round = False
    #: Rounds of the traced pass, and the rounds after which peak memory is
    #: read: a fixed amount of work, so counts repeat exactly for a given
    #: seed and memory does not grow with how many rounds fit in the run.
    fixed_rounds = 1

    def __init__(self, tmp: Path) -> None:
        self.tmp = tmp
        tmp.mkdir(parents=True, exist_ok=True)
        #: Counts the checks report without failing the run.
        self.notes: dict[str, int] = defaultdict(int)

    def setup_argv(self) -> list[str]:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def rounds(self, seed: int) -> Iterator[list[Any]]:
        raise NotImplementedError

    def run(self, req: Any) -> list[Record]:
        raise NotImplementedError

    def check(self, records: list[Record]) -> None:
        """Mark each record whose output is wrong as failed."""
        raise NotImplementedError


def _tune_argv(fam: str, order: int, dtype: str, dev: str,
               grid: str = PAPER_GRID_ARG) -> list[str]:
    return ["-q", "tune", "--kernel", fam, "--order", str(order),
            "--dtype", dtype, "--device", dev, "--grid", grid]


class TuneCold(Workload):
    """Distinct plain ``repro tune --json`` requests, ¾ exhaustive, ¼ model."""

    name = "tune-cold"
    fixed_rounds = 12

    def setup_argv(self) -> list[str]:
        return _tune_argv("inplane_fullslice", 2, "sp", "gtx580") + ["--json"]

    def warmup(self) -> None:
        # Another grid, so the harness tune cache holds nothing timed later.
        for method in ("exhaustive", "model"):
            cli(_tune_argv("inplane_fullslice", 4, "sp", "gtx580",
                           "128,128,64") + ["--method", method, "--json"])

    def rounds(self, seed: int) -> Iterator[list[Any]]:
        # One request per family per round, each family cycling through the
        # devices, so every five rounds cover the same mix.  Each (problem,
        # method) pair is drawn at most once, so no request repeats.
        # Every round holds two model requests, three every fourth round
        # (a quarter of the stream), at seeded families, so round costs
        # are alike for every seed.
        rng = random.Random(f"tune-cold:{seed}")
        sizes = [(o, d) for o in ORDERS for d in DTYPES]
        queues = {
            (fam, dev, m): rng.sample(sizes, len(sizes))
            for fam in FAMILIES for dev in DEVICES
            for m in ("exhaustive", "model")
        }
        for r in itertools.count():
            batch = []
            models = set(rng.sample(FAMILIES, 3 if r % 4 == 3 else 2))
            for f, fam in enumerate(FAMILIES):
                dev = DEVICES[(r + f) % len(DEVICES)]
                method = "model" if fam in models else "exhaustive"
                if not queues[fam, dev, method]:
                    method = "exhaustive" if method == "model" else "model"
                if not queues[fam, dev, method]:
                    return
                order, dtype = queues[fam, dev, method].pop()
                batch.append((fam, order, dtype, dev, method))
            yield batch

    def run(self, req: Any) -> list[Record]:
        from repro.errors import TuningError

        fam, order, dtype, dev, method = req
        lat, rc, out, exc = cli(
            _tune_argv(fam, order, dtype, dev) + ["--method", method, "--json"]
        )
        if isinstance(exc, TuningError) and "no feasible configuration" in str(exc):
            # The honest cross product holds a few problems with no
            # feasible configuration; refusing them is the right answer.
            return [record("request", lat, "refused", req=req)]
        if exc is not None or rc != 0:
            return [failure("request", lat, rc, exc, out, req=req)]
        obj = json.loads(out)
        trials, measured = spans.trial_counts(obj["evaluated"], obj["info"])
        return [record(
            "request", lat, "ok", req=req, trials=trials,
            cells=measured * spans.grid_points(PAPER_GRID),
            best=(obj["best"]["tile"], obj["best"]["mpoints_per_s"]),
            rates=[r for _c, r in ranked(obj)],
        )]

    def check(self, records: list[Record]) -> None:
        import repro
        from repro.kernels.config import BlockConfig
        from repro.kernels.factory import make_kernel
        from repro.stencils.spec import symmetric

        for rec in records:
            if rec["status"] != "ok":
                continue
            fam, order, dtype, dev, _method = rec["req"]
            tile, rate = rec["best"]
            rates = rec["rates"]
            if any(a < b for a, b in zip(rates, rates[1:])) or rates[0] != rate:
                fail(rec, "ranked list is not sorted by rate")
                continue
            plan = make_kernel(fam, symmetric(order), BlockConfig(*tile), dtype)
            fresh = repro.simulate(plan, dev, PAPER_GRID).mpoints_per_s
            if fresh != rate:
                fail(rec, f"winner rate {rate!r} != fresh simulate {fresh!r}")


EXPERIMENTS = (
    "table1", "table2", "table3", "table4", "fig7", "fig8", "fig9",
    "fig10", "fig11", "fig12", "crossover",
)


class PaperArtifacts(Workload):
    """``repro experiment all``: every paper artifact, in one process.

    One request regenerates all eleven artifacts, as a user does; the
    eleven experiments share tunes through the harness cache.  Split into
    one request per experiment, the per-request median would sit on a
    single 0.3 s experiment and spread by more than 25% between runs.
    """

    name = "paper-artifacts"
    one_round = True

    def __init__(self, tmp: Path) -> None:
        super().__init__(tmp)
        self.tally = spans.TunerTally()

    def setup_argv(self) -> list[str]:
        return ["-q", "experiment", "table1", "--out",
                str(self.tmp / "setup-table1.txt")]

    def warmup(self) -> None:
        # Tables I-III tune nothing, so the harness tune cache stays cold.
        for name in ("table1", "table2", "table3"):
            cli(["-q", "experiment", name, "--out",
                 str(self.tmp / f"warmup-{name}.txt")])
        self.tally.install()

    def rounds(self, seed: int) -> Iterator[list[Any]]:
        yield ["all"]

    def run(self, req: Any) -> list[Record]:
        out = self.tmp / "artifacts"
        lat, rc, text, exc = cli(["-q", "experiment", req, "--out-dir", str(out)])
        if exc is not None or rc != 0:
            return [failure("request", lat, rc, exc, text)]
        return [record("request", lat, "ok", trials=self.tally.trials,
                       cells=self.tally.cells, out=out)]

    def check(self, records: list[Record]) -> None:
        results = ROOT / "benchmarks" / "results"
        for rec in records:
            if rec["status"] != "ok":
                continue
            for name in EXPERIMENTS:
                ref = results / ("fig8_order2.txt" if name == "fig8"
                                 else f"{name}.txt")
                out = rec["out"] / f"{name}.txt"
                if not (ref.is_file() and out.is_file()
                        and filecmp.cmp(out, ref, shallow=False)):
                    fail(rec, f"{out.name} differs from {ref}")
                    break


#: One problem per in-plane or nvstencil family, with orders 2, 4 and 8,
#: sp and dp, and three devices between them.  Every round runs these five,
#: so rounds cost alike whatever the seed and however many fit in a run.
#: ``repro tune --archive`` raises TypeError while deriving the archive's
#: codegen estimate for blocking3d, naive, temporal and texture (the
#: access-plan lowering supports only these families), so durable sessions
#: leave those out until that is fixed; BENCHMARK.json records it.
DURABLE_PROBLEMS = (
    ("inplane_classical", 2, "sp", "c2070"),
    ("inplane_fullslice", 4, "dp", "gtx580"),
    ("inplane_horizontal", 8, "sp", "gtx680"),
    ("inplane_vertical", 8, "dp", "c2070"),
    ("nvstencil", 4, "sp", "gtx580"),
)
DURABLE_FAULTS = "seed={},launch=0.1,hang=0.02,throttle=0.05"


class TuneDurable(Workload):
    """Resilient sessions with journal, events and archive; some resumed."""

    name = "tune-durable"
    fixed_rounds = 3

    def setup_argv(self) -> list[str]:
        d = self.tmp / "setup"
        return self._argv(("inplane_fullslice", 2, "sp", "gtx580", 1)) + [
            "--journal", str(d / "s.journal"), "--events", str(d / "s.events"),
            "--archive", str(d / "s.archive")]

    @staticmethod
    def _argv(problem: tuple) -> list[str]:
        fam, order, dtype, dev, fseed = problem
        return _tune_argv(fam, order, dtype, dev) + [
            "--faults", DURABLE_FAULTS.format(fseed), "--json"]

    def warmup(self) -> None:
        d = self.tmp / "warmup"
        base = self._argv(("inplane_fullslice", 4, "sp", "gtx580", 1))
        base[base.index("--grid") + 1] = "128,128,64"
        files = ["--events", str(d / "w.events"), "--archive", str(d / "w.archive")]
        cli(base + ["--journal", str(d / "w.journal")] + files)
        lines = (d / "w.journal").read_bytes().splitlines(keepends=True)
        (d / "r.journal").write_bytes(b"".join(lines[: len(lines) // 2]))
        cli(base + ["--journal", str(d / "r.journal"), "--resume"] + files)

    def rounds(self, seed: int) -> Iterator[list[Any]]:
        # One session per family per round, each with its own fault seed
        # (all distinct, so no session repeats).  One session a round is
        # killed, the families taking turns, and resumed from a journal
        # cut at a seeded line between a quarter and three quarters of its
        # records, with the next record torn at a seeded byte.
        rng = random.Random(f"tune-durable:{seed}")
        fseeds = rng.sample(range(1, 1 << 30), 4096)
        n = len(DURABLE_PROBLEMS)
        for r in range(len(fseeds) // n):
            cut = rng.uniform(0.25, 0.75)
            batch = []
            for j, problem in enumerate(DURABLE_PROBLEMS):
                kill = (cut, rng.random()) if j == r % n else None
                batch.append((r * n + j, (*problem, fseeds[r * n + j]), kill))
            yield batch

    def run(self, req: Any) -> list[Record]:
        i, problem, kill = req
        base = self._argv(problem)
        d = self.tmp / "sessions"
        files = {k: d / f"{i}.{k}" for k in ("journal", "events", "archive")}
        lat, rc, out, exc = cli(base + [
            arg for k, p in files.items() for arg in (f"--{k}", str(p))])
        if exc is not None or rc != 0:
            return [failure("request", lat, rc, exc, out, problem=problem)]
        full = self._ok("request", lat, out, problem, files)
        if kill is None:
            return [full]
        # Simulated kill: the journal as a crash would leave it, cut after
        # a seeded record with the next record torn part-way.
        lines = files["journal"].read_bytes().splitlines(keepends=True)
        cut = 1 + int(kill[0] * (len(lines) - 2))
        torn = lines[cut][: 1 + int(kill[1] * (len(lines[cut]) - 2))]
        rfiles = {k: d / f"{i}r.{k}" for k in ("journal", "events", "archive")}
        rfiles["journal"].write_bytes(b"".join(lines[:cut]) + torn)
        lat, rc, out, exc = cli(base + ["--resume"] + [
            arg for k, p in rfiles.items() for arg in (f"--{k}", str(p))])
        if exc is not None or rc != 0:
            return [full, failure("resume", lat, rc, exc, out, problem=problem)]
        resumed = self._ok("resume", lat, out, problem, rfiles)
        resumed["uninterrupted"] = full
        return [full, resumed]

    @staticmethod
    def _ok(kind: str, lat: float, out: str, problem: tuple,
            files: dict[str, Path]) -> Record:
        obj = json.loads(out)
        trials, measured = spans.trial_counts(obj["evaluated"], obj["info"])
        return record(
            kind, lat, "ok", problem=problem, trials=trials,
            cells=measured * spans.grid_points(PAPER_GRID),
            ranked=ranked(obj),
            quarantined=obj["stats"].get("quarantined_configs", 0),
            files={k: str(p) for k, p in files.items()},
        )

    def check(self, records: list[Record]) -> None:
        from repro.obs.archive import read_archive, validate_archive
        from repro.obs.events import validate_stream

        def outcomes(rec: Record) -> dict[str, Any]:
            if "outcomes" not in rec:
                _header, rows = read_archive(rec["files"]["archive"])
                rec["outcomes"] = {r.label: r for r in rows}
            return rec["outcomes"]

        def faulted(row: Any) -> bool:
            return row is None or bool(row.faults)

        clean: dict[tuple, tuple[str, float]] = {}
        for rec in records:
            if rec["status"] != "ok":
                continue
            try:
                validate_stream(rec["files"]["events"])
                validate_archive(rec["files"]["archive"])
            except Exception as exc:  # noqa: BLE001 - any rejection fails
                fail(rec, f"stream/archive invalid: {exc}")
                continue
            if rec["kind"] == "resume":
                self._check_resume(rec, outcomes, faulted)
                continue
            if rec["quarantined"]:
                continue
            problem = rec["problem"][:4]
            if problem not in clean:
                _lat, rc, out, exc = cli(_tune_argv(*problem) + ["--json"])
                if exc is not None or rc != 0:
                    fail(rec, "clean reference run failed")
                    continue
                best = json.loads(out)["best"]
                clean[problem] = (best["config"], best["mpoints_per_s"])
            label, rate = clean[problem]
            if faulted(outcomes(rec).get(label)):
                # The clean winner only ever measured fault-flagged here.
                self.notes["clean_winner_faulted"] += 1
            elif tuple(rec["ranked"][0]) != (label, rate):
                fail(rec, f"winner {rec['ranked'][0]} != clean {(label, rate)}")

    def _check_resume(self, rec: Record, outcomes: Any, faulted: Any) -> None:
        """Resumed equals uninterrupted, config by config.

        Replayed configurations and every clean re-measurement must match
        bit for bit.  A re-run trial draws its faults from the launch
        stream's position, which a resume shifts, so a configuration whose
        outcome is fault-flagged in either run may differ: such
        divergences are counted, not failed (see BENCHMARK.json).
        """
        full_rec = rec["uninterrupted"]
        if full_rec["status"] != "ok":
            return
        full, resumed = outcomes(full_rec), outcomes(rec)
        diverged = set()
        for label in full.keys() | resumed.keys():
            a, b = full.get(label), resumed.get(label)
            if a is not None and b is not None and (
                (a.status, a.mpoints_per_s) == (b.status, b.mpoints_per_s)
            ):
                continue
            if b is not None and b.replayed:
                fail(rec, f"replayed {label} differs from its journal record")
                return
            if not (faulted(a) or faulted(b)):
                fail(rec, f"clean re-measurement of {label} differs")
                return
            diverged.add(label)
        self.notes["resume_fault_divergences"] += len(diverged)
        best, full_best = rec["ranked"][0], full_rec["ranked"][0]
        if best != full_best and not ({best[0], full_best[0]} & diverged):
            fail(rec, f"resumed winner {best} != uninterrupted {full_best}")


#: Equal-size grids (2 Mi points, 8 MiB in sp) of different aspect, so
#: halo planes and slab depths vary while request cost stays comparable.
CLUSTER_SHAPES = ((128, 128, 128), (256, 128, 64), (64, 128, 256), (128, 256, 64))
CLUSTER_STEPS = 8
CLUSTER_FAULTS = "seed={},corrupt={},dropout={},degrade={}"
#: Per-(GPU, step) dropout rate by fleet size: low enough that a whole
#: fleet dying (exit 1 by design) stays below 1e-5 per campaign.
CLUSTER_DROPOUT = {2: 0.0, 3: 0.002, 4: 0.005}


class ClusterCampaign(Workload):
    """Fault-injected ``repro cluster run`` campaigns; some killed and resumed."""

    name = "cluster-campaign"
    fixed_rounds = 6

    @staticmethod
    def _argv(shape: tuple, gpus: int, grid_seed: int, faults: str | None,
              steps: int) -> list[str]:
        argv = ["-q", "cluster", "run", "--grid", ",".join(map(str, shape)),
                "--gpus", str(gpus), "--grid-seed", str(grid_seed),
                "--steps", str(steps), "--max-retries", "6", "--json"]
        return argv + (["--faults", faults] if faults else [])

    def setup_argv(self) -> list[str]:
        return self._argv((64, 64, 64), 2, 1, CLUSTER_FAULTS.format(
            1, 0.1, 0.02, 0.1), 4) + [
            "--checkpoint", str(self.tmp / "setup.ckpt"), "--every", "2"]

    def warmup(self) -> None:
        ck = str(self.tmp / "warmup.ckpt")
        base = self._argv((32, 16, 48), 3, 1, CLUSTER_FAULTS.format(
            1, 0.1, 0.05, 0.1), 2)
        cli(base + ["--checkpoint", ck, "--every", "1"])
        base[base.index("--steps") + 1] = "4"
        cli(base + ["--checkpoint", ck, "--every", "1", "--resume"])

    def rounds(self, seed: int) -> Iterator[list[Any]]:
        # One campaign per grid shape per round; one a round, at a seeded
        # place, is killed after a seeded step and resumed.  Campaigns of
        # one shape share the initial grid, so each fault-free reference
        # runs once per fleet size.
        rng = random.Random(f"cluster-campaign:{seed}")
        grid_seeds = {s: rng.randrange(1 << 30) for s in CLUSTER_SHAPES}
        fseeds = rng.sample(range(1, 1 << 30), 4096)
        i = 0
        while i < len(fseeds):
            batch = []
            killed = rng.randrange(len(CLUSTER_SHAPES))
            for j, shape in enumerate(rng.sample(CLUSTER_SHAPES, len(CLUSTER_SHAPES))):
                gpus = rng.choice((2, 3, 4))
                faults = CLUSTER_FAULTS.format(
                    fseeds[i], rng.choice((0.05, 0.1)), CLUSTER_DROPOUT[gpus],
                    rng.choice((0.1, 0.2)))
                kill = rng.randint(1, CLUSTER_STEPS - 1) if j == killed else None
                batch.append((i, shape, gpus, grid_seeds[shape], faults,
                              rng.choice((2, 3, 4)), kill))
                i += 1
            yield batch

    def run(self, req: Any) -> list[Record]:
        i, shape, gpus, grid_seed, faults, every, kill = req
        path = self.tmp / f"{i}.ckpt"
        ck = ["--checkpoint", str(path), "--every", str(every)]
        campaign = (shape, gpus, grid_seed, faults)
        if kill is None:
            out = [self._request("request", campaign, CLUSTER_STEPS, ck)]
        else:
            out = [self._request("request", campaign, kill, ck),
                   self._request("resume", campaign, CLUSTER_STEPS,
                                 ck + ["--resume"])]
        path.unlink(missing_ok=True)
        return out

    def _request(self, kind: str, campaign: tuple, steps: int,
                 extra: list[str]) -> Record:
        shape, gpus, grid_seed, faults = campaign
        lat, rc, out, exc = cli(
            self._argv(shape, gpus, grid_seed, faults, steps) + extra)
        if exc is not None or rc != 0:
            return failure(kind, lat, rc, exc, out, campaign=campaign)
        obj = json.loads(out)
        done = obj["steps"] - obj["resumed_from"]
        return record(
            kind, lat, "ok", campaign=campaign, trials=done,
            cells=done * spans.grid_points(shape), steps=obj["steps"],
            digest=obj["digest"], final=steps == CLUSTER_STEPS,
        )

    def check(self, records: list[Record]) -> None:
        references: dict[tuple, str] = {}

        def digest(campaign: tuple, faulted: bool) -> str | None:
            shape, gpus, grid_seed, faults = campaign
            key = campaign if faulted else (shape, gpus, grid_seed)
            if key not in references:
                _lat, rc, out, exc = cli(self._argv(
                    shape, gpus, grid_seed, faults if faulted else None,
                    CLUSTER_STEPS))
                if exc is not None or rc != 0:
                    return None
                references[key] = json.loads(out)["digest"]
            return references[key]

        for rec in records:
            if rec["status"] != "ok" or not rec["final"]:
                continue
            if rec["digest"] != digest(rec["campaign"], faulted=False):
                fail(rec, "final grid differs from the fault-free campaign")
            elif rec["kind"] == "resume" and (
                rec["digest"] != digest(rec["campaign"], faulted=True)
            ):
                fail(rec, "killed-and-resumed grid differs from uninterrupted")


WORKLOADS = {w.name: w for w in (TuneCold, PaperArtifacts, TuneDurable,
                                 ClusterCampaign)}


def fail(rec: Record, why: str) -> None:
    rec["status"] = "failed"
    rec["error"] = why


# -- the three modes ----------------------------------------------------------


def pin(k: int, cpus: list[int]) -> None:
    """Run on the ``k``-th of ``cpus``, round-robin."""
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})


def cmd_setup(args: argparse.Namespace) -> int:
    pin(args.cpu, sorted(os.sched_getaffinity(0)))
    workload = WORKLOADS[args.workload](Path(args.tmp))
    _lat, rc, _out, exc = cli(workload.setup_argv())
    print("ready" if exc is None and rc == 0 else f"failed: {exc or rc}",
          flush=True)
    return 0 if exc is None and rc == 0 else 1


def cmd_startup(_args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    import repro  # noqa: F401

    dt = time.perf_counter() - t0
    mods = sum(1 for m in sys.modules if m == "repro" or m.startswith("repro."))
    print(json.dumps({"import_s": dt, "repro_modules": mods}), flush=True)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    cpus = sorted(os.sched_getaffinity(0))
    pin(args.cpu, cpus)
    workload = WORKLOADS[args.workload](Path(args.tmp))
    workload.warmup()
    rec = None
    rounds = None
    if args.trace_out:
        rec = spans.Recorder()
        spans.install_probes(rec)
        rounds = workload.fixed_rounds

    records: list[Record] = []
    round_walls: list[float] = []
    rss_mb = 0.0
    t_start = time.perf_counter()
    deadline = t_start + args.seconds
    for r, batch in enumerate(workload.rounds(args.seed)):
        if rounds is not None and r >= rounds:
            break
        if rounds is None and r > 0 and time.perf_counter() >= deadline:
            break
        pin(args.cpu + r, cpus)
        t0 = time.perf_counter()
        for req in batch:
            if rec is not None:
                rec.request += 1
            records.extend(dict(out, round=r) for out in workload.run(req))
        round_walls.append(time.perf_counter() - t0)
        if r < workload.fixed_rounds:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if workload.one_round:
            break
    wall = time.perf_counter() - t_start

    layers = None
    if rec is not None:
        layers = spans.layer_metrics(rec, wall)
        layers["absent"] = rec.absent
        rec.write(Path(args.trace_out))

    workload.check(records)
    result = {
        "workload": workload.name,
        "one_round": workload.one_round,
        "rounds": len(round_walls),
        "round_walls": round_walls,
        "rss_mb": rss_mb,
        "requests": [
            {k: r[k] for k in ("round", "kind", "lat", "status", "trials",
                               "cells")}
            | ({"error": r["error"]} if "error" in r else {})
            for r in records
        ],
        "layers": layers,
        "notes": dict(workload.notes),
    }
    Path(args.out).write_text(json.dumps(result))
    shutil.rmtree(workload.tmp, ignore_errors=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("setup")
    s.add_argument("--workload", choices=WORKLOADS, required=True)
    s.add_argument("--tmp", required=True)
    s.add_argument("--cpu", type=int, default=0)
    s.set_defaults(func=cmd_setup)
    sub.add_parser("startup").set_defaults(func=cmd_startup)
    r = sub.add_parser("run")
    r.add_argument("--workload", choices=WORKLOADS, required=True)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--seconds", type=float, required=True)
    r.add_argument("--tmp", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--cpu", type=int, default=0)
    r.add_argument("--trace-out")
    r.set_defaults(func=cmd_run)
    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
