"""Host wall-clock benchmark of the reproduction's simulator and tuner.

Run from the repository root::

    python3 perfbench/run.py --workload tune-cold --seed 1 --seconds 10 --trace 0

Workloads: ``tune-cold``, ``paper-artifacts``, ``tune-durable`` and
``cluster-campaign`` (see ``perfbench/child.py`` and ``BENCHMARK.json``).
Each invocation measures ``setup_s`` in fresh interpreters, then runs the
workload in a fresh single-threaded child process (two, one cold round
each, for paper-artifacts) and checks every output.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` also runs the workload's first
rounds under the span recorder (``perfbench/spans.py``) in another fresh
process and prints the per-layer metrics instead.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORKLOADS = ("tune-cold", "paper-artifacts", "tune-durable", "cluster-campaign")

#: Even, so set-up runs fall on each of two CPUs alike (see child.py).
SETUP_RUNS = 4
STARTUP_RUNS = 3
#: Fresh processes a one-round workload runs in, one cold round each.
ONE_ROUND_REPEATS = 2
#: Wall-clock allowance for one whole invocation.
TIME_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "trials_per_s": "1/s",
    "cell_updates_per_s": "1/s",
    "request_p50_s": "s",
    "request_tail_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark itself could not run to the end."""


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(("_s", ".replay_s")):
        return "s"
    if name.endswith(("bytes", "bytes_per_trial")):
        return "B"
    if name.endswith(("ratio", "coverage", "overhead", "error_rate")):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    return "count"


def child_env() -> dict[str, str]:
    """Single-threaded children that cache bytecode like an installed package."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
    )
    return env


class Runner:
    """Starts child processes against one overall deadline."""

    def __init__(self, tmp: Path) -> None:
        self.tmp = tmp
        self.env = child_env()
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.log = tmp / "children.log"

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"time limit of {TIME_LIMIT_S:.0f} s reached")
        return left

    def run(self, *args: str) -> str:
        """Run ``child.py args``; its stdout, or BenchError on failure."""
        with open(self.log, "a") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, str(CHILD), *args], env=self.env,
                    cwd=ROOT, stdout=subprocess.PIPE, stderr=log, text=True,
                    timeout=self.remaining(),
                )
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"child {args[0]} timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"child {args[0]} exited {proc.returncode}")
        return proc.stdout

    def time_setup(self, workload: str, cpu: int) -> float:
        """Seconds from spawning an interpreter until its first request returns."""
        with open(self.log, "a") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), "setup", "--workload", workload,
                 "--tmp", str(self.tmp / "setup"), "--cpu", str(cpu)],
                env=self.env, cwd=ROOT, stdout=subprocess.PIPE, stderr=log,
                text=True,
            )
            timer = threading.Timer(self.remaining(), proc.kill)
            timer.start()
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
                proc.wait()
            finally:
                timer.cancel()
                proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up request failed: {line.strip()!r}")
        return elapsed

    def workload(self, workload: str, seed: int, seconds: float, cpu: int = 0,
                 trace_out: Path | None = None) -> dict[str, Any]:
        out = self.tmp / f"result-{'traced' if trace_out else 'plain'}.json"
        args = ["run", "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--tmp", str(self.tmp / "work"),
                "--out", str(out), "--cpu", str(cpu)]
        if trace_out is not None:
            args += ["--trace-out", str(trace_out)]
        self.run(*args)
        return json.loads(out.read_text())

    def plain(self, workload: str, seed: int, seconds: float) -> dict[str, Any]:
        """The untraced pass.

        A workload whose fixed work is one round (paper-artifacts) runs it
        in ``ONE_ROUND_REPEATS`` fresh processes, so every round starts
        cold and the sample count does not depend on speed; the processes
        start on different CPUs.
        """
        parts = [self.workload(workload, seed, seconds)]
        while parts[0]["one_round"] and len(parts) < ONE_ROUND_REPEATS:
            parts.append(self.workload(workload, seed, seconds, cpu=len(parts)))
        notes: dict[str, int] = {}
        for part in parts:
            for k, v in part["notes"].items():
                notes[k] = notes.get(k, 0) + v
        offsets = [sum(p["rounds"] for p in parts[:i]) for i in range(len(parts))]
        return {
            "rounds": sum(p["rounds"] for p in parts),
            "round_walls": [w for p in parts for w in p["round_walls"]],
            "rss_mb": max(p["rss_mb"] for p in parts),
            "requests": [dict(r, round=r["round"] + off)
                         for p, off in zip(parts, offsets) for r in p["requests"]],
            "notes": notes,
        }


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond.

    With fewer than 21 samples that percentile would sit below the median,
    so the maximum (percentile 100) is reported instead.
    """
    xs = sorted(samples)
    n = len(xs)
    if n >= 21:
        k = n - 11
        return xs[k], 100.0 * k / (n - 1)
    return xs[-1], 100.0


def overhead(traced: list[float], plain: list[float]) -> float:
    """Traced over untraced wall time of the rounds both passes ran, minus 1.

    Both passes draw the same rounds from the seed, so the first rounds of
    each hold the same requests.
    """
    m = min(len(traced), len(plain))
    return sum(traced[:m]) / sum(plain[:m]) - 1.0


def summarize(res: dict[str, Any]) -> dict[str, Any]:
    """Run-level figures; wall time and throughputs are medians over rounds."""
    reqs = res["requests"]
    ok = [r["lat"] for r in reqs if r["status"] == "ok"]
    resumes = [r["lat"] for r in reqs
               if r["status"] == "ok" and r["kind"] == "resume"]
    walls = res["round_walls"]
    done = {k: [0.0] * len(walls) for k in ("trials", "cells")}
    for r in reqs:
        for k in done:
            done[k][r["round"]] += r[k]
    tail_s, tail_pct = tail(ok) if ok else (0.0, 0.0)
    return {
        "attempted": len(reqs),
        "failed": sum(r["status"] == "failed" for r in reqs),
        "refused": sum(r["status"] == "refused" for r in reqs),
        "errors": [r["error"] for r in reqs if "error" in r][:5],
        "wall_s": statistics.median(walls),
        "trials_per_s": statistics.median(
            t / w for t, w in zip(done["trials"], walls)),
        "cell_updates_per_s": statistics.median(
            c / w for c, w in zip(done["cells"], walls)),
        "request_p50_s": statistics.median(ok) if ok else 0.0,
        "request_tail_s": tail_s,
        "request_tail_pct": tail_pct,
        "request_samples": len(ok),
        "resume_p50_s": statistics.median(resumes) if resumes else 0.0,
        "peak_rss_mb": res["rss_mb"],
    }


def measure(args: argparse.Namespace, runner: Runner) -> dict[str, Any]:
    setup = [runner.time_setup(args.workload, k) for k in range(SETUP_RUNS)]
    plain = runner.plain(args.workload, args.seed, args.seconds)
    s = summarize(plain)
    attempted, failed = s["attempted"], s["failed"]
    detail: dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "nproc": os.cpu_count(),
        "rounds": plain["rounds"], "setup_samples_s": setup,
        "round_walls_s": [round(w, 4) for w in plain["round_walls"]],
        "notes": plain["notes"],
        **{k: s[k] for k in ("refused", "errors", "request_tail_pct",
                             "request_samples")},
    }
    if not args.trace:
        metrics = {"setup_s": statistics.median(setup),
                   **{k: s[k] for k in END_TO_END if k != "setup_s"}}
    else:
        out_dir = ROOT / ".perfbench-out"
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json.gz"
        traced = runner.workload(args.workload, args.seed, args.seconds,
                                 trace_out=spans_path)
        t = summarize(traced)
        attempted += t["attempted"]
        failed += t["failed"]
        startup = [json.loads(runner.run("startup"))
                   for _ in range(STARTUP_RUNS)]
        layers = dict(traced["layers"])
        detail["absent_layers"] = layers.pop("absent")
        detail["spans"] = str(spans_path.relative_to(ROOT))
        metrics = {
            "startup.import_s": statistics.median(
                x["import_s"] for x in startup),
            "startup.repro_modules": statistics.median(
                x["repro_modules"] for x in startup),
            **layers,
            "trace.overhead": overhead(traced["round_walls"],
                                       plain["round_walls"]),
            "resume_p50_s": s["resume_p50_s"],
            "error_rate": (s["refused"] + s["failed"]) / s["attempted"],
            "request_tail_pct": s["request_tail_pct"],
            "request_samples": s["request_samples"],
        }
    units = {k: END_TO_END[k] if k in END_TO_END else unit_of(k) for k in metrics}
    return {
        "detail": detail,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()},
        },
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        out = measure(args, Runner(tmp))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        log = tmp / "children.log"
        if log.is_file():
            sys.stderr.write(log.read_text()[-4000:])
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"detail": out["detail"]}))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
