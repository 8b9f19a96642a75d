#!/usr/bin/env python3
"""resgraph benchmark: closed-loop verification workloads, cold every pass.

    python3 perfbench/run.py --workload sweep-fixed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root; the library is imported from ``src``.  One
client, one thread, a closed loop: each instance starts when the previous
one returns.  A pass runs a workload's whole instance set in a fresh
interpreter (see ``worker.py`` for why), and passes repeat until
``--seconds`` have elapsed; a pass is never cut short, so every pass does
the same work.  Times are scaled to a nominal machine speed by a probe the
worker runs on a timer (see ``worker.py``); ``--seed`` is recorded but
changes nothing, because every workload runs a frozen instance set in
stored order (see ``workloads.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (instances that ended inconclusive)
and ``metrics``.  Untraced, the metrics are the end-to-end ones; with
``--trace 1``, untraced and traced passes alternate and the metrics are the
per-layer ones of the traced passes plus the tracing overhead.  Any identity
that reports ``fail`` makes the run exit 1.  Exact outputs of every instance
and the spans of the last traced pass go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import NOMINAL_PROBE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ["sweep-fixed", "fuzz-points", "curve-germs"]
SETUP_SAMPLES = 9          # set-up times per run; passes count, probes fill up
RUN_LIMIT_S = 170          # a run must end within 180 s
# One thread: the library uses numpy only for integer arrays, and OpenBLAS
# starting a thread per CPU at import added 60 ms of noisy set-up time.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END = [("throughput_ips", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("conclusive_share", "ratio"),
              ("peak_rss_mb", "MB"), ("setup_s", "s")]

PER_LAYER = [
    ("graphs.self_s", "s"), ("graphs.calls", "count"),
    ("series.self_s", "s"), ("series.expand.terms", "count"),
    ("counting.point.self_s", "s"), ("counting.point.calls", "count"),
    ("counting.fit.self_s", "s"), ("counting.fit.calls", "count"),
    ("counting.fit.yield", "ratio"), ("counting.fit.reuse_share", "ratio"),
    ("counting.fit.two_gen_share", "ratio"),
    ("counting.sw.self_s", "s"), ("counting.sw.reuse_share", "ratio"),
    ("counting.closed.self_s", "s"), ("embedded.self_s", "s"),
    ("curves.hilbert.self_s", "s"), ("curves.poincare.self_s", "s"),
    ("curves.inversion.self_s", "s"), ("curves.box_cells", "count"),
    ("tracing.overhead_ips", "1/s"), ("tracing.overhead_share", "ratio"),
]


class RunError(RuntimeError):
    """A pass could not run; the benchmark prints no result."""


def environment() -> dict:
    commit = "unknown"
    try:
        top_head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                                  cwd=ROOT, text=True, capture_output=True,
                                  timeout=10).stdout.split()
    except (OSError, subprocess.SubprocessError):
        top_head = []
    # a checkout that is not a repository of its own has no commit
    if len(top_head) == 2 and Path(top_head[0]).resolve() == ROOT:
        commit = top_head[1]
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "commit": commit}


def spawn(workload: str, pass_no: int, traced: bool, deadline: float,
          record: Path | None = None) -> dict:
    env = dict(os.environ, **ONE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(pass_no),
            "1" if traced else "0"]
    spawned = time.monotonic()
    argv.append(repr(spawned))
    if record is not None:
        argv.append(str(record))
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, text=True,
                              capture_output=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"pass {pass_no} of {workload} ran past the run limit") from exc
    if proc.returncode != 0:
        raise RunError(f"pass {pass_no} of {workload} exited {proc.returncode}:\n"
                       + proc.stderr[-2000:])
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, traced: bool,
               deadline: float) -> list[dict]:
    """Passes until ``seconds`` have elapsed; with tracing, untraced and
    traced passes alternate and at least one of each runs."""
    started = time.monotonic()
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload}-seed{seed}"
    passes: list[dict] = []
    while True:
        pass_no = len(passes)
        pass_traced = traced and pass_no % 2 == 1
        if pass_no == 0:
            record = stem.with_suffix(".outputs.jsonl")
        elif pass_traced:
            record = stem.with_suffix(".spans.json")
        else:
            record = None
        passes.append(spawn(workload, pass_no, pass_traced, deadline, record))
        done = time.monotonic() - started >= seconds
        if done and (not traced or len(passes) >= 2):
            break
    return passes


def hd_quantile(values: list[float], p: float, steps: int = 16) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density.  A single
    order statistic jumps where the latencies have a gap (the dihedral
    sweep has one at its median); the weighted mean moves smoothly."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        if not 0.0 < x < 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    weights = []
    prev = density(0.0)
    for i in range(n):
        w = 0.0
        for j in range(1, steps + 1):
            cur = density((i + j / steps) / n)
            w += prev + cur
            prev = cur
        weights.append(w)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def throughput(passes: list[dict], key: str = "latencies_s") -> float:
    """Instances over summed instance time."""
    return (sum(len(p[key]) for p in passes)
            / sum(sum(p[key]) for p in passes))


def end_to_end(passes: list[dict], setups: list[float],
               key: str = "latencies_s") -> dict[str, float]:
    """End-to-end metrics.  Set-up time is scaled by the speed the probes
    saw over the whole run: set-up is too short to probe while it runs,
    but it slows and speeds up with the machine like everything else."""
    latencies = [t for p in passes for t in p[key]]
    phase = 1.0
    if key == "latencies_s":
        phase = NOMINAL_PROBE_S / statistics.median(p["probe_median_s"] for p in passes)
    statuses = [s for p in passes for s in p["statuses"]]
    conclusive = sum(s != "inconclusive" for s in statuses)
    return {
        "throughput_ips": throughput(passes, key),
        "latency_p50_ms": hd_quantile(latencies, 0.5) * 1e3,
        "latency_p90_ms": hd_quantile(latencies, 0.9) * 1e3,
        "conclusive_share": conclusive / len(statuses),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setups) * phase,
    }


def per_layer(passes: list[dict]) -> dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    out: dict[str, float] = {}
    for name, _ in PER_LAYER:
        if not name.startswith("tracing."):
            out[name] = statistics.fmean(p["layers"][name] for p in traced)
    plain_ips = throughput([p for p in passes if not p["traced"]])
    traced_ips = throughput(traced)
    out["tracing.overhead_ips"] = plain_ips - traced_ips
    out["tracing.overhead_share"] = 1 - traced_ips / plain_ips
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    passes = run_passes(workload, seed, seconds, trace, deadline)
    instances = len(passes[0]["statuses"])
    attempted = sum(len(p["statuses"]) for p in passes)
    failed_keys = sorted({k for p in passes for k in p["failed_keys"]})
    inconclusive = sum(s == "inconclusive" for p in passes for s in p["statuses"])
    raw = {}
    if trace:
        values, units = per_layer(passes), dict(PER_LAYER)
    else:
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(workload, -1, False, deadline)["setup_s"])
        values, units = end_to_end(passes, setups), dict(END_TO_END)
        raw = end_to_end(passes, setups, key="raw_latencies_s")
    env = environment()
    summary = {"workload": workload, "seed": seed, "env": env,
               "instances_per_pass": instances, "passes": len(passes),
               "probe_median_s": [p["probe_median_s"] for p in passes],
               "failed_instances": failed_keys}
    (OUT / f"{workload}-seed{seed}.{'trace' if trace else 'run'}.json").write_text(
        json.dumps({**summary, "metrics": values, "raw_metrics": raw}, indent=1)
        + "\n", encoding="utf-8")
    print(f"{workload}: {instances} instances per pass, {len(passes)} passes, "
          f"{attempted} attempted, {inconclusive} inconclusive, "
          f"{len(failed_keys)} failed identities")
    print("env: " + " ".join(f"{k} {v}" for k, v in env.items()))
    for name, value in values.items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")
    for key in failed_keys:
        print(f"  FAIL {key}")
    return {"correct": not failed_keys, "attempted": attempted,
            "failed": inconclusive,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ["all"], required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run still kills and reaps the pass it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "resgraph" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        print(json.dumps(results[0]))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
