"""Benchmark of the verified F(M,2) pipeline of `cdga_config`.

    python3 perfbench/run.py --workload ladder-fm2|twist-family|cli-presets|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the package is imported from `src/` next to this
directory. Each workload runs in a fresh interpreter with
PYTHONHASHSEED=0, one job at a time (a closed loop with one client).
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced pass over the same jobs. The last line of
standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ladder-fm2", "twist-family", "cli-presets")
SETUPS = 5          # set-ups per run; setup_s is their median
DEADLINE_S = 170    # a run must end within 180 s


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def start_worker(workload: str, seed: int, seconds: int, trace: int, deadline: float,
                 setup_only: bool = False) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds),
            str(trace), repr(t0)] + (["--setup-only"] if setup_only else [])
    done = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if result["warmup_failures"]:
        raise RuntimeError("warm-up job failed:\n" + "\n".join(result["warmup_failures"]))
    return result


def best_jobs_per_s(latencies: list[float], kinds: list[str]) -> float:
    """Jobs per second if every job ran at the fastest latency its kind
    reached in the run. A kind is a ladder pair, one CLI call, or any
    twist-family job. Noise on a shared host only adds time, so the
    fastest repetition is the steadiest estimate of what the code costs."""
    best: dict[str, float] = {}
    for kind, latency in zip(kinds, latencies):
        best[kind] = min(latency, best.get(kind, latency))
    return len(latencies) / sum(best[kind] for kind in kinds)


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setups = []

    def set_up_once() -> None:
        setups.append(start_worker(workload, seed, seconds, trace, deadline,
                                   setup_only=True)["setup_s"])

    if not trace:
        # half the extra set-ups before the measured run and half after,
        # so their median spans more of the host's slow and fast phases
        for _ in range((SETUPS - 1) // 2):
            set_up_once()
    main = start_worker(workload, seed, seconds, trace, deadline)
    setups.append(main["setup_s"])
    if not trace:
        for _ in range(SETUPS - 1 - (SETUPS - 1) // 2):
            set_up_once()
    timed = main["untraced"]
    lat = timed["latencies"]
    jobs = len(lat)
    header = (f"workload {workload}  seed {seed}  seconds {seconds}  trace {trace}  "
              f"python {platform.python_version()}  nproc {os.cpu_count()}  "
              f"PYTHONHASHSEED 0  cycles {main['cycles']}")
    if trace:
        traced = main["traced"]
        attempted = jobs + len(traced["latencies"])
        failures = timed["failures"] + traced["failures"]
        overhead = traced["elapsed"] / timed["elapsed"] - 1
        metrics = {name: (value, unit_of(name)) for name, value in main["layers"].items()}
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        metrics["trace.jobs_per_s"] = (len(traced["latencies"]) / traced["elapsed"], "1/s")
        rows = [(name, value, unit, f"{len(traced['latencies'])} jobs")
                for name, (value, unit) in metrics.items()]
        extra = [f"spans: {main['spans']} written to {main['spans_file']}",
                 f"untraced jobs_per_s {jobs / timed['elapsed']:.4f}, traced "
                 f"{metrics['trace.jobs_per_s'][0]:.4f}, overhead {overhead:+.1%}"]
        for dim, visited, in_degree, count in main["cdga_sizes"]:
            extra.append(f"check_cdga on dim {dim}: {visited} triples visited, {in_degree} "
                         f"within degree ({in_degree / visited:.2%}), {count} calls")
    else:
        attempted = jobs
        failures = timed["failures"]
        kinds = len(set(timed["kinds"]))
        metrics = {
            "best_jobs_per_s": (best_jobs_per_s(lat, timed["kinds"]), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        }
        samples = {"best_jobs_per_s": f"{jobs} jobs, {kinds} kinds",
                   "setup_s": f"{len(setups)} set-ups", "peak_rss_mb": "1 process"}
        rows = [(name, value, unit, samples[name]) for name, (value, unit) in metrics.items()]
        # printed, not bounded: on a shared host these move with its load
        rows += [("jobs_per_s", jobs / timed["elapsed"], "1/s", f"{jobs} jobs, not bounded"),
                 ("latency_p50_s", statistics.median(lat), "s", f"{jobs} jobs, not bounded"),
                 ("latency_p90_s", percentile(lat, 90), "s", f"{jobs} jobs, not bounded"),
                 ("failed_ratio", len(failures) / jobs, "ratio", f"{jobs} jobs")]
        extra = []
    print(header)
    for name, value, unit, samples in rows:
        print(f"  {name:<44} {value:>16.6g} {unit:<10} {samples}")
    for line in extra + failures:
        print("  " + line)
    return {"correct": not failures and attempted >= 1, "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s/job"
    if name.endswith("_ratio"):
        return "ratio"
    return "count/job"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cdga_config" / "__init__.py").is_file():
        print(f"no package sources at {ROOT / 'src' / 'cdga_config'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
