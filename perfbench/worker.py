"""One workload in one fresh interpreter; started by run.py.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE T0 [--setup-only]

T0 is the launcher's `time.monotonic()` just before it started this
process (CLOCK_MONOTONIC is shared by all processes), so set-up time
counts interpreter start, imports, input generation and the untimed
warm-up. The measured loop runs a fixed number of whole cycles, one job
at a time, sized to take about SECONDS on a quiet host. With TRACE 1 the
same cycles run a second time with the tracing wrappers installed.

The last line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_package() -> None:
    """Import `cdga_config` from this checkout's sources, never from an
    installed copy."""
    sys.path.insert(0, str(SRC))
    import cdga_config

    if Path(cdga_config.__file__).resolve().parent != (SRC / "cdga_config").resolve():
        raise SystemExit(f"cdga_config imported from {cdga_config.__file__}, not {SRC}")


def run_jobs(workload, jobs, tracer=None) -> dict:
    """Run jobs closed-loop, one after another. A job that raises or
    disagrees with the reference counts as failed, and the loop goes on.
    Latency covers the calls into the package, not the check."""
    latencies, kinds, failures = [], [], []
    start = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = len(latencies)
        kinds.append(workload.kind(job))
        t0 = time.perf_counter()
        try:
            result = workload.run(job)
        except Exception:
            latencies.append(time.perf_counter() - t0)
            failures.append(traceback.format_exc(limit=3))
            continue
        latencies.append(time.perf_counter() - t0)
        try:
            workload.check(job, result)
        except Exception:
            failures.append(traceback.format_exc(limit=3))
    return {"elapsed": time.perf_counter() - start, "latencies": latencies,
            "kinds": kinds, "failures": failures}


def measure(workload, seconds: float) -> tuple[dict, int]:
    """A fixed number of whole cycles, at least one, chosen so the measured
    part lasts about `seconds` on a quiet host. Fixing the work rather than
    the time keeps the job mix and sample count of a run independent of
    how busy the host happens to be."""
    cycles = max(1, round(seconds / workload.cycle_seconds))
    jobs = (job for i in range(cycles) for job in workload.cycle(i))
    return run_jobs(workload, jobs), cycles


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, t0 = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", \
        float(argv[4])
    setup_only = "--setup-only" in argv[5:]
    import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    workload.setup()
    try:
        out = measure_all(workload, name, seed, seconds, trace, t0, setup_only)
    finally:
        workload.teardown()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


def measure_all(workload, name, seed, seconds, trace, t0, setup_only) -> dict:
    warm = run_jobs(workload, workload.warmup_jobs())
    setup_s = time.monotonic() - t0
    out = {"setup_s": setup_s, "warmup_failures": warm["failures"]}
    if not setup_only:
        untraced, cycles = measure(workload, seconds)
        out["untraced"] = untraced
        out["cycles"] = cycles
        if trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                jobs = (job for i in range(cycles) for job in workload.cycle(i))
                traced = run_jobs(workload, jobs, tracer)
            finally:
                tracer.uninstall()
            out["traced"] = traced
            out["layers"] = tracer.summary(len(traced["latencies"]))
            out["cdga_sizes"] = sorted([*key, count] for key, count in tracer.cdga_sizes.items())
            spans_path = HERE / "out" / f"spans-{name}-seed{seed}.jsonl"
            spans_path.parent.mkdir(exist_ok=True)
            tracer.spans.write(spans_path)
            out["spans_file"] = str(spans_path.relative_to(HERE.parent))
            out["spans"] = len(tracer.spans)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
