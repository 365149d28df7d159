#!/usr/bin/env python3
"""Benchmark of the mcfqc command line; run it from the root of a checkout.

    python3 bench/run.py --workload certify-large --seed 1 --seconds 30 --trace 0

One process, one closed-loop client: ``mcfqc.cli.main`` is called
in-process, and the next operation starts only after the previous one
returned. BLAS threads are capped at the number of CPUs this process may
use. Every output is checked (see ``workloads.py``); a raised exception,
a nonzero exit code or a failed check counts as a failed operation.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a separate traced run, each a mean per operation:
seconds inside the spans of one layer's public function, or a count. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. A fuller record (environment, sample counts,
failure messages and, when traced, every span) goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from itertools import count, islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 15
REFERENCE_START_S = 0.12
REFERENCE_S = 0.004
CALIBRATION_EVERY_S = 1.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer time metrics: mean seconds per operation inside spans of this name.
SPAN_METRICS = {
    "cli.parse_s": "cli.parse",
    "cli.serialize_s": "cli.serialize",
    "pipeline.run_protocol_s": "pipeline.run_protocol",
    "pipeline.sweep_alpha_s": "pipeline.sweep_alpha",
    "channel.verify_cptp_s": "channel.verify_cptp",
    "channel.choi_s": "channel.choi",
    "channel.extend_one_side_s": "channel.extend_one_side",
    "channel.apply_s": "channel.apply",
    "channel.cp_boundary_s": "channel.cp_boundary",
    "states.max_entangled_s": "states.max_entangled",
    "states.density_validate_s": "states.density_validate",
    "states.is_ppt_s": "states.is_ppt",
    "states.realignment_s": "states.realignment",
    "symmetric_states.cldui_from_choi_s": "symmetric_states.cldui_from_choi",
    "symmetric_states.cldui_ppt_s": "symmetric_states.cldui_ppt",
    "symmetric_states.cldui_realignment_s": "symmetric_states.cldui_realignment",
    "symmetric_states.channel_from_ds_s": "symmetric_states.channel_from_ds",
    "cones.classify_s": "cones.classify",
    "cones.search_s": "cones.search",
}

# Per-layer counts: mean per operation of a counter kept by the tracer.
COUNT_METRICS = {
    "cli.report_bytes": "B",
    "cones.restarts": "count",
    "cones.iterations": "count",
    "linalg.eig_calls": "count",
    "linalg.eig_n3": "count",
    "linalg.svd_calls": "count",
    "linalg.svd_n3": "count",
    "linalg.decomp_s": "s",
}

PER_LAYER = {
    **{name: "s" for name in SPAN_METRICS},
    "pipeline.self_s": "s",
    **COUNT_METRICS,
    "cones.us_per_iteration": "us",
    "cones.found_ratio": "fraction",
    "trace.overhead_frac": "fraction",
}


def cpu_count() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def configure_environment(env: dict) -> int:
    """Cap BLAS threads at the CPU count and put src/ on the path; return the cap."""
    threads = cpu_count()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return threads


def import_time(env: dict, modules: str) -> float:
    """Time from starting a fresh interpreter until it has imported ``modules``.

    The child reports the monotonic clock, which is system-wide on Linux,
    as soon as the imports are done, so neither its exit nor the parent's
    wait for it is counted.
    """
    start = time.monotonic()
    child = subprocess.run(
        [sys.executable, "-c", f"import {modules}, time; print(time.monotonic())"],
        cwd=ROOT, env=env, check=True, timeout=120, capture_output=True, text=True)
    return float(child.stdout) - start


def setup_pair(env: dict) -> tuple[float, float]:
    """Start-up until mcfqc and mcfqc.cli are imported, and, just before it,
    start-up until numpy alone is imported: the reference that set-up time
    is scaled by."""
    return import_time(env, "numpy"), import_time(env, "mcfqc, mcfqc.cli")


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(np, threads: int, seed: int, sizes: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "sizes": sizes,
    }


class Client:
    """The closed-loop client: runs operations one at a time and tallies failures."""

    def __init__(self, main):
        self.main = main
        self.attempted = 0
        self.failures: list[str] = []

    def execute(self, op, tracer=None) -> float:
        """Run one operation and check its output; return its latency in seconds."""
        self.attempted += 1
        stderr = io.StringIO()
        result, problem = None, None
        span = tracer.span("op") if tracer else nullcontext()
        start = time.perf_counter()
        try:
            with span, redirect_stdout(io.StringIO()), redirect_stderr(stderr):
                if tracer:
                    tracer.counting = True
                code = self.main(op.argv)
                if code == 0 and op.after:
                    result = op.after()
        except Exception as exc:  # an operation that raises is a failure, not the end of the run
            code, problem = None, f"raised {type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.counting = False
        latency = time.perf_counter() - start
        if problem is None and code != 0:
            problem = f"exit code {code}: {stderr.getvalue().strip()}"
        if problem is None:
            try:
                problem = op.check(result)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
        if problem is None and tracer:
            try:
                op.replay(tracer)
            except Exception as exc:  # the replay hit what the operation did not
                problem = f"replay raised {type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{op.kind}: {problem}")
        return latency


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and its value.

    With fewer than 11 samples no such percentile exists; the maximum is
    returned and the record says so.
    """
    lat = sorted(latencies)
    k = len(lat) - 11 if len(lat) >= 11 else len(lat) - 1
    return 100.0 * k / max(len(lat) - 1, 1), lat[k]


def calibration_s() -> float:
    """Fastest of three runs of a fixed pure-Python loop that calls no mcfqc code.

    On a 2-vCPU KVM guest, sampled once a second, this loop's time tracks
    that of the sweep and certify operations with a log-log slope of 0.9
    to 1.1 (correlation 0.7 to 0.9), and demo-bound6's with a slope of
    about 0.7. Small numpy kernels track them less well, and JSON encoding
    swings twice as far as they do.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


def blocks(workload, seed: int, work: Path):
    for index in count():
        yield workload.block(seed, index, work)


def warmup(workload, work: Path) -> list:
    return workload.block(0, 0, work, prefix="warm")[:1]


def run_untraced(client: Client, workload, seed: int, seconds: float, work: Path,
                 env: dict) -> tuple[dict, dict]:
    """Fresh blocks until the operations have been busy for ``seconds``.

    The speed of a shared virtual machine can swing by 1.6x, in phases of
    seconds to minutes, which would swamp most changes to the program.
    So the calibration loop runs after every CALIBRATION_EVERY_S of
    operations, and every latency is scaled to a machine on which the loop
    takes REFERENCE_S, by the mean of the loop's times around it. The
    unscaled figures go to the record.

    Throughput is the median over blocks, which all hold the same mix of
    operations, so that one slow phase or one slow input moves it little.

    Process start-up does not track that loop, so set-up time has a
    reference of its own: a fresh interpreter that imports only numpy,
    started just before each timed one. Their ratio is 4x steadier than
    either time on such a machine. Set-up time is the median ratio over
    SETUP_RUNS pairs, scaled to a machine on which the reference takes
    REFERENCE_START_S; the unscaled times go to the record. Work that
    moves into importing mcfqc raises the ratio. The pairs run before
    any operation: BLAS threads still busy from one disturb a child that
    starts right after it, and the ratio's spread then grows 3x to 5x.
    """
    setup = [setup_pair(env) for _ in range(SETUP_RUNS)]
    for op in warmup(workload, work):
        client.execute(op)
    raw: list[float] = []
    latencies: list[float] = []
    names: list[str] = []
    block_rates: list[float] = []
    pending: list[list[float]] = []
    busy = 0.0
    before = calibration_s()
    speeds = [before]
    for block in blocks(workload, seed, work):
        pending.append([client.execute(op) for op in block])
        names.extend(f"{op.kind} {Path(op.argv[2]).name}" for op in block)
        busy += sum(pending[-1])
        done = busy >= seconds
        if done or sum(map(sum, pending)) >= CALIBRATION_EVERY_S:
            after = calibration_s()
            speeds.append(after)
            scale = 2 * REFERENCE_S / (before + after)
            for times in pending:
                raw.extend(times)
                latencies.extend(t * scale for t in times)
                block_rates.append(len(times) / (sum(times) * scale))
            pending = []
            before = calibration_s()
        if done:
            break
    percentile, tail_value = tail(latencies)
    metrics = {
        "setup_s": REFERENCE_START_S * statistics.median(s / ref for ref, s in setup),
        "ops_per_s": statistics.median(block_rates),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "samples": len(latencies),
        "blocks": len(block_rates),
        "setup_s": {"samples": len(setup), "reference_s": REFERENCE_START_S,
                    "unscaled_median_s": statistics.median(s for _, s in setup),
                    "pairs_s": setup},
        "latency_tail_ms": {"percentile": percentile, "enough_samples": len(latencies) >= 11},
        "unscaled": {"ops_per_s": len(raw) / sum(raw),
                     "latency_p50_ms": 1e3 * statistics.median(raw),
                     "busy_s": sum(raw)},
        "calibration": {"reference_s": REFERENCE_S, "samples_s": speeds},
        "slowest_ms": sorted(zip((1e3 * t for t in latencies), names), reverse=True)[:10],
    }
    return metrics, details


def run_traced(client: Client, ops: list, warm: list, seconds: float) -> tuple[dict, dict]:
    """Passes over ``ops`` until time is up, each operation run untraced then traced.

    Repeating the same operations keeps every count per operation exact
    for a fixed seed; pairing each traced run with an untraced run of the
    same input just before it gives the tracing overhead.
    """
    from tracing import Tracer, count_decompositions

    for op in warm:
        client.execute(op)
    tracer = Tracer()
    untraced, traced, passes = 0.0, 0.0, 0
    with count_decompositions(tracer):
        start = time.perf_counter()
        while passes == 0 or time.perf_counter() - start < seconds:
            for op in ops:
                untraced += client.execute(op)
                traced += client.execute(op, tracer)
                tracer.op += 1
            passes += 1

    n = tracer.op
    counted = tracer.counts.get
    metrics = {name: tracer.total(span) / n for name, span in SPAN_METRICS.items()}
    metrics["pipeline.self_s"] = (
        tracer.total("pipeline.run_protocol") - tracer.children_total("pipeline.replay")) / n
    metrics.update({name: counted(name, 0) / n for name in COUNT_METRICS})
    iterations, searches = counted("cones.iterations", 0), counted("cones.searches", 0)
    metrics["cones.us_per_iteration"] = (
        1e6 * tracer.total("cones.search") / iterations if iterations else 0.0)
    metrics["cones.found_ratio"] = counted("cones.found", 0) / searches if searches else 0.0
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    details = {
        "ops_per_pass": len(ops), "passes": passes, "traced_ops": n,
        "untraced_s": untraced, "traced_s": traced,
        "cones.found_ratio": {"found": counted("cones.found", 0), "searches": searches},
        "counts": dict(tracer.counts),
        "spans": tracer.to_json(),
    }
    return metrics, details


@contextmanager
def workspace():
    """A scratch directory for inputs and outputs, removed afterwards."""
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mcfqc" / "cli.py").is_file():
        print(f"bench: no mcfqc sources under {SRC}", file=sys.stderr)
        return 2
    threads = configure_environment(os.environ)
    sys.path.insert(0, str(SRC))
    import numpy as np

    import mcfqc.cli
    from workloads import WORKLOADS

    if Path(mcfqc.cli.__file__).resolve().parent != SRC / "mcfqc":
        print(f"bench: mcfqc was imported from {mcfqc.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    workload = WORKLOADS[args.workload]()
    client = Client(mcfqc.cli.main)
    with workspace() as work:
        if args.trace:
            ops = [op for block in islice(blocks(workload, args.seed, work), 1) for op in block]
            metrics, details = run_traced(client, ops, warmup(workload, work), args.seconds)
            units = PER_LAYER
        else:
            metrics, details = run_untraced(client, workload, args.seed, args.seconds, work,
                                            dict(os.environ))
            units = END_TO_END

    failed = len(client.failures)
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(np, threads, args.seed, workload.sizes),
        "attempted": client.attempted, "failed": failed,
        "error_rate": failed / client.attempted,
        "failures": client.failures[:50],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "details": details,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for message in client.failures[:10]:
        print(f"failed: {message}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"error_rate {record['error_rate']:.6g} fraction ({failed}/{client.attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": client.attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
