"""The benchmark harness: set-up, the closed loop, checks, metrics, output.

``run.py`` puts this checkout's ``src/`` on the import path before it
imports this module, so ``hullmle`` here is the checkout's own.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

import numpy as np

import hullmle
from tracer import PER_LAYER, Tracer
from workloads import UNANSWERED, WORKLOADS, Op, OpTimedOut, classify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up (import, input generation, warm-up) is repeated and its median
# reported, so one slow cold import does not decide setup_s.
SETUP_REPEATS = 5
# Traced min_scale calls timed again, serial and threaded, per run.
RERUN_PAIRS = 40
# An op still running after this long is stopped, so one pathological
# input cannot push a run past its time limit: exact_mle spent 100 s on
# one n = 6 graph whose gradient stalled at 1.05e-8, above its 1e-8
# tolerance, before raising OptimizationError.
OP_LIMIT_S = 90.0

# name: (unit, better); BENCHMARK.json lists the same names with bounds.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_p50_s": ("s", "lower"),
    "op_tail_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}


def import_seconds() -> float:
    """Seconds to import hullmle in a fresh interpreter."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "t = time.perf_counter()\n"
        "import hullmle\n"
        "print(time.perf_counter() - t)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def set_up(workload, seed: int):
    """Import, input generation and warm-up, SETUP_REPEATS times."""
    seconds = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        start = perf_counter()
        inputs = workload.inputs(seed)
        workload.warm_up(inputs)
        seconds.append(imported + perf_counter() - start)
    return inputs, seconds


def _time_out(signum, frame):
    raise OpTimedOut(f"op ran past {OP_LIMIT_S:g} s")


def run_op(workload, inputs, op: Op) -> None:
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        try:
            op.result = workload.op(inputs, op.arg)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Exception as exc:
        op.outcome = classify(exc)
        if op.outcome is None:
            op.error = traceback.format_exc()
    finally:
        op.seconds = perf_counter() - start


def closed_loop(workload, inputs, seed: int, seconds: float):
    """One caller: the next op starts when the previous one returns, until
    the time is up; the op running at the deadline is finished and counted."""
    ops = []
    start = perf_counter()
    while perf_counter() - start < seconds:
        op = Op(arg=workload.op_arg(seed, inputs, len(ops)))
        run_op(workload, inputs, op)
        ops.append(op)
    return ops, perf_counter() - start


def judge(workload, inputs, ops) -> tuple[set[int], list[str]]:
    """Indices of failed ops: raised an unexpected error or failed a check."""
    failed = {k for k, op in enumerate(ops) if op.error}
    notes = [f"op {k}: {ops[k].error.rstrip().splitlines()[-1]}" for k in sorted(failed)]
    wrong, check_notes = workload.check(inputs, ops)
    failed.update(wrong)
    return failed, notes + check_notes


def tail(times: list[float]) -> tuple[float, str, int]:
    """Highest percentile with at least ten ops beyond it, or the slowest op
    when that percentile would not lie above the median (fewer than 22 ops)."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 22:
        return ordered[-1], "max", n
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f}", n


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        fields = [(index / f).read_text().strip() for f in ("level", "type", "size")]
        caches[f"L{fields[0]} {fields[1]}"] = fields[2]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "platform": platform.platform(),
    }


def untraced(workload, inputs, seed, seconds, setup):
    ops, elapsed = closed_loop(workload, inputs, seed, seconds)
    rss = peak_rss_mib()  # before any reference computation runs
    failed, notes = judge(workload, inputs, ops)
    tail_s, label, count = tail([op.seconds for op in ops])
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(op.seconds for op in ops),
        "op_tail_s": tail_s,
        "peak_rss_mib": rss,
    }
    # Reported, not gated: rare slow ops (exact-mle's non-converging
    # ascents) make throughput swing between seeds far beyond any bound.
    extra = {"ops_per_s": len(ops) / elapsed, "op_tail_percentile": label,
             "op_samples": count, "elapsed_s": elapsed, "setup_samples_s": setup}
    return ops, failed, notes, metrics, extra


def traced(workload, inputs, seed, seconds):
    """The same fixed list of ops untraced and traced, interleaved; then the
    traced min_scale calls timed again, serial and with one thread per core."""
    count = max(1, int(seconds / (2.0 * workload.nominal_op_s)))
    plain, with_spans = [], []
    tracer = Tracer()
    for i in range(count):
        arg = workload.op_arg(seed, inputs, i)
        plain.append(Op(arg=arg))
        with_spans.append(Op(arg=arg))
        pair = [(plain[i], False), (with_spans[i], True)]
        for op, trace_on in pair if i % 2 == 0 else pair[::-1]:
            if trace_on:
                tracer.op = i
                tracer.install()
                try:
                    run_op(workload, inputs, op)
                finally:
                    tracer.uninstall()
            else:
                run_op(workload, inputs, op)
    base_s = sum(op.seconds for op in plain)
    traced_s = sum(op.seconds for op in with_spans)

    threads = len(os.sched_getaffinity(0))
    serial_s = threaded_s = 0.0
    mismatched = 0
    for target, tests, config in tracer.min_scale_args[:RERUN_PAIRS]:
        start = perf_counter()
        one = hullmle.min_scale(target, tests, config)
        middle = perf_counter()
        many = hullmle.min_scale(target, tests, config, threads=threads)
        serial_s += middle - start
        threaded_s += perf_counter() - middle
        mismatched += not (one.per_point_scales == many.per_point_scales).all()

    ops = plain + with_spans
    failed, notes = judge(workload, inputs, ops)
    if mismatched:
        notes.append(f"{mismatched} threaded min_scale reports differ from serial")
    metrics = tracer.layer_metrics()
    metrics.update({
        "batch.min_scale.rerun_calls": min(len(tracer.min_scale_args), RERUN_PAIRS),
        "batch.min_scale.serial_s": serial_s,
        "batch.min_scale.threaded_s": threaded_s,
        "batch.min_scale.threaded_ratio": threaded_s / serial_s if serial_s else 0.0,
        "batch.min_scale.threads": threads,
        "trace.ops": count,
        "trace.overhead_frac": traced_s / base_s - 1.0,
    })
    extra = {"untraced_s": base_s, "traced_s": traced_s, "threaded_mismatches": mismatched}
    return ops, failed, notes, metrics, extra, tracer


def run(name: str, seed: int, seconds: float, trace: int) -> int:
    """One benchmark run; prints the summary and, last, the JSON result."""
    workload = WORKLOADS[name]()
    signal.signal(signal.SIGALRM, _time_out)

    inputs, setup = set_up(workload, seed)
    if trace:
        ops, failed, notes, metrics, extra, tracer = traced(
            workload, inputs, seed, seconds)
        table = PER_LAYER
    else:
        ops, failed, notes, metrics, extra = untraced(
            workload, inputs, seed, seconds, setup)
        table = END_TO_END
        tracer = None
    units = {metric: unit for metric, (unit, _) in table.items()}
    missing = set(units) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metric set mismatch: {sorted(missing)}")

    # How every answer ended; an estimator op answers once per estimate.
    outcomes = {"failed ops": len(failed)}
    for op in ops:
        for answer in op.answers():
            key = answer if isinstance(answer, str) else "returned"
            outcomes[key] = outcomes.get(key, 0) + 1
    answers = sum(len(op.answers()) for op in ops)
    unanswered = sum(outcomes.get(kind, 0) for kind in UNANSWERED)

    stem = f"{workload.name}-seed{seed}-trace{trace}"
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": trace, "environment": environment(), "inputs": workload.sizes(inputs),
        "metrics": metrics, "extra": extra, "outcomes": outcomes,
        "op_seconds": [op.seconds for op in ops], "failed_ops": sorted(failed),
        "unanswered_frac": unanswered / max(answers, 1),
        "notes": notes, "tracebacks": [op.error for op in ops if op.error],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.jsonl")

    print(f"workload {workload.name}  seed {seed}  trace {trace}  ops {len(ops)}")
    print(f"answers {answers}: {outcomes}; unanswered fraction "
          f"{unanswered / max(answers, 1):.4f} (reported, not failed)")
    for metric, unit in units.items():
        print(f"  {metric:36s} {metrics[metric]:>16.6g} {unit}")
    if "ops_per_s" in extra:
        print(f"  op_tail_s is {extra['op_tail_percentile']} of {extra['op_samples']} ops; "
              f"ops_per_s {extra['ops_per_s']:.6g} 1/s (reported, not gated)")
    for note in notes[:20]:
        print(f"  check: {note}")
    print(json.dumps({
        "correct": not failed and not notes,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {metric: {"value": metrics[metric], "unit": unit}
                    for metric, unit in units.items()},
    }))
    return 0

