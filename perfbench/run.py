"""Benchmark of cfreeconv: one workload per run, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/``.  The
workloads (see ``workloads.py``) run as one closed loop: one operation at a
time, no threads, no parallel processes.  A run makes a fixed number of whole
cycles of its workload, sized so that the timed operations take about
``--seconds`` at the seed commit: every seed and every commit does the same
work.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:

- ``setup_s``: median over several set-ups (this process at the start, fresh
  child processes spread over the timed loop) of importing cfreeconv, drawing
  the seeded inputs and running the untimed warm-up operations;
- ``ops_per_s``: operations completed (not failed) per second of timed work;
- ``op_p50_ms``, ``op_tail_ms``: median and tail of the per-operation wall
  time over all attempted operations; the tail percentile is the highest
  with at least ten samples beyond it, and the report line names it with the
  sample count;
- ``ok_ratio``: operations that returned a checked output, over attempted;
- ``peak_rss_mb``: peak RSS of this process, or of the largest CLI child.

With ``--trace 1`` the same operations run once untraced and once traced; the
outputs must be identical, and the last line holds the per-layer metrics of
``layers.py`` and ``trace.overhead_ratio``.  The line before the last is a
report: failure kinds, input-property shares, sizing and the environment.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import workloads
from layers import LAYER_EFFECTS, Tracer, partition_caches

THREAD_POOLS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

SETUP_SAMPLES = 5
# Every run draws inputs from at least two pool cycles, so that no single
# draw of the costliest slots sets a run's figures.
MIN_CYCLES = 2
WORK_DIR = ".perfbench_work"
CLI_SUBCOMMANDS = tuple(dict.fromkeys(kind for kind, _, _ in workloads.cli_slots(False)))
CLI_IMPORT_SAMPLES = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest sizes, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def source_dir():
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "cfreeconv", "__init__.py")):
        raise SystemExit("perfbench: no src/cfreeconv here; run from the repository root")
    return src


# ---------------------------------------------------------------------------
# Set-up and the timed loop
# ---------------------------------------------------------------------------


def set_up(workload, seed, tiny, workdir):
    """Import, draw the inputs, warm up.  Returns (seconds, package, pool)."""
    start = time.perf_counter()
    import cfreeconv

    rng = random.Random(f"{workload.name}/{seed}")
    pool = workload.make_pool(cfreeconv, rng, tiny, workdir)
    for op in workload.warmup(cfreeconv, rng, tiny, workdir):
        try:
            op.run()
        except Exception:  # a failing warm-up op shows again in the timed loop
            pass
    return time.perf_counter() - start, cfreeconv, pool


def probe_set_up(args, workdir):
    """Set-up time of a fresh process, as the median's further samples."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-probe"] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=170)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


@dataclass(slots=True)
class Record:
    op: workloads.Op
    seconds: float
    status: str  # "ok", "raised" or "wrong"
    detail: str
    output: object


def time_op(op, tracer=None):
    """Run one op (timed), then its check (untimed)."""
    if tracer:
        tracer.active = True
    start = time.perf_counter()
    try:
        output = op.run()
    except Exception as exc:
        seconds = time.perf_counter() - start
        if tracer:
            tracer.active = False
        return Record(op, seconds, "raised", type(exc).__name__, f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    if tracer:
        tracer.active = False
        return Record(op, seconds, "ok", "", output)
    try:
        op.check(output)
    except workloads.CheckFailed as exc:
        return Record(op, seconds, "wrong", str(exc), output)
    except Exception as exc:  # an output the check's own routes cannot take
        return Record(op, seconds, "wrong", f"check raised {type(exc).__name__}: {exc}", output)
    return Record(op, seconds, "ok", "", output)


def cycle_count(workload, seconds, tiny, minimum=MIN_CYCLES):
    return 1 if tiny else max(minimum, round(seconds / workload.cycle_seconds))


def run_cycles(pool, cycles, between=None, calls=0):
    """Time the ops of ``cycles`` pool cycles; call ``between`` ``calls`` times, spread evenly among them."""
    ops = [op for cycle in range(cycles) for op in pool[cycle % len(pool)]]
    at = [i * len(ops) // calls for i in range(calls)]
    records = []
    for i, op in enumerate(ops):
        for _ in range(at.count(i)):
            between()
        records.append(time_op(op))
    return records


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail_percentile(samples):
    """Highest whole percentile with at least ten of ``samples`` beyond it."""
    return max(0, math.floor(100 * (samples - 10) / samples))


def nearest_rank(sorted_values, percentile):
    rank = max(1, math.ceil(percentile / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(records, setup_samples, cli):
    attempted = len(records)
    failed = sum(r.status != "ok" for r in records)
    timed = sum(r.seconds for r in records)
    times_ms = sorted(r.seconds * 1e3 for r in records)
    percentile = tail_percentile(attempted)
    if cli:
        peak_kib = max((r.output.peak_rss_kib for r in records if r.status == "ok"), default=0)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": ((attempted - failed) / timed, "1/s"),
        "op_p50_ms": (statistics.median(times_ms), "ms"),
        "op_tail_ms": (nearest_rank(times_ms, percentile), "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }
    by_label = {}
    for r in records:
        by_label.setdefault(r.op.label, []).append(r.seconds * 1e3)
    extra = {
        "fail_ratio": {"value": failed / attempted, "unit": "ratio"},
        "op_ms_median_by_kind": {k: round(statistics.median(v), 3) for k, v in sorted(by_label.items())},
        "op_tail_percentile": percentile,
        "op_samples": attempted,
        "timed_s": timed,
        "setup_samples_s": setup_samples,
    }
    return metrics, extra


def is_correct(records, outputs_identical=True):
    """False if tracing changed an output or any strict op did not return a checked one.

    A strict op (exact, oracle or CLI) never fails on a correct program: its
    raising -- an exact gate, a nonzero exit -- is a wrong result as much as a
    mismatch is.  Only non-strict (approx) ops may fail and count in ok_ratio.
    """
    return outputs_identical and not any(r.op.strict and r.status != "ok" for r in records)


def failure_kinds(records):
    kinds = {}
    for r in records:
        if r.status != "ok":
            key = f"{r.op.label} {r.status}: {r.detail}"
            kinds[key] = kinds.get(key, 0) + 1
    return dict(sorted(kinds.items()))


def property_shares(records):
    """Share of attempted ops with each input property."""
    counts = {}
    for r in records:
        for key, value in r.op.props.items():
            label = f"{key}={value}"
            counts[label] = counts.get(label, 0) + 1
    return {k: round(v / len(records), 4) for k, v in sorted(counts.items())}


def environment():
    src = source_dir()
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = ""
    if os.path.isdir(".git"):  # a plain checkout has no history to ask
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10).stdout.strip()
    return {
        "commit": commit or "unknown (no git metadata)",
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "thread_pins": {name: os.environ[name] for name in THREAD_POOLS},
    }


def sizing(workload, tiny, cycles):
    per_cycle = {}
    for kind, order, family in workload.slots(tiny):
        key = f"{kind}@{order}/{family}"
        per_cycle[key] = per_cycle.get(key, 0) + 1
    return {"ops_per_cycle": per_cycle, "cycles": cycles, "cycle_seconds_at_seed": workload.cycle_seconds}


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def fingerprint(output):
    """A text form of an op's output that two identical computations share."""
    return repr(_plain(output))


def _plain(value):
    if isinstance(value, workloads.CliResult):
        return value.stdout
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    for attr in ("coeffs", "values"):
        if hasattr(value, attr) and getattr(value, attr) is not None:
            return [type(value).__name__, _plain(list(getattr(value, attr)))]
    if hasattr(value, "mu") and hasattr(value, "nu"):
        return ["pair", _plain(value.mu), _plain(value.nu)]
    if hasattr(value, "re") and hasattr(value, "im"):
        return [value.re, value.im]
    return value


def coeff_bits(output):
    """Largest numerator or denominator bit length among exact coefficients."""
    best = 0
    stack = [_plain(output)]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            stack.extend(v)
        elif isinstance(v, dict):
            stack.extend(v.values())
        elif hasattr(v, "denominator") and not isinstance(v, (int, bool)):
            best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


def traced_run(cf, workload, pool, args, workdir):
    """Untraced then traced pass over the same ops; per-layer metrics."""
    # A quarter of the run untraced, then the same ops traced: the traced pass
    # runs slower by the overhead, and the whole stays near --seconds.
    cycles = cycle_count(workload, args.seconds / 4, args.tiny, minimum=1)
    untraced = run_cycles(pool, cycles)
    ops = [r.op for r in untraced]
    base_s = sum(r.seconds for r in untraced)
    tracer = Tracer(cf)
    tracer.install()
    hits0, misses0 = partition_caches()
    try:
        traced = [time_op(op, tracer) for op in ops]
    finally:
        tracer.uninstall()
    hits1, misses1 = partition_caches()
    traced_s = sum(r.seconds for r in traced)
    differ = [a.op.label for a, b in zip(untraced, traced) if fingerprint(a.output) != fingerprint(b.output)]
    metrics = tracer.layer_metrics()
    lookups = (hits1 - hits0) + (misses1 - misses0)
    metrics["partitions.cache.hit_ratio"] = ((hits1 - hits0) / lookups if lookups else 0.0, "ratio")
    metrics["partitions.cache.lookups"] = (lookups, "count")
    metrics["series.coeff_bits.max"] = (max((coeff_bits(r.output) for r in untraced if r.status == "ok"), default=0), "bits")
    metrics.update(cli_layer(untraced, traced, workload, workdir))
    metrics["trace.overhead_ratio"] = (traced_s / base_s, "ratio")
    spans_path = os.path.join(workdir, f"spans-{args.workload}-{args.seed}.tsv")
    span_count = tracer.write_spans(spans_path)
    extra = {
        "outputs_identical": not differ,
        "outputs_differ": differ,
        "untraced_s": base_s,
        "traced_s": traced_s,
        "spans": span_count,
        "spans_file": os.path.relpath(spans_path),
        "untraced_functions": tracer.missing,
        "wait_time": "none: cfreeconv is single-threaded and the loop is closed, so no layer queues or waits",
        "layer_effects": LAYER_EFFECTS,
    }
    return untraced, cycles, metrics, extra


def cli_layer(untraced, traced, workload, workdir):
    """cli.* metrics: import time and per-subcommand process wall time."""
    metrics = {}
    is_cli = workload.name == "cli_small"
    import_ms = []
    if is_cli:
        for _ in range(CLI_IMPORT_SAMPLES):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import cfreeconv"], env=workloads.child_env(), check=True, timeout=120)
            import_ms.append((time.perf_counter() - start) * 1e3)
    metrics["cli.import.wall_ms"] = (statistics.median(import_ms) if import_ms else 0.0, "ms")
    for sub in CLI_SUBCOMMANDS:
        times = [r.seconds * 1e3 for r in traced if r.op.kind == sub] if is_cli else []
        metrics[f"cli.{sub}.wall_ms"] = (statistics.median(times) if times else 0.0, "ms")
    records = untraced if is_cli else []
    metrics["cli.exit_nonzero.count"] = (sum(r.detail == "CliExit" for r in records), "count")
    metrics["cli.stdout_mismatch.count"] = (sum(r.status == "wrong" for r in records), "count")
    return metrics


# ---------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    # One BLAS/OpenMP thread, set before cfreeconv imports numpy; CLI children
    # inherit the environment.
    os.environ.update({name: "1" for name in THREAD_POOLS})
    src = source_dir()
    sys.path.insert(0, src)
    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(os.getcwd(), WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.setup_probe:
            seconds, _, _ = set_up(workload, args.seed, args.tiny, workdir)
            print(json.dumps({"setup_s": seconds}))
            return 0
        setup_s, cf, pool = set_up(workload, args.seed, args.tiny, workdir)
        if args.trace:
            records, cycles, metrics, extra = traced_run(cf, workload, pool, args, os.path.dirname(workdir))
        else:
            # The fresh-process set-ups run between the timed ops, spread over
            # the run, so that the median does not rest on one stretch of time.
            setup_samples = [setup_s]
            cycles = cycle_count(workload, args.seconds, args.tiny)
            records = run_cycles(pool, cycles, lambda: setup_samples.append(probe_set_up(args, workdir)), SETUP_SAMPLES - 1)
            metrics, extra = end_to_end(records, setup_samples, workload.name == "cli_small")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(r.status != "ok" for r in records)
    wrong = [r for r in records if r.status == "wrong"]
    correct = is_correct(records, extra.get("outputs_identical", True))
    report = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "closed_loop": "one operation at a time, no concurrency",
        **extra,
        "failure_kinds": failure_kinds(records),
        "wrong_outputs": [f"{r.op.label}: {r.detail}" for r in wrong][:20],
        "input_shares": property_shares(records),
        "sizing": sizing(workload, args.tiny, cycles),
        "environment": environment(),
    }
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
