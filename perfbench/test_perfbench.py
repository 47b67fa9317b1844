"""Tests of the benchmark itself, at the smallest sizes.

Run from the repository root:  python3 -m pytest -q perfbench
"""
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import cfreeconv  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
WORKLOADS = ("exact_convolve", "approx_highorder", "oracle_crosscheck", "cli_small")


def bench(workload, trace=0, cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}, [w["name"] for w in spec["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_checks_every_output(workload):
    report, result = last_json(bench(workload))
    assert result["correct"] is True, report["wrong_outputs"]
    assert result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    names, workloads = declared("end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert workload in workloads


def test_tracing_leaves_outputs_unchanged_and_reports_every_layer_metric():
    report, result = last_json(bench("exact_convolve", trace=1))
    assert report["outputs_identical"] is True
    assert report["untraced_functions"] == []
    assert result["correct"] is True
    names, _ = declared("per_layer")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["measures.cfree_multiplicative_convolve.calls"] > 0
    assert metrics["series.scalar_new.calls"] > 0
    assert metrics["series.coeff_bits.max"] > 0
    for name, value in metrics.items():
        if name.endswith(".self_s"):
            assert value >= 0, name


def test_oracle_trace_reads_partition_caches():
    report, result = last_json(bench("oracle_crosscheck", trace=1))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert report["outputs_identical"] is True
    assert metrics["partitions.cache.lookups"] > 0
    assert 0 < metrics["partitions.cache.hit_ratio"] <= 1
    assert metrics["partitions.visited"] > 0
    assert metrics["oracles.boxed_convolution.calls"] > 0


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("exact_convolve", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_a_strict_op_that_raises_makes_the_run_incorrect():
    def fails():
        raise workloads.CliExit("nc exited with 2")

    def op(run, strict):
        return workloads.Op("nc", 8, run, lambda out: None, strict=strict)

    ok = bench_run.time_op(op(lambda: 1, strict=True))
    strict_raised = bench_run.time_op(op(fails, strict=True))
    approx_raised = bench_run.time_op(op(fails, strict=False))
    assert strict_raised.status == approx_raised.status == "raised"
    assert bench_run.is_correct([ok, strict_raised]) is False
    assert bench_run.is_correct([ok, approx_raised]) is True
    assert bench_run.is_correct([ok], outputs_identical=False) is False


def test_a_check_that_raises_marks_the_output_wrong():
    def check(out):
        raise ZeroDivisionError("no reversion of a series without a linear term")

    record = bench_run.time_op(workloads.Op("free", 8, lambda: 1, check))
    assert record.status == "wrong"
    assert bench_run.is_correct([record]) is False


def bump_top(series):
    coeffs = list(series.coeffs)
    coeffs[-1] = coeffs[-1] + cfreeconv.ComplexRational(1) / 10**6
    return cfreeconv.TruncatedSeries.exact(coeffs)


def bump_law(law, order):
    return cfreeconv.CircleMeasure.moment_seq(bump_top(law.moment_series(order, "exact")).coeffs[1:])


@pytest.mark.parametrize("kind", ("cfree", "free", "bundle"))
def test_exact_checks_reach_the_top_coefficient(kind):
    order = 8  # above the linked-block check's order, so the series routes must catch it
    laws = workloads.ExactLaws(cfreeconv, random.Random(3))
    op = workloads.exact_ops(cfreeconv, laws, kind, order, check_order=order)
    out = op.run()
    op.check(out)
    if kind == "cfree":
        wrong = [cfreeconv.MeasurePair(bump_law(out.mu, order), out.nu), cfreeconv.MeasurePair(out.mu, bump_law(out.nu, order))]
    elif kind == "free":
        wrong = [bump_law(out, order)]
    else:
        wrong = [tuple(bump_top(s) if i == j else s for i, s in enumerate(out)) for j in range(3)]
    for bad in wrong:
        with pytest.raises(workloads.CheckFailed):
            op.check(bad)
