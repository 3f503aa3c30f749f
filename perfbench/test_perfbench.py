"""Tests of the benchmark's own parts: generator, output checks and trace.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads
from monoideal import cli

WORKLOADS = sorted(workloads.WORKLOADS)


def _files(argvs):
    return [Path(a[a.index("--in") + 1]).read_bytes() for a in argvs]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_files(workload, tmp_path):
    first = _files(run.write_batch(workloads.generate(workload, 7), tmp_path / "a"))
    again = _files(run.write_batch(workloads.generate(workload, 7), tmp_path / "b"))
    other = _files(run.write_batch(workloads.generate(workload, 8), tmp_path / "c"))
    assert len(first) == workloads.BATCH >= 100
    assert first == again
    assert first != other


def _corrupt(workload, out):
    lines = out.splitlines(keepends=True)
    if workload == "betti":
        i, j, v = lines[-1].split()
        lines[-1] = f"{i} {j} {int(v) + 1}\n"
    else:
        lines = lines[:-1]
    return "".join(lines)


@pytest.mark.parametrize("with_digests", [True, False])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failure(workload, with_digests, tmp_path):
    batch = workloads.generate(workload, run.DEFAULT_SEED)[:3]
    argvs = run.write_batch(batch, tmp_path)
    digests = checks.recorded_digests(workload, run.DEFAULT_SEED)
    checker = checks.Checker(
        workload,
        batch,
        argvs,
        lambda argv: run.run_cli(cli.main, argv)[:2],
        digests if with_digests else None,
    )
    good = run.run_pass(cli.main, argvs)
    assert run.count_failures(checker, [good]) == (0, {})

    bad = list(good)
    rc, out, *times = bad[1]
    bad[1] = (rc, _corrupt(workload, out), *times)
    bad[2] = (2, *bad[2][1:])
    failed, reasons = run.count_failures(checker, [good, bad])
    assert failed == 2
    assert sorted(reasons.values()) == [1, 2]


def _traced_counts(argvs):
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        results = run.run_pass(cli.main, argvs, tracer)
    finally:
        uninstall()
    assert all(r[0] == 0 for r in results)
    metrics = tracing.layer_metrics(tracer)
    assert set(metrics) | {"trace.overhead_ratio"} == set(tracing.LAYER_METRICS)
    return tracer.counts


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_exactly(workload, tmp_path):
    from monoideal import groebner

    originals = {k: v for k, v in vars(groebner).items() if callable(v)}
    argvs = run.write_batch(workloads.generate(workload, 3)[:5], tmp_path)
    first = _traced_counts(argvs)
    assert first["groebner.basis.builds"] > 0
    assert first == _traced_counts(argvs)
    assert {k: v for k, v in vars(groebner).items() if callable(v)} == originals


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
    } == tracing.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
