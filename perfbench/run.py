#!/usr/bin/env python3
"""monoideal benchmark: seeded CLI batches in a closed loop, plus a layer trace.

    python3 perfbench/run.py --workload saturation --seed 0 --seconds 25 --trace 0

Generates a batch of ``.ideal`` files from the seed (see workloads.py) and
drives ``monoideal.cli.main(argv)`` in-process on them: one client, one
thread, the next instance starting when the previous one returns.  Whole
passes over the batch repeat until ``--seconds`` have gone by.  Every
output is then checked against a route other than the timed one
(checks.py), outside the timed region.

With ``--trace 0`` nothing is wrapped and the end-to-end metrics are
reported.  With ``--trace 1`` untraced and traced passes alternate; the
traced ones run under the wrappers of tracing.py and the per-layer metrics
are reported, with the spans written to ``.perfbench_work/`` at exit.

The host this was tuned on is shared, and its speed drifts by up to a
factor of two over minutes.  So each instance's latency is its median over
the passes, and the end-to-end times are stated at a reference host speed:
a fixed pure-Python kernel is timed before every instance and set-up, and
each time is scaled by KERNEL_REF_S over the kernel's median time near it
(rates by the inverse).  The unscaled figures and the kernel's median time
are printed too.

The last line of stdout is the JSON result; the lines before it list every
metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 7
WARMUP_SEED = "warmup"  # the warm-up instance is the same for every seed

# The reference kernel's time on a quiet host of the kind the bounds in
# BENCHMARK.json were set on (2 vCPUs, CPython 3.11).
KERNEL_REF_S = 2.0e-3
PROBE_WINDOW = 21  # probes around an execution that estimate the host speed

END_TO_END = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def load_cli():
    """Import monoideal afresh from this checkout's src/ and return its cli."""
    if not (SRC / "monoideal" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no monoideal sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m.split(".")[0] == "monoideal"]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("monoideal.cli")
    if Path(cli.__file__).resolve().parent != SRC / "monoideal":
        raise SystemExit(f"perfbench: imported monoideal from {cli.__file__}")
    return cli


def run_cli(main, argv):
    """(exit code, stdout, seconds) of one in-process CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback fails the instance, not the run
            traceback.print_exc()
            rc = -1
        dt = perf_counter() - t0
    return rc, out.getvalue(), dt


def write_batch(batch, directory):
    """Write each instance's file; returns the CLI argv of each."""
    directory.mkdir(parents=True, exist_ok=True)
    argvs = []
    for inst in batch:
        path = directory / f"{inst.name}.ideal"
        path.write_text(inst.text, encoding="utf-8")
        argvs.append([*inst.verb, "--in", str(path), "--ideal", "I"])
    return argvs


def set_up(workload, seed, directory):
    """Import the program, write the batch and run the warm-up instance."""
    cli = load_cli()
    batch = workloads.generate(workload, seed)
    argvs = write_batch(batch, directory / "batch")
    warm = workloads.generate(workload, WARMUP_SEED, count=1)
    run_cli(cli.main, write_batch(warm, directory / "warmup")[0])
    return cli, batch, argvs


def kernel():
    """Fixed host-speed probe made of what monoideal's inner loops do:
    tuple-keyed dict updates, integer arithmetic and a sort."""
    d = {}
    acc = 0
    for i in range(2000):
        k = (i % 37, i % 11, i % 5)
        d[k] = d.get(k, 0) + i * i
        acc += (i * 7919) % 104729
    return acc + len(sorted(d.items()))


def probe():
    """Seconds the kernel takes now: the host's current speed."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def run_pass(main, argvs, tracer=None):
    """One closed-loop pass over the batch:
    [(exit code, stdout, seconds, probe seconds taken just before)]."""
    if tracer is not None:
        main = tracer.span("cli", main)
    results = []
    for k, argv in enumerate(argvs):
        host = probe()
        if tracer is not None:
            tracer.instance = k
        results.append((*run_cli(main, argv), host))
    return results


def count_failures(checker, passes):
    failed = 0
    reasons = {}
    for results in passes:
        for k, (rc, out, *_) in enumerate(results):
            why = checker.problem(k, rc, out)
            if why is not None:
                failed += 1
                reasons.setdefault(why, k)
    return failed, reasons


def src_lines():
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "monoideal").glob("*.py"))
    )


def latencies(passes, scaled):
    """Latency of every execution, pass by pass.  Scaled ones are at the
    reference host speed: multiplied by KERNEL_REF_S over the median probe
    of the PROBE_WINDOW executions around it, in run order."""
    lat = [[x[2] for x in r] for r in passes]
    if not scaled:
        return lat
    probes = [x[3] for r in passes for x in r]
    w = min(PROBE_WINDOW, len(probes))
    n = len(lat[0])
    out = []
    for p, row in enumerate(lat):
        out.append([])
        for k, t in enumerate(row):
            lo = min(max(p * n + k - w // 2, 0), len(probes) - w)
            out[-1].append(t * KERNEL_REF_S / statistics.median(probes[lo : lo + w]))
    return out


def per_instance(lat):
    """Each instance's median latency over the passes, in seconds."""
    return [statistics.median(r[k] for r in lat) for k in range(len(lat[0]))]


def end_to_end(plain, setups, rss_kb, scaled):
    """``setups`` holds (seconds, probe seconds just before) per set-up."""
    lat = per_instance(latencies(plain, scaled))
    setup = statistics.median(t for t, _ in setups)
    if scaled:
        setup *= KERNEL_REF_S / statistics.median(p for _, p in setups)
    return {
        "setup_s": setup,
        "instances_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8],
        "peak_rss_mb": rss_kb / 1024,
    }


def per_layer(plain, traced, rows):
    out = {name: statistics.median_low(r[name] for r in rows) for name in rows[0]}
    untraced = sum(per_instance(latencies(plain, True)))
    out["trace.overhead_ratio"] = sum(per_instance(latencies(traced, True))) / untraced - 1
    return out


def write_spans(path, tracer):
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = zip(tracer.inst, tracer.names, tracer.start, tracer.end, tracer.parent)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("instance\tspan\tname\tstart\tend\tparent\n")
        for k, (inst, name, start, end, parent) in enumerate(rows):
            fh.write(f"{inst}\t{k}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def measure(args, directory):
    setups = []
    for _ in range(SETUP_REPEATS):
        host = probe()
        t0 = perf_counter()
        cli, batch, argvs = set_up(args.workload, args.seed, directory)
        setups.append((perf_counter() - t0, host))

    deadline = perf_counter() + args.seconds
    plain, traced, layer_rows, counts = [], [], [], []
    spans = None  # the first traced pass's tracer, written out at exit
    while not plain or perf_counter() < deadline:
        plain.append(run_pass(cli.main, argvs))
        if args.trace:
            tracer = tracing.Tracer()
            uninstall = tracing.install(tracer)
            try:
                traced.append(run_pass(cli.main, argvs, tracer))
            finally:
                uninstall()
            layer_rows.append(tracing.layer_metrics(tracer))
            counts.append(tracer.counts)
            spans = spans or tracer
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    checker = checks.Checker(
        args.workload,
        batch,
        argvs,
        lambda argv: run_cli(cli.main, argv)[:2],
        checks.recorded_digests(args.workload, args.seed),
    )
    passes = plain + traced
    failed, reasons = count_failures(checker, passes)
    attempted = sum(len(r) for r in passes)

    print(
        f"# workload {args.workload} seed {args.seed}: {len(batch)} instances, "
        f"{len(plain)} untraced and {len(traced)} traced passes, "
        f"latency samples {len(batch) * len(plain)}"
    )
    print(f"# src/monoideal lines {src_lines()}")
    for why, k in reasons.items():
        print(f"# FAILED {batch[k].name}: {why}")
    print(f"failed_ratio {failed / attempted:.6f} ratio")
    if args.trace:
        if any(c != counts[0] for c in counts):
            print("# WARNING: layer counters differ between traced passes")
        write_spans(WORK / f"spans-{args.workload}-seed{args.seed}.tsv", spans)
        metrics = per_layer(plain, traced, layer_rows)
        units = {k: u for k, (u, _) in tracing.LAYER_METRICS.items()}
    else:
        host = statistics.median(x[3] for r in plain for x in r)
        print(f"# host speed: kernel median {1e3 * host:.4f} ms")
        for name, value in end_to_end(plain, setups, rss_kb, False).items():
            print(f"# unscaled {name} {value} {END_TO_END[name]}")
        metrics = end_to_end(plain, setups, rss_kb, True)
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    directory = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        result = measure(args, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
