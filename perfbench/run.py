"""qsimcost benchmark: one process, one closed-loop client, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload preset-grid --seed 1 --seconds 25 \
        --trace 0

Workloads (request lists and checks in workloads.py):

    preset-grid      ``report`` over {struct-1, struct-2} x 4 beta cases x
                     {variance -> JSON, worst_case -> markdown}, through
                     cli.main with stdout captured; the 4 rigorous requests
                     are refused at p=1e-3 (distillation beyond two rounds
                     is unsupported) and count as answered when the refusal
                     matches the one their golden records
    fcidump-exact    ``report --fcidump`` on the five bundled molecules (four
                     times a pass) and a frozen H5+ chain, all under the
                     exhaustive-h cap
    fcidump-sampled  the same request on frozen H6/H8/H10 chains, over the
                     cap, so h is stratified and sampled with ``--seed``
    oracle-validate  strang_error_scan on the bundled molecules (together,
                     one request), H5+ and H6, each unwrapped row checked
                     against frozen exact h

Each pass sends the workload's request list in an order shuffled by the
seed. Passes repeat while the next is expected to end within
``--seconds``; only whole passes run, so every run has the same request
mix. Request time excludes the output checks.

``--trace 0`` prints the end-to-end metrics:

    request_s.p50    median seconds per successful request: the median over
                     request types of each type's median
    requests_per_s   successful requests per second of request time
    success_ratio    successful requests over attempted (1 - failed ratio);
                     a request fails when it raises or its output misses
                     the frozen reference
    peak_rss_mb      peak resident set of the benchmark process
    setup_s          imports, presets, fixture reads and request set-up;
                     the median of one in-process and eight fresh-process
                     set-ups

``--trace 1`` spends half the time untraced and half under the tracer
(tracer.py) and prints the per-layer metrics: layer times and counts per
traced request, each layer's share of the traced thread time (its spans'
self time over all spans' self time, where run_scenario's worker threads
count while they wait for each other), and ``trace.overhead``, the traced
over the untraced median request time. Spans are written to
``perfbench/out/``.

Human-readable lines start with ``#``; the last line of stdout is the
result as one JSON object. BLAS is pinned to one thread.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import collections  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9
P90_MIN_REQUESTS = 100
SHOWN_ERRORS = 5
WORKLOAD_NAMES = (
    "preset-grid", "fcidump-exact", "fcidump-sampled", "oracle-validate",
)

END_TO_END_UNITS = {
    "request_s.p50": "s",
    "requests_per_s": "1/s",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "hamiltonian.parse_s": "s",
    "hamiltonian.enumerate_s": "s",
    "hamiltonian.clifford_s": "s",
    "hamiltonian.terms": "count",
    "trotter.exhaustive_s": "s",
    "trotter.exhaustive.triples": "count",
    "trotter.exhaustive.triples_per_s": "1/s",
    "trotter.stratified_s": "s",
    "trotter.stratified.samples": "count",
    "trotter.h_rse": "ratio",
    "costs.optimize_budget_s": "s",
    "costs.optimize_budget.calls": "count",
    "costs.smooth_evals": "count",
    "costs.cost_evals": "count",
    "costs.strategy_report_s": "s",
    "par.nesting_s": "s",
    "surface_code.physical_report_s": "s",
    "surface_code.physical_report.calls": "count",
    "surface_code.physical_report.failed": "count",
    "scenarios.run_scenario.self_s": "s",
    "scenarios.emit_s": "s",
    "cli.self_s": "s",
    "oracle.scan_s": "s",
    "oracle.build_matrix_s": "s",
    "oracle.steps": "count",
    "oracle.sector_dim": "count",
    "trace.overhead": "ratio",
}
SHARE_LAYERS = (
    "hamiltonian", "trotter", "costs", "par", "surface_code", "scenarios",
    "cli", "oracle", "bench",
)
PER_LAYER_UNITS.update({f"{layer}.share": "ratio" for layer in SHARE_LAYERS})


@dataclasses.dataclass(frozen=True)
class Record:
    request: str
    seconds: float
    outcome: str


def setup(workload_name, seed):
    """Import the package, read presets and fixtures, build the requests."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from qsimcost import scenarios

    import workloads

    scenarios.load_presets()
    requests = workloads.WORKLOADS[workload_name](seed).requests()
    return requests, time.perf_counter() - start


def setup_seconds(args, in_process):
    """Median set-up time over this process and fresh processes."""
    samples = [in_process]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def measure(requests, seconds, seed, tracer=None):
    """Whole shuffled passes within the time; one Record per request.

    A pass starts only if, taking as long as the one before, it ends in
    time; the first pass always runs.
    """
    rng = random.Random(seed)
    records = []
    shown = 0
    start = time.perf_counter()
    last_pass = 0.0
    while not records or (time.perf_counter() - start + last_pass
                          <= seconds):
        pass_start = time.perf_counter()
        order = list(requests)
        rng.shuffle(order)
        for request in order:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = request.run()
                else:
                    result = tracer.run_request(request.id, request.run)
            except Exception as exc:  # a traceback is a wrong answer
                elapsed = time.perf_counter() - t0
                outcome, reason = "wrong", f"{type(exc).__name__}: {exc}"
            else:
                elapsed = time.perf_counter() - t0
                outcome, reason = request.judge(result)
            if outcome == "wrong" and shown < SHOWN_ERRORS:
                shown += 1
                print(f"# WRONG {request.id}: {reason}", file=sys.stderr)
            records.append(Record(request.id, elapsed, outcome))
        last_pass = time.perf_counter() - pass_start
    return records


def _ok_times(records):
    """Times of answered requests: correct output or the recorded refusal."""
    return [r.seconds for r in records if r.outcome != "wrong"]


def typical_request_seconds(records):
    """Median over request types of each type's median answered time.

    Each request type counts once. Unlike the pooled median, this does not
    fall into the gap between two clusters of request types, where it
    would be the extreme of one cluster.
    """
    by_type = collections.defaultdict(list)
    for r in records:
        if r.outcome != "wrong":
            by_type[r.request].append(r.seconds)
    if not by_type:
        return 0.0
    return statistics.median(statistics.median(v) for v in by_type.values())


def end_to_end(records, setup_s):
    ok = _ok_times(records)
    busy = sum(r.seconds for r in records)
    return {
        "request_s.p50": typical_request_seconds(records),
        "requests_per_s": len(ok) / busy,
        "success_ratio": len(ok) / len(records),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def per_layer(tracer, traced, untraced):
    """Per-layer metrics from the traced run's spans and counts."""
    from tracer import ROOT as ROOT_SPAN, self_times

    spans = tracer.spans
    counts = tracer.counts
    by_id = {span.id: span for span in spans}
    n = sum(span.name == ROOT_SPAN for span in spans)
    own = self_times(spans)
    thread_time = sum(own.values())

    def outermost(*names):
        return [
            span for span in spans
            if span.name in names and by_id[span.parent].name not in names
        ]

    def seconds(*names):
        return sum(span.duration for span in outermost(*names)) / n

    def info_sum(items, key):
        return sum(span.info.get(key, 0) for span in items)

    estimates = outermost("trotter.estimate_error_constant")
    exhaustive = [s for s in estimates
                  if s.info.get("method") == "exhaustive"]
    stratified = [s for s in estimates
                  if s.info.get("method") == "stratified"]
    exhaustive_s = sum(span.duration for span in exhaustive)
    physical = outermost("surface_code.physical_report")
    layer_self = collections.Counter()
    for span in spans:
        layer_self[span.layer] += own[span.id]
    p50_untraced = typical_request_seconds(untraced)

    metrics = {
        "hamiltonian.parse_s": seconds("hamiltonian.parse_fcidump"),
        "hamiltonian.enumerate_s": seconds("hamiltonian.enumerate_terms"),
        "hamiltonian.clifford_s":
            seconds("hamiltonian.clifford_count_per_step"),
        "hamiltonian.terms":
            info_sum(outermost("hamiltonian.enumerate_terms"), "terms") / n,
        "trotter.exhaustive_s": exhaustive_s / n,
        "trotter.exhaustive.triples": info_sum(exhaustive, "population") / n,
        "trotter.exhaustive.triples_per_s":
            info_sum(exhaustive, "population") / exhaustive_s
            if exhaustive_s else 0.0,
        "trotter.stratified_s": sum(s.duration for s in stratified) / n,
        "trotter.stratified.samples": info_sum(stratified, "samples") / n,
        "trotter.h_rse": max((s.info["rse"] for s in stratified), default=0.0),
        "costs.optimize_budget_s": seconds("costs.optimize_budget"),
        "costs.optimize_budget.calls":
            counts["costs.optimize_budget"] / n,
        "costs.smooth_evals": counts["costs.evaluate_cost_smooth"] / n,
        "costs.cost_evals": counts["costs.evaluate_cost"] / n,
        "costs.strategy_report_s": seconds("costs.strategy_report"),
        "par.nesting_s":
            seconds("par.nesting_parallelism", "par.nesting_batches"),
        "surface_code.physical_report_s":
            seconds("surface_code.physical_report"),
        "surface_code.physical_report.calls": len(physical) / n,
        "surface_code.physical_report.failed":
            sum(span.failed for span in physical) / n,
        "scenarios.run_scenario.self_s": sum(
            own[s.id] for s in spans if s.name == "scenarios.run_scenario"
        ) / n,
        "scenarios.emit_s": seconds("scenarios.emit"),
        "cli.self_s": layer_self["cli"] / n,
        "oracle.scan_s": seconds("oracle.strang_error_scan"),
        "oracle.build_matrix_s": seconds("oracle.build_matrix"),
        "oracle.steps":
            info_sum(outermost("oracle.strang_error_scan"), "steps") / n,
        "oracle.sector_dim": max(
            (s.info.get("dim", 0) for s in outermost("oracle.build_matrix")),
            default=0,
        ),
        "trace.overhead": typical_request_seconds(traced) / p50_untraced
        if p50_untraced else 0.0,
    }
    for layer in SHARE_LAYERS:
        metrics[f"{layer}.share"] = layer_self[layer] / thread_time
    return metrics


def machine_info():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
    }


def write_spans(args, tracer, machine):
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans_{args.workload}_seed{args.seed}.jsonl"
    with open(path, "w") as handle:
        handle.write(json.dumps({"machine": machine,
                                 "counts": dict(tracer.counts)}) + "\n")
        for span in tracer.spans:
            handle.write(json.dumps(dataclasses.asdict(span)) + "\n")
    return path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "qsimcost" / "__init__.py").is_file():
        print(f"error: no qsimcost sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)  # request inputs are checkout-relative paths
    requests, in_process_setup = setup(args.workload, args.seed)
    if args.setup_only:
        print(in_process_setup)
        return 0
    machine = machine_info()
    print(f"# machine {json.dumps(machine)}")

    if args.trace:
        from tracer import Tracer

        untraced = measure(requests, args.seconds / 2, args.seed)
        tracer = Tracer()
        with tracer:
            traced = measure(requests, args.seconds / 2, args.seed, tracer)
        records = untraced + traced
        metrics = per_layer(tracer, traced, untraced)
        units = PER_LAYER_UNITS
        print(f"# spans written to {write_spans(args, tracer, machine)}")
    else:
        setup_s = setup_seconds(args, in_process_setup)
        records = measure(requests, args.seconds, args.seed)
        metrics = end_to_end(records, setup_s)
        units = END_TO_END_UNITS

    ok = _ok_times(records)
    failed = sum(r.outcome == "wrong" for r in records)
    refused = sum(r.outcome == "refused" for r in records)
    print(f"# {args.workload}: {len(records)} requests, {failed} failed")
    if refused:
        print(f"# {refused} requests refused as their golden records "
              "(known defect, see BENCHMARK.json)")
    if not args.trace and len(ok) >= P90_MIN_REQUESTS:
        p90 = statistics.quantiles(ok, n=10)[-1]
        print(f"# request_s.p90 {p90:.6g} s over {len(ok)} requests")
    for name, value in metrics.items():
        print(f"# {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
