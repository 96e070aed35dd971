#!/usr/bin/env python3
"""Benchmark runner: one workload, one seed, one JSON result line.

    python3 noisebench/run.py --workload scan_escalate --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with nothing instrumented, every time scaled to the reference
speed of :mod:`host`; ``--trace 1`` runs a fixed number of
operations with every layer entry point wrapped and reports the
per-layer metrics.  The last line of standard output is the result
object; the self-time table goes to standard error, and the full
record (fingerprint, checksum, counts, samples) plus a Chrome trace go
to ``noisebench/out/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import host  # noqa: E402

host.pin_threads()

WORKLOADS = ("scan_escalate", "sweep_family", "service_mix")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Warm-up operations inside every batch set-up (the service warms up
#: with one round of requests instead).
WARMUP_OPS = 1
#: Timed operations per untraced batch run, at least.
MIN_OPS = 3
#: Traced operations (service: request rounds) per traced run.
TRACE_OPS = 2

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "extraction.busy_s": "s",
    "extraction.peak_mb": "MB",
    "vpec.busy_s": "s",
    "vpec.peak_mb": "MB",
    "vpec.stamped_elements": "count",
    "vpec.window_dedup_hits": "count",
    "noise.screen_s": "s",
    "noise.arrival_s": "s",
    "noise.pairs_s": "s",
    "noise.align_s": "s",
    "noise.pairs_screened": "count",
    "noise.escalated": "count",
    "noise.kappa_out_of_range": "count",
    "noise.horizon_ps": "ps",
    "noise.screen_precision": "ratio",
    "circuit.busy_s": "s",
    "circuit.build_s": "s",
    "circuit.steps": "count",
    "circuit.lu_solves": "count",
    "circuit.columns": "count",
    "circuit.us_per_column_step": "us",
    "health.fallbacks": "count",
    "pipeline.cache_hits": "count",
    "pipeline.cache_misses": "count",
    "pipeline.cache_writes": "count",
    "pipeline.cache_hit_ratio": "ratio",
    "sweep.screen_s": "s",
    "sweep.simulate_s": "s",
    "sweep.assemble_s": "s",
    "sweep.groups": "count",
    "sweep.columns_per_group": "count",
    "service.queue_wait_ms": "ms",
    "service.extract_ms": "ms",
    "service.screen_ms": "ms",
    "service.simulate_ms": "ms",
    "service.overhead_ms": "ms",
    "service.shm_hit_ratio": "ratio",
    "service.shards": "count",
    "unattributed_s": "s",
    "trace.overhead_frac": "ratio",
}

#: Per-layer metrics that are counts of work: they must repeat exactly.
COUNT_METRICS = tuple(name for name, unit in PER_LAYER.items()
                      if unit == "count") + ("noise.horizon_ps",)


def import_probe(modules: Tuple[str, ...]) -> None:
    """Start a fresh interpreter that imports the workload's modules."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            f"import {', '.join(modules)}")
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics.

    The ``inclusive`` method never leaves the sample range; the default
    ``exclusive`` one extrapolates past the largest of a few samples,
    which made batch workloads' p90 swing with the two slowest
    operations.
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_checksum(checksums: List[str]) -> str:
    return hashlib.sha256("".join(checksums).encode()).hexdigest()


class Samples:
    """Timed wall times, each with the reference times around it."""

    def __init__(self) -> None:
        self.wall: List[float] = []
        self.reference: List[Tuple[float, float]] = []

    def add(self, seconds: float, before: float, after: float) -> None:
        self.wall.append(seconds)
        self.reference.append((before, after))

    def scaled(self) -> List[float]:
        """The wall times at reference speed."""
        return [host.at_reference_speed(s, *r)
                for s, r in zip(self.wall, self.reference)]

    def record(self) -> Dict[str, Any]:
        return {"wall_s": self.wall, "reference_s": self.reference,
                "scaled_s": self.scaled()}


def end_to_end(setups: Samples, latencies: Samples,
               rss: float) -> Dict[str, float]:
    """The end-to-end metrics: times at reference speed, medians."""
    scaled = latencies.scaled()
    return {
        "setup_s": statistics.median(setups.scaled()),
        "latency_p50_ms": statistics.median(scaled) * 1e3,
        "latency_p90_ms": percentile(scaled, 90) * 1e3,
        "peak_rss_mb": rss,
    }


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
def batch_untraced(cls: type, args: argparse.Namespace,
                   workdir: Path) -> Dict[str, Any]:
    setups = Samples()
    for repeat in range(SETUP_REPEATS):
        before = host.reference_seconds()
        start = time.perf_counter()
        import_probe(cls.imports)
        workload = cls(args.seed, workdir, args.tiny)
        workload.prepare()
        for k in range(WARMUP_OPS):
            workload.op(0, repeat, k)
        setups.add(time.perf_counter() - start, before,
                   host.reference_seconds())
        if repeat < SETUP_REPEATS - 1:
            workload.close()

    results, errors = [], []
    latencies = Samples()
    attempted = raised = 0
    before = host.reference_seconds()
    start = time.perf_counter()
    while attempted < MIN_OPS or time.perf_counter() - start < args.seconds:
        began = time.perf_counter()
        attempted += 1
        try:
            result = workload.op(1, attempted - 1)
        except Exception as error:  # noqa: BLE001 - counted as failed
            raised += 1
            errors.append(f"op {attempted - 1}: {error!r}")
            before = host.reference_seconds()
            continue
        result.seconds = time.perf_counter() - began
        after = host.reference_seconds()
        latencies.add(result.seconds, before, after)
        before = after
        results.append(result)
    rss = peak_rss_mb()

    if args.corrupt and results:
        workload.corrupt(results[0])
    failed_ops = check_batch(workload, results, errors)
    workload.close()
    return {
        "attempted": attempted,
        "failed": raised + len(failed_ops),
        "errors": errors,
        "metrics": end_to_end(setups, latencies, rss),
        "samples": {"setup": setups.record(), "latency": latencies.record()},
        "checksum": run_checksum([r.checksum for r in results[:MIN_OPS]]),
        "counts": results[0].counts if results else {},
    }


def check_batch(workload: Any, results: List[Any],
                errors: List[str]) -> List[int]:
    """Per-operation checks plus one deep check; returns failed ops."""
    failed = set()
    for index, result in enumerate(results):
        problems = workload.check(result, results[0])
        if problems:
            failed.add(index)
            errors.extend(f"op {index}: {p}" for p in problems[:5])
    if results:
        problems = workload.deep_check(results[0])
        if problems:
            failed.add(0)
            errors.extend(f"op 0 deep check: {p}" for p in problems[:5])
    return sorted(failed)


def batch_traced(cls: type, args: argparse.Namespace,
                 workdir: Path) -> Dict[str, Any]:
    import tracing
    from repro.pipeline.profiling import collect

    workload = cls(args.seed, workdir, args.tiny)
    workload.prepare()
    for k in range(WARMUP_OPS):
        workload.op(0, 0, k)
    # The same operations untraced first: the checksums must agree,
    # and the time difference is the tracing overhead.
    began = time.perf_counter()
    baseline = [workload.op(2, k) for k in range(TRACE_OPS)]
    baseline_seconds = time.perf_counter() - began

    tracer = tracing.Tracer()
    results = []
    with collect() as profile, tracing.RssSampler() as sampler, \
            tracing.instrumented(tracer):
        for k in range(TRACE_OPS):
            with tracer.span("op", None) as root:
                results.append(workload.op(2, k))
            results[-1].seconds = root.seconds

    metrics = layer_metrics(tracer, profile.counters, sampler, results)
    metrics["trace.overhead_frac"] = (
        sum(r.seconds for r in results) / baseline_seconds - 1.0)

    errors: List[str] = []
    if args.corrupt:
        workload.corrupt(results[0])
    failed_ops = check_batch(workload, results, errors)
    for k, (traced, untraced) in enumerate(zip(results, baseline)):
        if traced.checksum != untraced.checksum:
            errors.append(f"op {k}: traced output checksum differs from "
                          "untraced")
            failed_ops = sorted(set(failed_ops) | {k})
    workload.close()
    return traced_record(tracer, metrics, [r.checksum for r in results],
                         errors, len(failed_ops), len(results), "s")


def layer_metrics(tracer: Any, counters: Dict[str, int], sampler: Any,
                  results: List[Any]) -> Dict[str, float]:
    import tracing

    spans = tracer.spans
    ops = len(results)
    c = {name: value / ops for name, value in counters.items()}
    facts = {name: value / ops for name, value in tracer.facts.items()}

    def busy(name: str) -> float:
        return tracing.layer_seconds(spans, name) / ops

    def peak(name: str) -> float:
        return max((sampler.growth_mb(s) for s in spans if s.name == name),
                   default=0.0)

    reports = [r for res in results for r in res.reports]
    escalated = [(v, rep.threshold) for rep in reports for v in rep.victims
                 if v.escalated]
    precision = (sum(1 for v, t in escalated if (v.sim_peak or 0.0) >= t)
                 / len(escalated)) if escalated else 0.0
    hits, misses = c.get("cache_hits", 0.0), c.get("cache_misses", 0.0)
    groups = c.get("noise_sweep_sim_groups", 0.0)
    steps = c.get("transient_steps", 0.0)
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update({
        "extraction.busy_s": busy("extraction.extract"),
        "extraction.peak_mb": peak("extraction.extract"),
        "vpec.busy_s": busy("vpec.build_model"),
        "vpec.peak_mb": peak("vpec.build_model"),
        "vpec.stamped_elements": c.get("stamped_elements", 0.0),
        "vpec.window_dedup_hits": c.get("window_dedup_hits", 0.0),
        "noise.screen_s": busy("noise.screen"),
        "noise.arrival_s": busy("noise.arrival"),
        "noise.pairs_s": busy("noise.pairs"),
        "noise.align_s": busy("noise.align"),
        "noise.pairs_screened": c.get("noise_pairs_screened", 0.0),
        "noise.escalated": c.get("noise_victims_escalated", 0.0),
        "noise.kappa_out_of_range": c.get("noise_kappa_out_of_range", 0.0),
        "noise.horizon_ps": round(
            tracer.facts.get("noise.horizon_s", 0.0) * 1e12, 6),
        "noise.screen_precision": precision,
        "circuit.busy_s": busy("circuit.transient"),
        "circuit.build_s": facts.get("circuit.build_s", 0.0),
        "circuit.steps": steps,
        "circuit.lu_solves": facts.get("circuit.lu_solves", 0.0),
        "circuit.columns": facts.get("circuit.columns", 0.0),
        "circuit.us_per_column_step": (
            busy("circuit.transient") * 1e6 / steps if steps else 0.0),
        "health.fallbacks": sum(c.get(name, 0.0) for name in (
            "solve_fallbacks", "window_fallback_batches",
            "window_cg_fallbacks", "hier_aca_fallbacks")),
        "pipeline.cache_hits": hits,
        "pipeline.cache_misses": misses,
        "pipeline.cache_writes": c.get("cache_writes", 0.0),
        "pipeline.cache_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0),
        "sweep.screen_s": busy("sweep.screen"),
        "sweep.simulate_s": busy("sweep.simulate"),
        "sweep.assemble_s": busy("sweep.assemble"),
        "sweep.groups": groups,
        "sweep.columns_per_group": (
            c.get("noise_sweep_batched_columns", 0.0) / groups
            if groups else 0.0),
    })
    table = tracing.self_times(spans)
    metrics["unattributed_s"] = table[tracing.UNATTRIBUTED] / ops
    return metrics


def traced_record(tracer: Any, metrics: Dict[str, float],
                  checksums: List[str], errors: List[str], failed: int,
                  attempted: int, unit: str) -> Dict[str, Any]:
    import tracing

    roots = tracer.roots()
    wall = sum(s.seconds for s in roots)
    table = tracing.self_times(tracer.spans)
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
        "self_time": table,
        "traced_wall": wall,
        "table_text": tracing.format_table(table, wall, unit),
        "trace": tracing.chrome_trace(tracer.spans, os.getpid()),
        "checksum": run_checksum(checksums),
        "counts": {name: metrics[name] for name in COUNT_METRICS},
    }


# ----------------------------------------------------------------------
# service_mix
# ----------------------------------------------------------------------
def service_untraced(args: argparse.Namespace,
                     workdir: Path) -> Dict[str, Any]:
    from service_mix import MIN_REQUESTS, ServiceMix

    setups = Samples()
    for repeat in range(SETUP_REPEATS):
        before = host.reference_seconds()
        start = time.perf_counter()
        import_probe(ServiceMix.imports)
        workload = ServiceMix(args.seed, workdir, repeat)
        workload.prepare()
        workload.warm_up()
        setups.add(time.perf_counter() - start, before,
                   host.reference_seconds())
        if repeat < SETUP_REPEATS - 1:
            workload.close()

    minimum = 10 if args.tiny else MIN_REQUESTS
    replies = workload.run(seconds=args.seconds, min_requests=minimum)
    rss = peak_rss_mb() + workload.worker_peak_mb()
    workload.close()
    if args.corrupt:
        replies[0].final["checksum"] = "corrupted"
    problems = workload.check(replies)
    latencies = Samples()
    for reply in replies:
        latencies.add(reply.seconds, *reply.reference)
    return {
        "attempted": len(replies),
        "failed": len({index for index, _ in problems}),
        "errors": [f"request {i}: {p}" for i, p in problems[:10]],
        "metrics": end_to_end(setups, latencies, rss),
        "samples": {"setup": setups.record(), "latency": latencies.record()},
        "checksum": run_checksum([str(r.final.get("checksum"))
                                  for r in replies[:minimum]]),
        "counts": {},
    }


def service_traced(args: argparse.Namespace,
                   workdir: Path) -> Dict[str, Any]:
    import inputs
    import tracing
    from service_mix import ServiceMix

    workload = ServiceMix(args.seed, workdir)
    workload.prepare()
    workload.warm_up()
    per_round = len(inputs.SERVICE_ROUND)
    baseline = workload.run(max_requests=per_round)
    shm_before = workload.shm_stats()
    window_start = time.perf_counter()
    replies = workload.run(max_requests=TRACE_OPS * per_round, stream=True)
    window_end = time.perf_counter()
    shm_after = workload.shm_stats()
    workload.close()
    if args.corrupt:
        replies[0].final["checksum"] = "corrupted"
    problems = workload.check(baseline + replies)

    tracer = tracing.Tracer()
    stages = service_spans(tracer, replies, window_start, window_end)
    count = len(replies)
    hits = shm_after["hits"] - shm_before["hits"]
    misses = shm_after["misses"] - shm_before["misses"]
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update({
        f"service.{stage}_ms": seconds * 1e3 / count
        for stage, seconds in stages.items()
    })
    metrics["service.shm_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)
    metrics["service.shards"] = sum(
        e.get("shards", 0) for r in replies for _, e in r.events
        if e.get("stage") == "simulate") / count
    table = tracing.self_times(tracer.spans)
    metrics["unattributed_s"] = table[tracing.UNATTRIBUTED] / count
    mean = statistics.fmean
    metrics["trace.overhead_frac"] = (
        mean(r.seconds for r in replies)
        / mean(r.seconds for r in baseline) - 1.0)

    return traced_record(tracer, metrics,
                         [str(r.final.get("checksum")) for r in replies],
                         [f"request {i}: {p}" for i, p in problems],
                         len({i for i, _ in problems}),
                         len(baseline) + count, "client-s")


def service_spans(tracer: Any, replies: List[Any], start: float,
                  end: float) -> Dict[str, float]:
    """Rebuild each client lane's spans from streamed event times.

    A request's stages run from the event that announces them to the
    next event; queue wait runs from ``accepted`` to ``running``.  The
    rest of the round trip is service overhead, and a lane's time
    between requests is unattributed.  Returns summed stage seconds.
    """
    layers = {"queue_wait": "service", "extract": "extraction",
              "screen": "noise", "simulate": "circuit"}
    totals = {stage: 0.0 for stage in layers}
    totals["overhead"] = 0.0
    lanes = sorted({r.lane for r in replies})
    for lane in lanes:
        root = tracer.open("client", None, lane=lane, start=start)
        for reply in (r for r in replies if r.lane == lane):
            request = tracer.open("request", "service", lane=lane,
                                  start=reply.sent)
            request.args = {"op": reply.payload["op"],
                            "index": reply.index}
            marks = []
            for (t, event), (t_next, _) in zip(
                    reply.events,
                    reply.events[1:] + [(reply.received, {})]):
                kind = event.get("event")
                if kind == "accepted":
                    marks.append(("queue_wait", t, None))
                elif kind == "running" and marks and \
                        marks[-1][0] == "queue_wait":
                    marks[-1] = ("queue_wait", marks[-1][1], t)
                elif kind == "progress" and event.get("stage") in layers:
                    marks.append((event["stage"], t, t_next))
            for stage, t0, t1 in marks:
                if t1 is None:
                    continue
                span = tracer.open(f"service.{stage}", layers[stage],
                                   lane=lane, start=t0)
                tracer.close(span, end=t1)
                totals[stage] += t1 - t0
            tracer.close(request, end=reply.received)
            totals["overhead"] += reply.seconds - sum(
                t1 - t0 for _, t0, t1 in marks if t1 is not None)
        tracer.close(root, end=end)
    return totals


# ----------------------------------------------------------------------
def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken inputs, for the self-test")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage one result before checking it, "
                             "for the self-test")
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    # Anything that falls back to the program's default disk cache
    # writes inside the checkout, and is removed with the workdir.
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "default-cache")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}",
              file=sys.stderr)
        shutil.rmtree(workdir, ignore_errors=True)
        return 2
    try:
        record = execute(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        stop_resource_tracker()

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace = record.pop("trace", None)
    if trace is not None:
        (OUT / f"{stem}.trace.json").write_text(json.dumps(trace))
        print(f"[{args.workload}] self time per layer "
              f"({TRACE_OPS} traced operations):\n{record['table_text']}",
              file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": float(record["metrics"][name]),
                      "unit": unit} for name, unit in units.items()}
    record.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        seconds=args.seconds, tiny=args.tiny,
        fingerprint=host.fingerprint(ROOT),
    )
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1,
                                                 default=float))
    for error in record["errors"][:10]:
        print(f"[{args.workload}] {error}", file=sys.stderr)
    result = {
        "correct": record["failed"] == 0,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def execute(args: argparse.Namespace, workdir: Path) -> Dict[str, Any]:
    if args.workload == "service_mix":
        run = service_traced if args.trace else service_untraced
        return run(args, workdir)
    from workloads import BATCH_WORKLOADS

    cls = BATCH_WORKLOADS[args.workload]
    run = batch_traced if args.trace else batch_untraced
    return run(cls, args, workdir)


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker if the service started it."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker,
                                                              "_stop"):
        tracker._stop()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
