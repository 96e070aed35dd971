#!/usr/bin/env python3
"""Self-test of the benchmark itself, on shrunken inputs (a few minutes).

    python3 noisebench/selftest.py [workload ...]

Checks that:

- BENCHMARK.json declares exactly the metrics and units run.py prints;
- scan_escalate's planted schedules escalate the same number of victims
  to the same horizon under three seeds;
- every declared metric appears with its unit, untraced and traced;
- counts repeat exactly across two traced runs of one seed;
- a deliberately corrupted result is counted as failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from typing import Any, Dict, List

import run

SEED = 5


def invoke(workload: str, trace: int, *extra: str) -> Dict[str, Any]:
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--tiny", *extra],
        cwd=run.ROOT, capture_output=True, text=True, timeout=900,
    )
    if out.returncode != 0:
        raise AssertionError(f"{workload}: exit {out.returncode}\n"
                             f"{out.stderr[-3000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    stem = f"{workload}-seed{SEED}-trace{trace}"
    record = json.loads((run.OUT / f"{stem}.json").read_text())
    return {"result": result, "record": record}


def check_declared() -> List[str]:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for section, printed in (("end_to_end", run.END_TO_END),
                             ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in bench[section]}
        if declared != printed:
            problems.append(f"BENCHMARK.json {section} differs from run.py")
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    return problems


def check_planted_invariance() -> List[str]:
    """Escalated count and horizon under three seeds (screen tier only)."""
    sys.path.insert(0, str(run.SRC))
    import inputs
    from repro.noise import engine
    from repro.pipeline.cache import cached_extract

    parasitics = cached_extract(inputs.scan_geometry(), cache=None)
    config = engine.NoiseConfig()
    seen = set()
    problems = []
    for seed in (1, 2, 3):
        planted = inputs.planted_schedule(
            inputs.rng_for("scan_escalate", seed, 1, 0))
        screen = engine.screen_tier(parasitics, config, planted.switching)
        victims = tuple(a.victim for a in screen.escalated)
        if victims != planted.victims:
            problems.append(f"seed {seed}: escalated {victims}, planted "
                            f"{planted.victims}")
        horizon = engine.escalation_horizon(screen.escalated, config,
                                            planted.switching)
        seen.add((len(victims), round(horizon * 1e12, 9)))
    if len(seen) != 1:
        problems.append(f"escalated count / horizon vary with the seed: "
                        f"{sorted(seen)}")
    return problems


def check_unique_requests() -> List[str]:
    """No service request repeats within the rounds a run can send."""
    import inputs
    from repro.service.jobs import JobRequest
    from service_mix import ROUNDS

    payloads = inputs.service_requests(
        inputs.rng_for("service_mix", SEED, 0), ROUNDS)
    keys = {JobRequest.from_dict(p).key() for p in payloads}
    if len(keys) != len(payloads):
        return [f"{len(payloads) - len(keys)} service requests repeat"]
    return []


def check_metrics(result: Dict[str, Any], units: Dict[str, str],
                  label: str) -> List[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    for name, unit in units.items():
        metric = result["metrics"].get(name)
        if metric is None or metric.get("unit") != unit:
            problems.append(f"{label}: metric {name} missing or not {unit}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{label}: {result['failed']} failed of "
                        f"{result['attempted']}")
    return problems


def check_workload(workload: str) -> List[str]:
    problems = []
    untraced = invoke(workload, 0)
    problems += check_metrics(untraced["result"], run.END_TO_END,
                              f"{workload} untraced")
    first, second = invoke(workload, 1), invoke(workload, 1)
    for attempt in (first, second):
        problems += check_metrics(attempt["result"], run.PER_LAYER,
                                  f"{workload} traced")
    if first["record"]["counts"] != second["record"]["counts"]:
        problems.append(f"{workload}: counts differ between traced runs: "
                        f"{first['record']['counts']} vs "
                        f"{second['record']['counts']}")
    if first["record"]["checksum"] != second["record"]["checksum"]:
        problems.append(f"{workload}: traced checksums differ")
    corrupted = invoke(workload, 1, "--corrupt")["result"]
    if corrupted["correct"] or corrupted["failed"] < 1:
        problems.append(f"{workload}: a corrupted result was not counted "
                        "as failed")
    return problems


def main(argv: List[str]) -> int:
    workloads = argv or list(run.WORKLOADS)
    problems = (check_declared() + check_planted_invariance()
                + check_unique_requests())
    for workload in workloads:
        found = check_workload(workload)
        print(f"{workload}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += found
    for problem in problems:
        print(f"  {problem}")
    print("self-test", "passed" if not problems else "FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
