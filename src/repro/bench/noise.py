"""The noise-engine benchmark suite (``BENCH_noise.json``).

Counterpart of :mod:`repro.bench.sim` for the static noise engine:

- ``noise_screen_bus256``: the vectorized closed-form screening tier --
  pair estimates plus worst-case alignment for every victim of a
  256-bit bus under the default scattered schedule (extraction is an
  untimed shared fixture);
- ``noise_engine_bus64`` / variant ``tiered``: the full
  screen-then-simulate scan of the 64-bit acceptance workload;
- ``noise_engine_bus64`` / variant ``fullsim``: the same scan with the
  escalation threshold forced to zero, so *every* victim is simulated
  -- the no-screening reference whose runtime, divided by the tiered
  run's, is the committed screening-vs-simulation throughput ratio.

The two engine variants are never cross-compared by the regression
checker (different variants), so their different checksums are fine;
each variant's checksum pins its own per-victim peak vector.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

import numpy as np

from repro.bench.results import BenchResult, array_checksum
from repro.bench.runner import _best_time
from repro.extraction.parasitics import extract
from repro.geometry.bus import aligned_bus
from repro.noise.engine import NoiseConfig, default_schedule, run_noise_scan
from repro.noise.screening import screen_pairs
from repro.noise.windows import sensitive_windows
from repro.noise.worst_case import align_all

NOISE_KERNELS = (
    "noise_screen_bus256",
    "noise_engine_bus64",
)

#: Threshold fraction that forces every victim into the simulation
#: tier (the no-screening reference variant).
_FULLSIM_FRACTION = 1e-9


def _screen_workload(size: int, config: NoiseConfig):
    parasitics = extract(aligned_bus(size))

    def run():
        schedule = default_schedule(parasitics, config)
        sensitive = sensitive_windows(schedule, config.period)
        estimates = screen_pairs(parasitics, config.screen_config)
        alignments = align_all(
            estimates.peak,
            estimates.area,
            schedule,
            sensitive,
            config.threshold,
        )
        return estimates, alignments

    return run


def _report_checksum(report) -> str:
    peaks = np.array([v.effective_peak for v in report.victims])
    escalated = np.array(
        [float(v.escalated) for v in report.victims]
    )
    return array_checksum(peaks, escalated)


def run_noise_suite(
    kernels: Optional[Sequence[str]] = None,
    size: int = 256,
    engine_size: int = 64,
    repeats: int = 3,
) -> List[BenchResult]:
    """Execute the noise suite; one :class:`BenchResult` per (kernel, variant).

    ``size`` scales the screening workload and ``engine_size`` the
    tiered-engine workload (shrink both for tests); kernel names keep
    their canonical workload spellings with the actual size in the
    ``size`` field, as the other suites do.  The engine kernels run
    once per measurement (no best-of-``repeats``): a scan is seconds
    long and its runtime variance is far below the regression gate.
    """
    selected = tuple(kernels) if kernels is not None else NOISE_KERNELS
    unknown = set(selected) - set(NOISE_KERNELS)
    if unknown:
        raise ValueError(f"unknown kernels: {sorted(unknown)}")

    config = NoiseConfig()
    results: List[BenchResult] = []

    if "noise_screen_bus256" in selected:
        workload = _screen_workload(size, config)
        seconds, (estimates, alignments) = _best_time(workload, repeats)
        totals = np.array([a.peak for a in alignments])
        results.append(
            BenchResult(
                kernel="noise_screen_bus256",
                variant="vectorized",
                size=size,
                seconds=seconds,
                checksum=array_checksum(estimates.peak, totals),
            )
        )

    if "noise_engine_bus64" in selected:
        parasitics = extract(aligned_bus(engine_size))
        seconds, report = _best_time(
            lambda: run_noise_scan(parasitics, config=config), 1
        )
        results.append(
            BenchResult(
                kernel="noise_engine_bus64",
                variant="tiered",
                size=engine_size,
                seconds=seconds,
                checksum=_report_checksum(report),
            )
        )
        fullsim_config = replace(
            config, threshold_fraction=_FULLSIM_FRACTION
        )
        seconds, report = _best_time(
            lambda: run_noise_scan(parasitics, config=fullsim_config), 1
        )
        results.append(
            BenchResult(
                kernel="noise_engine_bus64",
                variant="fullsim",
                size=engine_size,
                seconds=seconds,
                checksum=_report_checksum(report),
            )
        )

    return results
