"""The batch workloads: inputs, one operation, and its correctness checks.

Each workload drives the program only through its public entry points,
looked up as module attributes at call time so that a traced run can
wrap them (see :mod:`tracing`).  An operation returns an :class:`Op`:
a checksum of its output, deterministic counts, and the objects the
checks need.  Checks run after the timed window, never between timed
operations.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

import inputs
from repro.experiments.runner import gw_spec
from repro.noise import engine, sweep
from repro.noise.engine import NoiseConfig
from repro.pipeline import cache as pipeline_cache

#: Relative peak tolerance wherever two code paths are compared; the
#: committed goldens pin peaks at 1e-9 relative, blocked multi-RHS
#: solves agree with single-RHS ones to about 1e-10.
PEAK_RTOL = 1e-6
#: Bound on the verify tier's batched-vs-independent relative peak
#: deviation.  The two paths solve different circuits, so rounding
#: differs: planted schedules reach about 2.5e-9 on victims whose peak
#: is a fifth of the supply.
VERIFY_BOUND = PEAK_RTOL


@dataclass
class Op:
    checksum: str
    counts: Dict[str, float]
    #: The scan reports the operation produced.
    reports: List[Any]
    #: Whatever else the checks need.
    data: Any = None
    seconds: float = 0.0


def digest(*arrays: Any) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(np.asarray(array, dtype=float))
                   .tobytes())
    return sha.hexdigest()


def report_arrays(report: Any) -> Tuple[np.ndarray, np.ndarray]:
    peaks = np.array([v.effective_peak for v in report.victims])
    escalated = np.array([float(v.escalated) for v in report.victims])
    return peaks, escalated


class _Horizon:
    """Duck-typed alignment for :func:`engine.escalation_horizon`."""

    def __init__(self, victim: Any) -> None:
        self.time = victim.alignment_time
        self.aggressors = victim.aligned


def scan_horizon(report: Any) -> float:
    escalated = [_Horizon(v) for v in report.victims if v.escalated]
    if not escalated:
        return 0.0
    return engine.escalation_horizon(escalated, report.config,
                                     report.switching)


def screen_problems(report: Any) -> List[str]:
    """Tier invariants every scan report must satisfy."""
    problems = []
    for v in report.victims:
        if not np.isfinite(v.screen_peak):
            problems.append(f"victim {v.wire}: non-finite screen bound")
        elif v.escalated:
            if v.sim_peak is None or not np.isfinite(v.sim_peak):
                problems.append(f"victim {v.wire}: no simulated peak")
            elif not 0.0 <= v.sim_peak <= v.screen_peak:
                problems.append(
                    f"victim {v.wire}: simulated {v.sim_peak:.6g} V "
                    f"above its screen bound {v.screen_peak:.6g} V")
        elif v.screen_peak >= report.threshold:
            problems.append(f"victim {v.wire}: screened out at or above "
                            "the threshold")
    return problems


def compare_reports(got: Any, want: Any, label: str,
                    scale: float = 1.0) -> List[str]:
    """Decisions exact, peaks within :data:`PEAK_RTOL` (after ``scale``)."""
    got_peaks, got_esc = report_arrays(got)
    want_peaks, want_esc = report_arrays(want)
    if not np.array_equal(got_esc, want_esc):
        return [f"{label}: escalation decisions differ"]
    if not np.allclose(got_peaks, want_peaks * scale, rtol=PEAK_RTOL,
                       atol=0.0):
        worst = np.max(np.abs(got_peaks - want_peaks * scale)
                       / np.maximum(np.abs(want_peaks * scale), 1e-30))
        return [f"{label}: peaks differ (max relative {worst:.3g})"]
    return []


class Workload:
    """Base of the batch workloads (one operation at a time)."""

    name = ""
    #: Modules a fresh interpreter imports during set-up.
    imports: Tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path, tiny: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny

    def rng(self, *key: int) -> np.random.Generator:
        return inputs.rng_for(self.name, self.seed, *key)

    def prepare(self) -> None:
        """Input generation and fixtures shared by every operation."""

    def op(self, *key: int) -> Op:
        raise NotImplementedError

    def check(self, result: Op, reference: Op) -> List[str]:
        return []

    def deep_check(self, result: Op) -> List[str]:
        """One expensive cross-check per run, on one operation's inputs."""
        return []

    def corrupt(self, result: Op) -> None:
        """Damage a result the way a wrong answer would (self-test)."""
        raise NotImplementedError

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
class ScanEscalate(Workload):
    """Extraction plus a gw8 tiered scan of a 64-bit bus, planted schedule."""

    name = "scan_escalate"
    imports = ("repro.pipeline.cache", "repro.noise.engine")

    def prepare(self) -> None:
        self.system = inputs.scan_geometry()
        self.config = NoiseConfig()
        self.expected_horizon = (inputs.BURST_TIMES[1]
                                 + self.config.rise_time
                                 + self.config.settle_time)

    def _scan(self, planted: inputs.PlantedSchedule, verify: bool) -> Any:
        parasitics = pipeline_cache.cached_extract(self.system, cache=None)
        return engine.run_noise_scan(
            parasitics,
            spec=gw_spec(8),
            config=self.config,
            switching=list(planted.switching),
            verify=verify,
        )

    def op(self, *key: int) -> Op:
        planted = inputs.planted_schedule(self.rng(*key))
        report = self._scan(planted, verify=False)
        peaks, escalated = report_arrays(report)
        return Op(
            checksum=digest(peaks, escalated),
            counts={"escalated": report.num_escalated,
                    "horizon_ps": round(scan_horizon(report) * 1e12, 6)},
            reports=[report],
            data=planted,
        )

    def check(self, result: Op, reference: Op) -> List[str]:
        planted, report = result.data, result.reports[0]
        got = tuple(v.wire for v in report.victims if v.escalated)
        problems = screen_problems(report)
        if got != planted.victims:
            problems.append(f"escalated {got}, planted {planted.victims}")
        horizon = scan_horizon(report)
        if abs(horizon - self.expected_horizon) > 1e-15:
            problems.append(f"horizon {horizon:.6g} s, expected "
                            f"{self.expected_horizon:.6g} s")
        return problems

    def deep_check(self, result: Op) -> List[str]:
        planted, report = result.data, result.reports[0]
        verified = self._scan(planted, verify=True)
        problems = compare_reports(verified, report, "verify scan")
        for v in verified.victims:
            if v.escalated and not (v.verify_deviation is not None
                                    and v.verify_deviation <= VERIFY_BOUND):
                problems.append(f"victim {v.wire}: batched-vs-independent "
                                f"deviation {v.verify_deviation}")
        return problems

    def corrupt(self, result: Op) -> None:
        report = result.reports[0]
        victim = next(v for v in report.victims if v.escalated)
        index = report.victims.index(victim)
        report.victims[index] = replace(victim,
                                        sim_peak=2.0 * victim.screen_peak)


# ----------------------------------------------------------------------
class SweepFamily(Workload):
    """A cold nw-model sweep: 3 geometries x 4 densities, fresh cache."""

    name = "sweep_family"
    imports = ("repro.pipeline.cache", "repro.noise.sweep")

    def prepare(self) -> None:
        self.cache_root = self.workdir / "sweep-cache"
        shutil.rmtree(self.cache_root, ignore_errors=True)
        self.cache_root.mkdir(parents=True)
        self._ops = 0

    def op(self, *key: int) -> Op:
        grid = inputs.sweep_grid(self.rng(*key), tiny=self.tiny)
        self._ops += 1
        cache = pipeline_cache.PipelineCache(self.cache_root / str(self._ops))
        report = sweep.run_sweep(grid, parallel=1, cache=cache)
        reports = [r.report for r in report.results]
        arrays = [a for r in reports for a in report_arrays(r)]
        return Op(
            checksum=digest(*arrays),
            counts={"scenarios": len(reports),
                    "escalated": sum(r.num_escalated for r in reports),
                    "cache_hits": cache.stats.hits,
                    "cache_misses": cache.stats.misses,
                    "cache_writes": cache.stats.writes},
            reports=reports,
            data=grid,
        )

    def check(self, result: Op, reference: Op) -> List[str]:
        grid, reports = result.data, result.reports
        ref_grid, ref_reports = reference.data, reference.reports
        scale = grid.base.vdd / ref_grid.base.vdd
        problems = []
        for scenario, got, want in zip(grid.scenarios(), reports,
                                       ref_reports):
            problems += screen_problems(got)
            problems += compare_reports(got, want, scenario.label, scale)
        if not (result.counts["cache_hits"] and
                result.counts["cache_writes"]):
            problems.append("cold sweep made no cache hits or writes")
        return problems

    def deep_check(self, result: Op) -> List[str]:
        """Every scenario against its own cold, independent scan."""
        grid, reports = result.data, result.reports
        problems = []
        for scenario, report in zip(grid.scenarios(), reports):
            parasitics = pipeline_cache.cached_extract(
                scenario.geometry().build(), cache=None)
            independent = engine.run_noise_scan(
                parasitics, grid.model, scenario.config(grid.base),
                cache=None)
            problems += compare_reports(report, independent,
                                        f"independent {scenario.label}")
        return problems

    def corrupt(self, result: Op) -> None:
        reports = result.reports
        victim = reports[0].victims[0]
        reports[0].victims[0] = replace(victim,
                                        escalated=not victim.escalated)

    def close(self) -> None:
        shutil.rmtree(self.cache_root, ignore_errors=True)


BATCH_WORKLOADS: Dict[str, type] = {
    w.name: w for w in (ScanEscalate, SweepFamily)
}
