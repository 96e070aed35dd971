"""Worker-side computation of the analysis service.

Every function here is module-level and operates on plain picklable
data, so the service can run it either in a worker process (via the
pool) or inline in a thread -- the code path is identical.  Noise-job
workers never receive a :class:`~repro.extraction.parasitics.Parasitics`
object over the pipe: they receive a *shared-memory segment name* and
attach zero-copy views (:func:`repro.service.shm.attach_parasitics`).

Noise and sweep jobs run the tiered plan of :mod:`repro.noise.engine`
(screen -> group -> simulate -> assemble) through two work items:
:func:`screen_worker` screens one scan (a noise job's shared-memory
parasitics, or one sweep scenario), and :func:`escalate_worker`
simulates one batch of escalated columns.  A noise job splits its
columns across workers (:func:`shard_alignments`); a sweep simulates
each compatibility group as one batch.  Every column is an independent
RHS of the shared factorization, truncated to its own scan's horizon,
so the merged metrics are bit-identical to the one-shot
:func:`~repro.noise.engine.run_noise_scan` and
:func:`~repro.noise.sweep.run_sweep` -- the equivalence the service
bench's checksums pin.

:func:`oneshot_result` is the reference path: the exact computation a
one-shot CLI invocation performs, used by the load-test bench (and the
tests) to prove service results checksum-identical to CLI results.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.analysis.signal_integrity import NoiseReport, crosstalk_report
from repro.bench.results import array_checksum
from repro.circuit.sources import step
from repro.experiments.jobs import GeometrySpec as ScenarioGeometry
from repro.experiments.runner import ModelSpec, build_model
from repro.extraction.parasitics import Parasitics
from repro.noise.engine import (
    EscalationTierResult,
    NoiseConfig,
    NoiseScanReport,
    ScreenTierResult,
    default_schedule,
    run_noise_scan,
    screen_tier,
    simulate_escalated,
)
from repro.noise.sweep import (
    Scenario,
    SweepReport,
    _ScreenedScenario,
    _screen_scenario,
    run_sweep,
    sweep_report_checksum,
)
from repro.noise.worst_case import Alignment
from repro.pipeline.cache import (
    PipelineCache,
    cached_extract,
    resolve_cache,
)
from repro.service.jobs import GeometrySpec, JobRequest, SimParams
from repro.service.shm import attach_parasitics


def _disk_cache(cache_dir: Optional[str]) -> Optional[PipelineCache]:
    """A disk cache at ``cache_dir``, or ``None`` when disabled."""
    return resolve_cache(cache_dir, enabled=cache_dir is not None)


# ----------------------------------------------------------------------
# Work items (run in pool workers or inline)
# ----------------------------------------------------------------------
def extract_worker(
    geometry: GeometrySpec, cache_dir: Optional[str]
) -> Parasitics:
    """Build a geometry and extract its parasitics (disk cache aware)."""
    return cached_extract(geometry.build(), cache=_disk_cache(cache_dir))


def screen_worker(
    unit: Union[str, Scenario],
    config: NoiseConfig,
    spec: ModelSpec,
    cache_dir: Optional[str],
) -> Union[ScreenTierResult, _ScreenedScenario]:
    """The screen work item of one scan.

    A noise job's ``unit`` is the shared-memory segment of its
    parasitics, screened under ``config`` and the default schedule.  A
    sweep's ``unit`` is one :class:`~repro.noise.sweep.Scenario` under
    the grid's base ``config``: scenarios carry their own geometry, so
    they extract (and check for a finished scan) through the disk cache
    rather than shared memory -- sweep grids span many geometries and
    the cache is their sharing medium.
    """
    if isinstance(unit, str):
        parasitics = attach_parasitics(unit)
        return screen_tier(
            parasitics, config, default_schedule(parasitics, config)
        )
    return _screen_scenario(
        unit, base=config, model=spec, cache=_disk_cache(cache_dir)
    )


def escalate_worker(
    source: Union[str, ScenarioGeometry],
    spec: ModelSpec,
    screens: Sequence[ScreenTierResult],
    cache_dir: Optional[str],
) -> EscalationTierResult:
    """The simulate work item: one batch of escalated columns.

    ``source`` is a noise job's shared-memory segment or a sweep
    group's scenario geometry (extracted through the disk cache).
    """
    cache = _disk_cache(cache_dir)
    parasitics = (
        attach_parasitics(source)
        if isinstance(source, str)
        else cached_extract(source.build(), cache=cache)
    )
    return simulate_escalated(parasitics, spec, screens, cache=cache)


def simulate_worker(
    segment: str,
    spec: ModelSpec,
    params: SimParams,
    cache_dir: Optional[str],
) -> Dict[str, Any]:
    """One crosstalk simulation: build the model, run the testbench."""
    parasitics = attach_parasitics(segment)
    built = build_model(spec, parasitics, cache=_disk_cache(cache_dir))
    report = crosstalk_report(
        built.skeleton,
        step(params.vdd, rise_time=params.rise_time),
        aggressor=params.aggressor,
        vdd=params.vdd,
        t_stop=params.t_stop,
        dt=params.dt,
    )
    return simulate_payload(built.label, report)


def shard_alignments(
    escalated: Sequence[Alignment], shards: int
) -> List[List[Alignment]]:
    """Partition escalated victims into at most ``shards`` balanced runs.

    Round-robin keeps shard sizes within one of each other; order
    within the merged result does not matter because metrics key by
    victim wire.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    count = min(shards, len(escalated))
    parts: List[List[Alignment]] = [[] for _ in range(count)]
    for index, alignment in enumerate(escalated):
        parts[index % count].append(alignment)
    return [part for part in parts if part]


# ----------------------------------------------------------------------
# Result payloads (JSON-able, with stat checksums)
# ----------------------------------------------------------------------
def extract_payload(parasitics: Parasitics) -> Dict[str, Any]:
    """Summary + checksum of one extraction result."""
    L = parasitics.inductance
    pairs = sorted(parasitics.coupling_capacitance)
    coupling = np.asarray(
        [parasitics.coupling_capacitance[p] for p in pairs], dtype=float
    )
    checksum = array_checksum(
        L, parasitics.resistance, parasitics.ground_capacitance, coupling
    )
    return {
        "op": "extract",
        "system": parasitics.system.name,
        "filaments": len(parasitics.system),
        "wires": parasitics.system.num_wires,
        "l_self_min_H": float(np.diag(L).min()),
        "l_self_max_H": float(np.diag(L).max()),
        "r_min_ohm": float(parasitics.resistance.min()),
        "r_max_ohm": float(parasitics.resistance.max()),
        "cg_total_F": float(parasitics.ground_capacitance.sum()),
        "coupling_pairs": len(pairs),
        "checksum": checksum,
    }


def simulate_payload(label: str, report: NoiseReport) -> Dict[str, Any]:
    """Summary + checksum of one crosstalk simulation."""
    victims = sorted(report.victims, key=lambda v: v.wire)
    wires = np.asarray([v.wire for v in victims], dtype=float)
    peaks = np.asarray([v.peak for v in victims], dtype=float)
    return {
        "op": "simulate",
        "model": label,
        "aggressor": report.aggressor,
        "victims": [
            {"wire": v.wire, "peak_V": v.peak, "peak_time_s": v.peak_time}
            for v in victims
        ],
        "aggressor_delay_s": report.aggressor_delay,
        "aggressor_slew_s": report.aggressor_slew,
        "checksum": array_checksum(wires, peaks),
    }


def noise_scan_checksum(report: NoiseScanReport) -> str:
    """Checksum pinning per-victim effective peaks and tier decisions."""
    peaks = np.array([v.effective_peak for v in report.victims])
    escalated = np.array([float(v.escalated) for v in report.victims])
    return array_checksum(peaks, escalated)


def noise_payload(report: NoiseScanReport) -> Dict[str, Any]:
    """Summary + checksum of one tiered noise scan."""
    payload = report.to_json_dict()
    payload["op"] = "noise"
    payload["failing"] = [v.wire for v in report.failing()]
    payload["checksum"] = noise_scan_checksum(report)
    return payload


def sweep_payload(report: SweepReport) -> Dict[str, Any]:
    """Summary + checksum of one design-space sweep."""
    payload = report.to_json_dict()
    payload["op"] = "sweep"
    payload["failing"] = [
        r.scenario.label for r in report.failing_scenarios()
    ]
    payload["checksum"] = sweep_report_checksum(report)
    return payload


# ----------------------------------------------------------------------
# The one-shot reference path
# ----------------------------------------------------------------------
def oneshot_result(
    request: JobRequest, cache: Optional[PipelineCache] = None
) -> Dict[str, Any]:
    """Compute a request exactly as a one-shot CLI invocation would.

    No service, no shared memory, no sharding -- ``cached_extract``
    into the op's own flow.  The service's streamed results must be
    checksum-identical to this path; the load-test bench commits both
    checksums to the trajectory to keep that equivalence regression-
    checked.
    """
    if request.op == "sweep":
        assert request.sweep is not None
        return sweep_payload(run_sweep(request.sweep, parallel=1, cache=cache))
    assert request.geometry is not None
    parasitics = cached_extract(request.geometry.build(), cache=cache)
    if request.op == "extract":
        return extract_payload(parasitics)
    if request.op == "simulate":
        built = build_model(request.model, parasitics, cache=cache)
        report = crosstalk_report(
            built.skeleton,
            step(request.sim.vdd, rise_time=request.sim.rise_time),
            aggressor=request.sim.aggressor,
            vdd=request.sim.vdd,
            t_stop=request.sim.t_stop,
            dt=request.sim.dt,
        )
        return simulate_payload(built.label, report)
    scan = run_noise_scan(
        parasitics,
        spec=request.model,
        config=request.noise,
        cache=cache,
        verify=request.verify,
    )
    return noise_payload(scan)


def oneshot_worker(
    request: JobRequest, cache_dir: Optional[str]
) -> Dict[str, Any]:
    """Pool-friendly wrapper of :func:`oneshot_result` (cache by path)."""
    return oneshot_result(request, cache=_disk_cache(cache_dir))
