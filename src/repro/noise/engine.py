"""The tiered screen-then-simulate static noise flow.

:func:`run_noise_scan` treats every wire of a parasitic model as a
victim and every other wire as a potential aggressor:

1. **Screen** -- closed-form pair bounds (:mod:`repro.noise.screening`)
   plus worst-case alignment within each victim's sensitive window
   (:mod:`repro.noise.worst_case`).  Victims whose aligned bound stays
   below the failure threshold are *screened out* -- they can never
   fail, by conservatism of the bound -- and cost nothing further.
2. **Simulate** -- each screened-in victim becomes one scenario column
   of :func:`simulate_escalated` (its aligned aggressors launch at the
   alignment instant, every other driver holds quiet): one model build,
   and one :func:`~repro.circuit.transient.transient_analysis_multi`
   call -- one MNA assembly and LU factorization -- per chunk of at
   most :data:`MAX_COLUMNS_PER_SIM` columns.
3. **Assemble** -- :func:`assemble_report` merges the screen bounds and
   the simulated metrics.

The same tiers make every flow: a sweep (:mod:`repro.noise.sweep`)
groups the screened scans of a scenario family that share a testbench
and simulates each group as one :func:`simulate_escalated` batch, and
the analysis service (:mod:`repro.service`) runs the screen and the
simulation as separate work items, splitting a scan's columns across
workers.

The scan runs on any VPEC/wVPEC/PEEC model family via
:class:`~repro.experiments.runner.ModelSpec`, memoizes whole reports in
the content-addressed pipeline cache under kind ``"noise"``, and raises
the :mod:`repro.health` taxonomy on numerical trouble.  ``verify=True``
additionally re-simulates every escalated victim through the
independent single-scenario path (a separately built model with the
aggressor stimuli baked in at construction) and records the relative
peak deviation -- the cross-check quoted in the acceptance gate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.sources import Stimulus, dc, step
from repro.circuit.transient import transient_analysis, transient_analysis_multi
from repro.circuit.waveform import Waveform
from repro.constants import DRIVER_RESISTANCE, LOAD_CAPACITANCE, VDD
from repro.experiments.runner import ModelSpec, build_model, gw_spec
from repro.extraction.parasitics import Parasitics
from repro.health import FallbackPolicy
from repro.analysis.timing import arrival_times
from repro.noise.receiver import ReceiverModel
from repro.noise.screening import (
    REFERENCE_RISE_TIME,
    KappaEnvelope,
    ScreenConfig,
    screen_pairs,
)
from repro.noise.windows import (
    Window,
    WindowSet,
    sensitive_windows,
    staggered_schedule,
)
from repro.noise.worst_case import Alignment, align_all
from repro.peec.builder import (
    ElectricalSkeleton,
    attach_multi_aggressor_testbench,
)
from repro.pipeline.cache import (
    CACHE_VERSION,
    PipelineCache,
    parasitics_fingerprint,
)
from repro.pipeline.hashing import stable_hash
from repro.pipeline.profiling import StageProfile, add_counter, stage

#: Column cap per batched transient call.  The per-step cost of a
#: multi-RHS march is nearly flat up to this many columns (the LU
#: triangular solves dominate), then grows superlinearly as the dense
#: right-hand-side block stops fitting cache -- measured on the 64-bit
#: bus: 8 columns cost ~1.05x of 4, but 64 columns cost ~13x.  Chunking
#: keeps every call in the flat regime while still sharing one model
#: build per simulated batch.
MAX_COLUMNS_PER_SIM = 24


@dataclass(frozen=True)
class NoiseConfig:
    """Parameters of one noise scan."""

    vdd: float = VDD
    rise_time: float = REFERENCE_RISE_TIME
    #: Failure threshold as a fraction of ``vdd`` (the quarter-supply
    #: receiver criterion).
    threshold_fraction: float = 0.25
    #: Clock period bounding all switching windows.
    period: float = 3000e-12
    #: Width of each net's scheduled launch window.
    switch_width: float = 10e-12
    #: Seed of the default scattered switching schedule.
    schedule_seed: int = 2003
    driver_resistance: float = DRIVER_RESISTANCE
    load_capacitance: float = LOAD_CAPACITANCE
    #: Simulation step of the escalation tier.
    dt: float = 1e-12
    #: Simulated settle time after the latest aggressor launch.
    settle_time: float = 300e-12
    #: Screening-tier calibration knobs (see :class:`ScreenConfig`).
    headroom: float = 1.2
    safety: float = 1.1
    #: Nonlinear receiver model.  When set, its effective input
    #: threshold replaces ``threshold_fraction * vdd`` in every tier
    #: (see :mod:`repro.noise.receiver`).
    receiver: Optional[ReceiverModel] = None
    #: Inductive screening envelope override.  When set it replaces the
    #: built-in two-table calibration (see
    #: :func:`repro.noise.calibration.calibrate_family`).
    envelope: Optional[KappaEnvelope] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold_fraction < 1.0:
            raise ValueError("threshold_fraction must be in (0, 1)")
        if self.dt <= 0 or self.settle_time <= 0:
            raise ValueError("dt and settle_time must be positive")

    @property
    def threshold(self) -> float:
        """Absolute failure threshold, volts.

        The receiver model, when present, folds its VTC and output
        criterion into an effective input threshold; otherwise the
        fixed-fraction criterion applies.  Every tier resolves its
        threshold through this one property.
        """
        if self.receiver is not None:
            return self.receiver.input_threshold(self.vdd)
        return self.threshold_fraction * self.vdd

    @property
    def screen_config(self) -> ScreenConfig:
        return ScreenConfig(
            vdd=self.vdd,
            rise_time=self.rise_time,
            driver_resistance=self.driver_resistance,
            load_capacitance=self.load_capacitance,
            headroom=self.headroom,
            safety=self.safety,
            envelope=self.envelope,
        )


@dataclass(frozen=True)
class VictimScanResult:
    """One victim's outcome across both tiers."""

    wire: int
    screen_peak: float
    screen_area: float
    alignment_time: float
    aligned: Tuple[int, ...]
    feasible: Tuple[int, ...]
    noise_windows: WindowSet
    escalated: bool
    sim_peak: Optional[float] = None
    sim_area: Optional[float] = None
    verify_deviation: Optional[float] = None

    @property
    def effective_peak(self) -> float:
        """Best available peak: simulated when escalated, else the bound."""
        return self.sim_peak if self.sim_peak is not None else self.screen_peak

    @property
    def effective_area(self) -> float:
        return self.sim_area if self.sim_area is not None else self.screen_area


@dataclass
class NoiseScanReport:
    """Full result of a tiered noise scan."""

    spec_label: str
    config: NoiseConfig
    victims: List[VictimScanResult]
    switching: List[Window]
    build_seconds: float = 0.0
    screen_seconds: float = 0.0
    sim_seconds: float = 0.0

    @property
    def num_victims(self) -> int:
        return len(self.victims)

    @property
    def num_escalated(self) -> int:
        return sum(1 for v in self.victims if v.escalated)

    @property
    def escalation_ratio(self) -> float:
        return self.num_escalated / max(1, self.num_victims)

    @property
    def threshold(self) -> float:
        return self.config.threshold

    def margin(self, victim: VictimScanResult) -> float:
        """Failure margin, volts; negative means the victim fails."""
        return self.threshold - victim.effective_peak

    def failing(self) -> List[VictimScanResult]:
        return [v for v in self.victims if self.margin(v) < 0]

    def to_table(self) -> str:
        header = (
            f"{'victim':>6} {'tier':>6} {'peak mV':>9} {'margin mV':>10} "
            f"{'area fV.s':>10} {'aggressors':>10} {'t* ps':>8}  noise windows (ps)"
        )
        lines = [header, "-" * len(header)]
        for v in self.victims:
            t_star = "-" if np.isnan(v.alignment_time) else (
                f"{v.alignment_time * 1e12:.1f}"
            )
            windows = " ".join(
                f"[{w.start * 1e12:.0f},{w.end * 1e12:.0f}]"
                for w in v.noise_windows
            ) or "-"
            lines.append(
                f"{v.wire:>6} {('sim' if v.escalated else 'screen'):>6} "
                f"{v.effective_peak * 1e3:>9.3f} {self.margin(v) * 1e3:>10.3f} "
                f"{v.effective_area * 1e15:>10.3f} {len(v.aligned):>10} "
                f"{t_star:>8}  {windows}"
            )
        lines.append(
            f"-- {self.num_escalated}/{self.num_victims} escalated "
            f"(ratio {self.escalation_ratio:.2f}), threshold "
            f"{self.threshold * 1e3:.1f} mV, {len(self.failing())} failing"
        )
        return "\n".join(lines)

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "spec": self.spec_label,
            "threshold_V": self.threshold,
            "escalation_ratio": self.escalation_ratio,
            "num_victims": self.num_victims,
            "num_escalated": self.num_escalated,
            "build_seconds": self.build_seconds,
            "screen_seconds": self.screen_seconds,
            "sim_seconds": self.sim_seconds,
            "victims": [
                {
                    "wire": v.wire,
                    "tier": "sim" if v.escalated else "screen",
                    "peak_V": v.effective_peak,
                    "area_Vs": v.effective_area,
                    "margin_V": self.margin(v),
                    "aligned": list(v.aligned),
                    "alignment_time_s": None
                    if np.isnan(v.alignment_time)
                    else v.alignment_time,
                    "noise_windows_s": [
                        [w.start, w.end] for w in v.noise_windows
                    ],
                    "verify_deviation": v.verify_deviation,
                }
                for v in self.victims
            ],
        }


def attach_quiet_bus_testbench(
    skeleton: ElectricalSkeleton,
    driver_resistance: float = DRIVER_RESISTANCE,
    load_capacitance: float = LOAD_CAPACITANCE,
) -> None:
    """All-quiet bus testbench with one *named* source per wire.

    Unlike :func:`attach_multi_aggressor_testbench`, every wire --
    including quiet ones -- gets a ``Vdrv{wire}`` source (holding 0 V)
    behind ``Rd``, so a ``transient_analysis_multi`` scenario can turn
    any subset of drivers into aggressors by overriding their stimuli.
    """
    for wire, ports in skeleton.ports.items():
        source_node = f"drv{wire}"
        skeleton.circuit.add_voltage_source(
            source_node, "0", dc(0.0), name=f"Vdrv{wire}"
        )
        skeleton.circuit.add_resistor(
            source_node, ports.near, driver_resistance, name=f"Rd{wire}"
        )
        if load_capacitance > 0:
            skeleton.circuit.add_capacitor(
                ports.far, "0", load_capacitance, name=f"CL{wire}"
            )


def _launch_time(t_star: float, window: Window) -> float:
    """Alignment instant clamped into the aggressor's launch window."""
    return min(max(t_star, window.start), window.end)


def _masked_metrics(
    waveform: Waveform, sensitive: WindowSet
) -> Tuple[float, float]:
    """(peak, area) of ``|v|`` restricted to the sensitive windows."""
    mask = np.zeros(waveform.t.shape, dtype=bool)
    for window in sensitive:
        mask |= (waveform.t >= window.start) & (waveform.t <= window.end)
    if not mask.any():
        return 0.0, 0.0
    magnitude = np.abs(np.real(waveform.v))
    peak = float(magnitude[mask].max())
    area = float(np.trapezoid(np.where(mask, magnitude, 0.0), waveform.t))
    return peak, area


def default_schedule(
    parasitics: Parasitics, config: NoiseConfig
) -> List[Window]:
    """Each wire's launch window when the caller gives none: the seeded
    scattered schedule of :func:`staggered_schedule`."""
    return list(
        staggered_schedule(
            parasitics.system.num_wires,
            config.period,
            config.switch_width,
            seed=config.schedule_seed,
        )
    )


@dataclass(frozen=True)
class ScreenTierResult:
    """Output of the closed-form screening tier: one screened scan.

    ``alignments`` holds every victim's worst-case alignment,
    ``escalated`` the subset whose aligned bound meets the threshold
    (the victims the simulation tier must resolve), ``sensitive`` each
    wire's sensitive :class:`WindowSet`, and ``horizon`` the
    :func:`escalation_horizon` of the whole escalated set.  The object
    carries everything the simulation and assembly tiers need and is
    picklable, so a service worker can screen in one process and ship
    the outcome to simulation shards in others.  A shard is a copy whose
    ``escalated`` holds only its share of the victims; ``horizon`` stays
    the full set's, so every shard integrates the same time grid.
    """

    alignments: Tuple[Alignment, ...]
    escalated: Tuple[Alignment, ...]
    sensitive: Tuple[WindowSet, ...]
    seconds: float
    config: NoiseConfig
    switching: Tuple[Window, ...]
    horizon: float


@dataclass(frozen=True)
class EscalationTierResult:
    """Output of one simulation-tier batch.

    ``metrics[k]`` maps each escalated victim wire of the batch's
    ``k``-th screened scan to its (peak, area) over its sensitive
    windows.  Every column is an independent RHS of the shared
    factorization, truncated to its own scan's horizon, so any split of
    the columns -- service shards, sweep groups, chunks -- yields
    bit-identical metrics, which merge by dict union.
    """

    metrics: List[Dict[int, Tuple[float, float]]]
    build_seconds: float
    sim_seconds: float
    profile: Optional[StageProfile] = None


def screen_tier(
    parasitics: Parasitics,
    config: NoiseConfig,
    switching: Sequence[Window],
) -> ScreenTierResult:
    """Tier 1: closed-form pair bounds + worst-case alignment.

    Pads each launch window by the wire's Elmore delay plus slew,
    intersects into sensitive windows, screens every aggressor/victim
    pair, and aligns.  Victims whose aligned bound stays below
    ``config.threshold`` are conservatively safe and never simulated.
    """
    start = time.perf_counter()
    arrivals = arrival_times(
        parasitics, config.driver_resistance, config.load_capacitance
    )
    pad = arrivals.delays + arrivals.slews
    padded = [
        Window(w.start, w.end + float(pad[i]))
        for i, w in enumerate(switching)
    ]
    sensitive = sensitive_windows(padded, config.period)
    estimates = screen_pairs(parasitics, config.screen_config)
    alignments = align_all(
        estimates.peak, estimates.area, padded, sensitive, config.threshold
    )
    escalated = tuple(a for a in alignments if a.peak >= config.threshold)
    add_counter("noise_victims_screened_out", len(alignments) - len(escalated))
    add_counter("noise_victims_escalated", len(escalated))
    return ScreenTierResult(
        alignments=tuple(alignments),
        escalated=escalated,
        sensitive=tuple(sensitive),
        seconds=time.perf_counter() - start,
        config=config,
        switching=tuple(switching),
        horizon=(
            escalation_horizon(escalated, config, switching)
            if escalated
            else 0.0
        ),
    )


def escalation_horizon(
    escalated: Sequence[Alignment],
    config: NoiseConfig,
    switching: Sequence[Window],
) -> float:
    """Simulation end time of a scan's escalated set: the latest
    aggressor launch plus one rise time and the settle time."""
    launches = [
        max(_launch_time(a.time, switching[agg]) for agg in a.aggressors)
        for a in escalated
    ]
    return max(launches) + config.rise_time + config.settle_time


def _truncated(waveform: Waveform, horizon: float, dt: float) -> Waveform:
    """The waveform an independent scan at ``horizon`` would produce.

    The integrator's grid is ``arange(steps + 1) * dt`` -- sample times
    are exact multiples of ``dt`` independent of ``t_stop`` -- and time
    marching is forward-only, so the first samples of a longer batch
    are bit-identical to a shorter run's.  Truncating a shared-batch
    waveform to the scan's own step count therefore reproduces the
    independent scan exactly.  The samples are copied, so the batch's
    full recording block can be freed.
    """
    steps = int(np.ceil(horizon / dt))
    return Waveform(
        t=waveform.t[: steps + 1], v=waveform.v[: steps + 1].copy()
    )


#: One column of :func:`simulate_columns`: the horizon to integrate to,
#: the ``Vdrv{wire}`` stimuli it overrides on the quiet bus, and the
#: wires whose far-end waveforms it records.
Column = Tuple[float, Mapping[str, Stimulus], Sequence[int]]


def simulate_columns(
    parasitics: Parasitics,
    spec: ModelSpec,
    config: NoiseConfig,
    columns: Sequence[Column],
    policy: Optional[FallbackPolicy],
    cache: Optional[PipelineCache],
) -> Tuple[List[Dict[int, Waveform]], float, float]:
    """The batched column simulator of the noise flow.

    Builds the model and its quiet-bus testbench once, sorts the columns
    by horizon and chunks them into
    :func:`~repro.circuit.transient.transient_analysis_multi` calls of
    at most :data:`MAX_COLUMNS_PER_SIM` columns, each integrated to its
    own largest horizon -- short columns never pay for the longest, and
    every call stays in the flat per-step cost regime.  Each recorded
    waveform is truncated back to its column's horizon, so it is
    bit-identical to simulating that column alone.

    Returns the far-end waveforms per column (input order), keyed by
    wire, plus the model-build and simulation seconds.
    """
    built = build_model(spec, parasitics, cache=cache)
    attach_quiet_bus_testbench(
        built.skeleton, config.driver_resistance, config.load_capacitance
    )
    ports = built.skeleton.ports
    order = sorted(range(len(columns)), key=lambda i: columns[i][0])
    waveforms: List[Dict[int, Waveform]] = [{} for _ in columns]
    sim_seconds = 0.0
    for lo in range(0, len(order), MAX_COLUMNS_PER_SIM):
        chunk = order[lo: lo + MAX_COLUMNS_PER_SIM]
        probes = sorted(
            {ports[wire].far for i in chunk for wire in columns[i][2]}
        )
        sim_start = time.perf_counter()
        with stage("noise_escalation"):
            # Ascending order: the chunk's last column has its largest
            # horizon.
            results = transient_analysis_multi(
                built.circuit,
                columns[chunk[-1]][0],
                config.dt,
                [columns[i][1] for i in chunk],
                probe_nodes=probes,
                policy=policy,
            )
        sim_seconds += time.perf_counter() - sim_start
        for i, result in zip(chunk, results):
            horizon, _, wires = columns[i]
            for wire in wires:
                waveforms[i][wire] = _truncated(
                    result.voltage(ports[wire].far), horizon, config.dt
                )
    return waveforms, built.build_seconds, sim_seconds


def simulate_escalated(
    parasitics: Parasitics,
    spec: ModelSpec,
    screens: Sequence[ScreenTierResult],
    policy: Optional[FallbackPolicy] = None,
    cache: Optional[PipelineCache] = None,
) -> EscalationTierResult:
    """Tier 2: one :func:`simulate_columns` batch over the escalated
    victims of ``screens``.

    The screened scans must share one testbench circuit (same
    parasitics, driver, load, supply, rise time and step).  Every
    escalated victim becomes one column integrated to its own scan's
    horizon, with its aligned aggressors launched at the alignment
    instant, so the metrics are bit-identical to an independent scan
    of each screened scan.
    """
    owners = [
        (index, a)
        for index, screen in enumerate(screens)
        for a in screen.escalated
    ]
    columns: List[Column] = []
    for index, a in owners:
        config = screens[index].config
        stimuli = {
            f"Vdrv{agg}": step(
                config.vdd,
                rise_time=config.rise_time,
                delay=_launch_time(a.time, screens[index].switching[agg]),
            )
            for agg in a.aggressors
        }
        columns.append((screens[index].horizon, stimuli, (a.victim,)))
    waveforms, build_seconds, sim_seconds = simulate_columns(
        parasitics, spec, screens[0].config, columns, policy, cache
    )
    metrics: List[Dict[int, Tuple[float, float]]] = [{} for _ in screens]
    for (index, a), probed in zip(owners, waveforms):
        metrics[index][a.victim] = _masked_metrics(
            probed[a.victim], screens[index].sensitive[a.victim]
        )
    return EscalationTierResult(
        metrics=metrics,
        build_seconds=build_seconds,
        sim_seconds=sim_seconds,
    )


def assemble_report(
    spec: ModelSpec,
    screen: ScreenTierResult,
    metrics: Dict[int, Tuple[float, float]],
    build_seconds: float = 0.0,
    sim_seconds: float = 0.0,
) -> NoiseScanReport:
    """Merge screen-tier alignments and simulated metrics into a report.

    ``metrics`` must cover exactly the escalated victims (the union of
    all shards); screened-out victims keep their closed-form bounds.
    """
    victims: Dict[int, VictimScanResult] = {
        a.victim: VictimScanResult(
            wire=a.victim,
            screen_peak=a.peak,
            screen_area=a.area,
            alignment_time=a.time,
            aligned=a.aggressors,
            feasible=a.feasible,
            noise_windows=a.noise_windows,
            escalated=False,
        )
        for a in screen.alignments
    }
    for a in screen.escalated:
        peak, area = metrics[a.victim]
        victims[a.victim] = replace(
            victims[a.victim], escalated=True, sim_peak=peak, sim_area=area
        )
    return NoiseScanReport(
        spec_label=spec.label,
        config=screen.config,
        victims=[victims[i] for i in sorted(victims)],
        switching=list(screen.switching),
        build_seconds=build_seconds,
        screen_seconds=screen.seconds,
        sim_seconds=sim_seconds,
    )


def noise_scan_key(
    parasitics: Parasitics,
    spec: ModelSpec,
    config: NoiseConfig,
    switching: Sequence[Window],
    verify: bool,
) -> str:
    """Content-addressed cache key of one scan."""
    return stable_hash(
        "noise",
        CACHE_VERSION,
        parasitics_fingerprint(parasitics),
        spec,
        config,
        tuple((w.start, w.end) for w in switching),
        verify,
    )


def run_noise_scan(
    parasitics: Parasitics,
    spec: Optional[ModelSpec] = None,
    config: NoiseConfig = NoiseConfig(),
    switching: Optional[Sequence[Window]] = None,
    cache: Optional[PipelineCache] = None,
    policy: Optional[FallbackPolicy] = None,
    verify: bool = False,
) -> NoiseScanReport:
    """Scan every victim of a parasitic model under timing windows.

    ``switching`` gives each wire's driver *launch* window; by default
    :func:`default_schedule`.  The feasibility/alignment algebra widens
    each launch window by the wire's Elmore delay plus slew (the output
    keeps transitioning after the input settles); the simulated
    realization launches each aligned aggressor at the alignment
    instant clamped into its own launch window.
    """
    parasitics.validate()
    spec = spec if spec is not None else gw_spec(8)
    num_wires = parasitics.system.num_wires
    switching = list(
        switching
        if switching is not None
        else default_schedule(parasitics, config)
    )
    if len(switching) != num_wires:
        raise ValueError(
            f"switching must have one window per wire ({num_wires}), "
            f"got {len(switching)}"
        )

    if cache is not None:
        key = noise_scan_key(parasitics, spec, config, switching, verify)
        return cache.fetch(
            "noise",
            key,
            lambda: _run_noise_scan_cold(
                parasitics, spec, config, switching, policy, verify, cache
            ),
        )
    return _run_noise_scan_cold(
        parasitics, spec, config, switching, policy, verify, None
    )


def _run_noise_scan_cold(
    parasitics: Parasitics,
    spec: ModelSpec,
    config: NoiseConfig,
    switching: List[Window],
    policy: Optional[FallbackPolicy],
    verify: bool,
    cache: Optional[PipelineCache],
) -> NoiseScanReport:
    screen = screen_tier(parasitics, config, switching)
    if not screen.escalated:
        return assemble_report(spec, screen, {})
    tier = simulate_escalated(
        parasitics, spec, [screen], policy=policy, cache=cache
    )
    report = assemble_report(
        spec, screen, tier.metrics[0], tier.build_seconds, tier.sim_seconds
    )
    if verify:
        by_victim = {v.wire: i for i, v in enumerate(report.victims)}
        for a in screen.escalated:
            index = by_victim[a.victim]
            deviation = _verify_victim(
                parasitics, spec, config, switching,
                screen.sensitive[a.victim],
                a, report.victims[index].sim_peak or 0.0, screen.horizon,
                policy, cache,
            )
            report.victims[index] = replace(
                report.victims[index], verify_deviation=deviation
            )
    return report


def _verify_victim(
    parasitics: Parasitics,
    spec: ModelSpec,
    config: NoiseConfig,
    switching: List[Window],
    sensitive: WindowSet,
    alignment: Alignment,
    batched_peak: float,
    t_stop: float,
    policy: Optional[FallbackPolicy],
    cache: Optional[PipelineCache] = None,
) -> float:
    """Relative peak deviation of the independent single-scenario path.

    Builds a *fresh* model with the aggressor stimuli baked into a
    :func:`attach_multi_aggressor_testbench` (quiet wires have no
    source at all there) and integrates it as a one-scenario transient
    -- a genuinely different circuit, stepped on vectors rather than the
    batched tier's column block.
    """
    built = build_model(spec, parasitics, cache=cache)
    drives: Dict[int, Stimulus] = {
        agg: step(
            config.vdd,
            rise_time=config.rise_time,
            delay=_launch_time(alignment.time, switching[agg]),
        )
        for agg in alignment.aggressors
    }
    attach_multi_aggressor_testbench(
        built.skeleton,
        drives,
        config.driver_resistance,
        config.load_capacitance,
    )
    # Same horizon as the batched run, so the masked metrics see
    # identical sample sets.
    probe = built.skeleton.ports[alignment.victim].far
    result = transient_analysis(
        built.circuit,
        t_stop,
        config.dt,
        probe_nodes=[probe],
        policy=policy,
    )
    peak, _ = _masked_metrics(result.voltage(probe), sensitive)
    scale = max(abs(peak), 1e-30)
    return abs(batched_peak - peak) / scale
