"""Automated recalibration of the inductive screening envelope.

The screening tier's two-table kappa envelope
(:class:`~repro.noise.screening.KappaEnvelope`) was measured on the
paper's aligned 64-bit bus.  Other topology families -- nonaligned
buses, crossbars -- redistribute the inductive return current, so the
committed tables may sit closer to (or, in principle, below) their
exact pair noise.  This module re-fits an envelope *per family* from
sampled exact solves and -- the part that matters for sign-off --
**fails loudly** when the fitted envelope does not dominate held-out
exact measurements.

The harness runs in three steps (:func:`calibrate_family`):

1. **Measure** (:func:`measure_exact_peaks`): build the family's
   geometry, extract, and run one batch of the noise engine's column
   simulator (:func:`~repro.noise.engine.simulate_columns`, the
   all-quiet testbench) with a single-aggressor step scenario per
   sampled aggressor position.  Every victim's raw peak is recorded, so
   one batch yields ``(num_aggressors x num_wires)`` exact pair
   measurements sharing a single model build and LU factorization.
2. **Fit** (:func:`fit_envelope`): normalize each measured peak by
   ``vdd * k(a, v)`` (the wire-level inductive coupling coefficient;
   pairs below ``k_floor`` -- e.g. near-orthogonal crossbar layers --
   are skipped) and take the per-distance maximum, splitting into the
   *edge* table (pairs touching a bus edge) and the *center* table
   (pairs at least ``edge_reach`` wires inside).  Distances with no
   usable sample fall back to the nearest fitted smaller distance
   (tables decay with distance, so carrying the closer value forward
   is conservative).
3. **Check** (:func:`check_envelope`): evaluate the *full* screen --
   blending, boost, headroom, safety -- with the fitted envelope on
   held-out aggressor positions, and compare the bound against the
   exact peaks pairwise.  Any pair whose bound falls below its exact
   measurement raises :class:`CalibrationError` naming the worst
   offender; there is no silent acceptance path.

The conservatism property suite drives this harness over every
topology family and additionally checks that a deliberately scaled-down
envelope is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.sources import step
from repro.experiments.runner import ModelSpec, gw_spec
from repro.extraction.parasitics import Parasitics, extract
from repro.geometry.bus import aligned_bus, nonaligned_bus
from repro.geometry.crossbar import crossbar
from repro.geometry.system import FilamentSystem
from repro.health import FallbackPolicy
from repro.noise.engine import NoiseConfig, simulate_columns
from repro.noise.screening import (
    KappaEnvelope,
    inductive_coupling_coefficients,
    screen_pairs,
    wire_inductance,
)
from repro.pipeline.cache import PipelineCache
from repro.pipeline.profiling import add_counter, stage

#: Topology families the harness can rebuild by name.  ``size`` is the
#: bus bit count; a crossbar gets ``size`` wires per layer (so ``2 *
#: size`` victims).
CALIBRATION_FAMILIES = ("bus", "nonaligned_bus", "crossbar")

#: Inductive coupling coefficients below this floor are not normalized
#: into kappa tables (near-orthogonal pairs would divide by ~0 and the
#: capacitive Devgan bound governs them anyway).
K_FLOOR = 1e-6


class CalibrationError(RuntimeError):
    """A fitted (or supplied) envelope is non-conservative.

    Raised by :func:`check_envelope` when the full screening bound --
    envelope, blending, boost, headroom, and safety included -- falls
    below an exact held-out pair measurement.  The message names the
    worst pair and its margin; sign-off must not proceed on such an
    envelope.
    """


@dataclass(frozen=True)
class CalibrationSample:
    """Exact victim peaks of one single-aggressor scenario.

    ``peaks[v]`` is the raw ``max |v(t)|`` at victim ``v``'s far node
    (zero at the aggressor itself).
    """

    aggressor: int
    peaks: np.ndarray


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of one family's measure/fit/check cycle."""

    family: str
    envelope: KappaEnvelope
    fit_aggressors: Tuple[int, ...]
    check_aggressors: Tuple[int, ...]
    #: Minimum (bound / exact) ratio over all checked pairs; the check
    #: raised unless this is >= 1.
    min_margin: float
    num_checked_pairs: int


def family_geometry(family: str, size: int, **overrides) -> FilamentSystem:
    """Build one calibration family's geometry.

    ``overrides`` pass straight to the generator (``width``,
    ``spacing``, ...), so recalibration can target the exact geometry
    corner a sweep exercises.
    """
    if family == "bus":
        return aligned_bus(size, **overrides)
    if family == "nonaligned_bus":
        return nonaligned_bus(size, **overrides)
    if family == "crossbar":
        return crossbar(size, size, **overrides)
    raise ValueError(
        f"family must be one of {CALIBRATION_FAMILIES}, got {family!r}"
    )


def sample_positions(num_wires: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(fit, check) aggressor positions for an ``num_wires``-wide family.

    Fit on both edges and the center; hold out the quarter positions
    for the conservatism check.  Positions collide on very narrow
    buses; duplicates are dropped while keeping the fit/check split
    disjoint.
    """
    edge = (0, num_wires - 1)
    center = (num_wires // 2,)
    fit = tuple(dict.fromkeys(edge + center))
    quarters = (num_wires // 4, (3 * num_wires) // 4)
    check = tuple(
        dict.fromkeys(q for q in quarters if q not in fit and 0 <= q < num_wires)
    )
    if not check:
        # Too narrow to hold anything out: check on the fit positions
        # (still meaningful -- blending/boost must not undercut them).
        check = fit
    return fit, check


def measure_exact_peaks(
    parasitics: Parasitics,
    aggressors: Sequence[int],
    config: NoiseConfig = NoiseConfig(),
    spec: Optional[ModelSpec] = None,
    policy: Optional[FallbackPolicy] = None,
    cache: Optional[PipelineCache] = None,
) -> List[CalibrationSample]:
    """One batched multi-scenario solve: a step per sampled aggressor.

    All scenarios share one model build (and, up to
    :data:`~repro.noise.engine.MAX_COLUMNS_PER_SIM` of them, one LU
    factorization) through
    :func:`~repro.noise.engine.simulate_columns`; each returns the exact
    peak at every victim's far node.
    """
    parasitics.validate()
    spec = spec if spec is not None else gw_spec(8)
    num_wires = parasitics.system.num_wires
    positions = list(aggressors)
    if any(not 0 <= a < num_wires for a in positions):
        raise ValueError("aggressor positions must index wires")
    t_stop = config.rise_time + config.settle_time
    columns = [
        (
            t_stop,
            {f"Vdrv{a}": step(config.vdd, rise_time=config.rise_time)},
            tuple(victim for victim in range(num_wires) if victim != a),
        )
        for a in positions
    ]
    with stage("noise_calibration"):
        waveforms, _, _ = simulate_columns(
            parasitics, spec, config, columns, policy=policy, cache=cache
        )
    add_counter("noise_calibration_solves", len(positions))
    samples: List[CalibrationSample] = []
    for a, probed in zip(positions, waveforms):
        peaks = np.zeros(num_wires)
        for victim, waveform in probed.items():
            peaks[victim] = float(np.abs(np.real(waveform.v)).max())
        samples.append(CalibrationSample(aggressor=a, peaks=peaks))
    return samples


def fit_envelope(
    parasitics: Parasitics,
    samples: Sequence[CalibrationSample],
    family: str,
    vdd: float,
    edge_reach: int,
    edge_boost: float,
    k_floor: float = K_FLOOR,
) -> KappaEnvelope:
    """Per-distance maximum normalized peaks, split edge vs center.

    The edge table takes the max over *all* sampled pairs at each wire
    distance (edge pairs are the worst, so the global max is the edge
    envelope); the center table over pairs whose closest member sits at
    least ``edge_reach`` wires inside.  Unsampled distances carry the
    nearest smaller fitted distance forward (tables decay, so this is
    conservative); a family with no usable pair at all is a caller
    error.
    """
    num_wires = parasitics.system.num_wires
    k = inductive_coupling_coefficients(wire_inductance(parasitics))
    reach = num_wires - 1
    edge_best = np.zeros(reach)
    center_best = np.zeros(reach)
    index = np.arange(num_wires)
    to_edge = np.minimum(index, num_wires - 1 - index)
    for sample in samples:
        a = sample.aggressor
        for victim in range(num_wires):
            if victim == a or k[victim, a] < k_floor:
                continue
            d = abs(victim - a)
            kappa = sample.peaks[victim] / (vdd * k[victim, a])
            edge_best[d - 1] = max(edge_best[d - 1], kappa)
            if min(to_edge[victim], to_edge[a]) >= edge_reach:
                center_best[d - 1] = max(center_best[d - 1], kappa)
    if not edge_best.any():
        raise ValueError(
            f"no usable calibration pairs for family {family!r} "
            f"(all coupling coefficients below {k_floor})"
        )
    # Interior pairs without their own sample fall back to the edge fit.
    center_best = np.where(center_best > 0, center_best, edge_best)
    # Carry the nearest smaller fitted distance into unsampled ones.
    fill = 0.0
    for d in range(reach):
        if edge_best[d] > 0:
            fill = edge_best[d]
        else:
            edge_best[d] = fill
            center_best[d] = fill
    if edge_best[0] <= 0:
        first = int(np.argmax(edge_best > 0))
        edge_best[:first] = edge_best[first]
        center_best[:first] = center_best[first]
    return KappaEnvelope(
        edge=tuple(float(v) for v in edge_best),
        center=tuple(float(v) for v in np.minimum(center_best, edge_best)),
        edge_reach=edge_reach,
        edge_boost=edge_boost,
        family=family,
    )


def check_envelope(
    parasitics: Parasitics,
    envelope: KappaEnvelope,
    samples: Sequence[CalibrationSample],
    config: NoiseConfig = NoiseConfig(),
    peak_floor: float = 1e-9,
) -> Tuple[float, int]:
    """Assert the full screen bound dominates exact held-out peaks.

    Evaluates :func:`~repro.noise.screening.screen_pairs` with the
    candidate envelope (blending, boost, headroom, and safety all
    active) and compares ``bound[v, a]`` against every sample's exact
    ``peaks[v]``.  Raises :class:`CalibrationError` on the first family
    whose minimum margin drops below 1; returns ``(min_margin,
    num_checked_pairs)`` otherwise.  Pairs with exact peaks below
    ``peak_floor`` (numerically quiet) are skipped.
    """
    estimates = screen_pairs(
        parasitics, replace(config.screen_config, envelope=envelope)
    )
    min_margin = float("inf")
    worst: Optional[Tuple[int, int, float, float]] = None
    checked = 0
    for sample in samples:
        a = sample.aggressor
        for victim in range(parasitics.system.num_wires):
            exact = float(sample.peaks[victim])
            if victim == a or exact < peak_floor:
                continue
            bound = float(estimates.peak[victim, a])
            margin = bound / exact
            checked += 1
            if margin < min_margin:
                min_margin = margin
                worst = (victim, a, bound, exact)
    if checked == 0:
        raise ValueError("no checkable pairs (all exact peaks quiet)")
    if min_margin < 1.0 and worst is not None:
        victim, a, bound, exact = worst
        raise CalibrationError(
            f"envelope for family {envelope.family!r} is non-conservative: "
            f"screen bound {bound:.3e} V < exact peak {exact:.3e} V for "
            f"victim {victim} / aggressor {a} (margin {min_margin:.3f})"
        )
    return min_margin, checked


def calibrate_family(
    family: str,
    size: int = 16,
    config: NoiseConfig = NoiseConfig(),
    spec: Optional[ModelSpec] = None,
    policy: Optional[FallbackPolicy] = None,
    cache: Optional[PipelineCache] = None,
    parasitics: Optional[Parasitics] = None,
    **geometry_overrides,
) -> CalibrationResult:
    """Measure, fit, and conservatism-check one family's envelope.

    Raises :class:`CalibrationError` when the fitted envelope does not
    dominate the held-out exact solves -- a failed calibration never
    returns an envelope.
    """
    if parasitics is None:
        system = family_geometry(family, size, **geometry_overrides)
        parasitics = extract(system)
    num_wires = parasitics.system.num_wires
    fit_positions, check_positions = sample_positions(num_wires)
    samples = measure_exact_peaks(
        parasitics,
        tuple(fit_positions) + tuple(check_positions),
        config=config,
        spec=spec,
        policy=policy,
        cache=cache,
    )
    fit_samples = samples[: len(fit_positions)]
    check_samples = samples[len(fit_positions):]
    default = config.screen_config
    envelope = fit_envelope(
        parasitics,
        fit_samples,
        family,
        vdd=config.vdd,
        edge_reach=(
            default.envelope.edge_reach
            if default.envelope is not None
            else KappaEnvelope.__dataclass_fields__["edge_reach"].default
        ),
        edge_boost=(
            default.envelope.edge_boost
            if default.envelope is not None
            else KappaEnvelope.__dataclass_fields__["edge_boost"].default
        ),
    )
    min_margin, checked = check_envelope(
        parasitics, envelope, list(fit_samples) + list(check_samples), config
    )
    return CalibrationResult(
        family=family,
        envelope=envelope,
        fit_aggressors=tuple(fit_positions),
        check_aggressors=tuple(check_positions),
        min_margin=min_margin,
        num_checked_pairs=checked,
    )
