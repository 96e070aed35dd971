"""Seeded inputs of the three workloads.

Every input is generated here, from the run's ``--seed``: geometry,
switching schedules, sweep grids and service requests.  The program
only receives them.  A seed changes *which* wires and *when* they
switch, never how much work a run does: each workload's amount of work
is fixed by the constants below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.experiments.runner import ModelSpec
from repro.geometry.filament import Axis, Filament
from repro.geometry.system import FilamentSystem
from repro.noise.engine import NoiseConfig
from repro.noise.sweep import SweepGrid
from repro.noise.windows import Window

LINE_LENGTH = 1000e-6
LINE_WIDTH = 1e-6
LINE_THICKNESS = 1e-6
SWITCH_WIDTH = 10e-12

#: Workload ids mixed into every generator seed, so two workloads run
#: with one ``--seed`` still draw independent streams.
_STREAMS = {"scan_escalate": 1, "sweep_family": 3, "service_mix": 4}


def rng_for(workload: str, seed: int, *keys: int) -> np.random.Generator:
    """The generator of one operation's inputs, keyed by non-negative ints."""
    return np.random.default_rng([_STREAMS[workload], seed, *keys])


def bus_geometry(bits: int, spacing: float, name: str = "bus") -> FilamentSystem:
    """Parallel single-segment lines along x at a fixed spacing."""
    filaments = []
    y = 0.0
    for bit in range(bits):
        filaments.append(
            Filament(
                origin=(0.0, y, 0.0),
                length=LINE_LENGTH,
                width=LINE_WIDTH,
                thickness=LINE_THICKNESS,
                axis=Axis.X,
                wire=bit,
                segment=0,
            )
        )
        y += LINE_WIDTH + spacing
    return FilamentSystem(filaments, name=name)


# ----------------------------------------------------------------------
# scan_escalate: a 64-bit aligned bus under a planted schedule
# ----------------------------------------------------------------------
SCAN_BITS = 64
SCAN_SPACING = 2e-6
#: Aggressor offsets of the escalating burst around its centre wire.
ESCALATING_BURST = (-2, -1, 1, 2)
#: Victims that burst escalates.  The weakest of them clears the
#: threshold by about 9 %; the strongest wire left out (offset 2)
#: stays about 5 % below it.  Offsets 1 and -1 are aggressors too:
#: closed switching windows touch, so they also see the other three.
ESCALATED_OFFSETS = (-4, -3, -1, 0, 1, 3, 4)
#: Aggressor offsets of the quiet burst: it aligns two aggressors,
#: which the screen clears for every wire.
QUIET_BURST = (-1, 1)
#: Burst centres stay in this range, so every wire within offset 5 is
#: at least 16 wires (the envelope's edge reach) from a bus edge,
#: where the screen's bounds depend only on wire distance.
CENTRE_RANGE = (21, 42)
#: Minimum distance between the two burst centres.
CENTRE_GAP = 9
#: Launch times: quiet burst, then escalating burst.  The escalating
#: burst is last, so the simulation horizon is fixed.
BURST_TIMES = (2700e-12, 2900e-12)
#: Background launch slots: far enough apart that padded switching
#: windows (launch width plus about 37 ps of delay and slew) of two
#: slots never overlap.
BACKGROUND_SLOT = 80e-12
BACKGROUND_JITTER = 10e-12


def slotted_starts(
    rng: np.random.Generator, count: int, slots: int
) -> np.ndarray:
    """Launch times of ``count`` wires in ``slots`` seeded time slots.

    Wire ``i`` (in list order) takes slot ``i % slots``, so wires that
    share a slot are at least ``slots`` positions apart and no two
    nearby wires ever switch together.  The seed orders the slots in
    time and jitters each launch within its slot.
    """
    order = rng.permutation(slots)
    return np.array([
        order[i % slots] * BACKGROUND_SLOT
        + rng.uniform(0.0, BACKGROUND_JITTER)
        for i in range(count)
    ])


@dataclass(frozen=True)
class PlantedSchedule:
    switching: Tuple[Window, ...]
    centre: int
    quiet_centre: int
    victims: Tuple[int, ...]


def scan_geometry() -> FilamentSystem:
    return bus_geometry(SCAN_BITS, SCAN_SPACING, name="scan_bus64")


def planted_schedule(rng: np.random.Generator) -> PlantedSchedule:
    """Scattered background launches plus two aligned bursts.

    The seed picks both burst centres, which of the two positions gets
    the escalating burst, and the order and jitter of the background
    slots.  The escalated victims are known by construction:
    ``centre + ESCALATED_OFFSETS``.
    """
    lo, hi = CENTRE_RANGE
    first = int(rng.integers(lo, hi - CENTRE_GAP + 1))
    second = int(rng.integers(first + CENTRE_GAP, hi + 1))
    centre, quiet = (first, second) if rng.random() < 0.5 else (second, first)
    starts = np.full(SCAN_BITS, np.nan)
    for offset in QUIET_BURST:
        starts[quiet + offset] = BURST_TIMES[0]
    for offset in ESCALATING_BURST:
        starts[centre + offset] = BURST_TIMES[1]
    background = [w for w in range(SCAN_BITS) if np.isnan(starts[w])]
    starts[background] = slotted_starts(rng, len(background),
                                        (len(background) + 1) // 2)
    return PlantedSchedule(
        switching=tuple(
            Window(float(s), float(s) + SWITCH_WIDTH) for s in starts
        ),
        centre=centre,
        quiet_centre=quiet,
        victims=tuple(centre + o for o in ESCALATED_OFFSETS),
    )


# ----------------------------------------------------------------------
# sweep_family: a cold sweep over 3 geometries x 4 densities
# ----------------------------------------------------------------------
SWEEP_WIDTHS = (16, 20, 24)
SWEEP_DENSITIES = (1.5, 1.87, 2.24, 2.61)
SWEEP_SEGMENTS = 6
SWEEP_DRIVER = 150.0
#: Coupling threshold of the family's noise-window (nw) VPEC model.
SWEEP_NW_THRESHOLD = 1.5e-4


def sweep_grid(rng: np.random.Generator, tiny: bool = False) -> SweepGrid:
    """The family; the seed sets only the supply voltage.

    Noise is linear in the supply and the failure threshold is a
    fraction of it, so every supply gives the same screen decisions
    and the same simulation work, while each operation's content (and
    cache keys) differ.
    """
    base = NoiseConfig(
        vdd=round(float(rng.uniform(0.8, 1.2)), 9),
        threshold_fraction=0.55,
        period=600e-12,
        driver_resistance=SWEEP_DRIVER,
    )
    return SweepGrid(
        topologies=("nonaligned_bus",),
        widths=SWEEP_WIDTHS[:1] if tiny else SWEEP_WIDTHS,
        spacings=(2e-6,),
        drivers=(SWEEP_DRIVER,),
        densities=SWEEP_DENSITIES[:2] if tiny else SWEEP_DENSITIES,
        segments=(SWEEP_SEGMENTS,),
        base=base,
        model=ModelSpec("nw", threshold=SWEEP_NW_THRESHOLD),
    )


# ----------------------------------------------------------------------
# service_mix: rounds of unique requests
# ----------------------------------------------------------------------
#: One round: (op, bus bits, schedule seed) per request.  Noise scans
#: use fixed schedules that escalate victims, so every scan shards.
#: Nine of the ten requests are scans, and the tenth is a simulation
#: in even rounds and an extraction in odd ones.  A scan that overlaps
#: a short request on the other client finishes sooner than one that
#: overlaps another scan; with one short request in ten, the median
#: and the 90th percentile both fall inside the scans' latency
#: cluster instead of on its lower shoulder.
_NOISE_SCANS = (("noise", 12, 6), ("noise", 16, 8), ("noise", 20, 3))
SERVICE_ROUND = _NOISE_SCANS * 3 + (("other", 16, 0),)
SERVICE_THRESHOLD = 0.25
#: Extract requests cycle through distinct geometries, never repeated.
SERVICE_EXTRACT_BITS = 40


def service_requests(
    rng: np.random.Generator, rounds: int
) -> List[Dict[str, Any]]:
    """``rounds`` shuffled rounds of unique JSON request payloads.

    Each noise and simulate request carries its own seeded supply, so
    no two requests share a content key (the service memo never
    answers), while the work of every pair of rounds is the same.
    """
    payloads: List[Dict[str, Any]] = []
    for index in range(rounds):
        round_payloads = []
        for op, bits, schedule_seed in SERVICE_ROUND:
            vdd = round(float(rng.uniform(0.8, 1.2)), 9)
            if op == "other" and index % 2:
                kind = ("bus", "nonaligned_bus")[(index // 2) % 2]
                geometry = {"kind": kind,
                            "size": SERVICE_EXTRACT_BITS + index // 4,
                            "segments": 1}
                round_payloads.append({"op": "extract",
                                       "geometry": geometry})
                continue
            geometry = {"kind": "bus", "size": bits, "segments": 1}
            if op == "other":
                round_payloads.append({
                    "op": "simulate",
                    "geometry": geometry,
                    "sim": {"aggressor": int(rng.integers(0, bits)),
                            "vdd": vdd},
                })
            else:
                round_payloads.append({
                    "op": "noise",
                    "geometry": geometry,
                    "noise": {"vdd": vdd,
                              "threshold_fraction": SERVICE_THRESHOLD,
                              "schedule_seed": schedule_seed},
                })
        order = rng.permutation(len(round_payloads))
        payloads.extend(round_payloads[i] for i in order)
    return payloads
