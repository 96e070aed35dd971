"""Source stimuli: DC, AC, and transient waveform descriptions.

A :class:`Stimulus` bundles the three views a SPICE-class simulator needs
of an independent source:

- ``dc``: the value used for the DC operating point (and as the transient
  value before any time-varying description kicks in);
- ``ac``: the complex phasor applied in AC analysis (0 for quiet sources);
- ``at(t)``: the transient value, and ``over(times)`` the same values
  over a whole time axis at once.

Factories mirror the paper's stimuli: :func:`step` (the 1-V step with
10 ps rise time used in every transient experiment), :func:`pulse`, and
:func:`ac_unit` (the 1-V AC drive of the frequency sweeps).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Stimulus:
    """DC / AC / transient description of an independent source.

    Parameters
    ----------
    dc:
        DC value (volts or amperes).
    ac:
        Complex AC phasor; sources with ``ac = 0`` are quiet in AC
        analysis.
    transient:
        Optional ``f(t) -> value``; when absent the source holds ``dc``.
    label:
        Short SPICE-style description used by the netlist writer
        (e.g. ``"PWL(0 0 10p 1)"``).
    trajectory:
        Optional array form of ``transient``: ``f(times) -> values``
        over a float array, equal to ``transient`` at every sample bit
        for bit.  The factories below provide it; a stimulus with a
        custom ``transient`` and no ``trajectory`` is evaluated sample
        by sample.
    """

    dc: float = 0.0
    ac: complex = 0.0
    transient: Optional[Callable[[float], float]] = field(
        default=None, compare=False
    )
    label: str = ""
    trajectory: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, compare=False
    )

    def at(self, t: float) -> float:
        """Transient value at time ``t`` (seconds)."""
        if self.transient is None:
            return self.dc
        return self.transient(t)

    def over(self, times: np.ndarray) -> np.ndarray:
        """Transient values at every entry of ``times``, as float64.

        Equals ``[self.at(t) for t in times]`` exactly: the array
        evaluator when there is one, a constant ``dc`` when there is no
        transient description, the scalar ``at`` otherwise.
        """
        times = np.asarray(times, dtype=float)
        if self.transient is None:
            return np.full(times.shape, self.dc, dtype=float)
        if self.trajectory is not None:
            return np.asarray(self.trajectory(times), dtype=float)
        return np.array([self.transient(float(t)) for t in times], dtype=float)

    def __repr__(self) -> str:
        parts = [f"dc={self.dc}"]
        if self.ac:
            parts.append(f"ac={self.ac}")
        if self.label:
            parts.append(self.label)
        return f"Stimulus({', '.join(parts)})"


def dc(value: float) -> Stimulus:
    """A constant source."""
    return Stimulus(dc=value, label=f"DC {value:g}")


def ac_unit(magnitude: float = 1.0, phase_deg: float = 0.0) -> Stimulus:
    """An AC-only source (quiet at DC and in transient analysis).

    The paper's frequency-domain experiments drive the aggressor with a
    1-V AC source from 1 Hz to 10 GHz.
    """
    phasor = magnitude * cmath.exp(1j * math.radians(phase_deg))
    return Stimulus(dc=0.0, ac=phasor, label=f"AC {magnitude:g} {phase_deg:g}")


def step(
    v_final: float = 1.0,
    rise_time: float = 10e-12,
    delay: float = 0.0,
    v_initial: float = 0.0,
) -> Stimulus:
    """A ramped step: the paper's "1-V step voltage with 10 ps rise time".

    The value is ``v_initial`` until ``delay``, ramps linearly over
    ``rise_time``, then holds ``v_final``.  The AC view is a unit phasor
    scaled by the step amplitude so the same circuit serves both analyses.
    """
    if rise_time <= 0:
        raise ValueError("rise_time must be positive (use dc() for an ideal step)")
    swing = v_final - v_initial

    def waveform(t: float) -> float:
        if t <= delay:
            return v_initial
        if t >= delay + rise_time:
            return v_final
        return v_initial + swing * (t - delay) / rise_time

    def trajectory(t: np.ndarray) -> np.ndarray:
        # Same operations in the same order as ``waveform``, branch by
        # branch, so every sample is bit-identical to the scalar form.
        ramp = v_initial + swing * (t - delay) / rise_time
        out = np.where(t >= delay + rise_time, v_final, ramp)
        return np.where(t <= delay, v_initial, out)

    label = f"PWL(0 {v_initial:g} {delay + rise_time:g} {v_final:g})"
    return Stimulus(
        dc=v_initial, ac=swing, transient=waveform, label=label,
        trajectory=trajectory,
    )


def pulse(
    v1: float = 0.0,
    v2: float = 1.0,
    delay: float = 0.0,
    rise_time: float = 10e-12,
    fall_time: float = 10e-12,
    width: float = 500e-12,
    period: Optional[float] = None,
) -> Stimulus:
    """A SPICE-style PULSE source (used for the Section V pulse drive)."""
    if rise_time <= 0 or fall_time <= 0:
        raise ValueError("rise_time and fall_time must be positive")
    if width < 0:
        raise ValueError("width must be non-negative")
    cycle = period if period is not None else math.inf

    def waveform(t: float) -> float:
        if t < delay:
            return v1
        local = t - delay
        if math.isfinite(cycle):
            local = local % cycle
        if local < rise_time:
            return v1 + (v2 - v1) * local / rise_time
        if local < rise_time + width:
            return v2
        if local < rise_time + width + fall_time:
            return v2 + (v1 - v2) * (local - rise_time - width) / fall_time
        return v1

    def trajectory(t: np.ndarray) -> np.ndarray:
        # Branch-for-branch copy of ``waveform``: later branches are
        # written first so earlier ones take precedence, as in the
        # scalar ``if`` chain.  ``np.remainder`` is Python's ``%``.
        local = t - delay
        if math.isfinite(cycle):
            local = np.remainder(local, cycle)
        rising = v1 + (v2 - v1) * local / rise_time
        falling = v2 + (v1 - v2) * (local - rise_time - width) / fall_time
        out = np.where(local < rise_time + width + fall_time, falling, v1)
        out = np.where(local < rise_time + width, v2, out)
        out = np.where(local < rise_time, rising, out)
        return np.where(t < delay, v1, out)

    label = (
        f"PULSE({v1:g} {v2:g} {delay:g} {rise_time:g} {fall_time:g} {width:g}"
        + (f" {cycle:g})" if math.isfinite(cycle) else ")")
    )
    return Stimulus(
        dc=v1, ac=v2 - v1, transient=waveform, label=label,
        trajectory=trajectory,
    )
