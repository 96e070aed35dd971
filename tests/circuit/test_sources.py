"""Unit tests for source stimuli."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.sources import Stimulus, ac_unit, dc, pulse, step


class TestDc:
    def test_constant_everywhere(self):
        s = dc(2.5)
        assert s.at(0.0) == 2.5
        assert s.at(1e-9) == 2.5
        assert s.dc == 2.5

    def test_quiet_in_ac(self):
        assert dc(5.0).ac == 0.0


class TestAcUnit:
    def test_magnitude_and_phase(self):
        s = ac_unit(2.0, 90.0)
        assert abs(s.ac) == pytest.approx(2.0)
        assert cmath.phase(s.ac) == pytest.approx(cmath.pi / 2)

    def test_quiet_in_transient(self):
        s = ac_unit()
        assert s.at(0.0) == 0.0
        assert s.at(1e-9) == 0.0


class TestStep:
    def test_paper_step_profile(self):
        s = step(1.0, rise_time=10e-12)
        assert s.at(0.0) == 0.0
        assert s.at(5e-12) == pytest.approx(0.5)
        assert s.at(10e-12) == pytest.approx(1.0)
        assert s.at(1e-9) == 1.0

    def test_delay_shifts_ramp(self):
        s = step(1.0, rise_time=10e-12, delay=20e-12)
        assert s.at(20e-12) == 0.0
        assert s.at(25e-12) == pytest.approx(0.5)

    def test_falling_step(self):
        s = step(0.0, rise_time=10e-12, v_initial=1.0)
        assert s.at(0.0) == 1.0
        assert s.at(10e-12) == pytest.approx(0.0)
        assert s.ac == pytest.approx(-1.0)

    def test_rejects_zero_rise(self):
        with pytest.raises(ValueError):
            step(1.0, rise_time=0.0)

    def test_ac_view_scales_with_swing(self):
        assert step(3.0, rise_time=1e-12).ac == pytest.approx(3.0)


class TestPulse:
    def test_profile(self):
        s = pulse(0.0, 1.0, delay=0.0, rise_time=10e-12, fall_time=10e-12, width=100e-12)
        assert s.at(0.0) == 0.0
        assert s.at(5e-12) == pytest.approx(0.5)
        assert s.at(50e-12) == 1.0
        assert s.at(115e-12) == pytest.approx(0.5)
        assert s.at(200e-12) == 0.0

    def test_periodic_repeats(self):
        s = pulse(0.0, 1.0, rise_time=10e-12, fall_time=10e-12, width=80e-12, period=200e-12)
        assert s.at(250e-12) == pytest.approx(s.at(50e-12))

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            pulse(rise_time=0.0)

    def test_rejects_negative_width(self):
        with pytest.raises(ValueError):
            pulse(width=-1e-12)


class TestStimulus:
    def test_default_holds_dc(self):
        assert Stimulus(dc=0.7).at(5.0) == 0.7

    def test_repr_mentions_label(self):
        assert "PWL" in repr(step(1.0, rise_time=1e-12))

    def test_custom_callable_falls_back_to_at(self):
        s = Stimulus(transient=lambda t: 2.0 * t + 1.0)
        times = np.array([0.0, 0.5, 3.0])
        assert s.trajectory is None
        assert s.over(times).tolist() == [1.0, 2.0, 7.0]


# ----------------------------------------------------------------------
# Array evaluator == scalar evaluator, bit for bit
# ----------------------------------------------------------------------
_levels = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
_spans = st.floats(1e-13, 1e-9, allow_nan=False, allow_infinity=False)
_offsets = st.floats(0.0, 2e-9, allow_nan=False, allow_infinity=False)


def _assert_bitwise_equal(stim: Stimulus, times: np.ndarray) -> None:
    scalar = np.array([stim.at(float(t)) for t in times], dtype=float)
    vector = stim.over(times)
    assert vector.dtype == np.float64
    assert vector.shape == times.shape
    assert vector.tobytes() == scalar.tobytes()


def _sample_times(edges, extra) -> np.ndarray:
    # Every edge exactly, its float neighbours, and arbitrary samples.
    points = []
    for edge in edges:
        points += [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
    return np.array(points + list(extra), dtype=float)


class TestArrayEvaluator:
    @given(
        _levels, _levels, _spans, _offsets,
        st.lists(_offsets, max_size=20),
        st.integers(1, 400),
    )
    @settings(max_examples=200, deadline=None)
    def test_step(self, v_final, v_initial, rise, delay, extra, steps):
        stim = step(v_final, rise_time=rise, delay=delay, v_initial=v_initial)
        edges = [0.0, delay, delay + rise]
        grid = np.arange(steps + 1) * ((delay + 2 * rise) / steps)
        _assert_bitwise_equal(stim, _sample_times(edges, extra))
        _assert_bitwise_equal(stim, grid)

    @given(
        _levels, _levels, _offsets, _spans, _spans,
        st.floats(0.0, 1e-9, allow_nan=False),
        st.one_of(st.none(), st.floats(1e-12, 3e-9, allow_nan=False)),
        st.lists(st.floats(0.0, 1e-8, allow_nan=False), max_size=20),
        st.integers(1, 400),
    )
    @settings(max_examples=200, deadline=None)
    def test_pulse(self, v1, v2, delay, rise, fall, width, period, extra, steps):
        stim = pulse(v1, v2, delay=delay, rise_time=rise, fall_time=fall,
                     width=width, period=period)
        local_edges = [0.0, rise, rise + width, rise + width + fall]
        shifts = [0.0] if period is None else [0.0, period, 2 * period]
        edges = [delay + shift + edge for shift in shifts for edge in local_edges]
        span = (period or 0.0) * 2 + delay + rise + width + fall
        grid = np.arange(steps + 1) * (span / steps)
        _assert_bitwise_equal(stim, _sample_times(edges, extra))
        _assert_bitwise_equal(stim, grid)

    @given(_levels, st.lists(_offsets, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_dc(self, value, times):
        _assert_bitwise_equal(dc(value), _sample_times([0.0], times))
        _assert_bitwise_equal(Stimulus(dc=value), np.array(times, dtype=float))
