"""Unit tests for transient analysis: analytic responses, convergence."""

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from repro.circuit.dc import solve_dc
from repro.circuit.mna import build_mna
from repro.circuit.netlist import Circuit
from repro.circuit.sources import Stimulus, dc, step
from repro.circuit.transient import transient_analysis, transient_analysis_multi
from repro.pipeline.profiling import collect


def rc_circuit(r=1e3, c=1e-12, v=1.0):
    circuit = Circuit()
    circuit.add_voltage_source("in", "0", dc(v), name="V1")
    circuit.add_resistor("in", "out", r)
    circuit.add_capacitor("out", "0", c)
    return circuit


class TestAnalyticResponses:
    def test_rc_step_response(self):
        tau = 1e-9
        result = transient_analysis(
            rc_circuit(), 5e-9, 1e-12, x0=np.zeros(3)
        )
        wave = result.voltage("out")
        expected = 1.0 - np.exp(-wave.t / tau)
        assert np.max(np.abs(wave.v - expected)) < 1e-6

    def test_rl_current_rise(self):
        circuit = Circuit()
        circuit.add_voltage_source("in", "0", dc(1.0), name="V1")
        circuit.add_resistor("in", "a", 1e3)
        circuit.add_inductor("a", "0", 1e-6, name="L1")
        result = transient_analysis(
            circuit, 5e-9, 1e-12, probe_branches=["L1"], x0=np.zeros(4)
        )
        current = result.current("L1")
        expected = 1e-3 * (1.0 - np.exp(-current.t / 1e-9))
        assert np.max(np.abs(current.v - expected)) < 1e-8

    def test_lc_oscillation_frequency(self):
        # Start the capacitor charged; count the oscillation period.
        circuit = Circuit()
        circuit.add_capacitor("a", "0", 1e-12)
        circuit.add_inductor("a", "0", 1e-9, name="L1")
        x0 = np.array([1.0, 0.0])  # v(a) = 1, i(L) = 0
        period = 2 * np.pi * np.sqrt(1e-9 * 1e-12)
        result = transient_analysis(circuit, 3 * period, period / 400, x0=x0)
        wave = result.voltage("a")
        expected = np.cos(2 * np.pi * wave.t / period)
        assert np.max(np.abs(wave.v - expected)) < 0.01

    def test_lc_energy_conserved_by_trapezoidal(self):
        circuit = Circuit()
        circuit.add_capacitor("a", "0", 1e-12)
        circuit.add_inductor("a", "0", 1e-9, name="L1")
        x0 = np.array([1.0, 0.0])
        period = 2 * np.pi * np.sqrt(1e-9 * 1e-12)
        result = transient_analysis(
            circuit, 10 * period, period / 200, x0=x0, probe_branches=["L1"]
        )
        v = result.voltage("a").v
        i = result.current("L1").v
        energy = 0.5 * 1e-12 * v**2 + 0.5 * 1e-9 * i**2
        assert np.ptp(energy) / energy[0] < 1e-6

    def test_backward_euler_damps_lc(self):
        circuit = Circuit()
        circuit.add_capacitor("a", "0", 1e-12)
        circuit.add_inductor("a", "0", 1e-9, name="L1")
        x0 = np.array([1.0, 0.0])
        period = 2 * np.pi * np.sqrt(1e-9 * 1e-12)
        result = transient_analysis(
            circuit, 10 * period, period / 200, x0=x0, method="backward_euler"
        )
        wave = result.voltage("a")
        assert np.max(np.abs(wave.v[-200:])) < 0.9  # visibly damped


class TestNumericalBehavior:
    def test_trapezoidal_second_order_convergence(self):
        tau = 1e-9

        def error(dt):
            result = transient_analysis(rc_circuit(), 4e-9, dt, x0=np.zeros(3))
            wave = result.voltage("out")
            return np.max(np.abs(wave.v - (1.0 - np.exp(-wave.t / tau))))

        e1, e2 = error(20e-12), error(10e-12)
        assert e1 / e2 == pytest.approx(4.0, rel=0.2)

    def test_backward_euler_first_order_convergence(self):
        tau = 1e-9

        def error(dt):
            result = transient_analysis(
                rc_circuit(), 4e-9, dt, method="backward_euler", x0=np.zeros(3)
            )
            wave = result.voltage("out")
            return np.max(np.abs(wave.v - (1.0 - np.exp(-wave.t / tau))))

        e1, e2 = error(20e-12), error(10e-12)
        assert e1 / e2 == pytest.approx(2.0, rel=0.2)

    def test_starts_from_dc_by_default(self):
        # Sources at their t=0 values: a settled divider stays settled.
        circuit = Circuit()
        circuit.add_voltage_source("in", "0", dc(2.0), name="V1")
        circuit.add_resistor("in", "m", 1e3)
        circuit.add_resistor("m", "0", 1e3)
        circuit.add_capacitor("m", "0", 1e-12)
        result = transient_analysis(circuit, 1e-9, 1e-12)
        wave = result.voltage("m")
        assert np.allclose(wave.v, 1.0, atol=1e-9)

    def test_ramped_step_follows_source(self):
        circuit = Circuit()
        circuit.add_voltage_source("in", "0", step(1.0, rise_time=10e-12), name="V1")
        circuit.add_resistor("in", "0", 1e3)
        result = transient_analysis(circuit, 50e-12, 1e-12)
        wave = result.voltage("in")
        assert wave.v[0] == pytest.approx(0.0, abs=1e-12)
        assert wave.v[-1] == pytest.approx(1.0)


class TestValidation:
    def test_bad_method(self):
        with pytest.raises(ValueError):
            transient_analysis(rc_circuit(), 1e-9, 1e-12, method="euler")

    def test_bad_times(self):
        with pytest.raises(ValueError):
            transient_analysis(rc_circuit(), 0.0, 1e-12)
        with pytest.raises(ValueError):
            transient_analysis(rc_circuit(), 1e-9, 0.0)
        with pytest.raises(ValueError):
            transient_analysis(rc_circuit(), 1e-13, 1e-12)

    def test_wrong_x0_size(self):
        with pytest.raises(ValueError):
            transient_analysis(rc_circuit(), 1e-9, 1e-12, x0=np.zeros(99))

    def test_unprobed_node_raises(self):
        result = transient_analysis(rc_circuit(), 1e-9, 1e-12, probe_nodes=["out"])
        with pytest.raises(KeyError):
            result.voltage("in")


# ----------------------------------------------------------------------
# Quiescent-prefix skip
# ----------------------------------------------------------------------
DT = 1e-12


def coupled_pair(drive: Stimulus) -> Circuit:
    """An RLC aggressor capacitively and inductively coupled to a victim."""
    circuit = Circuit()
    circuit.add_voltage_source("in", "0", drive, name="Vagg")
    circuit.add_resistor("in", "a", 50.0)
    circuit.add_inductor("a", "b", 1e-10, name="La")
    circuit.add_capacitor("b", "0", 20e-15)
    circuit.add_voltage_source("vq", "0", dc(0.0), name="Vvic")
    circuit.add_resistor("vq", "v", 50.0)
    circuit.add_inductor("v", "w", 1e-10, name="Lv")
    circuit.add_capacitor("w", "0", 20e-15)
    circuit.add_capacitor("b", "w", 10e-15)
    circuit.add_mutual("La", "Lv", 3e-11)
    return circuit


def leaves_zero_at(k: int) -> Stimulus:
    """A 1-V step that is exactly 0.0 at samples < k, nonzero from k."""
    return step(1.0, rise_time=10e-12, delay=(k - 0.5) * DT)


def full_march(circuit, t_stop, scenarios):
    """Reference: every trapezoidal step from the DC state, no skipping.

    Scenarios advance together as one block, as in the engine, so both
    sides run the same SuperLU multi-column solves.
    """
    system = build_mna(circuit)
    steps = int(np.ceil(t_stop / DT))
    times = np.arange(steps + 1) * DT
    b = np.empty((steps + 1, system.size, len(scenarios)))
    for k, overrides in enumerate(scenarios):
        stims = list(system.stimuli)
        for name, stim in overrides.items():
            stims[system.source_index[name]] = stim
        values = np.array([[s.at(float(t)) for t in times] for s in stims])
        b[:, :, k] = (system.source_incidence() @ values).T
    g_mat, c_mat = system.G.tocsc(), system.C.tocsc()
    c_scaled = (2.0 / DT) * c_mat
    history = c_scaled - g_mat
    lhs = splu((g_mat + c_scaled).tocsc())
    x = solve_dc(system, rhs=b[0])
    states = [x]
    for n in range(1, steps + 1):
        x = lhs.solve(history @ x + b[n - 1] + b[n])
        states.append(x)
    return system, np.stack(states, axis=-1)  # (size, scenarios, samples)


def assert_matches_march(results, system, states, nodes):
    for k, result in enumerate(results):
        for node in nodes:
            want = states[system.node_row(node), k]
            # ``==``: equal up to the sign of zero.
            assert np.array_equal(result.voltage(node).v, want)


class TestQuiescentPrefix:
    NODES = ("in", "a", "b", "v", "w")

    def test_silent_prefix_is_skipped_exactly(self):
        k = 40
        circuit = coupled_pair(leaves_zero_at(k))
        with collect() as profile:
            result = transient_analysis(circuit, 120e-12, DT)
        system, states = full_march(circuit, 120e-12, [{}])
        assert_matches_march([result], system, states, self.NODES)
        assert profile.counters["transient_quiescent_steps"] == k - 1
        assert profile.counters["transient_steps"] == 120
        assert result.voltage("w").v[k + 5] != 0.0

    def test_earliest_scenario_sets_the_skip(self):
        k = 25
        circuit = coupled_pair(dc(0.0))
        scenarios = [
            {"Vagg": leaves_zero_at(60)},
            {"Vagg": leaves_zero_at(k)},
            # A custom callable without an array form still counts.
            {"Vvic": Stimulus(transient=lambda t: 0.5 if t > 70e-12 else 0.0)},
        ]
        with collect() as profile:
            results = transient_analysis_multi(circuit, 100e-12, DT, scenarios)
        system, states = full_march(circuit, 100e-12, scenarios)
        assert_matches_march(results, system, states, self.NODES)
        assert profile.counters["transient_quiescent_steps"] == (k - 1) * 3
        assert profile.counters["transient_steps"] == 100 * 3

    def test_source_nonzero_at_time_zero_is_not_skipped(self):
        circuit = coupled_pair(step(0.0, rise_time=10e-12, delay=30e-12,
                                    v_initial=1.0))
        with collect() as profile:
            result = transient_analysis(circuit, 80e-12, DT)
        system, states = full_march(circuit, 80e-12, [{}])
        assert_matches_march([result], system, states, self.NODES)
        assert profile.counters["transient_quiescent_steps"] == 0

    def test_nonzero_initial_state_is_not_skipped(self):
        circuit = coupled_pair(leaves_zero_at(50))
        x0 = np.zeros(build_mna(circuit).size)
        x0[build_mna(circuit).node_row("w")] = 0.25
        with collect() as profile:
            result = transient_analysis(circuit, 80e-12, DT, x0=x0)
        assert profile.counters["transient_quiescent_steps"] == 0
        # The charged node relaxes through the silent prefix.
        assert result.voltage("w").v[0] == 0.25
        assert result.voltage("w").v[40] != 0.25

    def test_all_silent_run_records_the_dc_state(self):
        circuit = coupled_pair(dc(0.0))
        with collect() as profile:
            result = transient_analysis(circuit, 30e-12, DT)
        assert profile.counters["transient_quiescent_steps"] == 30
        for node in self.NODES:
            assert not np.any(result.voltage(node).v)
