"""Columnar-vs-object equivalence: the fast path computes the same bits.

The columnar stores (:mod:`repro.circuit.columns`) and the per-class
vectorized MNA stamps are pure performance work -- they must be
*bit-identical* to the one-dataclass-at-a-time path, not merely close.
A hypothesis strategy builds the same random network twice (scalar
``add_*`` calls vs bulk ``add_*_array`` calls, same element order) and
the properties assert exact equality of ``G``, ``C``, and every RHS
flavor, across all element classes including both mutual-coupling
reference forms.

The multi-RHS engines (``transient_analysis_multi`` /
``ac_analysis_multi``) share one factorization across scenarios; their
per-scenario results must equal looped single-RHS runs exactly, since
back-substitution of a matrix RHS is columnwise identical to repeated
vector back-substitution.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.circuit.ac import ac_analysis, ac_analysis_multi
from repro.circuit.mna import build_mna
from repro.circuit.netlist import Circuit
from repro.circuit.sources import Stimulus, ac_unit, dc, step
from repro.circuit.transient import (
    transient_analysis,
    transient_analysis_multi,
)

_VALUES = st.floats(min_value=1.0, max_value=1e4)
_GAINS = st.floats(min_value=-5.0, max_value=5.0)


@st.composite
def paired_circuits(draw):
    """The same random network built through both construction paths.

    Returns ``(object_circuit, columnar_circuit)``: a resistor chain off
    a driven node, ground capacitors, an inductor ladder with mutual
    couplings, and one of each controlled-source class.  Element order
    is identical on both sides, so the assembled matrices must match
    bit for bit.
    """
    node_count = draw(st.integers(min_value=3, max_value=6))
    nodes = [f"n{k}" for k in range(node_count)]
    scalar = Circuit("object-path")
    columnar = Circuit("columnar-path")

    drive = draw(st.floats(min_value=0.1, max_value=10.0))
    stimulus = step(drive, rise_time=10e-12)
    scalar.add_voltage_source(nodes[0], "0", stimulus, name="V1")
    columnar.add_voltage_source_array(
        [nodes[0]], ["0"], [stimulus], names=["V1"]
    )

    chain = [draw(_VALUES) for _ in range(1, node_count)]
    for k, value in enumerate(chain, start=1):
        scalar.add_resistor(nodes[k - 1], nodes[k], value, name=f"R{k}")
    columnar.add_resistor_array(
        nodes[:-1],
        nodes[1:],
        chain,
        names=[f"R{k}" for k in range(1, node_count)],
    )

    caps = [draw(_VALUES) * 1e-15 for _ in nodes[1:]]
    for k, value in enumerate(caps, start=1):
        scalar.add_capacitor(nodes[k], "0", value, name=f"C{k}")
    columnar.add_capacitor_array(
        nodes[1:], ["0"] * len(caps), caps, names=[f"C{k}" for k in range(1, node_count)]
    )

    # Inductor ladder: each inductor leaves a chain node for a private
    # node that a resistor returns to ground (no V-L loops possible).
    ind_count = draw(st.integers(min_value=2, max_value=4))
    ind_values = [draw(_VALUES) * 1e-12 for _ in range(ind_count)]
    ind_n1 = [nodes[k % (node_count - 1) + 1] for k in range(ind_count)]
    ind_n2 = [f"m{k}" for k in range(ind_count)]
    ind_names = [f"L{k}" for k in range(ind_count)]
    for name, n1, n2, value in zip(ind_names, ind_n1, ind_n2, ind_values):
        scalar.add_inductor(n1, n2, value, name=name)
    columnar.add_inductor_array(ind_n1, ind_n2, ind_values, names=ind_names)
    shunts = [draw(_VALUES) for _ in range(ind_count)]
    for k, value in enumerate(shunts):
        scalar.add_resistor(ind_n2[k], "0", value, name=f"Rm{k}")
    columnar.add_resistor_array(
        ind_n2,
        ["0"] * ind_count,
        shunts,
        names=[f"Rm{k}" for k in range(ind_count)],
    )

    # Mutual couplings between consecutive ladder inductors, each below
    # the |k| < 1 physical bound.
    mut_values = [
        draw(st.floats(min_value=0.01, max_value=0.9))
        * np.sqrt(ind_values[k] * ind_values[k + 1])
        for k in range(ind_count - 1)
    ]
    mut_names = [f"K{k}" for k in range(ind_count - 1)]
    for k, value in enumerate(mut_values):
        scalar.add_mutual(ind_names[k], ind_names[k + 1], value, name=mut_names[k])
    columnar.add_mutual_array(
        ind_names[:-1], ind_names[1:], mut_values, names=mut_names
    )

    source_ac = draw(st.floats(min_value=0.1, max_value=2.0))
    scalar.add_current_source(nodes[-1], "0", ac_unit(source_ac), name="I1")
    columnar.add_current_source_array(
        [nodes[-1]], ["0"], [ac_unit(source_ac)], names=["I1"]
    )

    gains = [draw(_GAINS) for _ in range(3)]
    scalar.add_vcvs(nodes[2], "0", nodes[0], nodes[1], gains[0], name="E1")
    columnar.add_vcvs_array(
        [nodes[2]], ["0"], [nodes[0]], [nodes[1]], [gains[0]], names=["E1"]
    )
    scalar.add_vccs(nodes[1], "0", nodes[2], "0", gains[1], name="G1")
    columnar.add_vccs_array(
        [nodes[1]], ["0"], [nodes[2]], ["0"], [gains[1]], names=["G1"]
    )
    scalar.add_cccs(nodes[2], "0", "V1", gains[2], name="F1")
    columnar.add_cccs_array(
        [nodes[2]], ["0"], ["V1"], [gains[2]], names=["F1"]
    )
    return scalar, columnar


def _dense(matrix):
    return np.asarray(matrix.todense())


@settings(max_examples=25, deadline=None)
@given(paired_circuits())
def test_columnar_assembly_bit_identical(pair):
    """G, C, and every RHS flavor match the object path exactly."""
    scalar, columnar = pair
    a = build_mna(scalar)
    b = build_mna(columnar)
    assert a.size == b.size
    assert np.array_equal(_dense(a.G), _dense(b.G))
    assert np.array_equal(_dense(a.C), _dense(b.C))
    assert np.array_equal(a.rhs_dc(), b.rhs_dc())
    assert np.array_equal(a.rhs_ac(), b.rhs_ac())
    times = np.linspace(0.0, 50e-12, 7)
    assert np.array_equal(
        a.rhs_transient_batch_multi(times, [{}]),
        b.rhs_transient_batch_multi(times, [{}]),
    )
    for t in times:
        assert np.array_equal(a.rhs_transient(float(t)), b.rhs_transient(float(t)))


@settings(max_examples=25, deadline=None)
@given(paired_circuits())
def test_columnar_iteration_matches_object(pair):
    """Store iteration materializes the same element records, in order."""
    scalar, columnar = pair
    for left, right in zip(scalar, columnar):
        assert left == right
    assert len(scalar) == len(columnar)
    for element in scalar:
        assert columnar.element(element.name) == element
        assert columnar.kind_of(element.name) is type(element)


def test_positional_mutual_matches_name_form():
    """`store=`/`positions=` couplings assemble exactly like named ones."""

    def base(circuit):
        circuit.add_voltage_source("a", "0", dc(1.0), name="V1")
        circuit.add_resistor("a", "b", 10.0, name="Rab")
        circuit.add_resistor("c", "0", 20.0, name="Rc0")
        circuit.add_resistor("d", "0", 30.0, name="Rd0")
        return circuit.add_inductor_array(
            ["b", "b", "c"],
            ["c", "d", "d"],
            [1e-9, 2e-9, 3e-9],
            names=["L0", "L1", "L2"],
        )

    named = Circuit("named")
    base(named)
    named.add_mutual_array(
        ["L0", "L0", "L1"],
        ["L1", "L2", "L2"],
        [0.2e-9, 0.3e-9, 0.4e-9],
        names=["K0", "K1", "K2"],
    )

    positional = Circuit("positional")
    store = base(positional)
    positional.add_mutual_array(
        None,
        None,
        [0.2e-9, 0.3e-9, 0.4e-9],
        names=["K0", "K1", "K2"],
        store=store,
        positions=([0, 0, 1], [1, 2, 2]),
    )

    a = build_mna(named)
    b = build_mna(positional)
    assert np.array_equal(_dense(a.G), _dense(b.G))
    assert np.array_equal(_dense(a.C), _dense(b.C))
    # Lazy name resolution yields identical materialized records.
    assert [e for e in named] == [e for e in positional]
    assert positional.element("K1").inductor2 == "L2"


def _sim_circuit(vs_stim=None, is_stim=None):
    circuit = Circuit("multi-rhs")
    circuit.add_voltage_source(
        "in", "0", vs_stim or step(1.0, rise_time=10e-12), name="Vs"
    )
    circuit.add_resistor("in", "mid", 50.0, name="R1")
    circuit.add_capacitor("mid", "0", 1e-12, name="C1")
    circuit.add_inductor("mid", "out", 1e-9, name="L1")
    circuit.add_resistor("out", "0", 75.0, name="R2")
    circuit.add_current_source("out", "0", is_stim or ac_unit(0.5), name="Is")
    return circuit


def test_transient_multi_equals_looped_single():
    circuit = _sim_circuit()
    scenarios = [
        {},
        {"Vs": step(2.0, rise_time=20e-12)},
        {"Vs": dc(0.5), "Is": dc(1e-3)},
    ]
    batched = transient_analysis_multi(
        circuit, 100e-12, 1e-12, scenarios, probe_nodes=["mid", "out"],
        probe_branches=["L1"],
    )
    assert len(batched) == len(scenarios)
    for overrides, result in zip(scenarios, batched):
        rebuilt = _sim_circuit(
            vs_stim=overrides.get("Vs"), is_stim=overrides.get("Is")
        )
        single = transient_analysis(
            rebuilt, 100e-12, 1e-12, probe_nodes=["mid", "out"],
            probe_branches=["L1"],
        )
        for node in ("mid", "out"):
            assert np.array_equal(
                result.voltage(node).v, single.voltage(node).v
            )
        assert np.array_equal(result.current("L1").v, single.current("L1").v)


def test_ac_multi_equals_looped_single():
    circuit = _sim_circuit()
    freqs = np.logspace(6, 10, 13)
    scenarios = [{}, {"Vs": 2.0 + 0.0j}, {"Vs": 0.0j, "Is": 1.0 + 1.0j}]
    batched = ac_analysis_multi(
        circuit, freqs, scenarios, probe_nodes=["mid", "out"]
    )
    assert len(batched) == len(scenarios)
    for overrides, result in zip(scenarios, batched):
        rebuilt = _sim_circuit(
            vs_stim=(
                Stimulus(ac=overrides["Vs"]) if "Vs" in overrides else None
            ),
            is_stim=(
                Stimulus(ac=overrides["Is"]) if "Is" in overrides else None
            ),
        )
        single = ac_analysis(rebuilt, freqs, probe_nodes=["mid", "out"])
        for node in ("mid", "out"):
            assert np.array_equal(
                result.node_voltages[node], single.node_voltages[node]
            )
