"""Fixed-step transient analysis (trapezoidal rule or backward Euler).

From the descriptor form ``G x + C x' = b(t)`` the one-step recurrences
are::

    trapezoidal:    (G + 2C/h) x_{n+1} = (2C/h - G) x_n + b_n + b_{n+1}
    backward Euler: (G +  C/h) x_{n+1} = (C/h) x_n + b_{n+1}

The left-hand matrix is constant for a fixed step ``h``, so it is
factorized once (scipy SuperLU) and reused for every step -- the same
structural win a production SPICE gets from fixed-timestep regions, and
the mechanism behind the paper's PEEC-vs-VPEC runtime comparison: the
factorization (and each back-substitution) is cheap exactly when the
reactive/ resistive stamps stay sparse.

There is one stepping core, :func:`transient_analysis_multi`; the
single-scenario :func:`transient_analysis` is its one-column case.  The
core

- evaluates every source trajectory with array math
  (:meth:`~repro.circuit.sources.Stimulus.over`) and forms the
  right-hand sides as one incidence-matrix product;
- skips the *quiescent prefix*: while every source of every scenario is
  exactly ``0.0`` and the initial state is zero, each step maps the zero
  state to itself, so the steps before the first active sample are not
  integrated -- their samples are the initial state, broadcast.  The
  recorded waveforms equal a full march up to the sign of zero (a
  zero state times anything sums to ``+0.0`` in the next step, so the
  first integrated step sees exactly the full march's inputs).  A
  nonzero initial state gets no skip: it is not an exact floating-point
  fixed point of the one-step map;
- builds the right-hand-side block only from the last quiet sample on,
  which bounds the largest array of a run by the active window.

The ``transient_steps`` profiling counter keeps counting every step of
the time axis per scenario (integrated or skipped);
``transient_quiescent_steps`` counts the skipped ones.

The initial condition is the DC operating point with the sources at their
``t = 0`` transient values.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.circuit.dc import solve_dc
from repro.circuit.mna import MnaSystem, build_mna
from repro.circuit.netlist import Circuit
from repro.circuit.sources import Stimulus
from repro.circuit.waveform import TransientResult
from repro.health.solvers import DEFAULT_POLICY, FallbackPolicy, factorize
from repro.pipeline.profiling import add_counter, stage

_METHODS = ("trapezoidal", "backward_euler")


def _resolve_probes(
    system: MnaSystem,
    circuit: Circuit,
    probe_nodes: Optional[Sequence[str]],
    probe_branches: Optional[Sequence[str]],
):
    """Resolve probe names to solution rows, defaulting sensibly.

    ``probe_nodes=None`` means "all nodes" only while that stays cheap
    (< 3000 unknowns).  On larger systems a caller who already named
    ``probe_branches`` clearly bounded the result -- node probes just
    default to none -- and only a caller who named nothing is asked,
    by option name, to do so.
    """
    if probe_nodes is None:
        if system.size < 3000:
            probe_nodes = circuit.nodes
        elif probe_branches is not None:
            probe_nodes = []
        else:
            raise ValueError(
                f"system has {system.size} unknowns; pass probe_nodes "
                "(and/or probe_branches) to bound result memory"
            )
    nodes = list(probe_nodes)
    branches = list(probe_branches) if probe_branches is not None else []
    node_rows = np.array([system.node_row(n) for n in nodes], dtype=int)
    branch_rows = np.array([system.branch_row(b) for b in branches], dtype=int)
    return nodes, branches, node_rows, branch_rows


def transient_analysis(
    circuit: Circuit,
    t_stop: float,
    dt: float,
    method: str = "trapezoidal",
    probe_nodes: Optional[Sequence[str]] = None,
    probe_branches: Optional[Sequence[str]] = None,
    x0: Optional[np.ndarray] = None,
    policy: Optional[FallbackPolicy] = None,
) -> TransientResult:
    """Integrate a circuit from 0 to ``t_stop`` with fixed step ``dt``.

    Parameters
    ----------
    circuit:
        The netlist to simulate.
    t_stop, dt:
        Final time and time step, seconds; the time axis is
        ``0, dt, 2 dt, ..., >= t_stop``.
    method:
        ``"trapezoidal"`` (second order, the default) or
        ``"backward_euler"`` (first order, heavily damped).
    probe_nodes, probe_branches:
        Names to record.  Defaults to all nodes when the system is small
        (< 3000 unknowns); larger systems must name their probes to keep
        memory bounded.
    x0:
        Optional initial solution vector (defaults to the DC operating
        point at the sources' ``t = 0`` values).
    policy:
        Fallback policy of the left-hand-side factorization (resilient
        by default): LU -> Tikhonov retry -> GMRES + ILU, with typed
        errors when the chain is exhausted.

    This is the one-scenario case of :func:`transient_analysis_multi`.
    """
    return transient_analysis_multi(
        circuit,
        t_stop,
        dt,
        [{}],
        method=method,
        probe_nodes=probe_nodes,
        probe_branches=probe_branches,
        policy=policy,
        x0=x0,
    )[0]


def _factorize_step(
    system: MnaSystem,
    dt: float,
    method: str,
    policy: Optional[FallbackPolicy],
):
    """Factorize the constant one-step LHS; return (factor, history op)."""
    g_mat = system.G.tocsc()
    c_mat = system.C.tocsc()
    if method == "trapezoidal":
        c_scaled = (2.0 / dt) * c_mat
        history = c_scaled - g_mat
    else:
        c_scaled = (1.0 / dt) * c_mat
        history = c_scaled
    lhs = factorize(
        (g_mat + c_scaled).tocsc(),
        policy=policy if policy is not None else DEFAULT_POLICY,
        name=f"transient LHS ({method}, dt={dt:.3g}s)",
    )
    add_counter("lu_orderings")
    return lhs, history


def transient_analysis_multi(
    circuit: Circuit,
    t_stop: float,
    dt: float,
    scenarios: Sequence[Mapping[str, Stimulus]],
    method: str = "trapezoidal",
    probe_nodes: Optional[Sequence[str]] = None,
    probe_branches: Optional[Sequence[str]] = None,
    policy: Optional[FallbackPolicy] = None,
    x0: Optional[np.ndarray] = None,
) -> List[TransientResult]:
    """Integrate one circuit under several source scenarios at once.

    Each scenario maps independent-source names to replacement
    :class:`Stimulus` objects (the multi-aggressor / multi-victim sweep
    of a noise analysis); unnamed sources keep their own stimulus, and
    an empty mapping is the circuit as written.

    The circuit is assembled and the one-step matrix factorized *once*;
    every step then advances all scenarios together through one SuperLU
    back-substitution on a ``(size, num_scenarios)`` block -- the
    classic structure-sharing multi-RHS win.  Steps before the first
    sample at which any source leaves ``0.0`` are not integrated (see
    the module docstring).  ``x0`` is an optional initial solution
    vector shared by every scenario (default: each scenario's DC
    operating point).  Returns one :class:`TransientResult` per
    scenario, in order.
    """
    if t_stop <= 0 or dt <= 0:
        raise ValueError("t_stop and dt must be positive")
    if t_stop < dt:
        raise ValueError("t_stop must be at least one time step")
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    if not scenarios:
        raise ValueError("scenarios must name at least one source mapping")

    system = build_mna(circuit)
    nodes, branches, node_rows, branch_rows = _resolve_probes(
        system, circuit, probe_nodes, probe_branches
    )

    steps = int(np.ceil(t_stop / dt))
    times = np.arange(steps + 1) * dt
    count = len(scenarios)

    # One scenario steps on vectors: SuperLU and the sparse matvec cost
    # measurably less per call on 1-D right-hand sides than on (size, 1)
    # blocks, and single-scenario runs are many and short.
    def columns(block: np.ndarray) -> np.ndarray:
        return block[..., 0] if count == 1 else block

    if x0 is None:
        b_zero = system.rhs_transient_batch_multi(times[:1], scenarios)[0]
        x = solve_dc(system, rhs=columns(b_zero))
    else:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (system.size,):
            raise ValueError("x0 has the wrong size for this circuit")
        x = columns(np.repeat(x0[:, None], count, axis=1))

    # Steps 1 .. first - 1 map the zero state to itself; integrate from
    # ``first`` on, reading sources from sample ``first - 1``.
    quiet = system.quiescent_samples(times, scenarios)
    first = max(quiet, 1) if not np.any(x) else 1
    add_counter("transient_quiescent_steps", (first - 1) * count)

    # (samples, size, count): every scenario's source trajectory over
    # the active window, time axis leading so each step reads one
    # contiguous block.
    b_all = columns(
        system.rhs_transient_batch_multi(times[first - 1:], scenarios)
    )
    add_counter("rhs_batched_steps", b_all.shape[0] * count)

    # One gather per step into a step-major trace of the probed rows.
    rows = np.concatenate([node_rows, branch_rows])
    trace = np.empty((steps + 1, rows.size) + x.shape[1:])
    with stage("solve"):
        lhs, history = _factorize_step(system, dt, method, policy)
        trace[:first] = x[rows]
        for n in range(first, steps + 1):
            b_now = b_all[n - first + 1]
            if method == "trapezoidal":
                rhs = history @ x + b_all[n - first] + b_now
            else:
                rhs = history @ x + b_now
            x = lhs.solve(rhs)
            trace[n] = x[rows]
        add_counter("transient_steps", steps * count)

    # Ground probes carry row -1 and gathered a wrapped row: they read 0.
    trace[:, rows < 0] = 0.0
    probes = trace.reshape(steps + 1, rows.size, count)
    offset = len(nodes)
    return [
        TransientResult(
            times=times,
            node_voltages={n: probes[:, i, k] for i, n in enumerate(nodes)},
            branch_currents={
                b: probes[:, offset + i, k] for i, b in enumerate(branches)
            },
            method=method,
            dt=dt,
        )
        for k in range(count)
    ]
