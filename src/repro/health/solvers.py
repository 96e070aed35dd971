"""Fault-tolerant linear-algebra kernels with an explicit escalation policy.

Every delicate solve in the flow runs through one of three chains, each
governed by a :class:`FallbackPolicy`:

- :func:`spd_inverse` (the VPEC ``L``-block inversion):
  Cholesky -> Tikhonov-regularized Cholesky (escalating ridge) ->
  eigenvalue clipping (always returns a symmetric positive definite
  inverse) -> :class:`SingularMatrixError`;
- :func:`dense_solve` (the windowed submatrix solves):
  LAPACK LU -> Tikhonov retry -> least squares (minimum-norm solution);
- :func:`factorize` (the sparse MNA systems of DC / AC / transient):
  SuperLU -> Tikhonov-regularized SuperLU -> GMRES preconditioned with
  an incomplete LU -> :class:`ConvergenceError`.

Each attempt is recorded in the active :mod:`repro.pipeline.profiling`
collector as a ``solve_<method>`` counter, and every departure from the
fast path bumps ``solve_fallbacks`` -- so a profile of a production run
shows exactly how often (and how far) the escalation fired.  Non-finite
inputs short-circuit to :class:`NonFiniteInputError` before any
factorization touches them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

import numpy as np
from scipy import linalg, sparse
from scipy.sparse.linalg import LinearOperator, gmres, spilu, splu

from repro.health.errors import (
    ConvergenceError,
    NonFiniteInputError,
    SingularMatrixError,
)
from repro.pipeline.profiling import add_counter


@dataclass(frozen=True)
class FallbackPolicy:
    """Escalation policy of the fault-tolerant solver chains.

    Attributes
    ----------
    regularize:
        Allow the Tikhonov-regularized retry (``A + mu I`` with an
        escalating ridge ``mu``).
    iterative:
        Allow the last resort: eigenvalue clipping for SPD inversion,
        GMRES + incomplete LU for sparse systems, least squares for
        dense solves.
    ridge_scale:
        Initial ridge relative to the mean diagonal magnitude.
    ridge_growth, max_ridge_attempts:
        The ridge grows by this factor per retry, at most this many
        times.
    residual_rtol:
        Acceptance threshold of the per-solve residual check
        ``||Ax - b|| <= rtol (||A|| ||x|| + ||b||)``.
    gmres_rtol, gmres_restart, gmres_maxiter:
        Tolerances of the GMRES last resort.
    """

    regularize: bool = True
    iterative: bool = True
    ridge_scale: float = 1e-12
    ridge_growth: float = 100.0
    max_ridge_attempts: int = 6
    residual_rtol: float = 1e-8
    gmres_rtol: float = 1e-10
    gmres_restart: int = 200
    gmres_maxiter: int = 400

    def with_ridges(self) -> List[float]:
        """Relative ridge magnitudes of the regularized attempts."""
        if not self.regularize:
            return []
        return [
            self.ridge_scale * self.ridge_growth**k
            for k in range(self.max_ridge_attempts)
        ]


#: Escalation enabled end to end (the circuit solvers' default).
DEFAULT_POLICY = FallbackPolicy()

#: Fail fast with a typed error instead of regularizing -- the default
#: of :func:`repro.vpec.full.invert_spd`, where a non-SPD ``L`` signals
#: an extraction bug that must not be silently repaired.
STRICT_POLICY = FallbackPolicy(regularize=False, iterative=False)


@dataclass
class SolveAttempt:
    """One recorded step of an escalation chain."""

    method: str
    succeeded: bool
    detail: str = ""


@dataclass
class AttemptLog:
    """Mutable log of the attempts one chain made (for reports/tests)."""

    attempts: List[SolveAttempt] = field(default_factory=list)

    def record(self, method: str, succeeded: bool, detail: str = "") -> None:
        self.attempts.append(SolveAttempt(method, succeeded, detail))
        add_counter(f"solve_{method}")
        if not succeeded:
            add_counter("solve_fallbacks")

    def methods(self) -> List[str]:
        return [a.method for a in self.attempts]


def require_finite(array: Any, name: str = "input") -> None:
    """Raise :class:`NonFiniteInputError` when ``array`` has NaN / inf."""
    data = array.data if sparse.issparse(array) else np.asarray(array)
    if data.size and not np.all(np.isfinite(data)):
        bad = int(np.size(data) - np.count_nonzero(np.isfinite(data)))
        raise NonFiniteInputError(
            f"{name} has {bad} non-finite entries",
            context={"name": name, "non_finite_entries": bad},
        )


def _ridge_unit(dense: np.ndarray) -> float:
    """The absolute ridge corresponding to a relative magnitude of 1."""
    diag = np.abs(np.diag(dense))
    unit = float(np.mean(diag)) if diag.size else 0.0
    if unit == 0.0:
        unit = float(np.max(np.abs(dense))) if dense.size else 1.0
    return unit or 1.0


# ----------------------------------------------------------------------
# SPD inversion (the VPEC L-block chain)
# ----------------------------------------------------------------------
def spd_inverse(
    matrix: np.ndarray,
    policy: FallbackPolicy = DEFAULT_POLICY,
    name: str = "matrix",
    log: Optional[AttemptLog] = None,
) -> np.ndarray:
    """Symmetric positive (semi)definite inverse with escalation.

    The fast path is the Cholesky inversion of the seed implementation.
    Under the default policy a non-SPD input escalates to a Tikhonov
    ridge and finally to eigenvalue clipping, both of which return a
    *symmetric positive definite* matrix by construction -- the
    certified-fallback guarantee the windowed/truncated models rely on.
    With :data:`STRICT_POLICY` the non-SPD case raises
    :class:`SingularMatrixError` immediately.
    """
    log = log if log is not None else AttemptLog()
    dense = np.asarray(matrix, dtype=float)
    require_finite(dense, name=name)
    try:
        inverse = _cholesky_inverse(dense)
        log.record("cholesky", True)
        return inverse
    except linalg.LinAlgError:
        log.record("cholesky", False, "Cholesky factorization failed")

    unit = _ridge_unit(dense)
    for relative in policy.with_ridges():
        ridge = relative * unit
        try:
            inverse = _cholesky_inverse(dense + ridge * np.eye(dense.shape[0]))
            log.record("tikhonov", True, f"ridge {ridge:.3e}")
            return inverse
        except linalg.LinAlgError:
            log.record("tikhonov", False, f"ridge {ridge:.3e}")

    if policy.iterative:
        try:
            values, vectors = linalg.eigh((dense + dense.T) / 2.0)
        except linalg.LinAlgError as error:
            raise ConvergenceError(
                f"eigendecomposition of {name} did not converge",
                context={"name": name, "attempts": log.methods()},
            ) from error
        floor = max(float(np.max(np.abs(values))), unit) * 1e-14
        clipped = np.maximum(values, floor)
        inverse = (vectors / clipped) @ vectors.T
        log.record("eig_clip", True, f"eigenvalue floor {floor:.3e}")
        return (inverse + inverse.T) / 2.0

    raise SingularMatrixError(
        f"{name} is not symmetric positive definite and the fallback "
        "policy forbids regularization",
        context={"name": name, "attempts": log.methods()},
    )


def _cholesky_inverse(dense: np.ndarray) -> np.ndarray:
    chol, lower = linalg.cho_factor(dense, lower=True, check_finite=False)
    inverse = linalg.cho_solve(
        (chol, lower), np.eye(dense.shape[0]), check_finite=False
    )
    return (inverse + inverse.T) / 2.0


# ----------------------------------------------------------------------
# Dense solves (the windowed-inverse chain)
# ----------------------------------------------------------------------
def dense_solve(
    a: np.ndarray,
    b: np.ndarray,
    policy: FallbackPolicy = DEFAULT_POLICY,
    name: str = "system",
    log: Optional[AttemptLog] = None,
) -> np.ndarray:
    """Solve a small dense system with LU -> Tikhonov -> least squares."""
    log = log if log is not None else AttemptLog()
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    require_finite(a, name=name)
    require_finite(b, name=f"{name} right-hand side")
    try:
        x = np.linalg.solve(a, b)
        if np.all(np.isfinite(x)):
            log.record("lu", True)
            return x
        log.record("lu", False, "non-finite solution")
    except np.linalg.LinAlgError:
        log.record("lu", False, "LU factorization failed")

    unit = _ridge_unit(a)
    for relative in policy.with_ridges():
        ridge = relative * unit
        try:
            x = np.linalg.solve(a + ridge * np.eye(a.shape[0]), b)
        except np.linalg.LinAlgError:
            log.record("tikhonov", False, f"ridge {ridge:.3e}")
            continue
        if np.all(np.isfinite(x)):
            log.record("tikhonov", True, f"ridge {ridge:.3e}")
            return x
        log.record("tikhonov", False, f"ridge {ridge:.3e}")

    if policy.iterative:
        x, *_ = np.linalg.lstsq(a, b, rcond=None)
        if np.all(np.isfinite(x)):
            log.record("lstsq", True)
            return x
        log.record("lstsq", False, "non-finite least-squares solution")

    raise SingularMatrixError(
        f"{name} could not be solved by any method the policy allows",
        context={"name": name, "attempts": log.methods()},
    )


# ----------------------------------------------------------------------
# Sparse MNA systems (DC / AC / transient chain)
# ----------------------------------------------------------------------
class ResilientFactor:
    """A factorized sparse system with lazy per-solve escalation.

    Tier 0 is a plain SuperLU factorization; tier 1 re-factorizes with
    an escalating Tikhonov ridge; tier 2 answers each solve with GMRES
    preconditioned by an incomplete LU.  Every solution is accepted only
    if it is finite and passes the relative residual check, so a
    *silently* wrong direct solve (huge pivot growth on a near-singular
    matrix) escalates instead of polluting downstream waveforms.  The
    chain is monotone: once a tier is abandoned it is never retried, and
    the factorization of the serving tier is reused across solves (the
    transient loop depends on that).
    """

    def __init__(
        self,
        a_csc: sparse.csc_matrix,
        policy: FallbackPolicy = DEFAULT_POLICY,
        name: str = "system",
        log: Optional[AttemptLog] = None,
    ) -> None:
        self._a = a_csc.tocsc()
        require_finite(self._a, name=name)
        self._policy = policy
        self._name = name
        self.log = log if log is not None else AttemptLog()
        self._norm = float(np.max(np.abs(self._a.data))) if self._a.nnz else 0.0
        self._unit = self._ridge_unit_sparse()
        #: pending direct factorizations: (method, ridge) tiers not yet tried
        self._pending: List[Tuple[str, float]] = [("lu", 0.0)]
        self._pending += [
            ("tikhonov", rel * self._unit) for rel in policy.with_ridges()
        ]
        self._direct: Any = None
        self._direct_method: str = "lu"
        self._passes = 0
        self._ilu: Any = None
        self.method: Optional[str] = None

    def _ridge_unit_sparse(self) -> float:
        diag = np.abs(self._a.diagonal())
        unit = float(np.mean(diag)) if diag.size else 0.0
        return unit or self._norm or 1.0

    # ------------------------------------------------------------------
    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for one right-hand side, escalating as needed."""
        rhs = np.asarray(rhs)
        require_finite(rhs, name=f"{self._name} right-hand side")
        while True:
            if self._direct is None and not self._advance():
                break
            x = self._direct.solve(rhs)
            if self._acceptable(x, rhs):
                self._passes += 1
                self.log.record(self._direct_method, True)
                self.method = self._direct_method
                return x
            self.log.record(
                self._direct_method, False, "residual check failed"
            )
            self._direct = None
            self._passes = 0
        if self._policy.iterative:
            return self._solve_gmres(rhs)
        raise SingularMatrixError(
            f"{self._name} could not be factorized by any method the "
            "policy allows (circuit may have a floating node or a "
            "source loop)",
            context={"name": self._name, "attempts": self.log.methods()},
        )

    def _advance(self) -> bool:
        """Factorize the next pending direct tier; False when exhausted."""
        while self._pending:
            method, ridge = self._pending.pop(0)
            a_mat = self._a
            if ridge > 0.0:
                a_mat = (a_mat + ridge * sparse.identity(
                    a_mat.shape[0], dtype=a_mat.dtype, format="csc"
                )).tocsc()
            try:
                self._direct = splu(a_mat)
            except (RuntimeError, ValueError) as error:
                self.log.record(method, False, str(error))
                continue
            self._direct_method = method
            return True
        return False

    def _acceptable(self, x: np.ndarray, rhs: np.ndarray) -> bool:
        if not np.all(np.isfinite(x)):
            return False
        # After a few residual-verified solves at one tier the
        # factorization has proven numerically sound; later solves (the
        # transient time loop runs thousands) skip the extra matvec.
        if self._passes >= 3:
            return True
        return self._residual_ok(x, rhs)

    def _residual_ok(self, x: np.ndarray, rhs: np.ndarray) -> bool:
        residual = self._a @ x - rhs
        bound = self._policy.residual_rtol * (
            self._norm * float(np.linalg.norm(x)) + float(np.linalg.norm(rhs))
        )
        return float(np.linalg.norm(residual)) <= bound + 1e-300

    def _solve_gmres(self, rhs: np.ndarray) -> np.ndarray:
        if rhs.ndim == 2:
            # GMRES is single-vector; batched callers fall back to a
            # column loop only on this tier.
            return np.stack(
                [self._solve_gmres(rhs[:, k]) for k in range(rhs.shape[1])],
                axis=1,
            )
        if self._ilu is None:
            ridge = self._policy.ridge_scale * self._unit
            a_mat = self._a
            if ridge > 0.0:
                a_mat = (a_mat + ridge * sparse.identity(
                    a_mat.shape[0], dtype=a_mat.dtype, format="csc"
                )).tocsc()
            try:
                self._ilu = spilu(a_mat)
            except (RuntimeError, ValueError) as error:
                self.log.record("gmres_ilu", False, f"ILU failed: {error}")
                raise SingularMatrixError(
                    f"incomplete LU of {self._name} failed; the system is "
                    "numerically singular",
                    context={"name": self._name, "attempts": self.log.methods()},
                ) from error
        preconditioner = LinearOperator(
            self._a.shape, matvec=self._ilu.solve, dtype=self._a.dtype
        )
        try:
            x, info = gmres(
                self._a,
                rhs,
                M=preconditioner,
                rtol=self._policy.gmres_rtol,
                atol=0.0,
                restart=self._policy.gmres_restart,
                maxiter=self._policy.gmres_maxiter,
            )
        except TypeError:  # scipy < 1.12 spells the tolerance `tol`
            x, info = gmres(
                self._a,
                rhs,
                M=preconditioner,
                tol=self._policy.gmres_rtol,
                atol=0.0,
                restart=self._policy.gmres_restart,
                maxiter=self._policy.gmres_maxiter,
            )
        if info == 0 and np.all(np.isfinite(x)):
            self.log.record("gmres_ilu", True)
            self.method = "gmres_ilu"
            return x
        self.log.record("gmres_ilu", False, f"gmres info={info}")
        raise ConvergenceError(
            f"GMRES on {self._name} did not converge (info={info})",
            context={"name": self._name, "attempts": self.log.methods()},
        )


def factorize(
    a_mat: "sparse.spmatrix",
    policy: FallbackPolicy = DEFAULT_POLICY,
    name: str = "system",
    log: Optional[AttemptLog] = None,
) -> ResilientFactor:
    """Factorize a sparse system behind the escalation chain."""
    return ResilientFactor(a_mat.tocsc(), policy=policy, name=name, log=log)


def sparse_solve(
    a_mat: "sparse.spmatrix",
    rhs: np.ndarray,
    policy: FallbackPolicy = DEFAULT_POLICY,
    name: str = "system",
    log: Optional[AttemptLog] = None,
) -> np.ndarray:
    """One-shot resilient sparse solve (factorize + solve)."""
    return factorize(a_mat, policy=policy, name=name, log=log).solve(rhs)
