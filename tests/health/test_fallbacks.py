"""Acceptance: every injected fault class ends in a typed error or a
certified fallback -- no bare ``numpy.linalg.LinAlgError`` (and no
silently non-finite result) escapes the public API."""

import numpy as np
import pytest
from scipy import sparse

from repro.health import (
    DEFAULT_POLICY,
    STRICT_POLICY,
    AttemptLog,
    ConvergenceError,
    FallbackPolicy,
    NonFiniteInputError,
    NumericalHealthError,
    SingularMatrixError,
    certify_passivity,
    dense_solve,
    factorize,
    inject_fault,
    rank_deficient,
    spd_inverse,
)
from repro.health.faults import FAULT_KINDS
from repro.pipeline.profiling import collect
from repro.vpec.flow import full_vpec, windowed_vpec
from repro.vpec.full import invert_spd


def _singular_spd(n: int = 6, drop: int = 2) -> np.ndarray:
    rng = np.random.default_rng(0)
    a = rng.normal(size=(n, n))
    return rank_deficient(a @ a.T + n * np.eye(n), drop=drop)


# ----------------------------------------------------------------------
# SPD chain (the VPEC L-block inversion)
# ----------------------------------------------------------------------
class TestSpdChain:
    def test_strict_raises_typed_singular_error(self):
        log = AttemptLog()
        with pytest.raises(SingularMatrixError) as excinfo:
            spd_inverse(_singular_spd(), policy=STRICT_POLICY, log=log)
        assert excinfo.value.context["attempts"] == ["cholesky"]
        assert log.methods() == ["cholesky"]

    def test_resilient_returns_certified_spd_inverse(self):
        log = AttemptLog()
        inverse = spd_inverse(_singular_spd(), policy=DEFAULT_POLICY, log=log)
        assert np.all(np.isfinite(inverse))
        np.testing.assert_allclose(inverse, inverse.T)
        assert np.linalg.eigvalsh(inverse)[0] > 0.0
        assert log.methods()[0] == "cholesky"
        assert log.methods()[-1] in ("tikhonov", "eig_clip")

    def test_nan_input_is_typed(self):
        bad = np.eye(3)
        bad[1, 2] = np.nan
        with pytest.raises(NonFiniteInputError):
            spd_inverse(bad, policy=DEFAULT_POLICY)

    def test_fallbacks_are_counted_in_the_profile(self):
        with collect() as profile:
            spd_inverse(_singular_spd(), policy=DEFAULT_POLICY)
        assert profile.counters["solve_cholesky"] == 1
        assert profile.counters["solve_fallbacks"] >= 1

    def test_invert_spd_is_strict_by_default(self):
        with pytest.raises(SingularMatrixError):
            invert_spd(_singular_spd())
        # Legacy spelling keeps working: the typed error *is* a
        # LinAlgError (the pre-taxonomy contract of invert_spd).
        with pytest.raises(np.linalg.LinAlgError):
            invert_spd(_singular_spd())

    def test_invert_spd_accepts_a_resilient_policy(self):
        inverse = invert_spd(_singular_spd(), policy=DEFAULT_POLICY)
        assert np.all(np.isfinite(inverse))


# ----------------------------------------------------------------------
# Dense chain (the windowed submatrix solves)
# ----------------------------------------------------------------------
class TestDenseChain:
    def test_singular_system_escalates_to_a_solution(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([2.0, 2.0])
        log = AttemptLog()
        x = dense_solve(a, b, policy=DEFAULT_POLICY, log=log)
        assert np.all(np.isfinite(x))
        np.testing.assert_allclose(a @ x, b, atol=1e-6)
        assert "lu" in log.methods()

    def test_policy_exhaustion_is_typed(self):
        a = np.zeros((2, 2))
        with pytest.raises(SingularMatrixError):
            dense_solve(a, np.ones(2), policy=STRICT_POLICY)


# ----------------------------------------------------------------------
# Sparse chain (DC / AC / transient MNA systems)
# ----------------------------------------------------------------------
class TestSparseChain:
    def _floating_pair(self):
        g = sparse.csc_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        return g, np.array([1.0, -1.0])

    def test_singular_system_escalates_past_lu(self):
        g, rhs = self._floating_pair()
        factor = factorize(g, name="floating pair")
        x = factor.solve(rhs)
        assert np.all(np.isfinite(x))
        assert factor.method != "lu"
        assert factor.log.methods()[0] == "lu"
        assert not factor.log.attempts[0].succeeded

    def test_strict_policy_is_typed(self):
        g, rhs = self._floating_pair()
        with pytest.raises(SingularMatrixError):
            factorize(g, policy=STRICT_POLICY).solve(rhs)

    def test_starved_iterative_raises_convergence_error(self):
        g, rhs = self._floating_pair()
        starved = FallbackPolicy(
            regularize=False, gmres_maxiter=1, gmres_rtol=1e-30
        )
        with pytest.raises(ConvergenceError):
            factorize(g, policy=starved).solve(rhs)

    def test_nan_rhs_is_typed(self):
        g, _ = self._floating_pair()
        with pytest.raises(NonFiniteInputError):
            factorize(sparse.identity(2, format="csc")).solve(
                np.array([1.0, np.nan])
            )


# ----------------------------------------------------------------------
# End to end: faulted parasitics through the model builders
# ----------------------------------------------------------------------
class TestFaultedModels:
    def test_rank_deficient_l_full_vpec(self, bus5):
        faulted = inject_fault(bus5, "rank_deficient_l", drop=1)
        # Strict default: typed error.
        with pytest.raises(SingularMatrixError):
            full_vpec(faulted)
        # Resilient policy: certified PSD Ghat.
        result = full_vpec(faulted, policy=DEFAULT_POLICY)
        ghat = result.model.networks[0].dense_ghat()
        assert np.all(np.isfinite(ghat))
        assert certify_passivity(ghat).certificate is not None

    def test_rank_deficient_l_windowed_vpec(self, bus5):
        faulted = inject_fault(bus5, "rank_deficient_l", drop=1)
        result = windowed_vpec(faulted, window_size=3, policy=DEFAULT_POLICY)
        ghat = result.model.networks[0].dense_ghat()
        assert np.all(np.isfinite(ghat))

    def test_sign_flipped_mutuals_are_detected(self, bus5):
        faulted = inject_fault(bus5, "sign_flipped_mutuals")
        result = full_vpec(faulted, policy=DEFAULT_POLICY)
        ghat = result.model.networks[0].dense_ghat()
        # Sign flips keep Ghat PSD (Gershgorin is sign-blind), so only
        # the Lemma-1 sign-structure check can catch them.
        assert certify_passivity(ghat).certificate is not None
        report = certify_passivity(ghat, sign_structure=True)
        assert report.certificate is None
        assert any("Lemma 1" in note for note in report.notes)

    @pytest.mark.parametrize("builder", [full_vpec, windowed_vpec])
    def test_nan_parasitics_are_typed(self, bus5, builder):
        faulted = inject_fault(bus5, "nan_parasitics")
        kwargs = {"window_size": 3} if builder is windowed_vpec else {}
        with pytest.raises(NonFiniteInputError):
            builder(faulted, policy=DEFAULT_POLICY, **kwargs)

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    @pytest.mark.parametrize("policy", [None, DEFAULT_POLICY, STRICT_POLICY])
    def test_no_bare_linalgerror_escapes(self, bus5, kind, policy):
        """The blanket guarantee: any exception out of the model
        builders on a faulted input belongs to the health taxonomy."""
        faulted = inject_fault(bus5, kind)
        for build in (
            lambda: full_vpec(faulted, policy=policy),
            lambda: windowed_vpec(faulted, window_size=3, policy=policy),
        ):
            try:
                result = build()
            except NumericalHealthError:
                continue  # typed failure: acceptable
            ghat = result.model.networks[0].dense_ghat()
            assert np.all(np.isfinite(ghat))  # or a finite fallback
