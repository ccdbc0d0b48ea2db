"""Jacobi Poisson solver integration tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.solvers import JacobiPoissonSolver, jacobi_spectral_bound
from repro.workloads import coordinate_polynomial


def manufactured(n=18):
    """u* with lap(u*) = 12 everywhere; boundary from u*."""
    u_star = coordinate_polynomial((n, n, n), coeffs=(1.0, 2.0, 3.0))
    f = np.full_like(u_star, 12.0)
    u0 = u_star.copy()
    u0[1:-1, 1:-1, 1:-1] = 0.0
    return u0, f, u_star


class TestSolver:
    def test_converges_to_manufactured_solution(self):
        u0, f, u_star = manufactured()
        solver = JacobiPoissonSolver()
        result = solver.solve(f, u0, tol=1e-6, max_iterations=4000)
        assert result.converged
        err = np.abs(result.solution - u_star)[1:-1, 1:-1, 1:-1].max()
        assert err < 1e-3

    def test_residual_history_decreases(self):
        u0, f, _ = manufactured()
        result = JacobiPoissonSolver().solve(f, u0, tol=1e-9, max_iterations=400)
        hist = result.residual_history
        assert len(hist) >= 2
        assert hist[-1] < hist[0]

    def test_budget_exhaustion_reported(self):
        u0, f, _ = manufactured()
        result = JacobiPoissonSolver().solve(f, u0, tol=1e-30, max_iterations=30)
        assert not result.converged
        assert result.iterations == 30

    def test_forward_and_inplane_agree(self):
        u0, f, _ = manufactured(12)
        a = JacobiPoissonSolver(method="inplane").solve(f, u0, tol=1e-30, max_iterations=20)
        b = JacobiPoissonSolver(method="forward").solve(f, u0, tol=1e-30, max_iterations=20)
        np.testing.assert_allclose(a.solution, b.solution, rtol=1e-12)

    def test_weighted_jacobi_still_converges(self):
        u0, f, u_star = manufactured(14)
        result = JacobiPoissonSolver(weight=2.0 / 3.0).solve(
            f, u0, tol=1e-5, max_iterations=6000
        )
        assert result.converged

    def test_contraction_rate_matches_theory(self):
        """Measured per-sweep residual contraction approaches the Jacobi
        spectral radius — the solver really is plain Jacobi."""
        u0, f, _ = manufactured(16)
        solver = JacobiPoissonSolver()
        result = solver.solve(f, u0, tol=1e-30, max_iterations=600, check_every=100)
        hist = result.residual_history
        # Asymptotic contraction over the last 100-sweep window.
        rate = (hist[-1] / hist[-2]) ** (1 / 100)
        rho = jacobi_spectral_bound((16, 16, 16))
        assert rate == pytest.approx(rho, abs=0.02)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            JacobiPoissonSolver(weight=0.0)
        u0, f, _ = manufactured(12)
        with pytest.raises(ConfigurationError):
            JacobiPoissonSolver().solve(f, u0, tol=0.0)
        with pytest.raises(ConfigurationError):
            JacobiPoissonSolver().solve(f, u0, max_iterations=0)

    def test_spectral_bound_validation(self):
        with pytest.raises(ConfigurationError):
            jacobi_spectral_bound((2, 8, 8))


class TestSolverGuards:
    """Divergence / non-finite detection under injected memory faults."""

    def test_clean_statuses(self):
        from repro.solvers import STATUS_CONVERGED, STATUS_MAX_ITERATIONS

        u0, f, _ = manufactured()
        good = JacobiPoissonSolver().solve(f, u0, tol=1e-6, max_iterations=4000)
        assert good.status == STATUS_CONVERGED
        assert good.faults == 0 and not good.diverged
        capped = JacobiPoissonSolver().solve(f, u0, tol=1e-30, max_iterations=30)
        assert capped.status == STATUS_MAX_ITERATIONS
        assert not capped.diverged

    def test_nan_injection_detected_as_non_finite(self):
        from repro.gpusim.faults import FaultPlan
        from repro.solvers import STATUS_NON_FINITE

        u0, f, _ = manufactured()
        plan = FaultPlan(seed=1, ecc_rate=1.0, ecc_mode="nan")
        result = JacobiPoissonSolver().solve(
            f, u0, tol=1e-6, max_iterations=200, check_every=10, faults=plan
        )
        assert result.status == STATUS_NON_FINITE
        assert result.diverged and not result.converged
        assert result.iterations == 10  # caught at the first check
        assert result.faults == 10  # one corruption per sweep

    def test_bit_flips_detected_as_divergence(self):
        from repro.gpusim.faults import FaultPlan
        from repro.solvers import STATUS_DIVERGED

        u0, f, _ = manufactured()
        plan = FaultPlan(seed=0, ecc_rate=0.3, ecc_mode="flip")
        result = JacobiPoissonSolver().solve(
            f, u0, tol=1e-6, max_iterations=200, check_every=5,
            faults=plan, divergence_factor=50.0,
        )
        assert result.status == STATUS_DIVERGED
        assert result.diverged
        assert result.faults > 0
        # Stopped early instead of burning the whole sweep budget.
        assert result.iterations < 200

    def test_fault_run_is_reproducible(self):
        from repro.gpusim.faults import FaultPlan

        u0, f, _ = manufactured()

        def run():
            plan = FaultPlan(seed=4, ecc_rate=0.3, ecc_mode="flip")
            return JacobiPoissonSolver().solve(
                f, u0, tol=1e-6, max_iterations=200, check_every=5,
                faults=plan, divergence_factor=50.0,
            )

        a, b = run(), run()
        assert a.status == b.status
        assert a.iterations == b.iterations
        assert a.residual_history == b.residual_history
