"""Convolution-quadrature weight tests.

The backward-Euler weights have several independent handles: closed forms
for the leading coefficients, a gamma-recurrence oracle for the plain-power
branch, a direct-recurrence oracle for the decay branch, generating-function
round-trips on the extraction contour, and the algebraic identities linking
the three kernel symbols.
"""

import math

import numpy as np
import pytest

import fraclogistic.quadrature as quadrature_module
from fraclogistic.quadrature import (
    ContourError,
    KernelBranch,
    KernelSpec,
    WeightTable,
    cq_weights,
    laplace_symbol,
)
from fraclogistic.solver import ProblemSpec, TrajectoryStatus, solve
from fraclogistic.special import AccuracyError, ml_grid

# Frozen regression values for the decay branch at alpha=0.5, h=0.01.
DECAY_PARTIAL_SUM_100 = 0.5730538749432164
DECAY_PARTIAL_SUM_1000 = 0.8294463308395502

# Frozen sup-norm/h bounds for the discrete mass vs the exact kernel
# integral on [0, 1] at h=0.01 (first-order method; measured then pinned).
MASS_ERROR_BOUND = {
    KernelBranch.DECAY: 3.2,
    KernelBranch.RIEMANN_LIOUVILLE: 4.0,
    KernelBranch.GROWTH: 9.0,
}


def _gl_reference(alpha: float, h: float, n: int) -> np.ndarray:
    """Grunwald-Letnikov coefficients via the stable gamma recurrence."""
    w = np.empty(n + 1)
    w[0] = h**alpha
    for j in range(1, n + 1):
        w[j] = w[j - 1] * (j - 1 + alpha) / j
    return w


def _decay_reference(alpha: float, h: float, n: int) -> np.ndarray:
    """Decay weights from the direct O(n^2) recurrence of
    ((1 - zeta)^a + c) w(zeta) = c, c = h^a:

        (1 + c) w_m = -sum_{j>=1} b_j w_{m-j},

    where b_j < 0 are the Gruenwald-Letnikov coefficients of (1 - zeta)^a,
    so every term of the sum is positive and nothing cancels."""
    c = h**alpha
    j = np.arange(1, n + 1, dtype=float)
    neg_b = -np.cumprod((j - 1.0 - alpha) / j)
    w = np.empty(n + 1)
    w[0] = c / (1.0 + c)
    for m in range(1, n + 1):
        w[m] = np.dot(neg_b[:m], w[m - 1 :: -1]) / (1.0 + c)
    return w


class TestLaplaceSymbol:
    def test_decay_at_one(self):
        spec = KernelSpec(KernelBranch.DECAY, 0.5, 0.1)
        assert laplace_symbol(spec, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_growth_at_four(self):
        spec = KernelSpec(KernelBranch.GROWTH, 0.5, 0.1)
        assert laplace_symbol(spec, 4.0) == pytest.approx(1.0, abs=1e-15)

    def test_riemann_liouville_at_four(self):
        spec = KernelSpec(KernelBranch.RIEMANN_LIOUVILLE, 0.5, 0.1)
        assert laplace_symbol(spec, 4.0) == pytest.approx(0.5, abs=1e-15)

    def test_growth_pole_raises(self):
        spec = KernelSpec(KernelBranch.GROWTH, 0.5, 0.1)
        with pytest.raises(ZeroDivisionError):
            laplace_symbol(spec, 1.0)


class TestKernelSpecValidation:
    def test_rejects_non_branch(self):
        with pytest.raises(ValueError):
            KernelSpec("decay", 0.5, 0.1)

    @pytest.mark.parametrize("alpha", [0.0, -0.3, 1.5, math.nan])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            KernelSpec(KernelBranch.DECAY, alpha, 0.1)

    @pytest.mark.parametrize("step", [0.0, -0.1, math.inf, math.nan])
    def test_rejects_bad_step(self, step):
        with pytest.raises(ValueError):
            KernelSpec(KernelBranch.DECAY, 0.5, step)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            cq_weights(KernelSpec(KernelBranch.DECAY, 0.5, 0.1), -1)


class TestClosedForms:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 1.0])
    @pytest.mark.parametrize("h", [0.5, 0.01])
    def test_decay_leading_weight(self, alpha, h):
        table = cq_weights(KernelSpec(KernelBranch.DECAY, alpha, h), 4)
        assert table.weights[0] == pytest.approx(h**alpha / (1 + h**alpha), abs=1e-13)

    def test_decay_order_one_is_geometric(self):
        # alpha=1 test mode: symbol h/((1-zeta)+h) expands geometrically.
        h = 0.1
        table = cq_weights(KernelSpec(KernelBranch.DECAY, 1.0, h), 6)
        expected = h / (1 + h) ** (1 + np.arange(7))
        np.testing.assert_allclose(table.weights, expected, rtol=0.0, atol=1e-13)
        assert expected[2] == pytest.approx(0.0751314800, abs=1e-9)

    def test_riemann_liouville_binomial_at_unit_step(self):
        table = cq_weights(KernelSpec(KernelBranch.RIEMANN_LIOUVILLE, 0.5, 1.0), 3)
        np.testing.assert_allclose(
            table.weights, [1.0, 0.5, 0.375, 0.3125], rtol=0.0, atol=1e-12
        )

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_riemann_liouville_matches_gamma_recurrence(self, alpha):
        h = 0.01
        n = 1000
        table = cq_weights(KernelSpec(KernelBranch.RIEMANN_LIOUVILLE, alpha, h), n)
        ref = _gl_reference(alpha, h, n)
        rel = np.max(np.abs(table.weights - ref) / ref)
        assert rel <= 1e-10
        assert np.all(table.weights > 0.0)

    def test_riemann_liouville_recurrence_at_production_size(self):
        # The vectorized recurrence accumulates its products in another
        # order than the scalar loop; over 2e5 factors the two agree to a
        # few hundred ulps.
        alpha, h, n = 0.3, 1e-5, 200_000
        table = cq_weights(KernelSpec(KernelBranch.RIEMANN_LIOUVILLE, alpha, h), n)
        ref = _gl_reference(alpha, h, n)
        assert np.max(np.abs(table.weights - ref) / ref) <= 1e-12

    @pytest.mark.parametrize(
        "branch", [KernelBranch.RIEMANN_LIOUVILLE, KernelBranch.DECAY])
    def test_riemann_liouville_uses_no_contour(self, branch):
        table = cq_weights(KernelSpec(branch, 0.5, 0.01), 100)
        assert table.points == 0
        assert table.radius == 0.0

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_decay_matches_direct_recurrence(self, alpha):
        # The size of table a decay run at h = 1e-4 builds for t <= 1.6.  A
        # contour FFT loses digits to rounding divided by rho^j here
        # (2.2e-12 to 2.9e-12 relative).
        h, n = 1e-4, 16384
        table = cq_weights(KernelSpec(KernelBranch.DECAY, alpha, h), n)
        ref = _decay_reference(alpha, h, n)
        assert np.all(table.weights > 0.0)
        assert np.max(np.abs(table.weights - ref) / ref) <= 1e-12


class TestDecayMass:
    def test_partial_sums_monotone_and_bounded(self):
        table = cq_weights(KernelSpec(KernelBranch.DECAY, 0.5, 0.01), 1000)
        sums = np.cumsum(table.weights)
        assert np.all(table.weights > 0.0)
        assert np.all(sums <= 1.0 + 1e-8)

    def test_partial_sum_regression(self):
        table = cq_weights(KernelSpec(KernelBranch.DECAY, 0.5, 0.01), 1000)
        sums = np.cumsum(table.weights)
        assert sums[100] == pytest.approx(DECAY_PARTIAL_SUM_100, abs=1e-12)
        assert sums[1000] == pytest.approx(DECAY_PARTIAL_SUM_1000, abs=1e-12)

    def test_partial_sum_tracks_exact_mass(self):
        # The discrete mass approximates the kernel integral: the distance
        # to 1 - E_{1/2}(-sqrt(t)) stays first-order small.
        h = 0.01
        table = cq_weights(KernelSpec(KernelBranch.DECAY, 0.5, h), 1000)
        sums = np.cumsum(table.weights)[1:]
        t = h * np.arange(1, 1001)
        exact = 1.0 - ml_grid(0.5, -np.sqrt(t))
        assert np.max(np.abs(sums - exact)) <= MASS_ERROR_BOUND[KernelBranch.DECAY] * h


class TestMassConsistency:
    @pytest.mark.parametrize(
        "branch",
        [KernelBranch.DECAY, KernelBranch.RIEMANN_LIOUVILLE, KernelBranch.GROWTH],
    )
    def test_discrete_mass_error_is_first_order(self, branch):
        h = 0.01
        n = 100
        table = cq_weights(KernelSpec(branch, 0.5, h), n)
        t = h * np.arange(1, n + 1)
        if branch is KernelBranch.DECAY:
            exact = 1.0 - ml_grid(0.5, -np.sqrt(t))
        elif branch is KernelBranch.RIEMANN_LIOUVILLE:
            exact = np.sqrt(t) / math.gamma(1.5)
        else:
            exact = ml_grid(0.5, np.sqrt(t)) - 1.0
        err = np.max(np.abs(np.cumsum(table.weights)[1:] - exact))
        assert err <= MASS_ERROR_BOUND[branch] * h


class TestContour:
    def test_growth_requires_small_step(self):
        with pytest.raises(ContourError):
            cq_weights(KernelSpec(KernelBranch.GROWTH, 0.5, 0.3), 10)

    def test_contour_error_is_accuracy_error(self):
        assert issubclass(ContourError, AccuracyError)

    @staticmethod
    def _corrupt_reciprocal(monkeypatch):
        # Off by 1e-9 relative: still finite and positive, with partial sums
        # inside (0, 1], so only the reciprocal's residual check can see it.
        original = quadrature_module._reciprocal
        monkeypatch.setattr(
            quadrature_module, "_reciprocal", lambda a: original(a) * (1.0 + 1e-9))

    def test_decay_residual_check_fires(self, monkeypatch):
        spec = KernelSpec(KernelBranch.DECAY, 0.5, 0.01)
        good = cq_weights(spec, 100).weights
        self._corrupt_reciprocal(monkeypatch)
        bad = good * (1.0 + 1e-9)
        assert np.all(bad > 0.0) and np.sum(bad) <= 1.0
        with pytest.raises(ContourError):
            cq_weights(spec, 100)

    def test_decay_residual_failure_ends_solve_at_node_zero(self, monkeypatch):
        self._corrupt_reciprocal(monkeypatch)
        traj = solve(ProblemSpec(0.5, 0.5, step=0.01, t_max=1.0))
        assert traj.status is TrajectoryStatus.ACCURACY_FAILURE
        assert traj.status_index == 0

    @pytest.mark.parametrize(
        "branch",
        [KernelBranch.DECAY, KernelBranch.RIEMANN_LIOUVILLE, KernelBranch.GROWTH],
    )
    def test_generating_function_identity(self, branch):
        # sum_j w_j zeta^j = F((1-zeta)/h).  Evaluated well inside the
        # extraction contour (|zeta| = 1/2) the tail beyond j=64 is below
        # 1e-18, so the truncated polynomial must match to full precision.
        spec = KernelSpec(branch, 0.5, 0.01)
        table = cq_weights(spec, 64)
        zeta = 0.5 * np.exp(2j * np.pi * np.arange(8) / 8)
        symbol = np.array([laplace_symbol(spec, (1.0 - z) / spec.step) for z in zeta])
        poly = np.polynomial.polynomial.polyval(zeta, table.weights)
        assert np.max(np.abs(poly - symbol)) <= 1e-10

    @pytest.mark.parametrize(
        "branch",
        [KernelBranch.DECAY, KernelBranch.RIEMANN_LIOUVILLE, KernelBranch.GROWTH],
    )
    def test_contour_independence(self, branch):
        # Cauchy's formula: the extracted coefficients cannot depend on the
        # contour radius, so tightening eps_contour must leave them fixed.
        spec = KernelSpec(branch, 0.5, 0.01)
        a = cq_weights(spec, 128, eps_contour=1e-14).weights
        b = cq_weights(spec, 128, eps_contour=1e-10).weights
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)


class TestSymbolAlgebra:
    """The three symbols satisfy exact algebraic identities; backward-Euler
    quadrature maps symbol products to weight convolutions exactly, so the
    identities survive discretization to rounding error."""

    # (n, h): a small table, and one of the size a blow-up run reaches
    # after three doublings, where the FFT-extracted weights are checked
    # against the closed-form Riemann-Liouville table.
    @pytest.mark.parametrize("n,h", [(256, 0.02), (8192, 1e-4)])
    def test_decay_from_riemann_liouville(self, n, h):
        # 1/(s^a+1) = s^-a - s^-a * 1/(s^a+1)
        dec = cq_weights(KernelSpec(KernelBranch.DECAY, 0.5, h), n).weights
        rl = cq_weights(KernelSpec(KernelBranch.RIEMANN_LIOUVILLE, 0.5, h), n).weights
        conv = np.convolve(dec, rl)[: n + 1]
        np.testing.assert_allclose(dec, rl - conv, rtol=0.0, atol=5e-12)

    def test_growth_from_riemann_liouville(self):
        # 1/(s^a-1) = s^-a + s^-a * 1/(s^a-1)
        n = 256
        h = 0.02
        gro = cq_weights(KernelSpec(KernelBranch.GROWTH, 0.5, h), n).weights
        rl = cq_weights(KernelSpec(KernelBranch.RIEMANN_LIOUVILLE, 0.5, h), n).weights
        conv = np.convolve(gro, rl)[: n + 1]
        np.testing.assert_allclose(gro, rl + conv, rtol=0.0, atol=5e-12)

    @pytest.mark.parametrize("n", [1024, 2048, 4096, 8192])
    def test_growth_identity_relative_at_doubling_sizes(self, n):
        # The growth weights increase like (1 - h)^-j, so the contour radius
        # must allow for that growth or aliasing costs digits at the table
        # sizes a doubling run asks for (4.8e-9 at n = 8192 otherwise).
        h = 1e-4
        gro = cq_weights(KernelSpec(KernelBranch.GROWTH, 0.5, h), n).weights
        rl = cq_weights(KernelSpec(KernelBranch.RIEMANN_LIOUVILLE, 0.5, h), n).weights
        conv = np.convolve(gro, rl)[: n + 1]
        assert np.max(np.abs(gro - (rl + conv)) / gro) <= 1e-10


class TestWeightTable:
    def test_metadata_round_trip(self):
        spec = KernelSpec(KernelBranch.DECAY, 0.5, 0.01)
        table = cq_weights(spec, 10)
        assert table.kernel == spec
        assert table.alpha == 0.5
        assert table.step == 0.01
        assert table.n == 10
        assert len(table.weights) == 11
        assert isinstance(table, WeightTable)

    def test_contour_metadata_sane(self):
        table = cq_weights(KernelSpec(KernelBranch.GROWTH, 0.5, 0.01), 10)
        assert 0.0 < table.radius < 1.0 - 0.01  # inside the symbol pole
        assert table.points >= 8 * 11
        assert table.points & (table.points - 1) == 0  # power of two
