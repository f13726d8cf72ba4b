"""Convolution-quadrature weight tests.

The backward-Euler weights have several independent handles: closed forms
for the leading coefficients, a gamma-recurrence oracle for the plain-power
branch, a direct-recurrence oracle for the decay and growth branches, the
generating function evaluated inside the unit disk, agreement of tables of
different sizes on their common prefix, and the algebraic identities linking
the three kernel symbols.
"""

import math
import warnings

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


def _decay_reference(alpha: float, h: float, n: int, sign: float = 1.0) -> np.ndarray:
    """Decay (sign = +1) or growth (sign = -1) weights from the direct
    O(n^2) recurrence of ((1 - zeta)^a + sign c) w(zeta) = c, c = h^a:

        (1 + sign c) w_m = -sum_{j>=1} b_j w_{m-j},

    where b_j < 0 are the Gruenwald-Letnikov coefficients of (1 - zeta)^a,
    so every term of the sum is positive and nothing cancels (1 - c > 0
    for h < 1)."""
    c = h**alpha
    j = np.arange(1, n + 1, dtype=float)
    neg_b = -np.cumprod((j - 1.0 - alpha) / j)
    a0 = 1.0 + sign * c
    # w_rev[n - m] = w_m, so w_{m-1}, ..., w_0 is the contiguous w_rev[n-m+1:]
    w_rev = np.empty(n + 1)
    w_rev[n] = c / a0
    for m in range(1, n + 1):
        w_rev[n - m] = np.dot(neg_b[:m], w_rev[n - m + 1 :]) / a0
    return w_rev[::-1]


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
        "branch",
        [KernelBranch.RIEMANN_LIOUVILLE, KernelBranch.DECAY, KernelBranch.GROWTH])
    def test_riemann_liouville_uses_no_contour(self, branch):
        table = cq_weights(KernelSpec(branch, 0.5, 0.01), 100)
        assert table.points == 0

    @pytest.mark.parametrize(
        "branch,alpha,h",
        [(KernelBranch.DECAY, alpha, 1e-4) for alpha in (0.3, 0.5, 0.7)]
        + [(KernelBranch.GROWTH, alpha, 1e-3) for alpha in (0.3, 0.5, 0.7)],
        ids=["0.3", "0.5", "0.7", "growth-0.3", "growth-0.5", "growth-0.7"])
    def test_decay_matches_direct_recurrence(self, branch, alpha, h):
        # Decay: the size of table a decay run at h = 1e-4 builds for
        # t <= 1.6, where a contour FFT lost 2.2e-12 to 2.9e-12 relative.
        # Growth: weights that grow like (1 - h)^-j ~ e^{t_j} up to t = 16.4,
        # where a contour FFT capped below the pole lost 1.8e-8 relative and
        # the series inverted at the pole keeps 2e-13.
        n = 16384
        sign = -1.0 if branch is KernelBranch.GROWTH else 1.0
        table = cq_weights(KernelSpec(branch, alpha, h), n)
        ref = _decay_reference(alpha, h, n, sign)
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
        # h >= 1 puts the symbol pole 1 - h at zeta <= 0: a_0 = 1 - h^a <= 0.
        for h in (1.0, 1.5):
            with pytest.raises(ContourError):
                cq_weights(KernelSpec(KernelBranch.GROWTH, 0.5, h), 10)

    def test_growth_coarse_step_below_one(self):
        h, n = 0.3, 50
        table = cq_weights(KernelSpec(KernelBranch.GROWTH, 0.5, h), n)
        ref = _decay_reference(0.5, h, n, sign=-1.0)
        assert np.all(table.weights > 0.0)
        assert np.max(np.abs(table.weights - ref) / ref) <= 1e-12

    def test_growth_overflow_raises(self):
        # (1 - h)^-n = 0.9^-8000 exceeds the largest double (t_n = 800).
        spec = KernelSpec(KernelBranch.GROWTH, 0.5, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContourError):
                cq_weights(spec, 8000)

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
        # The growth branch shares the check; the partial-sum bound that
        # the corrupted decay table still meets applies to decay only.
        decay = KernelSpec(KernelBranch.DECAY, 0.5, 0.01)
        growth = KernelSpec(KernelBranch.GROWTH, 0.5, 0.01)
        bad = cq_weights(decay, 100).weights * (1.0 + 1e-9)
        assert np.all(bad > 0.0) and np.sum(bad) <= 1.0
        assert np.all(cq_weights(growth, 100).weights > 0.0)
        self._corrupt_reciprocal(monkeypatch)
        for spec in (decay, growth):
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
        # symbol's radius of convergence (|zeta| = 1/2) the tail beyond j=64
        # is below 1e-18, so the truncated polynomial must match to full
        # precision.
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
    def test_prefix_stable_across_table_sizes(self, branch):
        # w_j depends on j alone, so a table four times longer must agree on
        # the common prefix (t <= 16.4) to rounding: RL exactly, decay and
        # growth within 2.4e-13 (1.5e-12 over alpha in {0.3, 0.5, 0.7}).  A
        # contour capped below the growth pole drifted by 3.1e-8 here.
        spec = KernelSpec(branch, 0.5, 1e-3)
        short = cq_weights(spec, 16384).weights
        long = cq_weights(spec, 65536).weights[: short.size]
        assert np.max(np.abs(short - long) / long) <= 5e-12


class TestSymbolAlgebra:
    """The three symbols satisfy exact algebraic identities; backward-Euler
    quadrature maps symbol products to weight convolutions exactly, so the
    identities survive discretization to rounding error."""

    # (n, h): a small table, and one of the size a blow-up run reaches
    # after three doublings, where the reciprocal-built weights are checked
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
        # The growth weights increase like (1 - h)^-j; the identity must
        # hold relative to that growth at the table sizes a doubling run
        # asks for.
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
