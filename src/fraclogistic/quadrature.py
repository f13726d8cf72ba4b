"""Convolution quadrature weights for the Volterra kernels of the model.

The solver rewrites the fractional initial value problem as a Volterra
equation whose convolution kernels have elementary Laplace transforms:

    decay kernel      t^{a-1} E_{a,a}(-t^a)   <->  1 / (s^a + 1)
    growth kernel     t^{a-1} E_{a,a}(+t^a)   <->  1 / (s^a - 1)
    Riemann-Liouville t^{a-1} / Gamma(a)      <->  s^{-a}

Backward-Euler convolution quadrature replaces s by delta(zeta)/h with
delta(zeta) = 1 - zeta; the quadrature weights are the Taylor coefficients
of F(delta(zeta)/h).  For the Riemann-Liouville symbol these are the
Gruenwald-Letnikov coefficients of (1 - zeta)^(-a), which follow exactly
from the recurrence w_0 = h^a, w_j = w_{j-1} (j - 1 + a) / j (Lubich,
"Discretized fractional calculus", SIAM J. Math. Anal. 1986).

The decay and growth symbols become c / ((1 - zeta)^a +- c) with c = h^a,
so their weights are c times the reciprocal of the power series a(zeta)
with a_0 = 1 +- c (+ for decay, - for growth) and a_j = b_j (j >= 1), where
b_0 = 1, b_j = b_{j-1} (j - 1 - a) / j are the Gruenwald-Letnikov
coefficients of (1 - zeta)^a.  Newton iteration r <- r - r (a r - 1) mod
zeta^{2m} doubles the number of correct coefficients per step with
real-FFT products, so the n + 1 weights cost O(n log n) (Brent-Kung, "Fast
algorithms for manipulating formal power series", J. ACM 1978).  Since
a_0 > 0 and a_j < 0 for j >= 1, every weight is positive; for growth
a_0 > 0 needs c < 1, that is h < 1.  The growth symbol has its pole at
zeta = 1 - h, so its weights grow like (1 - h)^{-j} ~ e^{t_j}.  That branch
inverts the scaled series a_j rho^j with rho = 1 - h, which moves the pole
to zeta = 1, where the reciprocal's coefficients tend to a constant;
dividing them by rho^j then costs one rounding per weight at any horizon.
A growth table whose weights leave the floating-point range (past
t ~ 709 for small h) is rejected.  The decay series is inverted unscaled.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .special import AccuracyError

__all__ = ["KernelBranch", "KernelSpec", "WeightTable", "ContourError",
           "laplace_symbol", "cq_weights"]


class ContourError(AccuracyError):
    """A weight table failed its consistency checks."""


class KernelBranch(enum.Enum):
    DECAY = "decay"
    GROWTH = "growth"
    RIEMANN_LIOUVILLE = "riemann-liouville"


@dataclass(frozen=True)
class KernelSpec:
    """Identifies one convolution kernel: branch, order and step size."""

    branch: KernelBranch
    alpha: float
    step: float

    def __post_init__(self) -> None:
        if not isinstance(self.branch, KernelBranch):
            raise ValueError(f"branch must be a KernelBranch, got {self.branch!r}")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(
                f"alpha must be in (0, 1] (1 is test-mode), got {self.alpha!r}")
        if not (
            isinstance(self.step, (int, float))
            and math.isfinite(self.step)
            and self.step > 0.0
        ):
            raise ValueError(f"step must be a finite positive real, got {self.step!r}")


def laplace_symbol(spec: KernelSpec, s: complex | np.ndarray) -> complex | np.ndarray:
    """Laplace transform of the kernel at s with Re s > 0.

    ``s`` is a point or an array of points; the result has the same shape.
    """
    sa = s ** spec.alpha
    if spec.branch is KernelBranch.DECAY:
        return 1.0 / (sa + 1.0)
    if spec.branch is KernelBranch.GROWTH:
        if np.any(np.abs(sa - 1.0) < 1e-12):
            raise ZeroDivisionError(
                f"growth symbol evaluated at its pole, s={s!r}")
        return 1.0 / (sa - 1.0)
    return 1.0 / sa


@dataclass(frozen=True)
class WeightTable:
    """Convolution quadrature weights w_0..w_n for one kernel.

    ``points``, the number of contour samples a table was extracted from,
    is always 0: Riemann-Liouville weights come from their closed form,
    decay and growth weights from a power-series reciprocal.  The discrete
    convolution (K * g)(t_m) ~ sum_{j=0}^{m} w_{m-j} g_j needs only
    ``weights``.
    """

    kernel: KernelSpec
    weights: np.ndarray
    points: int = 0

    @property
    def alpha(self) -> float:
        return self.kernel.alpha

    @property
    def step(self) -> float:
        return self.kernel.step

    @property
    def n(self) -> int:
        return len(self.weights) - 1


def _mul_trunc(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Coefficients 0..m-1 of the product of two power series, by real FFT."""
    size = 1 << max(1, 2 * m - 2).bit_length()
    return np.fft.irfft(np.fft.rfft(a[:m], size) * np.fft.rfft(b[:m], size), size)[:m]


def _reciprocal(a: np.ndarray) -> np.ndarray:
    """Coefficients 0..len(a)-1 of 1/a(zeta), by Newton doubling."""
    r = np.array([1.0 / a[0]])
    while len(r) < len(a):
        m = min(2 * len(r), len(a))
        e = _mul_trunc(a, r, m)
        e[0] -= 1.0
        r = np.concatenate((r, np.zeros(m - len(r)))) - _mul_trunc(r, e, m)
    return r


def cq_weights(spec: KernelSpec, n: int) -> WeightTable:
    """Backward-Euler convolution quadrature weights w_0..w_n.

    Riemann-Liouville weights come from their closed-form recurrence, decay
    and growth weights from the reciprocal of a power series.  Raises
    :class:`ContourError` for a growth step h >= 1, or if a table fails its
    self-consistency checks: a reciprocal that is not finite, not positive
    or does not reproduce the series it inverts, growth weights past the
    floating-point range, or decay partial sums outside (0, 1].
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    h = spec.step
    j = np.arange(1, n + 1, dtype=float)
    if spec.branch is KernelBranch.RIEMANN_LIOUVILLE:
        ratios = np.cumprod((j - 1.0 + spec.alpha) / j)
        weights = h ** spec.alpha * np.concatenate(([1.0], ratios))
        return WeightTable(kernel=spec, weights=weights)
    # w = c / ((1 - zeta)^a +- c): c times the reciprocal of a, whose
    # coefficients are 1 +- c and the Gruenwald-Letnikov b_1, b_2, ...
    c = h ** spec.alpha
    growth = spec.branch is KernelBranch.GROWTH
    if growth and c >= 1.0:
        raise ContourError(
            f"growth weights need step < 1 to keep the symbol pole 1 - h "
            f"inside the unit disk, got h={h}")
    a = np.concatenate(([1.0 - c if growth else 1.0 + c],
                        np.cumprod((j - 1.0 - spec.alpha) / j)))
    if growth:
        # expand in zeta / rho with rho = 1 - h, the symbol pole, where the
        # reciprocal's coefficients stay bounded
        rho_j = (1.0 - h) ** np.arange(n + 1)
        a *= rho_j
    r = _reciprocal(a)
    residual = _mul_trunc(a, r, n + 1)
    residual[0] -= 1.0
    if not (np.all(np.isfinite(r)) and np.max(np.abs(residual)) <= 1e-12
            and np.all(r > 0.0)):
        raise ContourError(f"weight reciprocal failed for {spec}")
    if not growth:
        weights = c * r
        # partial sums of the decay weights approximate 1 - E_a(-t^a) and
        # must stay inside (0, 1)
        partial = np.cumsum(weights)
        if partial[0] <= 0.0 or np.max(partial) > 1.0 + 1e-8:
            raise ContourError(
                f"decay weight partial sums left (0, 1]: max={np.max(partial)}")
        return WeightTable(kernel=spec, weights=weights)
    with np.errstate(over="ignore", divide="ignore"):
        weights = c * r / rho_j
    if not np.all(np.isfinite(weights)):
        raise ContourError(f"growth weights overflow for {spec} at n={n}")
    return WeightTable(kernel=spec, weights=weights)
