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

The decay symbol becomes c / ((1 - zeta)^a + c) with c = h^a, so its
weights are c times the reciprocal of the power series a(zeta) with
a_0 = 1 + c and a_j = b_j (j >= 1), where b_0 = 1, b_j = b_{j-1} (j - 1 - a)
/ j are the Gruenwald-Letnikov coefficients of (1 - zeta)^a.  Newton
iteration r <- r - r (a r - 1) mod zeta^{2m} doubles the number of correct
coefficients per step with real-FFT products, so the n + 1 weights cost
O(n log n) (Brent-Kung, "Fast algorithms for manipulating formal power
series", J. ACM 1978).  Since a_0 > 0 and a_j <= 0 for j >= 1, every
weight is positive.

Only the growth weights are extracted by FFT on a circle of radius
rho < 1; the contour analysis below applies to that branch alone.
Accuracy of the extraction is governed by two competing effects: aliasing
(contributions of coefficients j + m N folded back by the discrete sum,
proportional to rho^{N}) and rounding amplification (machine noise in the
samples divided by rho^{j}).  With rho^N = eps_c and N >= 8 (n + 1) the
amplification at j = n is at most eps_c^{-1/8} ~ 56, keeping weight errors
near 1e-13 while aliasing stays below eps_c.  The growth symbol has a pole
at zeta = 1 - h, so its weights grow like (1 - h)^{-j}
and the relative aliasing is (rho / (1 - h))^N: the radius is
rho = (1 - h) eps_c^{1/N}, capped at 1 - 2 h so the contour never
approaches the pole.  Below the cap the amplification relative to the
growing weights stays at most eps_c^{-1/8}.  Where the cap binds
(h N > ln(1/eps_c) roughly), ((1 - 2 h) / (1 - h))^N is already below
eps_c, but rounding is amplified relative to the weights by up to
((1 - h) / (1 - 2 h))^n ~ e^{t_n}: about 3e-8 at t_n = 16.
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
    """The contour extraction failed its consistency checks."""


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

    ``radius`` and ``points`` record the extraction contour for diagnostics;
    ``points == 0`` (with ``radius == 0``) means no contour was used: the
    Riemann-Liouville weights came from their closed form and the decay
    weights from a power-series reciprocal.  The discrete convolution
    (K * g)(t_m) ~ sum_{j=0}^{m} w_{m-j} g_j needs only ``weights``.
    """

    kernel: KernelSpec
    weights: np.ndarray
    radius: float
    points: int

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


def cq_weights(spec: KernelSpec, n: int, eps_contour: float = 1e-14) -> WeightTable:
    """Backward-Euler convolution quadrature weights w_0..w_n.

    Riemann-Liouville weights come from their closed-form recurrence and
    decay weights from the reciprocal of a power series; neither uses a
    contour, so ``eps_contour`` affects the growth branch only.  Raises
    :class:`ContourError` if a table fails its self-consistency checks:
    for decay, non-finite or non-positive weights, a reciprocal that does
    not reproduce the symbol, or partial sums outside (0, 1]; for growth,
    non-finite samples or weights, or a broken contour round-trip.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    h = spec.step
    j = np.arange(1, n + 1, dtype=float)
    if spec.branch is KernelBranch.RIEMANN_LIOUVILLE:
        ratios = np.cumprod((j - 1.0 + spec.alpha) / j)
        weights = h ** spec.alpha * np.concatenate(([1.0], ratios))
        return WeightTable(kernel=spec, weights=weights, radius=0.0, points=0)
    if spec.branch is KernelBranch.DECAY:
        # w = c / ((1 - zeta)^a + c): c times the reciprocal of a, whose
        # coefficients are 1 + c and the Gruenwald-Letnikov b_1, b_2, ...
        c = h ** spec.alpha
        a = np.concatenate(([1.0 + c], np.cumprod((j - 1.0 - spec.alpha) / j)))
        weights = c * _reciprocal(a)
        if not np.all(np.isfinite(weights)):
            raise ContourError(f"non-finite weights for {spec}")
        residual = _mul_trunc(a, weights, n + 1)
        residual[0] -= c
        if np.max(np.abs(residual)) > 1e-12 * c or not np.all(weights > 0.0):
            raise ContourError(f"decay weight reciprocal failed for {spec}")
        # partial sums of the decay weights approximate 1 - E_a(-t^a) and
        # must stay inside (0, 1)
        partial = np.cumsum(weights)
        if partial[0] <= 0.0 or np.max(partial) > 1.0 + 1e-8:
            raise ContourError(
                f"decay weight partial sums left (0, 1]: max={np.max(partial)}")
        return WeightTable(kernel=spec, weights=weights, radius=0.0, points=0)

    # growth: keep the contour strictly inside the pole radius |zeta| = 1 - h
    if h >= 0.25:
        raise ContourError(
            f"growth weights need step < 0.25 to separate the contour "
            f"from the symbol pole, got h={h}")
    num = 1 << max(4, int(math.ceil(math.log2(8.0 * (n + 1)))))
    rho = min((1.0 - h) * eps_contour ** (1.0 / num), 1.0 - 2.0 * h)
    zeta = rho * np.exp(2j * np.pi * np.arange(num) / num)
    samples = laplace_symbol(spec, (1.0 - zeta) / h)
    if not np.all(np.isfinite(samples.real) & np.isfinite(samples.imag)):
        raise ContourError(f"non-finite symbol samples for {spec}")

    # Taylor extraction c_j = (1/N) sum_k F_k e^{-2 pi i j k / N}: the
    # minus-sign kernel is numpy's forward fft
    coeff = np.fft.fft(samples) / num
    scale = np.max(np.abs(samples))
    # generating-function consistency: the coefficient set must reproduce
    # the samples (catches indexing/scaling mistakes in the extraction)
    recon = np.fft.ifft(coeff) * num
    if np.max(np.abs(recon - samples)) > 1e-8 * scale:
        raise ContourError(f"contour round-trip failed for {spec}")

    weights = coeff.real[: n + 1] / rho ** np.arange(n + 1)
    if not np.all(np.isfinite(weights)):
        raise ContourError(f"non-finite weights for {spec}")
    return WeightTable(kernel=spec, weights=weights, radius=rho, points=num)
