"""End-to-end acceptance gate.

Ten numbered criteria covering the special-function layer, the closed-form
bounds, both marchers, the residual certifier, the profile fit, and the
CLI figure data.  Each test prints one ``criterion N: PASS/FAIL (...)``
line (run pytest with ``-s`` to see the PASS lines too) and then asserts
the criterion as stated, including its runtime budget.

Three sub-checks are asserted as stated and are expected to fail; the
failure detail explains the measurement:

* criterion 3's "monotone non-increasing" clause — the semi-implicit first
  step overshoots by O(h^alpha) for starts near 1 (6 of 9 cases);
* criterion 6's "partial sums exceed 0.9 by n = 10/h" clause — the exact
  kernel mass at t = 10 for order 1/2 is 1 - E(-sqrt(10)) ~ 0.8298 < 0.9,
  so no step size can reach 0.9 there;
* criterion 10's "blow-up times within 10%" clause — detected blow-up
  times converge only like O(h^alpha), and at h = 1e-4 the two marchers
  still differ by 13-54% at order 0.5 and by 1.6-3.9x at order 0.3.
"""

import math
import time

import numpy as np
import pytest
from click.testing import CliRunner
from mpmath import mp
from scipy.special import gammaln

from fraclogistic.analysis import (
    blowup_bracket,
    decay_envelope,
    envelope_root,
    fit_blowup_profile,
    profile_coefficient,
)
from fraclogistic.cli import main as cli_main
from fraclogistic.oracle import caputo_residual, ml_series_highprec, pece_solve
from fraclogistic.quadrature import KernelBranch, KernelSpec, cq_weights
from fraclogistic.solver import (
    Nonlinearity,
    ProblemSpec,
    TrajectoryStatus,
    solve,
)
from fraclogistic.special import mittag_leffler

GLOBAL_GRID = [(a, u0) for a in (0.3, 0.5, 0.7) for u0 in (0.1, 0.5, 0.9)]
BLOWUP_GRID = [(a, u0) for a in (0.3, 0.5, 0.7) for u0 in (1.5, 2.0, 3.0, 5.0)]


def _report(number, passed, detail):
    line = "criterion %d: %s (%s)" % (number, "PASS" if passed else "FAIL", detail)
    print("\n" + line)
    return line


# ---------------------------------------------------------------------------
# Criterion 1 reference: three arbitrary-precision routes, none shared with
# the evaluator under test (plain series, big-float series, asymptotic tail).
# ---------------------------------------------------------------------------


def _asymptotic_reference(alpha, z):
    """Optimally truncated tail expansion -sum_k z^(-k)/Gamma(1 - a k).

    Used for z <= -250^alpha, where the first omitted term is below 1e-30.
    ``rgamma`` keeps the pole terms (1 - a k a nonpositive integer) exact
    zeros instead of raising.
    """
    with mp.workdps(60):
        zm = mp.mpf(z)
        total = mp.mpf(0)
        prev = mp.inf
        k = 1
        while k <= 400:
            term = -(zm ** (-k)) * mp.rgamma(1.0 - alpha * k)
            mag = abs(term)
            if mag > prev:
                break
            total += term
            if mag > 0:
                prev = mag
            k += 1
        return float(total)


def _bigfloat_series_reference(alpha, z):
    """Plain series in working precision sized to the cancellation peak.

    Covers the band 10 < |z| < 250^alpha where the restricted series
    anchor refuses and the asymptotic tail is not yet at full accuracy.

    Every sampled alpha is p/10, so 1/Gamma(alpha (k + 10) + 1) is
    1/Gamma(alpha k + 1) divided by prod_{i<p} (alpha k + 1 + i), an
    integer over 10^p, and ``rgamma`` runs for k < 10 only.  The series
    therefore uses the decimal alpha p/10, not its binary double: near the
    cancellation peak the terms reach 1e90 while the sum is O(1), so the
    shift must be exact for the alpha the whole series uses.  The decimal
    alpha moves the returned double by at most two units in the last place.
    """
    p = round(10 * alpha)
    assert abs(10 * alpha - p) < 1e-12, alpha
    x_peak = abs(z) ** (1.0 / alpha)
    k_peak = max(0.0, (x_peak - 0.5) / alpha)
    log_peak = k_peak * math.log(abs(z)) - float(gammaln(alpha * k_peak + 1.0))
    extra = max(0, int(math.ceil(log_peak / math.log(10.0))))
    with mp.workdps(75 + extra):
        zm = mp.mpf(z)
        am = mp.mpf(p) / 10
        total = mp.mpf(0)
        power = mp.mpf(1)
        cutoff = mp.mpf(10) ** -50
        consecutive = 0
        k = 0
        rgammas = []
        while consecutive < 10:
            if k < 10:
                rgammas.append(mp.rgamma(am * k + 1))
            else:
                # prod_{i<p} (alpha (k - 10) + 1 + i), in tenths: exact integers
                shift = 1
                for i in range(p):
                    shift *= p * (k - 10) + 10 * (1 + i)
                rgammas.append(rgammas[k - 10] * 10**p / shift)
            term = power * rgammas[k]
            total += term
            scale = abs(total)
            if scale == 0:
                scale = mp.mpf(1)
            consecutive = consecutive + 1 if abs(term) < cutoff * scale else 0
            power *= zm
            k += 1
        return float(total)


def _ml_reference(alpha, z):
    crossover = 250.0 ** alpha
    if abs(z) <= min(10.0, crossover):
        return ml_series_highprec(alpha, 1.0, z)
    if abs(z) >= crossover:
        return _asymptotic_reference(alpha, z)
    return _bigfloat_series_reference(alpha, z)


def test_criterion_01_mittag_leffler_accuracy():
    start = time.perf_counter()
    rng = np.random.default_rng(20240815)
    worst = 0.0
    worst_at = None
    for alpha in (0.3, 0.5, 0.7, 0.9):
        for z in rng.uniform(-50.0, 5.0, 50):
            value = mittag_leffler(alpha, float(z))
            ref = _ml_reference(alpha, float(z))
            # 1e-10 absolutely for O(1) values; values near z = 5 reach
            # 1e90, where an absolute 1e-10 is finer than double spacing,
            # so the metric is relative there.
            err = abs(value - ref) / max(1.0, abs(ref))
            if err > worst:
                worst, worst_at = err, (alpha, float(z))
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-10 and elapsed < 10.0
    line = _report(
        1, passed, "200 samples, worst |err|=%.3g at %s, %.1fs" % (worst, worst_at, elapsed)
    )
    assert passed, line


def test_criterion_02_bracket_containment():
    start = time.perf_counter()
    misses = []
    for alpha, u0 in BLOWUP_GRID:
        traj = solve(ProblemSpec(alpha, u0, step=1e-4, t_max=1.0))
        bracket = blowup_bracket(alpha, u0)
        if traj.status is not TrajectoryStatus.BLEW_UP:
            misses.append((alpha, u0, "no blow-up"))
        elif float(traj.times[traj.status_index]) not in bracket:
            misses.append((alpha, u0, float(traj.times[traj.status_index])))
    elapsed = time.perf_counter() - start
    passed = not misses and elapsed < 60.0
    line = _report(
        2, passed, "12/12 detected inside closed-form bracket, %.1fs" % elapsed
        if not misses
        else "misses=%s, %.1fs" % (misses, elapsed),
    )
    assert passed, line


def test_criterion_03_global_dichotomy():
    start = time.perf_counter()
    completed = in_bounds = enveloped = True
    mono_violations = []
    for alpha, u0 in GLOBAL_GRID:
        traj = solve(ProblemSpec(alpha, u0, step=1e-3, t_max=20.0))
        completed &= traj.status is TrajectoryStatus.COMPLETED
        in_bounds &= bool(np.all(traj.values > 0.0) and np.all(traj.values < 1.0))
        diffs = np.diff(traj.values)
        if np.any(diffs > 0.0):
            mono_violations.append((alpha, u0, float(np.max(diffs))))
        root = envelope_root(alpha, u0)
        mask = traj.times < root
        envelope = decay_envelope(alpha, u0, traj.times[mask])
        enveloped &= bool(np.max(traj.values[mask] - envelope) <= 1e-12)
    elapsed = time.perf_counter() - start
    monotone = not mono_violations
    passed = completed and in_bounds and monotone and enveloped and elapsed < 30.0
    line = _report(
        3,
        passed,
        "completed=%s bounds=%s envelope=%s monotone=%s, %.1fs%s"
        % (
            completed,
            in_bounds,
            enveloped,
            monotone,
            elapsed,
            ""
            if monotone
            else "; first-step overshoot O(h^a) in %d/9 cases, e.g. a=%.1f u0=%.1f rises %.2e"
            % (len(mono_violations), *mono_violations[-1]),
        ),
    )
    assert passed, line


def test_criterion_04_sandwich_estimate():
    start = time.perf_counter()
    step = 1e-4
    direct = solve(ProblemSpec(0.5, 2.0, step=step, t_max=1.0))
    lower = solve(
        ProblemSpec(0.5, 1.0, nonlinearity=Nonlinearity.SQUARE, step=step, t_max=1.0)
    )
    upper = solve(
        ProblemSpec(0.5, 1.0, nonlinearity=Nonlinearity.SHIFTED_SQUARE, step=step, t_max=1.0)
    )
    n = min(len(direct), len(lower), len(upper))
    lower_viol = float(np.max((lower.values[:n] + 1.0) - direct.values[:n]))
    upper_viol = float(np.max(direct.values[:n] - (upper.values[:n] + 1.0)))
    tol = 5.0 * step**0.5
    elapsed = time.perf_counter() - start
    passed = lower_viol <= tol and upper_viol <= tol and elapsed < 10.0
    line = _report(
        4,
        passed,
        "lower_viol=%.3g upper_viol=%.3g tol=%.3g over %d common steps, %.1fs"
        % (lower_viol, upper_viol, tol, n, elapsed),
    )
    assert passed, line


def test_criterion_05_order_one_logistic_limit():
    start = time.perf_counter()
    failures = []
    decay_spec = ProblemSpec(0.999, 0.5, step=1e-3, t_max=3.0)
    for name, march in (("cq", solve), ("pece", pece_solve)):
        traj = march(decay_spec)
        classical = 0.5 / (0.5 + 0.5 * np.exp(traj.times))
        dev = float(np.max(np.abs(traj.values - classical)))
        if dev > 1e-2:
            failures.append("%s decay dev=%.3g" % (name, dev))
    blow_spec = ProblemSpec(0.999, 2.0, step=1e-3, t_max=3.0)
    t_star = math.log(2.0)
    for name, march in (("cq", solve), ("pece", pece_solve)):
        traj = march(blow_spec)
        if traj.status is not TrajectoryStatus.BLEW_UP:
            failures.append("%s no blow-up" % name)
            continue
        rel = abs(float(traj.times[traj.status_index]) - t_star) / t_star
        if rel > 0.05:
            failures.append("%s blow-up rel=%.3g" % (name, rel))
    elapsed = time.perf_counter() - start
    passed = not failures
    line = _report(
        5,
        passed,
        "both marchers match the classical solution and ln 2 blow-up, %.1fs" % elapsed
        if passed
        else "; ".join(failures),
    )
    assert passed, line


def test_criterion_06_weight_correctness():
    start = time.perf_counter()
    h = 0.01
    table = cq_weights(KernelSpec(KernelBranch.RIEMANN_LIOUVILLE, 0.5, h), 1000)
    ref = np.empty(1001)
    ref[0] = h**0.5
    for j in range(1, 1001):
        ref[j] = ref[j - 1] * (j - 0.5) / j
    gl_err = float(np.max(np.abs(table.weights - ref) / ref))

    decay = cq_weights(KernelSpec(KernelBranch.DECAY, 0.5, h), 1000)
    sums = np.cumsum(decay.weights)
    bounded = bool(np.max(sums) <= 1.0 + 1e-8)
    n_target = int(round(10.0 / h))
    s_target = float(sums[n_target])
    reaches = s_target > 0.9

    elapsed = time.perf_counter() - start
    passed = gl_err <= 1e-10 and bounded and reaches and elapsed < 5.0
    line = _report(
        6,
        passed,
        "gl_err=%.2g bounded=%s partial_sum(n=%d)=%.4f%s, %.1fs"
        % (
            gl_err,
            bounded,
            n_target,
            s_target,
            ""
            if reaches
            else " < 0.9 (exact kernel mass at t=10 is 1-E(-sqrt(10))~0.8298,"
            " below 0.9 for every step size)",
            elapsed,
        ),
    )
    assert passed, line


def test_criterion_07_residual_certification():
    start = time.perf_counter()
    spec = ProblemSpec(0.5, 0.5, step=1e-3, t_max=2.0)
    residual = caputo_residual(solve(spec), 0.5)
    measured = float(np.max(np.abs(residual)))
    # Frozen first-run constant: 10.5 (first measurement 0.3121 at h=1e-3,
    # i.e. 9.87 h^0.5, rounded up).  Regression guard, not a derivation.
    bound = 10.5 * spec.step**0.5
    elapsed = time.perf_counter() - start
    passed = measured <= bound
    line = _report(
        7, passed, "max|residual|=%.4g bound=%.4g, %.1fs" % (measured, bound, elapsed)
    )
    assert passed, line


def test_criterion_08_profile_recovery():
    start = time.perf_counter()
    rows = []
    worst = 0.0
    for alpha in (0.3, 0.5, 0.7):
        traj = solve(
            ProblemSpec(alpha, 1.0, nonlinearity=Nonlinearity.SQUARE, step=1e-5, t_max=1.0)
        )
        _, coeff = fit_blowup_profile(traj, alpha)
        target = profile_coefficient(alpha)
        rel = abs(coeff - target) / target
        worst = max(worst, rel)
        rows.append("a=%.1f rel=%.3f" % (alpha, rel))
    elapsed = time.perf_counter() - start
    passed = worst <= 0.25
    line = _report(
        8, passed, "%s (tolerance 0.25), %.1fs" % ("; ".join(rows), elapsed)
    )
    assert passed, line


def test_criterion_09_figure_reproduction():
    start = time.perf_counter()
    runner = CliRunner()

    def detected(text):
        return [
            float(l.split("=", 1)[1])
            for l in text.splitlines()
            if l.startswith("# blowup_at=")
        ]

    fig1 = runner.invoke(cli_main, ["figure", "--figure", "1"])
    fig2 = runner.invoke(cli_main, ["figure", "--figure", "2"])
    t1 = detected(fig1.output)
    t2 = detected(fig2.output)
    ordering1 = len(t1) == 3 and t1[0] < t1[1] < t1[2]  # u0 = 5, 3, 2
    ordering2 = len(t2) == 2 and t2[0] < t2[1]  # alpha = 0.3, 0.5 at u0 = 5
    elapsed = time.perf_counter() - start
    passed = fig1.exit_code == 0 and fig2.exit_code == 0 and ordering1 and ordering2
    line = _report(
        9,
        passed,
        "figure 1 times=%s figure 2 times=%s, %.1fs" % (t1, t2, elapsed),
    )
    assert passed, line


def test_criterion_10_dual_method_agreement():
    start = time.perf_counter()
    global_fail = []
    for alpha, u0 in GLOBAL_GRID:
        spec = ProblemSpec(alpha, u0, step=1e-3, t_max=20.0)
        dev = float(np.max(np.abs(solve(spec).values - pece_solve(spec).values)))
        if dev > 5.0 * spec.step**alpha:
            global_fail.append((alpha, u0, dev))

    blowup_fail = []
    for alpha, u0 in BLOWUP_GRID:
        spec = ProblemSpec(alpha, u0, step=1e-4, t_max=1.0)
        a = solve(spec)
        b = pece_solve(spec)
        t_a = float(a.times[a.status_index])
        t_b = float(b.times[b.status_index])
        rel = abs(t_a - t_b) / t_b
        if rel > 0.10:
            blowup_fail.append("a=%.1f,u0=%.1f: cq=%.4f pece=%.4f rel=%.2f" % (alpha, u0, t_a, t_b, rel))
    elapsed = time.perf_counter() - start
    passed = not global_fail and not blowup_fail
    detail = "global 9/9 within 5h^a"
    if global_fail:
        detail = "global failures=%s" % (global_fail,)
    if blowup_fail:
        detail += ("; blow-up detection converges O(h^a), gap at h=1e-4 exceeds 10%% "
                   "in %d/12 cases: %s" % (len(blowup_fail), "; ".join(blowup_fail)))
    else:
        detail += "; blow-up times within 10% on 12/12"
    line = _report(10, passed, detail + ", %.1fs" % elapsed)
    assert passed, line
