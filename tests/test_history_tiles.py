"""The tiled history sum of the march against the direct sum it replaces.

``direct_march`` below is the marcher with one O(m) dot product per node
over the whole forcing history, kept here as the reference.  The production
march reaches the same sum through a direct dot over the node's base block
plus dyadic tiles for everything older, so the two agree to rounding, not
bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fraclogistic.solver as solver_module
from fraclogistic.quadrature import KernelSpec
from fraclogistic.solver import (
    Nonlinearity,
    ProblemSpec,
    Trajectory,
    TrajectoryStatus,
    solve,
)
from fraclogistic.special import AccuracyError

BLOCK = solver_module._BLOCK


def direct_march(spec, picard=False):
    """Reference march: the full history sum as one dot product per node."""
    h = float(spec.step)
    n_steps = max(1, int(math.floor(spec.t_max / h + 1e-9)))
    times = h * np.arange(n_steps + 1, dtype=float)
    kernel = KernelSpec(solver_module._BRANCH[spec.nonlinearity], spec.alpha, h)
    global_start = spec.nonlinearity is Nonlinearity.LOGISTIC and spec.u0 <= 1.0
    n_table = n_steps if global_start else min(solver_module._FIRST_TABLE, n_steps)
    first = Trajectory(
        times[:1], np.array([float(spec.u0)]), TrajectoryStatus.ACCURACY_FAILURE, 0
    )

    g = solver_module._FORCING[spec.nonlinearity]
    try:
        weights = solver_module.cq_weights(kernel, n_table).weights
    except AccuracyError:
        return first
    w0 = float(weights[0])
    denom = 1.0 - w0
    wrev = np.ascontiguousarray(weights[::-1])
    hom, hom_valid = solver_module._homogeneous(spec, times[: n_table + 1])
    if hom_valid == 0:
        return first

    values = np.empty(n_steps + 1)
    forcing = np.empty(n_steps + 1)
    values[0] = float(spec.u0)
    forcing[0] = g(values[0])
    threshold = float(spec.blowup_threshold)
    finalize = solver_module._finalize

    for m in range(1, n_steps + 1):
        if m > n_table:
            n_table = min(2 * n_table, n_steps)
            try:
                weights = solver_module.cq_weights(kernel, n_table).weights
            except AccuracyError:
                return finalize(times, values, m - 1, threshold, accuracy_failed=True)
            wrev = np.ascontiguousarray(weights[::-1])
            more, more_valid = solver_module._homogeneous(spec, times[m : n_table + 1])
            hom = np.concatenate((hom, more))
            hom_valid += more_valid
        if m >= hom_valid:
            return finalize(times, values, m - 1, threshold, accuracy_failed=True)
        base = float(hom[m]) + float(np.dot(wrev[n_table - m : n_table], forcing[:m]))
        u = base / denom
        if picard and math.isfinite(u):
            prev = u
            for _ in range(25):
                cur = base + w0 * g(prev)
                if not math.isfinite(cur):
                    break
                if abs(cur - prev) <= 1e-12 * max(1.0, abs(cur)):
                    u = cur
                    break
                prev = cur
        if not math.isfinite(u):
            return finalize(times, values, m - 1, threshold, accuracy_failed=True)
        values[m] = u
        fw = g(u)
        forcing[m] = fw if math.isfinite(fw) else math.inf
        if u > threshold and solver_module._recent_increase(values, m):
            return Trajectory(
                times[: m + 1], values[: m + 1].copy(), TrajectoryStatus.BLEW_UP, m
            )
    return Trajectory(times, values, TrajectoryStatus.COMPLETED, None)


def assert_matches_direct(traj, ref):
    """Same status and node count; values within 1e-12 relative where
    |u| <= 10 and 1e-10 relative above that."""
    assert traj.status is ref.status
    assert traj.status_index == ref.status_index
    assert np.array_equal(traj.times, ref.times)
    rel = np.abs(traj.values - ref.values) / np.maximum(np.abs(ref.values), 1e-300)
    small = np.abs(ref.values) <= 10.0
    assert np.all(rel[small] <= 1e-12), rel[small].max()
    assert np.all(rel[~small] <= 1e-10), rel[~small].max()


# Node counts that end a base block exactly, one past it and one short of
# the next, and node counts just past a weight-table size (1024 * 2^k), so
# runs that keep marching cross doublings and end on a short last table.
_NODE_COUNTS = st.one_of(
    st.builds(
        lambda q, r: max(1, BLOCK * q + r),
        st.integers(0, 40),
        st.sampled_from([0, 1, BLOCK - 1]),
    ),
    st.builds(
        lambda k, d: 1024 * 2**k + d,
        st.integers(0, 2),
        st.sampled_from([1, 2, BLOCK + 1]),
    ),
)

_STARTS = {
    Nonlinearity.LOGISTIC: st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 3.0)),
    Nonlinearity.SHIFTED_LOGISTIC: st.floats(0.05, 1.0),
    Nonlinearity.SQUARE: st.floats(0.05, 1.0),
    Nonlinearity.SHIFTED_SQUARE: st.floats(0.05, 1.0),
}


@st.composite
def _cases(draw):
    nonlinearity = draw(st.sampled_from(list(Nonlinearity)))
    n_steps = draw(_NODE_COUNTS)
    t_max = draw(st.floats(0.02, 1.0))
    spec = ProblemSpec(
        alpha=draw(st.floats(0.2, 0.9)),
        u0=draw(_STARTS[nonlinearity]),
        nonlinearity=nonlinearity,
        step=t_max / n_steps,
        t_max=t_max,
    )
    return spec, draw(st.booleans())


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_cases())
def test_tiled_march_matches_direct_sum(case):
    spec, picard = case
    assert_matches_direct(solve(spec, picard=picard), direct_march(spec, picard=picard))


@pytest.mark.parametrize("block,direct_tile", [(1, 0), (4, 0), (8, 16), (BLOCK, 0)])
@pytest.mark.parametrize(
    "spec",
    [
        ProblemSpec(0.3, 0.6, step=1e-3, t_max=3.0),
        ProblemSpec(0.7, 1.5, step=1e-4, t_max=2.0),
        ProblemSpec(0.5, 0.3, nonlinearity=Nonlinearity.SHIFTED_SQUARE, step=1e-4, t_max=1.0),
    ],
    ids=["decay", "blowup-doubling", "rl-doubling"],
)
def test_any_tiling_counts_each_pair_once(monkeypatch, spec, block, direct_tile):
    # Base blocks down to a single node, and FFT tiles at every size: the
    # decomposition is exact for any power-of-two block.
    monkeypatch.setattr(solver_module, "_BLOCK", block)
    monkeypatch.setattr(solver_module, "_DIRECT_TILE", direct_tile)
    assert_matches_direct(solve(spec), direct_march(spec))


@pytest.mark.parametrize("s", [1, 3, BLOCK, 512, 513, 1024])
@pytest.mark.parametrize("share", [0.0, 0.5, 1.0])
def test_tile_matches_convolve(s, share):
    rng = np.random.default_rng(s)
    count = max(1, int(share * s))
    history = rng.uniform(0.0, 2.0, s)
    weights = rng.uniform(0.0, 1.0, s + count)
    expected = np.convolve(history, weights[1:])[s - 1 : s - 1 + count]
    got = solver_module._tile(history, weights, count)
    assert got.shape == (count,)
    assert np.allclose(got, expected, rtol=1e-12, atol=0.0)


class TestOverflow:
    """A run whose values overflow before a confirmed threshold crossing
    ends as an accuracy failure at its last finite node."""

    @pytest.mark.parametrize("threshold", [1e300, math.inf])
    def test_overflow_is_accuracy_failure(self, threshold):
        spec = ProblemSpec(0.5, 2.0, step=1e-3, t_max=2.0, blowup_threshold=threshold)
        traj = solve(spec)
        assert traj.status is TrajectoryStatus.ACCURACY_FAILURE
        assert traj.status_index == len(traj) - 1 == 147
        assert np.all(np.isfinite(traj.values))
        assert_matches_direct(traj, direct_march(spec))

    @pytest.mark.parametrize("threshold", [1e300, math.inf])
    def test_overflow_through_fft_tiles(self, monkeypatch, threshold):
        # With single-node blocks and FFT tiles only, the overflowed forcing
        # reaches the next node as NaN rather than inf; the run must still
        # end at the same node.
        monkeypatch.setattr(solver_module, "_BLOCK", 1)
        monkeypatch.setattr(solver_module, "_DIRECT_TILE", 0)
        spec = ProblemSpec(0.7, 1.5, step=1e-4, t_max=2.0, blowup_threshold=threshold)
        traj = solve(spec)
        ref = direct_march(spec)
        assert traj.status is ref.status is TrajectoryStatus.ACCURACY_FAILURE
        assert traj.status_index == ref.status_index
        assert traj.status_index > 1024  # past the first table doubling
        # Once u_m grows like u_{m-1}^2, any rounding difference doubles
        # each step; compare the values up to the default threshold.
        below = ref.values <= 1e10
        rel = np.abs(traj.values - ref.values)[below] / ref.values[below]
        assert np.all(rel <= 1e-10), rel.max()
