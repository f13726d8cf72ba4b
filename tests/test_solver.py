"""Marcher tests: validation, detection, dichotomy anchors, serialization.

Frozen trajectory values below are regression anchors produced by this
package's own marcher on pinned grids; cross-method accuracy checks against
the independent predictor-corrector integrator live in test_oracle.py.
"""

import math

import numpy as np
import pytest

import fraclogistic.solver as solver_module
from fraclogistic.solver import (
    BlowUpReport,
    Nonlinearity,
    ProblemSpec,
    Trajectory,
    TrajectoryStatus,
    detect_blowup,
    read_csv,
    solve,
    trajectory_from_csv,
    trajectory_to_csv,
    write_csv,
)
from fraclogistic.special import AccuracyError

# Detected blow-up times on the h = 1e-4 grid (threshold 1e10), frozen.
DETECTED_TIMES = {
    (0.5, 1.5): 0.2356,
    (0.5, 2.0): 0.1006,
    (0.5, 3.0): 0.0386,
    (0.5, 5.0): 0.0143,
    (0.3, 2.0): 0.0255,
    (0.7, 2.0): 0.2781,
    (0.7, 1.5): 0.5295,  # crosses three weight-table doublings
}

# Terminal value of the decaying run (alpha=1/2, u0=1/2, h=1e-3, t_max=5).
DECAY_FINAL = 0.14053080712542768

# Measured sup-norm drift of the u0 = 1 equilibrium at h = 1e-3, t_max = 5,
# rounded up: the semi-implicit scheme holds the unstable equilibrium only
# to O(h^alpha), not to rounding error.
EQUILIBRIUM_DRIFT_CEIL = {0.3: 0.02, 0.5: 0.12, 0.7: 0.16}


def _traj(values, status=TrajectoryStatus.COMPLETED, index=None):
    values = np.asarray(values, dtype=float)
    return Trajectory(0.1 * np.arange(values.size), values, status, index)


class TestProblemSpecValidation:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5, math.nan])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError):
            ProblemSpec(alpha, 0.5)

    @pytest.mark.parametrize("u0", [0.0, -1.0, math.inf, math.nan])
    def test_u0_domain(self, u0):
        with pytest.raises(ValueError):
            ProblemSpec(0.5, u0)

    @pytest.mark.parametrize("step,t_max", [(0.0, 1.0), (-0.1, 1.0), (2.0, 1.0)])
    def test_step_domain(self, step, t_max):
        with pytest.raises(ValueError):
            ProblemSpec(0.5, 0.5, step=step, t_max=t_max)

    @pytest.mark.parametrize(
        "step,t_max", [(1e-3, math.inf), (math.inf, math.inf), (1e-3, math.nan)]
    )
    def test_horizon_must_be_finite(self, step, t_max):
        with pytest.raises(ValueError):
            ProblemSpec(0.5, 2.0, step=step, t_max=t_max)

    def test_threshold_must_exceed_start(self):
        with pytest.raises(ValueError):
            ProblemSpec(0.5, 5.0, blowup_threshold=2.0)

    def test_nonlinearity_must_be_member(self):
        with pytest.raises(TypeError):
            ProblemSpec(0.5, 0.5, nonlinearity="logistic")


class TestTrajectoryValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.array([1.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([]), np.array([]))

    def test_nonfinite_values_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.array([1.0, math.inf]))

    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), np.array([1.0, 2.0]))

    def test_blowup_requires_index(self):
        with pytest.raises(ValueError):
            _traj([1.0, 2.0], TrajectoryStatus.BLEW_UP, None)

    def test_index_in_range(self):
        with pytest.raises(ValueError):
            _traj([1.0, 2.0], TrajectoryStatus.BLEW_UP, 2)

    def test_arrays_frozen(self):
        traj = _traj([1.0, 2.0])
        with pytest.raises(ValueError):
            traj.values[0] = 5.0

    def test_len_step_eq(self):
        traj = _traj([1.0, 2.0, 3.0])
        assert len(traj) == 3
        assert traj.step == pytest.approx(0.1)
        assert traj == _traj([1.0, 2.0, 3.0])
        assert traj != _traj([1.0, 2.0, 3.5])
        assert traj != _traj([1.0, 2.0, 3.0], TrajectoryStatus.BLEW_UP, 2)


class TestDetection:
    THRESHOLD = 1e10

    def test_confirmed_crossing(self):
        report = detect_blowup(_traj([1.0, 2.0, 10.0, 1e12]), self.THRESHOLD)
        assert report is not None
        assert report.t_detected == pytest.approx(0.3)

    def test_no_crossing(self):
        assert detect_blowup(_traj([5.0, 5.0, 5.0]), 1.0) is None

    def test_spike_without_increase_suppressed(self):
        assert detect_blowup(_traj([1.0, 5.0, 3.0, 1e12]), self.THRESHOLD) is None

    def test_initial_node_never_confirms(self):
        assert detect_blowup(_traj([1e12]), self.THRESHOLD) is None
        assert detect_blowup(_traj([1e12, 1.0]), self.THRESHOLD) is None

    def test_short_prefix_window(self):
        # With fewer than three predecessors the available prefix decides.
        report = detect_blowup(_traj([1.0, 1e12]), self.THRESHOLD)
        assert report is not None
        assert report.t_detected == pytest.approx(0.1)

    def test_report_requires_positive_time(self):
        with pytest.raises(ValueError):
            BlowUpReport(t_detected=0.0)


class TestDecayRegime:
    def test_terminal_value_frozen(self):
        traj = solve(ProblemSpec(0.5, 0.5, step=1e-3, t_max=5.0))
        assert traj.status is TrajectoryStatus.COMPLETED
        assert traj.values[-1] == pytest.approx(DECAY_FINAL, rel=1e-12)
        assert traj.values.min() == traj.values[-1]

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("u0", [0.1, 0.5, 0.9])
    def test_stays_in_unit_interval(self, alpha, u0):
        traj = solve(ProblemSpec(alpha, u0, step=1e-3, t_max=2.0))
        assert traj.status is TrajectoryStatus.COMPLETED
        assert np.all(traj.values > 0.0)
        assert np.all(traj.values < 1.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_decreasing_after_first_step(self, alpha):
        # The very first node may overshoot (semi-implicit startup error of
        # size O(h^alpha)); from index 1 on the march is strictly monotone.
        traj = solve(ProblemSpec(alpha, 0.9, step=1e-3, t_max=2.0))
        assert np.all(np.diff(traj.values[1:]) < 0.0)

    def test_order_one_limit_matches_classical_logistic(self):
        traj = solve(ProblemSpec(0.999, 0.5, step=1e-3, t_max=2.0))
        classical = 0.5 / (0.5 + 0.5 * np.exp(traj.times))
        assert np.max(np.abs(traj.values - classical)) <= 1e-3

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_equilibrium_drift_within_ceiling(self, alpha):
        traj = solve(ProblemSpec(alpha, 1.0, step=1e-3, t_max=5.0))
        assert traj.status is TrajectoryStatus.COMPLETED
        drift = np.max(np.abs(traj.values - 1.0))
        assert drift <= EQUILIBRIUM_DRIFT_CEIL[alpha]


class TestBlowUpRegime:
    @pytest.mark.parametrize("key,expected", sorted(DETECTED_TIMES.items()))
    def test_detected_times_frozen(self, key, expected):
        alpha, u0 = key
        traj = solve(ProblemSpec(alpha, u0, step=1e-4, t_max=2.0))
        assert traj.status is TrajectoryStatus.BLEW_UP
        assert traj.times[traj.status_index] == pytest.approx(expected, abs=1e-9)
        assert traj.values[traj.status_index] > 1e10

    def test_detection_time_decreases_in_u0(self):
        times = [DETECTED_TIMES[(0.5, u0)] for u0 in (1.5, 2.0, 3.0, 5.0)]
        assert times == sorted(times, reverse=True)

    def test_refinement_moves_detection_earlier(self):
        coarse = solve(ProblemSpec(0.5, 2.0, step=1e-4, t_max=2.0))
        fine = solve(ProblemSpec(0.5, 2.0, step=5e-5, t_max=2.0))
        t_c = coarse.times[coarse.status_index]
        t_f = fine.times[fine.status_index]
        assert t_f == pytest.approx(0.09555, abs=1e-9)
        assert t_f < t_c

    def test_order_one_limit_matches_classical_blowup(self):
        # u' = u(u-1), u0 = 2 blows up at ln 2; detection lags by O(h).
        traj = solve(ProblemSpec(0.999, 2.0, step=1e-3, t_max=2.0))
        assert traj.status is TrajectoryStatus.BLEW_UP
        t_det = traj.times[traj.status_index]
        assert t_det == pytest.approx(0.702, abs=1e-9)
        assert abs(t_det - math.log(2.0)) / math.log(2.0) <= 0.02

    def test_values_increase_into_detection(self):
        traj = solve(ProblemSpec(0.5, 2.0, step=1e-4, t_max=2.0))
        k = traj.status_index
        assert np.all(np.diff(traj.values[k - 3 : k + 1]) > 0.0)
        assert len(traj) == k + 1  # truncated at the confirmed crossing


class TestComparisonProblems:
    """The shifted variable w = u - 1 obeys w' = w + w^2; squeezing the
    right-hand side between w^2 and (w + 1/2)^2 must order the detected
    blow-up times accordingly."""

    def _detected(self, nonlinearity):
        traj = solve(
            ProblemSpec(0.5, 1.0, nonlinearity=nonlinearity, step=1e-4, t_max=5.0)
        )
        assert traj.status is TrajectoryStatus.BLEW_UP
        return float(traj.times[traj.status_index])

    def test_ordering(self):
        upper_forcing = self._detected(Nonlinearity.SHIFTED_SQUARE)
        exact = self._detected(Nonlinearity.SHIFTED_LOGISTIC)
        lower_forcing = self._detected(Nonlinearity.SQUARE)
        assert upper_forcing <= exact <= lower_forcing

    def test_frozen_values(self):
        assert self._detected(Nonlinearity.SHIFTED_SQUARE) == pytest.approx(
            0.0899, abs=1e-9
        )
        assert self._detected(Nonlinearity.SHIFTED_LOGISTIC) == pytest.approx(
            0.0921, abs=1e-9
        )
        assert self._detected(Nonlinearity.SQUARE) == pytest.approx(0.1901, abs=1e-9)

    def test_shift_consistency_across_branches(self):
        # u0 = 2 in the original variable and w0 = 1 in the shifted one
        # solve the same problem through different kernels; the detected
        # times agree to the detection resolution, not exactly.
        direct = solve(ProblemSpec(0.5, 2.0, step=1e-4, t_max=2.0))
        shifted = solve(
            ProblemSpec(
                0.5, 1.0, nonlinearity=Nonlinearity.SHIFTED_LOGISTIC, step=1e-4, t_max=2.0
            )
        )
        t_d = direct.times[direct.status_index]
        t_s = shifted.times[shifted.status_index]
        assert abs(t_d - t_s) / t_d <= 0.15

    def test_square_large_start(self):
        traj = solve(
            ProblemSpec(0.5, 2.0, nonlinearity=Nonlinearity.SQUARE, step=1e-4, t_max=2.0)
        )
        assert traj.status is TrajectoryStatus.BLEW_UP
        assert traj.times[traj.status_index] == pytest.approx(0.0531, abs=1e-9)


class TestPicard:
    def test_decay_close_to_semi_implicit(self):
        spec = ProblemSpec(0.5, 0.5, step=1e-3, t_max=5.0)
        default = solve(spec)
        corrected = solve(spec, picard=True)
        assert corrected.status is TrajectoryStatus.COMPLETED
        assert np.max(np.abs(corrected.values - default.values)) <= 2e-2

    def test_blowup_still_detected(self):
        traj = solve(ProblemSpec(0.5, 2.0, step=1e-4, t_max=2.0), picard=True)
        assert traj.status is TrajectoryStatus.BLEW_UP
        assert traj.times[traj.status_index] == pytest.approx(0.0865, abs=1e-9)

    def test_equilibrium_drift_bounded(self):
        traj = solve(ProblemSpec(0.5, 1.0, step=1e-3, t_max=2.0), picard=True)
        assert traj.status is TrajectoryStatus.COMPLETED
        assert np.max(np.abs(traj.values - 1.0)) <= 2e-2


class TestAccuracyFailure:
    def test_growth_kernel_step_too_coarse(self):
        # Growth-branch weights need h < 1, where the symbol pole 1 - h lies
        # inside the unit disk; the run reports a failure status at the
        # initial node instead of raising.
        for step in (1.0, 1.5):
            traj = solve(
                ProblemSpec(
                    0.5, 1.0, nonlinearity=Nonlinearity.SHIFTED_LOGISTIC, step=step,
                    t_max=3.0
                )
            )
            assert traj.status is TrajectoryStatus.ACCURACY_FAILURE
            assert traj.status_index == 0
            assert len(traj) == 1
            assert traj.values[0] == 1.0


class TestSizedTables:
    """Weight tables follow the steps a run reaches: one full table for
    logistic starts in (0, 1], doubling tables for every start that blows
    up, and a failure on a later table that ends the run where it stands."""

    @pytest.fixture
    def table_sizes(self, monkeypatch):
        sizes = []
        original = solver_module.cq_weights

        def recording(spec, n, *args, **kwargs):
            sizes.append(n)
            return original(spec, n, *args, **kwargs)

        monkeypatch.setattr(solver_module, "cq_weights", recording)
        return sizes

    def test_decay_run_builds_one_full_table(self, table_sizes):
        traj = solve(ProblemSpec(0.5, 0.5, step=1e-3, t_max=5.0))
        assert traj.status is TrajectoryStatus.COMPLETED
        assert table_sizes == [5000]

    @pytest.mark.parametrize(
        "nonlinearity,u0",
        [
            (Nonlinearity.LOGISTIC, 1.5),
            (Nonlinearity.SHIFTED_LOGISTIC, 1.0),
            (Nonlinearity.SQUARE, 1.0),
            (Nonlinearity.SHIFTED_SQUARE, 1.0),
        ],
    )
    def test_blowup_run_tables_follow_the_march(self, table_sizes, nonlinearity, u0):
        traj = solve(
            ProblemSpec(0.7, u0, nonlinearity=nonlinearity, step=1e-4, t_max=2.0)
        )
        assert traj.status is TrajectoryStatus.BLEW_UP
        assert table_sizes[0] == 1024
        assert all(b == 2 * a for a, b in zip(table_sizes, table_sizes[1:]))
        assert max(table_sizes) <= max(1024, 2 * traj.status_index)

    def test_doubling_capped_at_horizon(self, table_sizes):
        # w' = w^2 from w0 = 0.05 blows up near t = 5, past t_max = 0.3.
        traj = solve(
            ProblemSpec(0.5, 0.05, nonlinearity=Nonlinearity.SQUARE, step=1e-4, t_max=0.3)
        )
        assert traj.status is TrajectoryStatus.COMPLETED
        assert table_sizes == [1024, 2048, 3000]

    def test_failure_on_later_table_keeps_marched_nodes(self, monkeypatch):
        spec = ProblemSpec(0.7, 2.0, step=1e-4, t_max=2.0)
        reference = solve(spec)
        original = solver_module.cq_weights
        calls = []

        def failing_second(*args, **kwargs):
            calls.append(args[1])
            if len(calls) == 2:
                raise AccuracyError("refused to certify")
            return original(*args, **kwargs)

        monkeypatch.setattr(solver_module, "cq_weights", failing_second)
        traj = solve(spec)
        assert calls == [1024, 2048]
        assert traj.status is TrajectoryStatus.ACCURACY_FAILURE
        assert traj.status_index == 1024
        assert np.array_equal(traj.values, reference.values[:1025])

    def test_failure_on_later_homogeneous_term(self, monkeypatch):
        spec = ProblemSpec(0.7, 2.0, step=1e-4, t_max=2.0)
        original = solver_module.ml_grid
        calls = []

        def failing_second(*args, **kwargs):
            calls.append(len(args[1]))
            if len(calls) == 2:
                raise AccuracyError("refused to certify")
            return original(*args, **kwargs)

        def never_certifies(*args, **kwargs):
            raise AccuracyError("refused to certify")

        monkeypatch.setattr(solver_module, "ml_grid", failing_second)
        monkeypatch.setattr(solver_module, "mittag_leffler", never_certifies)
        traj = solve(spec)
        # the second grid covers only the nodes the doubled table adds
        assert calls == [1025, 1024]
        assert traj.status is TrajectoryStatus.ACCURACY_FAILURE
        assert traj.status_index == 1024


class TestCsv:
    def test_completed_round_trip(self):
        traj = solve(ProblemSpec(0.5, 0.5, step=0.1, t_max=1.0))
        assert trajectory_from_csv(trajectory_to_csv(traj)) == traj

    def test_blowup_round_trip_keeps_footer(self):
        traj = solve(ProblemSpec(0.5, 2.0, step=1e-3, t_max=2.0))
        text = trajectory_to_csv(traj)
        assert traj.status is TrajectoryStatus.BLEW_UP
        assert "# blowup_at=" in text
        assert text.startswith("t,u\n")
        assert text.endswith("\n")
        assert trajectory_from_csv(text) == traj

    def test_accuracy_failure_round_trip(self):
        traj = _traj([1.0, 2.0], TrajectoryStatus.ACCURACY_FAILURE, 1)
        text = trajectory_to_csv(traj)
        assert "# accuracy_failure_at=" in text
        assert trajectory_from_csv(text) == traj

    def test_unknown_comments_ignored(self):
        text = "# produced by a test\nt,u\n0,1\n0.5,2\n# another note\n"
        traj = trajectory_from_csv(text)
        assert len(traj) == 2
        assert traj.status is TrajectoryStatus.COMPLETED

    @pytest.mark.parametrize("row", ["1,2,3", "abc", "0.1"])
    def test_malformed_row_rejected(self, row):
        with pytest.raises(ValueError):
            trajectory_from_csv("t,u\n0,1\n%s\n" % row)

    def test_file_round_trip(self, tmp_path):
        traj = solve(ProblemSpec(0.5, 2.0, step=1e-3, t_max=2.0))
        path = tmp_path / "run.csv"
        write_csv(traj, str(path))
        assert read_csv(str(path)) == traj
        assert path.read_text(encoding="utf-8") == trajectory_to_csv(traj)
