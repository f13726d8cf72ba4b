"""Command-line interface tests.

Exit-code contract: 0 success (blow-up included), 1 failed validation,
2 invalid flags/parameters, 3 accuracy failure.  All output must be
deterministic, so byte-identity between repeated invocations is asserted.
"""

import math

import pytest
from click.testing import CliRunner

from fraclogistic.analysis import blowup_bracket
from fraclogistic.cli import main
from fraclogistic.solver import (
    ProblemSpec,
    TrajectoryStatus,
    solve,
    trajectory_from_csv,
    trajectory_to_csv,
)


@pytest.fixture()
def runner():
    return CliRunner()


def _detected_times(text):
    """Pull every '# blowup_at=' footer value out of a CSV stream."""
    out = []
    for line in text.splitlines():
        if line.startswith("# blowup_at="):
            out.append(float(line.split("=", 1)[1]))
    return out


class TestSolve:
    def test_csv_matches_library(self, runner):
        result = runner.invoke(
            main, ["solve", "--alpha", "0.5", "--u0", "0.5", "--h", "0.01", "--t-max", "1"]
        )
        assert result.exit_code == 0
        expected = solve(ProblemSpec(0.5, 0.5, step=0.01, t_max=1.0))
        assert trajectory_from_csv(result.output) == expected

    def test_blowup_is_success(self, runner):
        result = runner.invoke(
            main, ["solve", "--alpha", "0.5", "--u0", "2", "--h", "0.001", "--t-max", "2"]
        )
        assert result.exit_code == 0
        times = _detected_times(result.output)
        assert len(times) == 1
        assert times[0] in blowup_bracket(0.5, 2.0)

    def test_out_file_equals_stdout(self, runner, tmp_path):
        args = ["solve", "--alpha", "0.5", "--u0", "0.5", "--h", "0.01", "--t-max", "1"]
        streamed = runner.invoke(main, args)
        path = tmp_path / "traj.csv"
        to_file = runner.invoke(main, args + ["--out", str(path)])
        assert to_file.exit_code == 0
        assert to_file.output == ""
        assert path.read_text(encoding="utf-8") == streamed.output

    def test_picard_flag(self, runner):
        result = runner.invoke(
            main,
            ["solve", "--alpha", "0.5", "--u0", "0.5", "--h", "0.01", "--t-max", "1",
             "--picard"],
        )
        assert result.exit_code == 0
        traj = trajectory_from_csv(result.output)
        assert traj.status is TrajectoryStatus.COMPLETED

    def test_problem_choice(self, runner):
        result = runner.invoke(
            main,
            ["solve", "--alpha", "0.5", "--u0", "1", "--problem", "square",
             "--h", "0.001", "--t-max", "1"],
        )
        assert result.exit_code == 0
        assert trajectory_from_csv(result.output).status is TrajectoryStatus.BLEW_UP

    def test_invalid_alpha_is_usage_error(self, runner):
        result = runner.invoke(main, ["solve", "--alpha", "1.5", "--u0", "0.5"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("flags", [["--t-max", "inf"], ["--h", "inf", "--t-max", "inf"]])
    def test_infinite_horizon_is_usage_error(self, runner, flags):
        result = runner.invoke(main, ["solve", "--alpha", "0.5", "--u0", "2"] + flags)
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "t_max < inf" in result.output

    @pytest.mark.parametrize("threshold", ["1e300", "inf"])
    def test_overflow_is_accuracy_failure(self, runner, threshold):
        # No value can pass such a threshold before the squared history
        # overflows: the run ends at its last finite node and says so.
        result = runner.invoke(
            main,
            ["solve", "--alpha", "0.5", "--u0", "2", "--h", "0.001", "--t-max", "2",
             "--threshold", threshold],
        )
        assert result.exit_code == 3
        assert "accuracy failure" in result.stderr
        traj = trajectory_from_csv(result.stdout)
        assert traj.status is TrajectoryStatus.ACCURACY_FAILURE
        assert traj.status_index == len(traj) - 1 == 147

    def test_missing_required_flag(self, runner):
        result = runner.invoke(main, ["solve", "--alpha", "0.5"])
        assert result.exit_code == 2

    def test_accuracy_failure_exit_code(self, runner):
        # Growth-branch weights refuse h >= 1: the run ends immediately
        # with accuracy-failure status and the process signals it.
        result = runner.invoke(
            main,
            ["solve", "--alpha", "0.5", "--u0", "1", "--problem", "shifted-logistic",
             "--h", "1.5", "--t-max", "3"],
        )
        assert result.exit_code == 3
        assert "# accuracy_failure_at=" in result.output
        assert "accuracy failure" in result.stderr


class TestFigure:
    def test_figure_one_blocks_and_ordering(self, runner):
        result = runner.invoke(main, ["figure", "--figure", "1", "--h", "0.001"])
        assert result.exit_code == 0
        headers = [l for l in result.output.splitlines() if l.startswith("# alpha=")]
        assert headers == ["# alpha=0.5, u0=5", "# alpha=0.5, u0=3", "# alpha=0.5, u0=2"]
        times = _detected_times(result.output)
        assert len(times) == 3
        assert times[0] < times[1] < times[2]  # larger starts blow up sooner

    def test_figure_two_order_comparison(self, runner):
        result = runner.invoke(main, ["figure", "--figure", "2", "--h", "0.001"])
        assert result.exit_code == 0
        headers = [l for l in result.output.splitlines() if l.startswith("# alpha=")]
        assert headers == ["# alpha=0.3, u0=5", "# alpha=0.5, u0=5"]
        times = _detected_times(result.output)
        assert len(times) == 2
        assert times[0] < times[1]  # smaller order blows up sooner at u0=5

    def test_unknown_figure_id(self, runner):
        result = runner.invoke(main, ["figure", "--figure", "7"])
        assert result.exit_code == 2

    def test_deterministic_bytes(self, runner):
        args = ["figure", "--figure", "2", "--h", "0.001"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output

    def test_out_file_equals_stdout(self, runner, tmp_path):
        args = ["figure", "--figure", "2", "--h", "0.001"]
        streamed = runner.invoke(main, args)
        path = tmp_path / "fig.csv"
        to_file = runner.invoke(main, args + ["--out", str(path)])
        assert to_file.exit_code == 0
        assert path.read_text(encoding="utf-8") == streamed.output


class TestBracket:
    def test_exact_output(self, runner):
        result = runner.invoke(main, ["bracket", "--alpha", "0.5", "--u0", "2"])
        assert result.exit_code == 0
        assert result.output == "lower=0.021817 upper=0.785398\n"

    def test_subcritical_start_rejected(self, runner):
        result = runner.invoke(main, ["bracket", "--alpha", "0.5", "--u0", "0.5"])
        assert result.exit_code == 2


class TestEnvelope:
    def test_root_default_constants(self, runner):
        result = runner.invoke(main, ["envelope", "--alpha", "0.5", "--u0", "0.5"])
        assert result.exit_code == 0
        assert result.output == "T0=%.10g\n" % math.pi

    def test_value_at_time(self, runner):
        result = runner.invoke(
            main, ["envelope", "--alpha", "0.5", "--u0", "0.5", "--t", "1"]
        )
        assert result.exit_code == 0
        assert result.output == "u_bound=%.10g\n" % 1.1472878598687424

    def test_custom_constants(self, runner):
        result = runner.invoke(
            main,
            ["envelope", "--alpha", "0.5", "--u0", "0.5", "--c", "0.5", "--c1", "1"],
        )
        assert result.exit_code == 0
        # T0 = (alpha / (c1 c u0))^(1/alpha) = 2^2.
        assert result.output == "T0=4\n"

    def test_time_beyond_root_rejected(self, runner):
        result = runner.invoke(
            main, ["envelope", "--alpha", "0.5", "--u0", "0.5", "--t", "4"]
        )
        assert result.exit_code == 2

    def test_supercritical_start_rejected(self, runner):
        result = runner.invoke(main, ["envelope", "--alpha", "0.5", "--u0", "2"])
        assert result.exit_code == 2


class TestWeights:
    def test_header_count_and_leading_weight(self, runner):
        result = runner.invoke(
            main, ["weights", "--alpha", "0.5", "--h", "0.001", "--n", "5"]
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "j,omega_j"
        assert len(lines) == 7
        j0, w0 = lines[1].split(",")
        assert j0 == "0"
        h_a = 0.001**0.5
        assert float(w0) == pytest.approx(h_a / (1.0 + h_a), rel=1e-14)

    def test_order_one_geometric(self, runner):
        result = runner.invoke(
            main, ["weights", "--alpha", "1.0", "--h", "0.1", "--n", "2"]
        )
        assert result.exit_code == 0
        rows = [l.split(",") for l in result.output.splitlines()[1:]]
        values = [float(v) for _, v in rows]
        expected = [0.1 / 1.1, 0.1 / 1.1**2, 0.1 / 1.1**3]
        assert values == pytest.approx(expected, rel=1e-12)

    def test_growth_coarse_step_accuracy_failure(self, runner):
        for step in ("1.0", "1.5"):
            result = runner.invoke(
                main, ["weights", "--alpha", "0.5", "--h", step, "--branch", "growth"]
            )
            assert result.exit_code == 3
            assert "accuracy failure" in result.stderr

    def test_negative_count_rejected(self, runner):
        result = runner.invoke(main, ["weights", "--alpha", "0.5", "--n", "-1"])
        assert result.exit_code == 2

    def test_bad_branch_rejected(self, runner):
        result = runner.invoke(main, ["weights", "--alpha", "0.5", "--branch", "bogus"])
        assert result.exit_code == 2


class TestMlEval:
    def test_frozen_value(self, runner):
        result = runner.invoke(main, ["ml-eval", "--alpha", "0.5", "--z", "-1"])
        assert result.exit_code == 0
        assert result.output == "0.4275835762\n"

    def test_two_parameter_value(self, runner):
        result = runner.invoke(
            main, ["ml-eval", "--alpha", "0.5", "--beta", "0.5", "--z", "-1"]
        )
        assert result.exit_code == 0
        assert result.output == "0.1366060074\n"

    def test_exponential_case(self, runner):
        result = runner.invoke(main, ["ml-eval", "--alpha", "1.0", "--z", "1"])
        assert result.exit_code == 0
        assert result.output == "%.10f\n" % math.e

    def test_invalid_order_rejected(self, runner):
        result = runner.invoke(main, ["ml-eval", "--alpha", "0", "--z", "1"])
        assert result.exit_code == 2


class TestValidate:
    def test_quick_grid_passes(self, runner):
        result = runner.invoke(main, ["validate", "--grid", "quick"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines  # non-empty report
        for line in lines:
            assert " pass " in line
        names = [line.split(" pass ")[0] for line in lines]
        assert names == [
            "ml:anchor",
            "weights:closed-form",
            "a=0.5,u0=0.5:positivity",
            "a=0.5,u0=0.5:completed",
            "a=0.5,u0=0.5:bounded_by_one",
            "a=0.5,u0=0.5:decay_envelope",
            "a=0.5,u0=0.5:cross-method",
            "a=0.5,u0=2:positivity",
            "a=0.5,u0=2:bracket",
            "a=0.5,u0=2:sandwich",
            "a=0.5,u0=2:profile_coefficient",
            "a=0.5,u0=2:cross-blowup",
            "residual:decay",
        ]

    def test_full_grid_passes(self, runner):
        result = runner.invoke(main, ["validate", "--grid", "full"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert len(lines) == 33
        for line in lines:
            assert " pass " in line

    def test_unknown_grid_rejected(self, runner):
        result = runner.invoke(main, ["validate", "--grid", "huge"])
        assert result.exit_code == 2
