import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mjls import (
    MjlsModel,
    load_model,
    optimal_cost_finite,
    save_model,
    solve_finite,
)
from mjls.cli import main

from conftest import edge_model, scalar_model


ALL_COMMANDS = ("solve-finite", "solve-care", "check", "simulate", "verify")


def run_python(*args):
    """``python *args`` in a child process that imports this ``mjls``,
    whether or not ``PYTHONPATH`` names it."""
    import mjls
    src = str(Path(mjls.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})


def write_model(model, tmp_path, name="model.json"):
    path = tmp_path / name
    save_model(model, path)
    return path


class TestSolveFinite:
    def test_benchmark_run(self, bench_file, tmp_path):
        out = tmp_path / "out"
        code = main(["solve-finite", "--model", str(bench_file),
                     "--horizon", "20", "--terminal", "identity",
                     "--out", str(out)])
        assert code == 0
        gains = json.loads((out / "gains.json").read_text())
        assert gains["horizon"] == 20
        assert len(gains["gains"]) == 21
        assert gains["optimal_cost"] > 0.0
        assert (out / "riccati.csv").exists()

    def test_breakdown_exit_code(self, tmp_path):
        model = scalar_model(a=1.0, b=1.0, q=0.0, r=0.0)
        path = write_model(model, tmp_path)
        code = main(["solve-finite", "--model", str(path),
                     "--horizon", "3", "--terminal", "zero",
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_zero_horizon(self, bench_file, tmp_path):
        code = main(["solve-finite", "--model", str(bench_file),
                     "--horizon", "0", "--terminal", "zero",
                     "--out", str(tmp_path / "out")])
        assert code == 0

    def test_missing_horizon_is_input_error(self, bench_file, tmp_path):
        code = main(["solve-finite", "--model", str(bench_file),
                     "--out", str(tmp_path / "out")])
        assert code == 1

    def test_terminal_file(self, bench_file, tmp_path):
        term = tmp_path / "terminal.json"
        term.write_text(json.dumps([[[2.0, 0.0], [0.0, 2.0]],
                                    [[1.0, 0.0], [0.0, 1.0]]]))
        code = main(["solve-finite", "--model", str(bench_file),
                     "--horizon", "3", "--terminal", str(term),
                     "--out", str(tmp_path / "out")])
        assert code == 0


class TestSolveCare:
    def test_scalar_fixed_point(self, tmp_path):
        path = write_model(scalar_model(a=0.5), tmp_path)
        out = tmp_path / "out"
        code = main(["solve-care", "--model", str(path), "--out", str(out)])
        assert code == 0
        care = json.loads((out / "care.json").read_text())
        root = (0.25 + math.sqrt(0.0625 + 4.0)) / 2.0
        assert care["P"][0][0][0] == pytest.approx(root, abs=1e-8)
        assert care["closed_loop_mean_square_stable"] is True

    def test_not_stabilizable_exit_code(self, tmp_path):
        path = write_model(scalar_model(a=2.0, b=0.0), tmp_path)
        code = main(["solve-care", "--model", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 3

    def test_unobservable_weights_exit_code(self, tmp_path):
        path = write_model(scalar_model(q=0.0), tmp_path)
        code = main(["solve-care", "--model", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 4

    def test_semidefinite_input_weight_exit_code(self, tmp_path):
        path = write_model(scalar_model(r=0.0), tmp_path)
        code = main(["solve-care", "--model", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 4

    def test_budget_exit_code(self, tmp_path):
        path = write_model(scalar_model(a=1.0, b=0.0), tmp_path)
        code = main(["solve-care", "--model", str(path), "--max-iter", "200",
                     "--out", str(tmp_path / "out")])
        assert code == 3

    def test_edge_model_hands_over_to_newton(self, tmp_path):
        # Best closed-loop radius 0.999: value iteration alone runs out of
        # its 10^4 steps.
        model = edge_model(math.sqrt(2.0 * 0.999))
        path = write_model(model, tmp_path)
        out = tmp_path / "out"
        assert main(["solve-care", "--model", str(path),
                     "--out", str(out)]) == 0
        care = json.loads((out / "care.json").read_text())
        assert care["newton_steps"] > 0
        assert care["iterations"] == \
            care["value_iterations"] + care["newton_steps"]
        assert care["closed_loop_mean_square_stable"] is True
        # The optimal gain trades a little radius for cost: 0.99900025.
        assert 0.999 <= care["closed_loop_spectral_radius"] < 0.9991
        assert main(["check", "--model", str(path),
                     "--out", str(tmp_path / "check")]) == 0
        report = json.loads((tmp_path / "check" / "check.json").read_text())
        assert report["stabilizable"] is True
        assert report["closed_loop"]["mean_square_stable"] is True

    def test_benchmark_reports_mss(self, bench_file, tmp_path):
        out = tmp_path / "out"
        code = main(["solve-care", "--model", str(bench_file),
                     "--out", str(out)])
        assert code == 0
        care = json.loads((out / "care.json").read_text())
        assert care["closed_loop_mean_square_stable"] is True
        assert care["closed_loop_spectral_radius"] < 1.0
        assert min(care["P_min_eigenvalues"]) > 0.0


class TestCheck:
    def test_identity_output_observable(self, tmp_path):
        model = MjlsModel(
            A=[[[1.5]]], B=[[[1.0]]], Q=[[[1.0]]], R=[[[1.0]]],
            transition=[[1.0]], initial_distribution=[1.0], x0=[1.0],
            C=[[[1.0]]])
        path = write_model(model, tmp_path)
        out = tmp_path / "out"
        assert main(["check", "--model", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "check.json").read_text())
        assert report["exactly_observable"] is True

    def test_marginal_open_loop_not_mss(self, tmp_path):
        path = write_model(scalar_model(a=1.0), tmp_path)
        out = tmp_path / "out"
        assert main(["check", "--model", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "check.json").read_text())
        assert report["open_loop"]["mean_square_stable"] is False

    def test_benchmark_full_report(self, bench_file, tmp_path):
        out = tmp_path / "out"
        assert main(["check", "--model", str(bench_file),
                     "--out", str(out)]) == 0
        report = json.loads((out / "check.json").read_text())
        assert report["stabilizable"] is True
        assert report["exactly_observable"] is True
        assert report["closed_loop"]["mean_square_stable"] is True
        assert (out / "second_moments_open_loop.csv").exists()
        assert (out / "second_moments_closed_loop.csv").exists()

    def test_exhausted_budget_is_undetermined(self, tmp_path):
        path = write_model(scalar_model(a=1.0, b=0.0), tmp_path)
        out = tmp_path / "out"
        assert main(["check", "--model", str(path), "--max-iter", "200",
                     "--out", str(out)]) == 0
        report = json.loads((out / "check.json").read_text())
        assert report["stabilizable"] is None
        assert report["closed_loop"] is None
        assert report["note"].startswith("undetermined: no convergence")

    def test_negative_horizon_rejected_before_any_work(self, bench_file,
                                                        tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["check", "--model", str(bench_file), "--horizon", "-1",
                     "--out", str(out)]) == 1
        assert "--horizon" in capsys.readouterr().err
        assert not out.exists()

    def test_unstabilizable_still_exits_zero(self, tmp_path):
        path = write_model(scalar_model(a=2.0, b=0.0), tmp_path)
        out = tmp_path / "out"
        assert main(["check", "--model", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "check.json").read_text())
        assert report["stabilizable"] is False
        assert report["note"]


class TestSimulate:
    def test_benchmark_artifacts(self, bench_file, tmp_path):
        out = tmp_path / "out"
        code = main(["simulate", "--model", str(bench_file),
                     "--horizon", "20", "--terminal", "identity",
                     "--trials", "50", "--seed", "1", "--out", str(out)])
        assert code == 0
        lines = (out / "trajectories.csv").read_text().splitlines()
        assert lines[0] == "trial,k,mode,x_1,x_2,u_1,stage_cost"
        assert len(lines) == 1 + 50 * 22
        stats = json.loads((out / "cost_stats.json").read_text())
        assert stats["trials"] == 50
        assert stats["mean_cost"] > 0.0

    def test_trials_guard(self, bench_file, tmp_path):
        code = main(["simulate", "--model", str(bench_file),
                     "--horizon", "5", "--trials", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 1


class TestParserReuse:
    """Consecutive ``main`` calls share one parser and no flags."""

    def run(self, *argv):
        return main([*map(str, argv)])

    def test_trials_default_returns(self, bench_file, tmp_path):
        out = tmp_path / "out"
        common = ["simulate", "--model", bench_file, "--horizon", 3,
                  "--out", out]
        assert self.run(*common, "--trials", 5) == 0
        assert self.run(*common) == 0
        stats = json.loads((out / "cost_stats.json").read_text())
        assert stats["trials"] == 50
        lines = (out / "trajectories.csv").read_text().splitlines()
        assert len(lines) == 1 + 50 * 5

    def test_terminal_default_returns(self, bench_file, tmp_path):
        model = load_model(bench_file)
        common = ["solve-finite", "--model", bench_file, "--horizon", 4]
        assert self.run(*common, "--terminal", "identity",
                        "--out", tmp_path / "a") == 0
        assert self.run(*common, "--out", tmp_path / "b") == 0
        zero = optimal_cost_finite(
            solve_finite(model, [np.zeros((2, 2))] * 2, 4), model)
        identity = optimal_cost_finite(
            solve_finite(model, [np.eye(2)] * 2, 4), model)
        assert zero != identity
        costs = [json.loads((tmp_path / d / "gains.json").read_text())[
            "optimal_cost"] for d in "ab"]
        assert costs == [identity, zero]

    def test_argparse_error_then_valid_call(self, bench_file, tmp_path,
                                           capsys):
        # Usage errors return 1 (exit 2 is a Riccati breakdown).
        for bad in (["simulate", "--no-such-flag"],
                    ["simulate", "--model", bench_file, "--horizon", "x"],
                    ["no-such-command"]):
            assert self.run(*bad) == 1
            assert capsys.readouterr().err.startswith("error: ")
        assert self.run("simulate", "--model", bench_file, "--horizon", 2,
                        "--out", tmp_path / "out") == 0
        assert "50 trials" in capsys.readouterr().out


class TestFlagContract:
    """Each subcommand takes only the flags its handler reads."""

    @pytest.mark.parametrize("argv", [
        ["solve-care", "--horizon", "3"],
        ["check", "--trials", "5"],
        ["solve-finite", "--horizon", "3", "--seed", "1"],
        ["verify", "--horizon", "3", "--trials", "5"],
        ["simulate", "--horizon", "3", "--tol", "1e-9"],
    ])
    def test_unread_flag_is_a_usage_error(self, argv, bench_file, tmp_path,
                                          capsys):
        out = tmp_path / "out"
        assert main([*argv, "--model", str(bench_file),
                     "--out", str(out)]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        assert "--model" in capsys.readouterr().out


class TestVerify:
    def test_benchmark_passes(self, bench_file, tmp_path):
        out = tmp_path / "out"
        code = main(["verify", "--model", str(bench_file),
                     "--horizon", "6", "--terminal", "zero",
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "verification.json").read_text())
        assert report["passed"] is True
        assert len(report["checks"]) == 7

    def test_enumeration_cap_exit_code(self, bench_file, tmp_path):
        code = main(["verify", "--model", str(bench_file),
                     "--horizon", "25", "--terminal", "zero",
                     "--out", str(tmp_path / "out")])
        assert code == 6

    def test_failing_battery_exit_code(self, tmp_path):
        model = scalar_model(a=1.0, b=1.0, q=0.0, r=0.0)
        path = write_model(model, tmp_path)
        out = tmp_path / "out"
        code = main(["verify", "--model", str(path), "--horizon", "3",
                     "--terminal", "zero", "--out", str(out)])
        assert code == 5
        report = json.loads((out / "verification.json").read_text())
        assert report["passed"] is False


class TestInputHandling:
    def test_missing_model_file(self, tmp_path):
        code = main(["check", "--model", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 1

    def test_malformed_model_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code = main(["check", "--model", str(bad),
                     "--out", str(tmp_path / "out")])
        assert code == 1

    def test_invalid_model_data(self, tmp_path):
        bad = tmp_path / "invalid.json"
        bad.write_text(json.dumps({
            "modes": [{"A": [[1.0]], "B": [[1.0]], "Q": [[1.0]],
                       "R": [[1.0]]}],
            "transition": [[0.5]],
            "initial_distribution": [1.0],
            "x0": [1.0]}))
        code = main(["check", "--model", str(bad),
                     "--out", str(tmp_path / "out")])
        assert code == 1


class TestUnwritableOutput:
    """An output that cannot be written exits 1 with its path named."""

    def test_out_is_an_existing_file(self, bench_file, tmp_path):
        out = tmp_path / "taken"
        out.write_text("")
        result = run_python("-m", "mjls", "check", "--model",
                            str(bench_file), "--out", str(out))
        assert result.returncode == 1
        assert result.stderr == f"error: cannot write {out}: File exists\n"

    def test_artifact_path_is_a_directory(self, bench_file, tmp_path,
                                          capsys):
        out = tmp_path / "out"
        (out / "riccati.csv").mkdir(parents=True)
        assert main(["solve-finite", "--model", str(bench_file),
                     "--horizon", "3", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out / 'riccati.csv'}: " \
            "Is a directory\n"
        assert "Traceback" not in err


class TestDeterminism:
    def test_artifacts_byte_identical_across_runs(self, bench_file, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["solve-finite", "--model", str(bench_file),
                         "--horizon", "12", "--terminal", "identity",
                         "--out", str(out)]) == 0
            assert main(["simulate", "--model", str(bench_file),
                         "--horizon", "12", "--terminal", "identity",
                         "--trials", "25", "--seed", "9",
                         "--out", str(out)]) == 0
            assert main(["verify", "--model", str(bench_file),
                         "--horizon", "5", "--terminal", "zero",
                         "--out", str(out)]) == 0
        for name in ("riccati.csv", "gains.json", "trajectories.csv",
                     "cost_stats.json", "verification.json"):
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes(), name


class TestEntryPoint:
    def test_module_invocation(self, bench_file, tmp_path):
        result = run_python("-m", "mjls", "check", "--model",
                            str(bench_file), "--out", str(tmp_path / "out"))
        assert result.returncode == 0
        assert "open-loop radius" in result.stdout


def run_everywhere(path, tmp_path):
    """Exit code of every subcommand on ``path``, with ``--horizon 3`` where
    the subcommand reads it."""
    return {cmd: main([cmd, "--model", str(path), "--out", str(tmp_path / cmd),
                       *(() if cmd == "solve-care" else ("--horizon", "3"))])
            for cmd in ALL_COMMANDS}


def scalar_modes(a_values):
    L = len(a_values)
    return {"modes": [{"A": [[a]], "B": [[1.0]], "Q": [[1.0]], "R": [[1.0]]}
                      for a in a_values],
            "transition": np.full((L, L), 1.0 / L).tolist(),
            "initial_distribution": [1.0 / L] * L, "x0": [1.0]}


class TestMalformedModes:
    def test_non_object_mode_entry(self, tmp_path):
        path = tmp_path / "modes.json"
        path.write_text(json.dumps({"modes": [1], "transition": [[1.0]],
                                    "initial_distribution": [1.0],
                                    "x0": [1.0]}))
        assert set(run_everywhere(path, tmp_path).values()) == {1}

    def test_ragged_per_mode_shapes(self, tmp_path):
        data = scalar_modes([0.5, 0.5])
        data["modes"][0]["A"] = np.eye(2).tolist()
        data["modes"][1]["A"] = np.eye(3).tolist()
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps(data))
        assert set(run_everywhere(path, tmp_path).values()) == {1}


class TestNonFinite:
    def test_overflowing_dynamics_exit_numerical_failure(self, tmp_path,
                                                         capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(scalar_modes([1e300])))
        assert set(run_everywhere(path, tmp_path).values()) == {5}
        assert "Traceback" not in capsys.readouterr().err

    def test_huge_dynamics_pass_the_gramian(self, tmp_path, capsys):
        # The scaled Gramian stays finite at A = 1e100, so both commands get
        # past the observability test.  solve-care then stops on the second
        # value iterate (trace 5e199 above the divergence bound), and check
        # on the open-loop second moment, which reaches 1e400 at step 2.
        path = tmp_path / "gram.json"
        path.write_text(json.dumps(scalar_modes([1e100, 1e100])))
        assert main(["solve-care", "--model", str(path),
                     "--out", str(tmp_path / "care")]) == 3
        assert "diverged after 2 iterations" in capsys.readouterr().err
        assert main(["check", "--model", str(path),
                     "--out", str(tmp_path / "check")]) == 5
        err = capsys.readouterr().err
        assert "second moment at step 2" in err
        assert "Gramian" not in err and "Traceback" not in err


class TestPeriodicRotation:
    def test_check_reports_dense_radius(self, tmp_path):
        axis = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
        K = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]],
                      [-axis[1], axis[0], 0.0]])
        rot = 0.9 * (np.eye(3) + np.sin(0.7) * K
                     + (1.0 - np.cos(0.7)) * K @ K)
        model = MjlsModel(A=[rot, rot], B=[np.eye(3)[:, :1]] * 2,
                          Q=[np.eye(3)] * 2, R=[[[1.0]]] * 2,
                          transition=[[0.0, 1.0], [1.0, 0.0]],
                          initial_distribution=[0.5, 0.5], x0=[1.0, 0.0, 0.0])
        path = write_model(model, tmp_path)
        out = tmp_path / "out"
        assert main(["check", "--model", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "check.json").read_text())
        assert report["open_loop"]["spectral_radius"] == \
            pytest.approx(0.81, abs=1e-9)


class TestImport:
    def test_import_does_not_load_scipy(self):
        # Every CLI call pays the package import; scipy alone costs more
        # than numpy does.
        result = run_python(
            "-c", "import sys, mjls; print('scipy' in sys.modules)")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"
