"""Terminal weights, policies, seeds and CLI flags are checked where they
enter.

Every public function that takes a terminal weight or a feedback policy
checks it against the model through ``MjlsModel.terminal_weights`` and
``MjlsModel.feedback_gains``, so each rejects the same bad inputs with
:class:`InvalidInput`; each that takes a seed rejects a negative one.  The
CLI checks the range of each numeric flag while
parsing: exit 1, a message naming the flag, and no output directory.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mjls import (
    InvalidInput,
    Policy,
    closed_loop_matrices,
    closed_loop_operator,
    costate_from_definition,
    decomposition_check,
    exact_cost,
    is_mss,
    monte_carlo_cost,
    propagate_second_moment,
    sample_markov_chain,
    save_model,
    simulate_closed_loop,
    simulate_trials,
    solve_finite,
    stationarity_residual,
    verification_report,
)
from mjls.cli import main

from conftest import two_mode_benchmark

BENCH = two_mode_benchmark()
EYE = [np.eye(2)] * 2
SOLUTION = solve_finite(BENCH, EYE, 3)

# name -> (call with a policy and a terminal, which of the two it takes)
ENTRY_POINTS = {
    "solve_finite": (lambda p, t: solve_finite(BENCH, t, 3), "terminal"),
    "verification_report": (
        lambda p, t: verification_report(BENCH, 3, t), "terminal"),
    "simulate_closed_loop": (lambda p, t: simulate_closed_loop(
        BENCH, p, t, path=[0, 1, 0, 1, 1]), "both"),
    "simulate_trials": (
        lambda p, t: simulate_trials(BENCH, p, 4, 0, 3, t), "both"),
    "monte_carlo_cost": (
        lambda p, t: monte_carlo_cost(BENCH, p, 4, 0, 3, t), "both"),
    "exact_cost": (lambda p, t: exact_cost(BENCH, p, 3, t), "both"),
    "costate_from_definition": (
        lambda p, t: costate_from_definition(BENCH, p, 3, t), "both"),
    "stationarity_residual": (
        lambda p, t: stationarity_residual(BENCH, p, 3, t), "both"),
    "decomposition_check": (
        lambda p, t: decomposition_check(BENCH, p, 3, SOLUTION), "policy"),
    "closed_loop_matrices": (
        lambda p, t: closed_loop_matrices(BENCH, p), "policy"),
    "closed_loop_operator": (
        lambda p, t: closed_loop_operator(BENCH, p), "policy"),
    "is_mss": (lambda p, t: is_mss(BENCH, p), "policy"),
    "propagate_second_moment": (
        lambda p, t: propagate_second_moment(BENCH, p, 3), "policy"),
}
# The two-mode example has n = 2 states and m = 1 input.
BAD_POLICIES = {
    "wrong mode count": Policy.stationary(np.zeros((3, 1, 2))),
    "wrong input dimension": Policy.stationary(np.zeros((2, 2, 2))),
}
BAD_TERMINALS = {
    "wrong terminal shape": [np.eye(3)] * 2,
    "NaN terminal": [np.full((2, 2), np.nan)] * 2,
    "indefinite terminal": [np.eye(2), -np.eye(2)],
}


def bad_input_cases():
    for name, (call, takes) in ENTRY_POINTS.items():
        if takes != "terminal":
            for case, policy in BAD_POLICIES.items():
                yield pytest.param(call, policy, EYE, id=f"{name}-{case}")
        if takes != "policy":
            for case, terminal in BAD_TERMINALS.items():
                yield pytest.param(call, None, terminal, id=f"{name}-{case}")


@pytest.mark.parametrize("call", [call for call, _ in ENTRY_POINTS.values()],
                         ids=list(ENTRY_POINTS))
def test_entry_point_accepts_valid_inputs(call):
    call(Policy.stationary(np.zeros((2, 1, 2))), EYE)


@pytest.mark.parametrize("call, policy, terminal", bad_input_cases())
def test_entry_point_rejects_bad_input(call, policy, terminal):
    with pytest.raises(InvalidInput):
        call(policy, terminal)


# name -> call with a seed
SEEDED = {
    "sample_markov_chain": lambda seed: sample_markov_chain(
        BENCH.transition, BENCH.initial_distribution, 3, seed),
    "simulate_closed_loop": lambda seed: simulate_closed_loop(
        BENCH, None, seed=seed, N=3),
    "simulate_trials": lambda seed: simulate_trials(BENCH, None, 4, seed, 3),
    "monte_carlo_cost": lambda seed: monte_carlo_cost(BENCH, None, 4, seed,
                                                      3),
    "verification_report": lambda seed: verification_report(BENCH, 3, EYE,
                                                            seed=seed),
}


@pytest.mark.parametrize("seed", [-1, np.int64(-7), -2 ** 70, [-1, 3]])
@pytest.mark.parametrize("name", SEEDED)
def test_negative_seed_rejected(name, seed):
    with pytest.raises(InvalidInput, match="seed must be nonnegative"):
        SEEDED[name](seed)


@pytest.mark.parametrize("seed", [1.5, np.float64(2.0), "3"],
                         ids=["float", "float64", "str"])
@pytest.mark.parametrize("name", SEEDED)
def test_non_integer_seed_rejected(name, seed):
    with pytest.raises(InvalidInput, match="seed must be"):
        SEEDED[name](seed)


@pytest.mark.parametrize("name", ["simulate_trials", "monte_carlo_cost"])
def test_generator_seed_rejected_by_batched_trials(name):
    with pytest.raises(InvalidInput, match="not a Generator"):
        SEEDED[name](np.random.default_rng(5))


@pytest.mark.parametrize("name", SEEDED)
def test_seed_sequence_and_generator_seeds_accepted(name):
    SEEDED[name](0)
    SEEDED[name](np.random.SeedSequence(5))
    # Trials are drawn from a fresh stream, so the batch entry points take
    # no Generator (its state would carry over between spans).
    if name not in ("simulate_trials", "monte_carlo_cost"):
        SEEDED[name](np.random.default_rng(5))


def test_terminal_check_returns_the_weights_as_given():
    # Rollouts cost the weights as given; the solver symmetrizes its own
    # copy.
    term = np.array([[[1.0, 0.1], [0.1 + 1e-15, 2.0]], np.eye(2)])
    assert BENCH.terminal_weights(term) is term
    stage = solve_finite(BENCH, term, 1).P[2][0]
    assert stage[0, 1] == stage[1, 0] == 0.5 * (0.1 + (0.1 + 1e-15))


@pytest.fixture(scope="module")
def bench_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "bench.json"
    save_model(BENCH, path)
    return path


# (command, flag, value); the other flags a command needs are valid.
RANGE_CASES = [
    ("solve-finite", "--horizon", "-1"),
    ("simulate", "--horizon", "-1"),
    ("verify", "--horizon", "-1"),
    ("check", "--horizon", "-1"),
    ("simulate", "--seed", "-1"),
    ("verify", "--seed", "-1"),
    ("simulate", "--trials", "1"),
    ("simulate", "--trials", "-5"),
    ("solve-care", "--max-iter", "0"),
    ("check", "--max-iter", "0"),
    ("solve-care", "--tol", "-1"),
    ("check", "--tol", "-0.5"),
    ("solve-care", "--tol", "nan"),
    ("solve-care", "--tol", "inf"),
    ("solve-care", "--max-iter", "2.5"),
]


@pytest.mark.parametrize("command, flag, value", RANGE_CASES,
                         ids=[" ".join(case) for case in RANGE_CASES])
def test_cli_flag_out_of_range(command, flag, value, bench_path, tmp_path,
                               capsys):
    out = tmp_path / "out"
    argv = [command, "--model", str(bench_path), flag, value,
            "--out", str(out)]
    if flag != "--horizon" and command in ("solve-finite", "simulate",
                                           "verify"):
        argv += ["--horizon", "2"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert flag in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("content", [
    '[[["a", "b"], ["c", "d"]], [[1, 0], [0, 1]]]',
    '[[[1, 0], [0]], [[1, 0], [0, 1]]]',
    '5',
    '[[[1, 0], [0, 1]]]',
], ids=["strings", "ragged", "number", "one mode"])
def test_cli_malformed_terminal_file(content, bench_path, tmp_path, capsys):
    term = tmp_path / "terminal.json"
    term.write_text(content)
    for command in ("solve-finite", "simulate", "verify"):
        assert main([command, "--model", str(bench_path), "--horizon", "2",
                     "--terminal", str(term),
                     "--out", str(tmp_path / command)]) == 1
        assert "terminal" in capsys.readouterr().err


def test_cli_range_bounds_are_accepted(bench_path, tmp_path):
    assert main(["simulate", "--model", str(bench_path), "--horizon", "0",
                 "--seed", "0", "--trials", "2",
                 "--out", str(tmp_path / "sim")]) == 0
    assert main(["solve-care", "--model", str(bench_path), "--tol", "0",
                 "--max-iter", "1", "--out", str(tmp_path / "care")]) == 3


def flag_value(high):
    """Text of an int up to ``high`` (near the valid ranges, or any) or of
    any float, NaN and infinities included."""
    ints = st.one_of(st.integers(-2, high), st.integers(max_value=high))
    return st.one_of(ints, ints, st.floats()).map(
        lambda v: repr(v) if isinstance(v, float) else str(v))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(command=st.sampled_from(
           ["solve-finite", "solve-care", "check", "simulate", "verify"]),
       horizon=st.one_of(st.none(), flag_value(6)),
       seed=flag_value(2 ** 70), trials=flag_value(50),
       max_iter=flag_value(10 ** 6), tol=flag_value(1))
def test_cli_numeric_flags_never_raise(bench_path, command, horizon, seed,
                                       trials, max_iter, tol):
    flags = {"--horizon": horizon, "--seed": seed, "--trials": trials,
             "--max-iter": max_iter, "--tol": tol}
    reads = {"solve-finite": ("--horizon",),
             "solve-care": ("--tol", "--max-iter"),
             "check": ("--horizon", "--tol", "--max-iter"),
             "simulate": ("--horizon", "--seed", "--trials"),
             "verify": ("--horizon", "--seed")}[command]
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, "--model", str(bench_path),
                "--out", str(Path(tmp) / "out")]
        for flag in reads:
            if flags[flag] is not None:
                # One token, so that argparse reads "-1e-05" as a value.
                argv.append(f"{flag}={flags[flag]}")
        code = main(argv)
    assert isinstance(code, int) and 0 <= code <= 6
