import numpy as np
import pytest

from mjls import (
    DivergedTrajectory,
    InvalidInput,
    MjlsModel,
    Policy,
    exact_cost,
    monte_carlo_cost,
    sample_markov_chain,
    simulate_closed_loop,
    simulate_trials,
    solve_finite,
    write_trajectory_csv,
)

from mjls.sim import _sample_trials, cost_statistics

from conftest import scalar_model, two_mode_benchmark
from corpus import random_model, random_stationary_policy


class TestSampleMarkovChain:
    def test_absorbing_identity(self):
        path = sample_markov_chain(np.eye(2), [1.0, 0.0], 10, 3)
        assert np.array_equal(path, np.zeros(12, dtype=int))

    def test_all_rows_point_to_first_mode(self):
        path = sample_markov_chain([[1.0, 0.0], [1.0, 0.0]],
                                   [0.0, 1.0], 8, 5)
        assert path[0] == 1
        assert np.array_equal(path[1:], np.zeros(9, dtype=int))

    def test_deterministic_given_seed(self, bench):
        a = sample_markov_chain(bench.transition,
                                bench.initial_distribution, 50, 123)
        b = sample_markov_chain(bench.transition,
                                bench.initial_distribution, 50, 123)
        assert np.array_equal(a, b)

    def test_benchmark_long_run_frequency(self, bench):
        # The chain's stationary distribution solves pi = pi P, giving
        # (7/8, 1/8); the long-run mode-0 frequency must sit within three
        # (autocorrelation-corrected) standard errors of 7/8.
        steps = 100000
        path = sample_markov_chain(bench.transition,
                                   bench.initial_distribution, steps - 2, 17)
        freq = float(np.mean(path == 0))
        p = 7.0 / 8.0
        # Second chain eigenvalue is 0.2; the asymptotic variance picks up
        # the factor (1 + rho) / (1 - rho) = 1.5 relative to iid sampling.
        se = np.sqrt(p * (1.0 - p) * 1.5 / steps)
        assert abs(freq - p) <= 3.0 * se

    def test_path_length(self, bench):
        path = sample_markov_chain(bench.transition,
                                   bench.initial_distribution, 0, 0)
        assert path.shape == (2,)


class TestSimulateClosedLoop:
    def test_zero_initial_state(self):
        model = scalar_model(x0=0.0)
        traj = simulate_closed_loop(model, None, [np.eye(1)], seed=0, N=5)
        assert traj.total_cost == 0.0
        assert np.all(traj.states == 0.0)
        assert np.all(traj.controls == 0.0)

    def test_nilpotent_single_step(self):
        model = scalar_model(a=0.0, q=2.0, x0=3.0)
        policy = Policy.stationary([np.zeros((1, 1))])
        traj = simulate_closed_loop(model, policy, [np.eye(1)], seed=0, N=0)
        assert traj.states[1, 0] == 0.0
        # only the stage cost at k = 0 survives: q * x0^2 = 18
        assert traj.total_cost == pytest.approx(18.0)
        assert traj.terminal_cost == 0.0

    def test_benchmark_invariants_under_optimal_gains(self, bench):
        terminal = [np.eye(2), np.eye(2)]
        sol = solve_finite(bench, terminal, 20)
        traj = simulate_closed_loop(bench, sol.policy(), terminal,
                                    seed=11, N=20)
        scale = 1.0 + float(np.max(np.linalg.norm(traj.states, axis=1)))
        # dynamics reconstruction
        for k in range(21):
            i = traj.modes[k]
            predicted = bench.A[i] @ traj.states[k] \
                + bench.B[i] @ traj.controls[k]
            assert np.linalg.norm(traj.states[k + 1] - predicted) \
                <= 1e-12 * scale
        # double-entry cost bookkeeping
        recomputed = 0.0
        for k in range(21):
            i = traj.modes[k]
            recomputed += float(traj.states[k] @ bench.Q[i] @ traj.states[k]
                                + traj.controls[k] @ bench.R[i]
                                @ traj.controls[k])
        j = traj.modes[21]
        recomputed += float(traj.states[21] @ np.eye(2) @ traj.states[21])
        assert abs(recomputed - traj.total_cost) \
            <= 1e-12 * (1.0 + abs(traj.total_cost))

    def test_explicit_path_accepted(self, bench):
        path = np.array([0, 1, 0, 1])
        traj = simulate_closed_loop(bench, None, None, path=path)
        assert traj.horizon == 2
        assert np.array_equal(traj.modes, path)

    def test_bad_path_rejected(self, bench):
        with pytest.raises(InvalidInput):
            simulate_closed_loop(bench, None, None, path=[0, 5, 0])
        with pytest.raises(InvalidInput):
            simulate_closed_loop(bench, None, None)

    def test_divergence_reports_step(self):
        model = scalar_model(a=3.0, x0=1.0)
        with pytest.raises(DivergedTrajectory) as info:
            simulate_closed_loop(model, None, None, seed=0, N=800)
        assert info.value.step is not None


class TestMonteCarloCost:
    def test_zero_initial_state(self):
        model = scalar_model(x0=0.0)
        mean, se = monte_carlo_cost(model, None, 100, 0, 5)
        assert mean == 0.0
        assert se == 0.0

    def test_deterministic_chain_has_zero_standard_error(self):
        model = MjlsModel(
            A=[[[0.5]], [[0.9]]], B=[[[1.0]], [[1.0]]],
            Q=[[[1.0]], [[1.0]]], R=[[[1.0]], [[1.0]]],
            transition=np.eye(2), initial_distribution=[1.0, 0.0],
            x0=[2.0])
        policy = Policy.stationary([np.zeros((1, 1)), np.zeros((1, 1))])
        mean, se = monte_carlo_cost(model, policy, 50, 9, 4,
                                    terminal=[np.eye(1), np.eye(1)])
        assert se == 0.0
        traj = simulate_closed_loop(model, policy, [np.eye(1), np.eye(1)],
                                    path=np.zeros(6, dtype=int))
        assert mean == pytest.approx(traj.total_cost, rel=1e-12)

    def test_benchmark_matches_enumerated_cost(self, bench):
        sol = solve_finite(bench, [np.zeros((2, 2))] * 2, 6)
        exact = exact_cost(bench, sol.policy(), 6, terminal=sol.P[7])
        mean, se = monte_carlo_cost(bench, sol.policy(), 100000, 42, 6,
                                    terminal=sol.P[7])
        assert abs(mean - exact) <= 3.0 * se

    def test_convergence_rate_in_trials(self, bench):
        # The estimate must track the enumerated value at every size and the
        # standard error must shrink at the 1/sqrt(trials) rate.
        sol = solve_finite(bench, [np.zeros((2, 2))] * 2, 6)
        exact = exact_cost(bench, sol.policy(), 6, terminal=sol.P[7])
        errors = {}
        for trials in (1000, 10000, 100000):
            mean, se = monte_carlo_cost(bench, sol.policy(), trials, 5, 6,
                                        terminal=sol.P[7])
            assert abs(mean - exact) <= 3.0 * se
            errors[trials] = se
        assert errors[100000] == pytest.approx(
            errors[1000] / 10.0, rel=0.25)
        assert errors[10000] == pytest.approx(
            errors[1000] / np.sqrt(10.0), rel=0.25)

    def test_bitwise_identical_across_worker_counts(self, bench):
        sol = solve_finite(bench, [np.zeros((2, 2))] * 2, 5)
        results = [monte_carlo_cost(bench, sol.policy(), 5000, 33, 5,
                                    terminal=sol.P[6], workers=w)
                   for w in (1, 2, 4, 7)]
        assert all(r == results[0] for r in results[1:])

    def test_repeated_runs_identical(self, bench):
        a = monte_carlo_cost(bench, None, 500, 77, 8)
        b = monte_carlo_cost(bench, None, 500, 77, 8)
        assert a == b

    def test_too_few_trials_rejected(self, bench):
        with pytest.raises(InvalidInput):
            monte_carlo_cost(bench, None, 1, 0, 5)

    def test_divergence_reports_trial(self):
        model = scalar_model(a=3.0, x0=1.0)
        with pytest.raises(DivergedTrajectory) as info:
            monte_carlo_cost(model, None, 8, 0, 800)
        assert info.value.trial is not None
        assert info.value.step is not None

    def test_random_models_consistent_with_enumeration(self):
        rng = np.random.default_rng(71)
        for _ in range(5):
            model = random_model(rng)
            policy = random_stationary_policy(rng, model, scale=0.3)
            exact = exact_cost(model, policy, 5)
            mean, se = monte_carlo_cost(model, policy, 20000, 13, 5)
            assert abs(mean - exact) <= 3.0 * se + 1e-12


class TestOneStream:
    """Trial t reads draws t(N+2) .. (t+1)(N+2) - 1 of default_rng(seed)."""

    def test_spans_equal_the_whole_block(self):
        rng = np.random.default_rng(3)
        for model in (two_mode_benchmark(), random_model(rng, L_max=4)):
            whole = _sample_trials(model, 0, 40, 21, 6)
            for a, b in ((0, 0), (1, 1), (3, 17), (0, 40), (39, 40),
                         (13, 14)):
                parts = [_sample_trials(model, lo, hi - lo, 21, 6)
                         for lo, hi in ((0, a), (a, b), (b, 40))]
                assert np.array_equal(np.concatenate(parts), whole)

    def test_trial_zero_is_sample_markov_chain(self, bench):
        for seed in (0, 1, 77, 2**40):
            for N in (0, 5):
                trajectories = simulate_trials(bench, None, 3, seed, N)
                assert np.array_equal(trajectories[0].modes,
                                      sample_markov_chain(
                                          bench.transition,
                                          bench.initial_distribution, N,
                                          seed))

    def test_generator_seed_rejected(self, bench):
        # A stateful seed would make each chunk start where the last ended.
        with pytest.raises(InvalidInput, match="not a Generator"):
            monte_carlo_cost(bench, None, 10, np.random.default_rng(3), 4,
                             workers=2)

    def test_totals_are_the_monte_carlo_costs(self, bench):
        terminal = [np.eye(2), np.eye(2)]
        sol = solve_finite(bench, terminal, 9)
        totals = [t.total_cost for t in simulate_trials(
            bench, sol.policy(), 300, 17, 9, terminal)]
        for workers in (1, 3):
            assert monte_carlo_cost(bench, sol.policy(), 300, 17, 9,
                                    terminal, workers=workers) == \
                cost_statistics(totals)


class TestTrajectoryCsv:
    def test_schema(self, bench, tmp_path):
        terminal = [np.eye(2), np.eye(2)]
        sol = solve_finite(bench, terminal, 4)
        trajectories = [simulate_closed_loop(bench, sol.policy(), terminal,
                                             seed=t, N=4)
                        for t in range(3)]
        path = tmp_path / "trajectories.csv"
        write_trajectory_csv(trajectories, path, bench)
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,k,mode,x_1,x_2,u_1,stage_cost"
        assert len(lines) == 1 + 3 * 6
        # terminal rows carry the terminal penalty and no control
        last = lines[6].split(",")
        assert last[1] == "5"
        assert last[5] == ""
        assert float(last[6]) == pytest.approx(trajectories[0].terminal_cost)
        # per-trial cost column adds up to the trajectory total
        total = sum(float(line.split(",")[6]) for line in lines[1:7])
        assert total == pytest.approx(trajectories[0].total_cost, rel=1e-12)
