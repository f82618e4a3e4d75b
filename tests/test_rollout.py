"""The rollout kernel on the mode-prefix tree, and the commands built on it.

The kernel serves Monte Carlo (the flat tree, one node per trial and level)
and the oracle (the tree of every positive-probability mode history); these
tests hold it against the literal single-path rollout, the literal
enumeration and ``csv.writer`` in ``corpus.py``.
"""

import json
import tracemalloc
import warnings

import numpy as np
import pytest

import mjls.oracle
from mjls import (
    DivergedTrajectory,
    MjlsModel,
    Policy,
    Trajectory,
    enumerate_paths,
    exact_cost,
    monte_carlo_cost,
    perturbation_optimality,
    rollout,
    sample_markov_chain,
    save_model,
    simulate_closed_loop,
    simulate_trials,
    solve_finite,
    verification_report,
    write_trajectory_csv,
)
from mjls.cli import main

from conftest import scalar_model, two_mode_benchmark
from corpus import (
    ensemble_paths,
    literal_mode_first_paths,
    literal_trajectory_csv,
    random_stationary_policy,
    roll_single_path,
    stacked_corpus,
)


def corpus_policies(rng, model, N):
    staged = Policy.from_stages(
        rng.uniform(-0.5, 0.5, (N + 1, model.mode_count, model.input_dim,
                                model.state_dim)))
    return [None, random_stationary_policy(rng, model, scale=0.5), staged]


def stream_paths(model, seed, N, trials):
    """The mode paths of trials 0..trials-1 at ``seed``: consecutive
    :func:`sample_markov_chain` draws from the one stream
    ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    return np.array([sample_markov_chain(model.transition,
                                         model.initial_distribution, N, rng)
                     for _ in range(trials)])


def flat_rollout(model, policy, paths, terminal):
    """States, controls and total costs of each row of ``paths``."""
    N = paths.shape[1] - 2
    levels = list(rollout(model, model.feedback_gains(policy, N + 1)[None],
                          paths.T, None, model.terminal_weights(terminal)))
    xs = np.stack([lvl[0][..., 0] for lvl in levels[:-1]]
                  + [levels[-2][3][..., 0]], axis=1)
    us = np.stack([lvl[1][..., 0] for lvl in levels[:-1]], axis=1)
    totals = sum(lvl[2][:, 0] for lvl in levels)
    return xs, us, totals


class TestFlatTree:
    def test_matches_literal_single_path_rollout(self):
        rng = np.random.default_rng(81)
        N = 5
        for model in stacked_corpus(rng):
            term = [np.eye(model.state_dim)] * model.mode_count
            paths = rng.integers(0, model.mode_count, (6, N + 2))
            for policy in corpus_policies(rng, model, N):
                xs, us, totals = flat_rollout(model, policy, paths, term)
                for row, path in enumerate(paths):
                    x, u, cost = roll_single_path(model, policy, path, term)
                    scale = 1.0 + np.abs(x).max()
                    assert np.abs(xs[row] - x).max() <= 1e-12 * scale
                    assert np.abs(us[row] - u).max() <= 1e-12 * scale
                    assert abs(totals[row] - cost) <= 1e-12 * (1.0 + cost)

    def test_policies_in_one_batch_match_rolled_alone(self):
        # A node's numbers must not depend on what else shares its batch:
        # the perturbation check subtracts costs rolled side by side.
        rng = np.random.default_rng(82)
        N = 4
        for model in stacked_corpus(rng, count=12):
            paths = rng.integers(0, model.mode_count, (7, N + 2)).T
            stacks = [model.feedback_gains(policy, N + 1)[None]
                      for policy in corpus_policies(rng, model, N)]
            term = model.terminal_weights(
                [np.eye(model.state_dim)] * model.mode_count)
            batch = list(rollout(model, np.concatenate(stacks), paths, None,
                                 term))
            for p, gains in enumerate(stacks):
                alone = rollout(model, gains, paths, None, term)
                for both, one in zip(batch, alone):
                    for a, b in zip(both, one):
                        if a is not None:
                            assert np.array_equal(a[..., p], b[..., 0])

    def test_divergence_names_the_trial_for_any_worker_count(self):
        # A state overflows once mode 1 has been visited twice.
        model = MjlsModel(
            A=[[[0.5]], [[1e200]]], B=[[[1.0]], [[1.0]]],
            Q=[[[1.0]], [[1.0]]], R=[[[1.0]], [[1.0]]],
            transition=[[0.9, 0.1], [0.9, 0.1]],
            initial_distribution=[1.0, 0.0], x0=[1.0])

        def diverging(seed):
            return [np.count_nonzero(path[:11] == 1) >= 2
                    for path in stream_paths(model, seed, 10, 8)]

        seed = next(s for s in range(100)
                    if not diverging(s)[0] and any(diverging(s)))
        first = diverging(seed).index(True)
        for workers in (1, 8):
            with pytest.raises(DivergedTrajectory) as info:
                monte_carlo_cost(model, None, 8, seed, 10, workers=workers)
            assert info.value.trial == first


class TestPrefixTree:
    def test_order_and_probabilities_match_literal_extension(self):
        rng = np.random.default_rng(83)
        for model in stacked_corpus(rng, count=16):
            N = 3 if model.mode_count < 4 else 2
            ens = enumerate_paths(model, N)
            paths, probs = literal_mode_first_paths(model, N)
            assert np.array_equal(ensemble_paths(ens), paths)
            assert np.array_equal(ens.probabilities, probs)
            assert np.array_equal(ens.weights[-1], probs)
            # Every node's parent holds the node's history minus its mode.
            for k in range(1, N + 2):
                assert len(ens.modes[k]) == len(ens.parents[k])
                assert np.array_equal(
                    ens.weights[k],
                    ens.weights[k - 1][ens.parents[k]] * model.transition[
                        ens.modes[k - 1][ens.parents[k]], ens.modes[k]])

    def test_open_loop_divergence_reports_step(self):
        with pytest.raises(DivergedTrajectory) as info:
            exact_cost(scalar_model(a=3.0, x0=1.0), None, 800)
        assert info.value.step is not None

    def test_open_loop_divergence_emits_no_warning(self):
        # The stage costs overflow before the states do.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergedTrajectory):
                exact_cost(scalar_model(a=3.0, x0=1.0), None, 800)

    def test_divergence_names_a_path_through_the_state(self):
        # x(2) overflows only along histories starting (2, 2); mode 2 never
        # jumps to mode 0, so that prefix's first path is not at its node's
        # own index.
        model = MjlsModel(
            A=[[[0.5]], [[0.5]], [[1e200]]], B=[[[1.0]]] * 3,
            Q=[[[1.0]]] * 3, R=[[[1.0]]] * 3,
            transition=[[0.5, 0.25, 0.25], [0.5, 0.25, 0.25],
                        [0.0, 0.5, 0.5]],
            initial_distribution=[0.4, 0.3, 0.3], x0=[1.0])
        with pytest.raises(DivergedTrajectory) as info:
            exact_cost(model, None, 3)
        assert info.value.step == 2
        paths = ensemble_paths(enumerate_paths(model, 3))
        through = np.nonzero((paths[:, :2] == [2, 2]).all(axis=1))[0]
        assert info.value.trial == through[0]

    def test_perturbations_follow_per_stage_per_mode_draws(self, bench):
        # The same uniforms, drawn one (stage, mode) gain at a time.
        sol = solve_finite(bench, [np.eye(2), np.eye(2)], 4)
        base = exact_cost(bench, sol.policy(), 4, terminal=sol.P[5])
        draws = np.random.default_rng(9)
        expected = min(
            exact_cost(bench, Policy.from_stages(
                [[sol.K[k][i] + draws.uniform(-0.05, 0.05, (1, 2))
                  for i in range(2)] for k in range(5)]), 4,
                terminal=sol.P[5]) - base
            for _ in range(6))
        got = perturbation_optimality(bench, sol, 4, count=6, scale=0.05,
                                      seed=9)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-9 * base)

    def test_verification_enumerates_once(self, bench, monkeypatch):
        calls = []
        real = mjls.oracle.enumerate_paths

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(mjls.oracle, "enumerate_paths", counting)
        report = verification_report(bench, 5, [np.eye(2)] * 2)
        assert report["passed"]
        assert len(calls) == 1

    def test_verification_never_builds_paths(self, bench, monkeypatch):
        ensembles = []
        real = mjls.oracle.enumerate_paths

        def keeping(*args, **kwargs):
            ensembles.append(real(*args, **kwargs))
            return ensembles[-1]

        monkeypatch.setattr(mjls.oracle, "enumerate_paths", keeping)
        assert verification_report(bench, 5, [np.eye(2)] * 2)["passed"]
        (ens,) = ensembles
        assert not hasattr(ens, "paths")
        assert np.array_equal(ensemble_paths(ens),
                              literal_mode_first_paths(bench, 5)[0])

    def test_wide_tree_memory_guard(self):
        # 2**16 paths; 93 MB is what the per-path oracle peaked at here.
        model = two_mode_benchmark()
        tracemalloc.start()
        try:
            report = verification_report(model, 14, [np.zeros((2, 2))] * 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report["passed"], report
        assert peak < 93e6


class TestSimulateCommand:
    def run(self, tmp_path, model, *extra):
        path = tmp_path / "model.json"
        save_model(model, path)
        out = tmp_path / "out"
        assert main(["simulate", "--model", str(path), "--out", str(out),
                     *extra]) == 0
        return out

    def test_mode_paths_follow_one_stream(self, tmp_path):
        model = two_mode_benchmark()
        out = self.run(tmp_path, model, "--horizon", "7", "--trials", "40",
                       "--seed", "12")
        data = np.genfromtxt(out / "trajectories.csv", delimiter=",",
                             skip_header=1)
        modes = data[:, 2].astype(int).reshape(40, 9)
        assert np.array_equal(modes, stream_paths(model, 12, 7, 40))

    def test_mean_cost_is_mean_of_written_totals(self, tmp_path):
        out = self.run(tmp_path, two_mode_benchmark(), "--horizon", "12",
                       "--trials", "60", "--seed", "4",
                       "--terminal", "identity")
        data = np.genfromtxt(out / "trajectories.csv", delimiter=",",
                             skip_header=1)
        totals = data[:, -1].reshape(60, 14).sum(axis=1)
        stats = json.loads((out / "cost_stats.json").read_text())
        assert stats["mean_cost"] == pytest.approx(np.mean(totals),
                                                   rel=1e-12)


def assert_csv_writer_bytes(tmp_path, trajectories, model):
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    write_trajectory_csv(trajectories, ours, model)
    literal_trajectory_csv(trajectories, ref, model)
    assert ours.read_bytes() == ref.read_bytes()


def odd_trajectory(N, n, m):
    """Signed zero, subnormal, huge and non-finite values in every field."""
    odd = np.array([-0.0, 5e-324, 1.5e300, 0.1, np.inf, -np.inf, np.nan])
    return Trajectory(
        modes=np.zeros(N + 2, dtype=np.int64),
        states=np.resize(odd, (N + 2, n)),
        controls=np.resize(odd[::-1], (N + 1, m)),
        stage_costs=np.resize(odd, N + 1), terminal_cost=-0.0,
        total_cost=0.0)


class TestTrajectoryCsvBytes:
    def test_matches_csv_writer(self, tmp_path):
        rng = np.random.default_rng(84)
        for model in stacked_corpus(rng, count=8):
            term = [np.eye(model.state_dim)] * model.mode_count
            policy = random_stationary_policy(rng, model, scale=0.5)
            trajectories = simulate_trials(model, policy, 5, 3, 4, term)
            trajectories.append(
                odd_trajectory(2, model.state_dim, model.input_dim))
            assert_csv_writer_bytes(tmp_path, trajectories, model)

    def test_zero_horizon(self, tmp_path):
        model = two_mode_benchmark()
        trajectories = simulate_trials(model, None, 6, 5, 0)
        trajectories.append(odd_trajectory(0, 2, 1))
        assert_csv_writer_bytes(tmp_path, trajectories, model)

    def test_mixed_horizons_in_one_list(self, tmp_path):
        model = two_mode_benchmark()
        term = [np.eye(2)] * 2
        sol = solve_finite(model, term, 7)
        trajectories = [simulate_closed_loop(model, sol.policy(), term,
                                             seed=N, N=N)
                        for N in (0, 3, 7, 3, 0)]
        trajectories.insert(2, odd_trajectory(5, 2, 1))
        assert_csv_writer_bytes(tmp_path, trajectories, model)

    def test_more_inputs_than_states(self, tmp_path):
        rng = np.random.default_rng(85)
        model = MjlsModel(
            A=rng.uniform(-1.0, 1.0, (3, 1, 1)),
            B=rng.uniform(-1.0, 1.0, (3, 1, 4)),
            Q=[np.eye(1)] * 3, R=[np.eye(4)] * 3,
            transition=[[0.5, 0.3, 0.2]] * 3,
            initial_distribution=[0.2, 0.3, 0.5], x0=[1.5])
        policy = random_stationary_policy(rng, model, scale=0.5)
        trajectories = simulate_trials(model, policy, 4, 8, 3)
        trajectories.append(odd_trajectory(1, 1, 4))
        assert_csv_writer_bytes(tmp_path, trajectories, model)

    def test_empty_list_writes_header_only(self, tmp_path):
        model = two_mode_benchmark()
        assert_csv_writer_bytes(tmp_path, [], model)
        assert (tmp_path / "ours.csv").read_bytes() == (
            b"trial,k,mode,x_1,x_2,u_1,stage_cost\r\n")

    def test_writer_streams(self, tmp_path):
        # 2000 trials at N = 20 fill 3.6 MB of CSV; a whole-file string
        # would hold all of it at once.
        model = two_mode_benchmark()
        term = [np.eye(2)] * 2
        sol = solve_finite(model, term, 20)
        trajectories = simulate_trials(model, sol.policy(), 2000, 6, 20,
                                       term)
        tracemalloc.start()
        try:
            write_trajectory_csv(trajectories, tmp_path / "t.csv", model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
