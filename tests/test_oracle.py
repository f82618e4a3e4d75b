import math

import numpy as np
import pytest

from mjls import (
    MjlsModel,
    Policy,
    TooLarge,
    costate_from_definition,
    costate_relation_residual,
    decomposition_check,
    enumerate_paths,
    exact_cost,
    optimal_cost_finite,
    perturbation_optimality,
    solve_finite,
    stationarity_residual,
    verification_report,
)

from conftest import scalar_model
from corpus import (
    ensemble_paths,
    iter_positive_paths,
    literal_costates,
    random_model,
    random_stationary_policy,
    roll_single_path,
)


def zeros_terminal(model):
    n = model.state_dim
    return [np.zeros((n, n)) for _ in range(model.mode_count)]


class TestEnumeratePaths:
    def test_single_mode_single_path(self):
        ens = enumerate_paths(scalar_model(), 4)
        assert ens.count == 1
        assert ens.probabilities[0] == 1.0

    def test_frozen_chain_two_constant_paths(self):
        model = MjlsModel(
            A=[np.eye(1), np.eye(1)], B=[np.eye(1), np.eye(1)],
            Q=[np.eye(1), np.eye(1)], R=[np.eye(1), np.eye(1)],
            transition=np.eye(2), initial_distribution=[0.5, 0.5],
            x0=[1.0])
        ens = enumerate_paths(model, 3)
        assert ens.count == 2
        assert np.allclose(ens.probabilities, 0.5)
        for row in ensemble_paths(ens):
            assert np.all(row == row[0])

    def test_benchmark_counts_and_mass(self, bench):
        # All transitions have positive probability, so every sequence of
        # the 5 mode slots theta(0..4) appears: 2**5 of them.
        ens = enumerate_paths(bench, 3)
        assert ens.count == 32
        assert abs(float(ens.probabilities.sum()) - 1.0) <= 1e-14

    def test_zero_transitions_pruned(self):
        model = MjlsModel(
            A=[np.eye(1), np.eye(1)], B=[np.eye(1), np.eye(1)],
            Q=[np.eye(1), np.eye(1)], R=[np.eye(1), np.eye(1)],
            transition=[[0.0, 1.0], [0.0, 1.0]],
            initial_distribution=[1.0, 0.0], x0=[1.0])
        ens = enumerate_paths(model, 2)
        assert ens.count == 1
        assert np.array_equal(ensemble_paths(ens)[0], [0, 1, 1, 1])

    def test_matches_literal_enumeration(self, bench):
        ens = enumerate_paths(bench, 3)
        expected = {tuple(p): prob for p, prob in iter_positive_paths(bench, 3)}
        got = {tuple(int(v) for v in path): prob
               for path, prob in zip(ensemble_paths(ens), ens.probabilities)}
        assert got.keys() == expected.keys()
        for key in expected:
            assert got[key] == pytest.approx(expected[key], rel=1e-14)

    def test_cap_enforced(self, bench):
        with pytest.raises(TooLarge):
            enumerate_paths(bench, 25)


class TestExactCost:
    def test_single_mode_equals_deterministic_rollout(self):
        model = scalar_model(a=0.9, x0=2.0)
        policy = Policy.stationary([np.array([[-0.4]])])
        _, _, cost = roll_single_path(model, policy,
                                      np.zeros(8, dtype=int), [np.eye(1)])
        assert exact_cost(model, policy, 6, terminal=[np.eye(1)]) == \
            pytest.approx(cost, rel=1e-14)

    def test_matches_pathwise_sum_on_random_models(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            model = random_model(rng)
            policy = random_stationary_policy(rng, model, scale=0.4)
            term = [np.eye(model.state_dim)] * model.mode_count
            expected = sum(prob * roll_single_path(model, policy, p, term)[2]
                           for p, prob in iter_positive_paths(model, 4))
            got = exact_cost(model, policy, 4, terminal=term)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_optimal_policy_matches_value_function(self):
        # The central solver cross-check: enumerated cost of the optimal
        # staged gains equals the stage-0 value form.
        rng = np.random.default_rng(52)
        for _ in range(30):
            model = random_model(rng)
            N = int(rng.integers(0, 7))
            sol = solve_finite(model, zeros_terminal(model), N)
            value = optimal_cost_finite(sol, model)
            enumerated = exact_cost(model, sol.policy(), N,
                                    terminal=zeros_terminal(model))
            assert abs(enumerated - value) <= 1e-9 * (1.0 + abs(value))


class TestCostateFromDefinition:
    def test_zero_initial_state(self):
        model = scalar_model(x0=0.0)
        policy = Policy.stationary([np.array([[-0.1]])])
        seq = costate_from_definition(model, policy, 3,
                                      terminal=[np.eye(1)])
        for table in seq.eta:
            for value in table.values():
                assert np.allclose(value, 0.0)

    def test_scalar_single_stage_hand_value(self):
        # N = 1, single mode, gain f: with x1 = (a + b f) x0 and
        # x2 = (a + b f) x1,
        #   eta_1 = p_T x2
        #   eta_0 = q x1 + a p_T x2
        a, b, q, r, f, pt, x0 = 0.8, 1.0, 1.3, 0.7, -0.25, 2.0, 1.5
        model = scalar_model(a=a, b=b, q=q, r=r, x0=x0)
        policy = Policy.stationary([np.array([[f]])])
        x1 = (a + b * f) * x0
        x2 = (a + b * f) * x1
        seq = costate_from_definition(model, policy, 1,
                                      terminal=[np.array([[pt]])])
        assert seq.eta[1][(0, 0)][0] == pytest.approx(pt * x2)
        assert seq.eta[0][(0,)][0] == pytest.approx(q * x1 + a * pt * x2)

    def test_matches_literal_definition_on_random_models(self):
        # The module accumulates the defining sum backward; the reference
        # multiplies out every state-transition product literally.
        rng = np.random.default_rng(53)
        for _ in range(15):
            model = random_model(rng)
            policy = random_stationary_policy(rng, model, scale=0.4)
            N = int(rng.integers(1, 4))
            term = [np.eye(model.state_dim)] * model.mode_count
            seq = costate_from_definition(model, policy, N, terminal=term)
            reference = literal_costates(model, policy, N, term)
            for k in range(N + 1):
                assert seq.eta[k].keys() == reference[k].keys()
                for key in reference[k]:
                    assert np.allclose(seq.eta[k][key], reference[k][key],
                                       atol=1e-10, rtol=1e-10), (k, key)

    def test_terminal_stage_matches_direct_expectation(self, bench):
        # eta at the last stage must equal the transition-weighted terminal
        # form applied to the final state.
        term = [np.eye(2), np.eye(2)]
        sol = solve_finite(bench, term, 3)
        seq = costate_from_definition(bench, sol.policy(), 3, terminal=term)
        for key, eta in seq.eta[3].items():
            i = key[-1]
            x_next = seq.state[3][key]
            expected = sum(bench.transition[i, j] * term[j] @ x_next
                           for j in range(2))
            assert np.linalg.norm(eta - expected) \
                <= 1e-10 * (1.0 + np.linalg.norm(expected))

    def test_benchmark_collapses_onto_state(self, bench):
        sol = solve_finite(bench, [np.eye(2), np.eye(2)], 4)
        assert costate_relation_residual(bench, sol, 4) <= 1e-10


class TestStationarity:
    def test_optimal_policy_is_stationary_point(self, bench):
        sol = solve_finite(bench, [np.eye(2), np.eye(2)], 5)
        value = optimal_cost_finite(sol, bench)
        residual = stationarity_residual(bench, sol.policy(), 5,
                                         terminal=sol.P[6])
        assert residual <= 1e-9 * (1.0 + abs(value))

    def test_zero_model_zero_control(self):
        model = MjlsModel(
            A=[np.zeros((1, 1))], B=[np.zeros((1, 1))], Q=[np.eye(1)],
            R=[np.eye(1)], transition=[[1.0]], initial_distribution=[1.0],
            x0=[1.0])
        policy = Policy.stationary([np.zeros((1, 1))])
        assert stationarity_residual(model, policy, 3) == 0.0

    def test_perturbed_gain_breaks_stationarity(self, bench):
        sol = solve_finite(bench, [np.eye(2), np.eye(2)], 5)
        staged = [[gain.copy() for gain in stage] for stage in sol.K]
        staged[2][0] = staged[2][0] + np.array([[1e-3, 0.0]])
        residual = stationarity_residual(
            bench, Policy.from_stages(staged), 5, terminal=sol.P[6])
        assert residual > 1e-6


class TestDecomposition:
    def test_optimal_policy_zero_excess(self, bench):
        sol = solve_finite(bench, [np.eye(2), np.eye(2)], 6)
        lhs, rhs, gap = decomposition_check(bench, sol.policy(), 6, sol)
        assert gap <= 1e-9 * (1.0 + abs(lhs))
        value = optimal_cost_finite(sol, bench)
        assert lhs == pytest.approx(value, rel=1e-9)

    def test_arbitrary_policies_satisfy_identity(self):
        rng = np.random.default_rng(54)
        for _ in range(25):
            model = random_model(rng)
            N = int(rng.integers(0, 6))
            sol = solve_finite(model, zeros_terminal(model), N)
            policy = random_stationary_policy(rng, model)
            lhs, rhs, gap = decomposition_check(model, policy, N, sol)
            assert gap <= 1e-9 * (1.0 + abs(lhs))
            value = optimal_cost_finite(sol, model)
            assert rhs >= value - 1e-9 * (1.0 + abs(value))

    def test_suboptimal_policy_strictly_exceeds_value(self, bench):
        sol = solve_finite(bench, [np.eye(2), np.eye(2)], 4)
        policy = Policy.stationary([np.array([[0.3, -0.2]]),
                                    np.array([[0.0, 0.1]])])
        lhs, rhs, gap = decomposition_check(bench, policy, 4, sol)
        value = optimal_cost_finite(sol, bench)
        assert lhs > value + 1.0  # clearly suboptimal here
        assert gap <= 1e-9 * (1.0 + abs(lhs))

    def test_zero_initial_state(self):
        model = scalar_model(x0=0.0)
        sol = solve_finite(model, [np.eye(1)], 3)
        policy = Policy.stationary([np.array([[0.4]])])
        lhs, rhs, gap = decomposition_check(model, policy, 3, sol)
        assert lhs == 0.0
        assert rhs == 0.0


class TestPerturbationOptimality:
    def test_no_perturbations_is_vacuous(self, bench):
        sol = solve_finite(bench, [np.eye(2), np.eye(2)], 3)
        assert perturbation_optimality(bench, sol, 3, count=0, scale=1e-2,
                                       seed=0) == math.inf

    def test_zero_scale_is_exactly_zero(self, bench):
        sol = solve_finite(bench, [np.eye(2), np.eye(2)], 3)
        assert perturbation_optimality(bench, sol, 3, count=5, scale=0.0,
                                       seed=0) == 0.0

    def test_benchmark_no_improvement(self, bench):
        sol = solve_finite(bench, [np.eye(2), np.eye(2)], 6)
        worst = perturbation_optimality(bench, sol, 6, count=100,
                                        scale=1e-2, seed=2)
        assert worst > 0.0


class TestSemidefiniteInputWeights:
    def test_full_battery_with_zero_input_weight(self):
        # Square invertible input maps keep the recursion well defined with
        # a zero input penalty; every oracle check must still pass.
        model = MjlsModel(
            A=[[[1.3, 0.2], [0.4, 0.9]], [[0.7, -0.3], [0.2, 1.1]]],
            B=[np.eye(2), [[1.0, 0.5], [0.0, 1.0]]],
            Q=[np.eye(2), np.eye(2)],
            R=[np.zeros((2, 2)), np.zeros((2, 2))],
            transition=[[0.6, 0.4], [0.2, 0.8]],
            initial_distribution=[0.3, 0.7], x0=[1.0, -2.0])
        term = [np.eye(2), np.eye(2)]
        report = verification_report(model, 5, term, seed=3)
        assert report["passed"], report


class TestVerificationReport:
    def test_benchmark_passes(self, bench):
        report = verification_report(bench, 6, [np.zeros((2, 2))] * 2)
        assert report["passed"]
        names = [c["name"] for c in report["checks"]]
        assert len(names) == len(set(names))
        assert all(set(c) == {"name", "residual", "tolerance", "passed"}
                   for c in report["checks"])

    def test_breakdown_reported_not_raised(self):
        model = scalar_model(a=1.0, b=1.0, q=0.0, r=0.0)
        report = verification_report(model, 3, [np.zeros((1, 1))])
        assert not report["passed"]
        assert "finite-horizon solve" in report["checks"][0]["name"]

    def test_too_large_propagates(self, bench):
        with pytest.raises(TooLarge):
            verification_report(bench, 25, [np.zeros((2, 2))] * 2)
