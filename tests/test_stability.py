import numpy as np
import pytest

from mjls import (
    InvalidInput,
    MjlsModel,
    ObservabilityViolation,
    Policy,
    PreconditionFailed,
    closed_loop_operator,
    is_exactly_observable,
    is_mss,
    is_stabilizable,
    monte_carlo_cost,
    propagate_second_moment,
    solve_care,
    solve_finite,
    spectral_radius,
    stabilizability,
    write_moment_csv,
)
from mjls.stability import observability_gramian
from conftest import scalar_model, two_mode_benchmark
from corpus import (
    classical_observability_rank,
    closed_form_radii,
    random_model,
)


class TestClosedLoopOperator:
    def test_scalar_open_loop(self):
        model = scalar_model(a=0.7)
        T = closed_loop_operator(model)
        assert T.shape == (1, 1)
        assert T[0, 0] == pytest.approx(0.49)

    def test_zero_dynamics(self):
        model = MjlsModel(
            A=[np.zeros((2, 2)), np.zeros((2, 2))],
            B=[np.ones((2, 1)), np.ones((2, 1))],
            Q=[np.eye(2), np.eye(2)], R=[[[1.0]], [[1.0]]],
            transition=[[0.5, 0.5], [0.5, 0.5]],
            initial_distribution=[0.5, 0.5], x0=[1.0, 1.0])
        assert np.array_equal(closed_loop_operator(model), np.zeros((8, 8)))

    def test_benchmark_shape_and_moment_consistency(self, bench):
        T = closed_loop_operator(bench)
        assert T.shape == (8, 8)
        # Propagating stacked vectorized moments through T must agree with
        # the direct recursion.
        chain = propagate_second_moment(bench, None, 5)
        v = np.concatenate([
            (bench.initial_distribution[i]
             * np.outer(bench.x0, bench.x0)).reshape(-1, order="F")
            for i in range(2)])
        for _ in range(5):
            v = T @ v
        direct = np.concatenate([chain.X[5][i].reshape(-1, order="F")
                                 for i in range(2)])
        assert np.allclose(v, direct, atol=1e-9)

    def test_gain_dimension_mismatch(self, bench):
        with pytest.raises(InvalidInput):
            closed_loop_operator(bench, Policy.stationary(
                [np.zeros((2, 2)), np.zeros((2, 2))]))

    def test_monte_carlo_cross_check_at_k5(self, bench):
        # E||x(5)||^2 from the lifted operator versus a sampled estimate.
        # A zero-weight copy of the model with identity terminal makes the
        # rollout cost exactly ||x(5)||^2.
        T = closed_loop_operator(bench)
        v = np.concatenate([
            (bench.initial_distribution[i]
             * np.outer(bench.x0, bench.x0)).reshape(-1, order="F")
            for i in range(2)])
        for _ in range(5):
            v = T @ v
        exact = v[0] + v[3] + v[4] + v[7]  # trace entries of both blocks
        norm_model = MjlsModel(
            A=bench.A, B=bench.B,
            Q=[np.zeros((2, 2)), np.zeros((2, 2))],
            R=[[[0.0]], [[0.0]]], transition=bench.transition,
            initial_distribution=bench.initial_distribution, x0=bench.x0)
        mean, se = monte_carlo_cost(norm_model, None, 100000, 99, 4,
                                    terminal=[np.eye(2), np.eye(2)])
        chain = propagate_second_moment(bench, None, 5)
        assert exact == pytest.approx(chain.total_second_moment()[5],
                                      rel=1e-9)
        assert abs(mean - exact) <= 3.0 * se


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(4)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert spectral_radius(np.diag([0.2, 0.5, -0.7])) == \
            pytest.approx(0.7)

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_complex_pair(self):
        rot = 0.9 * np.array([[0.0, -1.0], [1.0, 0.0]])
        assert spectral_radius(rot) == pytest.approx(0.9)

    def test_matches_closed_forms_on_scalar_modes(self):
        rng = np.random.default_rng(31)
        for L in range(2, 9):
            for model, radius in closed_form_radii(rng, L):
                T = closed_loop_operator(model)
                assert T.shape == (L, L)
                assert spectral_radius(T) == pytest.approx(radius, rel=1e-10)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            spectral_radius(np.array([[np.nan]]))
        with pytest.raises(InvalidInput):
            spectral_radius(np.zeros((2, 3)))


class TestIsMss:
    def test_stable_scalar(self):
        stable, radius = is_mss(scalar_model(a=0.5))
        assert stable
        assert radius == pytest.approx(0.25)

    def test_marginal_scalar_not_mss(self):
        stable, radius = is_mss(scalar_model(a=1.0))
        assert not stable
        assert radius == pytest.approx(1.0)

    def test_benchmark_under_stationary_riccati_gains(self, bench):
        sol = solve_care(bench)
        stable, radius = is_mss(bench, sol.policy())
        assert stable
        assert radius < 1.0


class TestSecondMoments:
    def test_zero_initial_state(self):
        chain = propagate_second_moment(scalar_model(x0=0.0), None, 4)
        assert chain.total_second_moment().max() == 0.0

    def test_nilpotent_one_step(self):
        chain = propagate_second_moment(scalar_model(a=0.0, x0=2.0), None, 3)
        totals = chain.total_second_moment()
        assert totals[0] == pytest.approx(4.0)
        assert totals[1:].max() == 0.0

    def test_mode_mass_follows_chain_power(self, bench):
        chain = propagate_second_moment(bench, None, 10)
        power = np.linalg.matrix_power(bench.transition, 10)
        assert np.allclose(chain.mode_mass[10],
                           bench.initial_distribution @ power, atol=1e-10)

    def test_monte_carlo_cross_check(self, bench):
        # Squared state norms sampled at 1e5 trials, isolated per stage by a
        # zero-weight model whose only cost is the identity terminal.
        chain = propagate_second_moment(bench, None, 10)
        totals = chain.total_second_moment()
        norm_model = MjlsModel(
            A=bench.A, B=bench.B,
            Q=[np.zeros((2, 2)), np.zeros((2, 2))],
            R=[[[0.0]], [[0.0]]], transition=bench.transition,
            initial_distribution=bench.initial_distribution, x0=bench.x0)
        for k in (1, 5, 10):
            mean, se = monte_carlo_cost(norm_model, None, 100000, 7, k - 1,
                                        terminal=[np.eye(2), np.eye(2)])
            assert abs(mean - totals[k]) <= 3.0 * se, k

    def test_geometric_decay_at_lifted_rate(self, bench):
        sol = solve_care(bench)
        stable, radius = is_mss(bench, sol.policy())
        assert stable
        chain = propagate_second_moment(bench, sol.policy(), 41)
        totals = chain.total_second_moment()
        ratios = totals[21:41] / totals[20:40]
        assert np.all(np.abs(ratios - radius) <= 0.1 * radius)

    def test_lyapunov_decrease_matches_stage_cost(self, bench):
        # Under the stationary Riccati gains the value sequence
        # V(k) = sum_i tr(P[i] X[k][i]) drops by exactly the expected stage
        # cost sum_i tr((Q[i] + K[i]'R[i]K[i]) X[k][i]).
        sol = solve_care(bench)
        chain = propagate_second_moment(bench, sol.policy(), 30)
        for k in range(30):
            v_k = sum(float(np.trace(sol.P[i] @ chain.X[k][i]))
                      for i in range(2))
            v_next = sum(float(np.trace(sol.P[i] @ chain.X[k + 1][i]))
                         for i in range(2))
            stage = sum(float(np.trace(
                (bench.Q[i] + sol.K[i].T @ bench.R[i] @ sol.K[i])
                @ chain.X[k][i])) for i in range(2))
            assert v_k - v_next == pytest.approx(stage, rel=1e-9, abs=1e-12)
            assert v_next <= v_k + 1e-12

    def test_accumulated_stage_costs_reach_stationary_value(self, bench):
        sol = solve_care(bench)
        chain = propagate_second_moment(bench, sol.policy(), 2000)
        total = 0.0
        for k in range(2000):
            total += sum(float(np.trace(
                (bench.Q[i] + sol.K[i].T @ bench.R[i] @ sol.K[i])
                @ chain.X[k][i])) for i in range(2))
        value = float(sum(bench.initial_distribution[i]
                          * bench.x0 @ sol.P[i] @ bench.x0
                          for i in range(2)))
        assert abs(total - value) <= 1e-6 * (1.0 + abs(value))

    def test_staged_policy_bounds_checked(self, bench):
        sol = solve_finite(bench, [np.eye(2), np.eye(2)], 5)
        chain = propagate_second_moment(bench, sol.policy(), 6)
        assert chain.steps == 6
        with pytest.raises(InvalidInput):
            propagate_second_moment(bench, sol.policy(), 7)

    def test_csv_export(self, bench, tmp_path):
        chain = propagate_second_moment(bench, None, 3)
        path = tmp_path / "moments.csv"
        write_moment_csv(chain, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,mode,trace,total"
        assert len(lines) == 1 + 4 * 2


class TestExactObservability:
    def test_identity_output_always_observable(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            model = MjlsModel(
                A=[rng.uniform(-2.0, 2.0, (n, n))], B=[np.ones((n, 1))],
                Q=[np.eye(n)], R=[[[1.0]]], transition=[[1.0]],
                initial_distribution=[1.0], x0=np.zeros(n),
                C=[np.eye(n)])
            assert is_exactly_observable(model)

    def test_fast_growth_keeps_positive_definite_weights_observable(self):
        # Unscaled, the Gramian along the first axis reaches 1e24 after
        # n L = 4 steps, and the floor 1e-10 (1 + ||G||) swamped
        # lambda_min(Q) = 1.
        model = MjlsModel(
            A=[np.diag([1e3, 1e-3])] * 2, B=[np.ones((2, 1))] * 2,
            Q=[np.eye(2)] * 2, R=[[[1.0]]] * 2,
            transition=np.full((2, 2), 0.5), initial_distribution=[0.5, 0.5],
            x0=[1.0, 1.0])
        assert is_exactly_observable(model)

    def test_slow_shift_chain_observable(self):
        # A e_k = e_(k-1) and Q = e_1 e_1' see e_k only after k - 1 steps.
        # ||A||_2 = 1, so the Gramian is that of A itself, the identity; a
        # scale below 1 would shrink e_k by its (k - 1)-th power and drop
        # lambda_min below the definiteness floor at n = 18.
        n = 18
        e1 = np.eye(n)[:1]
        model = MjlsModel(
            A=[np.eye(n, k=1)], B=[np.eye(n)[:, -1:]], Q=[e1.T @ e1],
            R=[[[1.0]]], transition=[[1.0]], initial_distribution=[1.0],
            x0=np.ones(n))
        assert np.array_equal(observability_gramian(model, n), [np.eye(n)])
        assert is_exactly_observable(model)
        assert is_stabilizable(model)

    def test_zero_output_never_observable(self):
        model = MjlsModel(
            A=[np.eye(2)], B=[np.ones((2, 1))], Q=[np.zeros((2, 2))],
            R=[[[1.0]]], transition=[[1.0]], initial_distribution=[1.0],
            x0=[1.0, 0.0])
        assert not is_exactly_observable(model)

    def test_single_mode_agrees_with_rank_test(self):
        rng = np.random.default_rng(42)
        agree = 0
        for _ in range(200):
            n = int(rng.integers(1, 4))
            p = int(rng.integers(1, 3))
            A = rng.uniform(-1.0, 1.0, (n, n))
            C = rng.uniform(-1.0, 1.0, (p, n))
            # Thin out C occasionally so unobservable pairs actually occur.
            if rng.random() < 0.4:
                C[:, rng.integers(n)] = 0.0
            if rng.random() < 0.3:
                C = np.zeros_like(C)
            model = MjlsModel(
                A=[A], B=[np.ones((n, 1))], Q=[C.T @ C], R=[[[1.0]]],
                transition=[[1.0]], initial_distribution=[1.0],
                x0=np.zeros(n), C=[C])
            expected = classical_observability_rank(C, A)
            assert is_exactly_observable(model) == expected
            agree += 1
        assert agree == 200

    def test_gramian_kernel_monotone(self):
        # The Gramian kernels can only shrink as the horizon grows.
        rng = np.random.default_rng(43)
        for _ in range(30):
            model = random_model(rng, n_max=3, L_max=3)
            L, n = model.mode_count, model.state_dim
            G = [model.Q[i].copy() for i in range(L)]
            prev_rank = [np.linalg.matrix_rank(g, tol=1e-10) for g in G]
            for _ in range(n * L):
                G = [model.Q[i] + model.A[i].T
                     @ sum(model.transition[i, j] * G[j] for j in range(L))
                     @ model.A[i] for i in range(L)]
                rank = [np.linalg.matrix_rank(g, tol=1e-10) for g in G]
                assert all(r >= p for r, p in zip(rank, prev_rank))
                prev_rank = rank

    def test_strict_mode_covers_unreached_initial_modes(self):
        # Mode 1 is blind and never entered from mode 0; with pi0 putting no
        # mass on it the default reading passes, the strict one fails.
        model = MjlsModel(
            A=[np.eye(1), np.eye(1)], B=[np.ones((1, 1)), np.ones((1, 1))],
            Q=[np.eye(1), np.zeros((1, 1))], R=[np.eye(1), np.eye(1)],
            transition=[[1.0, 0.0], [0.0, 1.0]],
            initial_distribution=[1.0, 0.0], x0=[1.0])
        assert is_exactly_observable(model)
        assert not is_exactly_observable(model, strict=True)


class TestIsStabilizable:
    def test_stable_scalar(self):
        assert is_stabilizable(scalar_model(a=0.5))

    def test_uncontrollable_unstable(self):
        assert not is_stabilizable(scalar_model(a=2.0, b=0.0))

    def test_benchmark(self, bench):
        assert is_stabilizable(bench)

    def test_exhausted_budget_is_undetermined(self):
        # A marginal uncontrollable mode grows only linearly: 200 steps
        # neither converge nor pass the divergence bound.
        assert is_stabilizable(scalar_model(a=1.0, b=0.0),
                               max_iter=200) is None
        assert is_stabilizable(scalar_model(a=2.0, b=0.0)) is False

    def test_precondition_failures(self):
        with pytest.raises(PreconditionFailed):
            is_stabilizable(scalar_model(r=0.0))
        with pytest.raises(PreconditionFailed):
            is_stabilizable(scalar_model(q=0.0))


class TestStabilizability:
    def test_verdict_note_and_solution(self):
        verdict, note, sol = stabilizability(scalar_model(a=0.5))
        assert (verdict, note) == (True, "")
        assert np.array_equal(sol.P, solve_care(scalar_model(a=0.5)).P)
        verdict, note, sol = stabilizability(scalar_model(a=2.0, b=0.0))
        assert verdict is False and sol is None
        assert note.startswith("iterates diverged after")
        verdict, note, sol = stabilizability(scalar_model(a=1.0, b=0.0),
                                             max_iter=200)
        assert verdict is None and sol is None
        assert note == ("undetermined: no convergence within 200 "
                        "iterations (last increment 5.000e-03)")

    def test_given_observability_verdict_is_used(self):
        # The caller's verdict stands in for the Gramian test: with q = 0
        # that test would raise PreconditionFailed, and solve_care finds
        # the singular fixed point instead.
        with pytest.raises(PreconditionFailed, match="not exactly "
                           "observable: the Riccati stabilizability"):
            stabilizability(scalar_model(a=0.5), observable=False)
        with pytest.raises(ObservabilityViolation):
            stabilizability(scalar_model(q=0.0), observable=True)
