import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mjls.riccati
from mjls import (
    InvalidInput,
    InvalidState,
    MjlsError,
    MjlsModel,
    NotStabilizable,
    NumericalFailure,
    ObservabilityViolation,
    PreconditionFailed,
    RiccatiBreakdown,
    care_residual,
    cdre_step,
    closed_loop_operator,
    optimal_cost_finite,
    solve_care,
    solve_finite,
    write_riccati_csv,
)

from conftest import edge_model, scalar_model
from corpus import classical_finite_riccati, dense_radius, \
    literal_scalar_value_iteration, random_model, stacked_corpus


def zeros_terminal(model):
    n = model.state_dim
    return [np.zeros((n, n)) for _ in range(model.mode_count)]


def identity_terminal(model):
    return [np.eye(model.state_dim) for _ in range(model.mode_count)]


class TestCdreStep:
    def test_zero_terminal_kills_coupling(self):
        model = scalar_model(a=1.0, b=1.0, q=1.0, r=1.0)
        P, U, M, K, _ = cdre_step([np.zeros((1, 1))], model)
        assert U[0][0, 0] == pytest.approx(1.0)
        assert M[0][0, 0] == pytest.approx(0.0)
        assert P[0][0, 0] == pytest.approx(1.0)
        assert K[0][0, 0] == pytest.approx(0.0)

    def test_scalar_hand_evaluation(self):
        # a = b = q = r = 1, previous value 1:
        # ups = 1*1*1 + 1 = 2; m = 1; p = 1 + 1 - 1/2 = 1.5; gain = -1/2
        model = scalar_model(a=1.0, b=1.0, q=1.0, r=1.0)
        P, U, M, K, _ = cdre_step([np.ones((1, 1))], model)
        assert U[0][0, 0] == pytest.approx(2.0)
        assert M[0][0, 0] == pytest.approx(1.0)
        assert P[0][0, 0] == pytest.approx(1.5)
        assert K[0][0, 0] == pytest.approx(-0.5)

    def test_zero_weights_break_down(self):
        model = scalar_model(a=1.0, b=1.0, q=0.0, r=0.0)
        with pytest.raises(RiccatiBreakdown) as info:
            cdre_step([np.zeros((1, 1))], model, stage=4)
        assert info.value.stage == 4
        assert info.value.mode == 0
        assert info.value.eigenvalue == pytest.approx(0.0, abs=1e-15)

    def test_benchmark_input_terms_at_identity(self, bench):
        # mode 0: B'B + 1 = 2 + 1 = 3; mode 1: B'B + 1 = 5 + 1 = 6
        _, U, _, _, _ = cdre_step(identity_terminal(bench), bench)
        assert U[0][0, 0] == pytest.approx(3.0)
        assert U[1][0, 0] == pytest.approx(6.0)

    def test_result_symmetric(self, bench):
        P, _, _, _, _ = cdre_step(identity_terminal(bench), bench)
        for mat in P:
            assert np.array_equal(mat, mat.T)

    def test_wrong_count_rejected(self, bench):
        with pytest.raises(InvalidInput):
            cdre_step([np.eye(2)], bench)


class TestSolveFinite:
    def test_zero_horizon_is_single_step(self, bench):
        term = identity_terminal(bench)
        sol = solve_finite(bench, term, 0)
        P, U, M, K, _ = cdre_step(term, bench, stage=0)
        for i in range(2):
            assert np.allclose(sol.P[0][i], P[i])
            assert np.allclose(sol.K[0][i], K[i])
        assert sol.solvable

    def test_benchmark_long_horizon_solvable(self, bench):
        sol = solve_finite(bench, identity_terminal(bench), 20)
        assert sol.solvable
        assert all(eig > 0.0 for stage in sol.upsilon_min_eig for eig in stage)
        assert len(sol.K) == 21
        assert len(sol.P) == 22

    def test_semidefinite_input_weight_with_invertible_b(self):
        # With square invertible B and no input penalty the recursion stays
        # well defined: the input term inherits positivity from the averaged
        # cost-to-go, and the optimal controller deadbeats the state.
        model = MjlsModel(
            A=[[[1.3, 0.2], [0.4, 0.9]], [[0.7, -0.3], [0.2, 1.1]]],
            B=[np.eye(2), [[1.0, 0.5], [0.0, 1.0]]],
            Q=[np.eye(2), np.eye(2)],
            R=[np.zeros((2, 2)), np.zeros((2, 2))],
            transition=[[0.6, 0.4], [0.2, 0.8]],
            initial_distribution=[0.3, 0.7], x0=[1.0, -2.0])
        sol = solve_finite(model, identity_terminal(model), 6)
        assert sol.solvable
        assert all(eig > 0.0 for stage in sol.upsilon_min_eig for eig in stage)
        for k in range(7):
            for i in range(2):
                assert np.allclose(sol.P[k][i], np.eye(2), atol=1e-12)

    def test_breakdown_carries_stage_and_mode(self):
        model = scalar_model(a=1.0, b=1.0, q=0.0, r=0.0)
        with pytest.raises(RiccatiBreakdown) as info:
            solve_finite(model, [np.zeros((1, 1))], 3)
        assert info.value.stage == 3  # first backward stage
        assert info.value.mode == 0

    def test_non_raising_breakdown_mode(self):
        model = scalar_model(a=1.0, b=1.0, q=0.0, r=0.0)
        sol = solve_finite(model, [np.zeros((1, 1))], 3,
                           raise_on_breakdown=False)
        assert not sol.solvable
        assert sol.breakdown is not None
        with pytest.raises(InvalidState):
            sol.policy()
        with pytest.raises(InvalidState):
            optimal_cost_finite(sol, model)

    def test_invalid_terminal_rejected(self, bench):
        with pytest.raises(InvalidInput):
            solve_finite(bench, [np.eye(2), -np.eye(2)], 2)
        with pytest.raises(InvalidInput):
            solve_finite(bench, [np.eye(3), np.eye(3)], 2)

    def test_positive_semidefinite_iterates_with_zero_terminal(self):
        # Zero-terminal cost-to-go matrices stay PSD at every stage.
        rng = np.random.default_rng(21)
        for _ in range(100):
            model = random_model(rng)
            sol = solve_finite(model, zeros_terminal(model), 6)
            for stage in sol.P:
                for mat in stage:
                    scale = 1.0 + np.linalg.norm(mat, 2)
                    assert np.linalg.eigvalsh(mat)[0] >= -1e-10 * scale

    def test_positive_input_weight_never_breaks_down(self):
        # With positive definite R the recursion is always well defined.
        rng = np.random.default_rng(22)
        for _ in range(500):
            model = random_model(rng)
            sol = solve_finite(model, zeros_terminal(model), 5)
            assert sol.solvable

    def test_value_monotone_in_horizon(self, bench):
        # With zero terminal, lengthening the horizon can only raise the
        # cost-to-go: successive iterates from zero are PSD-ordered.
        rng = np.random.default_rng(23)
        models = [bench] + [random_model(rng) for _ in range(10)]
        for model in models:
            P = zeros_terminal(model)
            for _ in range(20):
                nxt, _, _, _, _ = cdre_step(P, model)
                for i in range(model.mode_count):
                    diff = nxt[i] - P[i]
                    scale = 1.0 + np.linalg.norm(nxt[i], 2)
                    assert np.linalg.eigvalsh(diff)[0] >= -1e-10 * scale
                P = nxt

    def test_single_mode_matches_classical_recursion(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 3))
            A = rng.uniform(-1.0, 1.0, (n, n))
            B = rng.uniform(-1.0, 1.0, (n, m))
            G = rng.uniform(-1.0, 1.0, (n, n))
            Q = G.T @ G
            H = rng.uniform(-1.0, 1.0, (m, m))
            R = H.T @ H + 0.3 * np.eye(m)
            model = MjlsModel(A=[A], B=[B], Q=[Q], R=[R], transition=[[1.0]],
                              initial_distribution=[1.0],
                              x0=rng.uniform(-1.0, 1.0, n))
            N = 8
            sol = solve_finite(model, [np.eye(n)], N)
            P_ref, K_ref = classical_finite_riccati(A, B, Q, R, np.eye(n), N)
            for k in range(N + 1):
                scale = 1.0 + np.linalg.norm(P_ref[k], "fro")
                assert np.linalg.norm(sol.P[k][0] - P_ref[k], "fro") \
                    <= 1e-12 * scale
                assert np.allclose(sol.K[k][0], K_ref[k], atol=1e-11)

    def test_gain_solves_its_linear_system(self, bench):
        # Upsilon(k) K(k) + M(k) = 0 with M(k) = B' E(P(k+1)) A per mode.
        sol = solve_finite(bench, identity_terminal(bench), 15)
        lam = bench.transition
        for k in range(16):
            for i in range(2):
                W = sum(lam[i, j] * sol.P[k + 1][j] for j in range(2))
                M = bench.B[i].T @ W @ bench.A[i]
                defect = sol.Upsilon[k][i] @ sol.K[k][i] + M
                scale = 1.0 + np.linalg.norm(M)
                assert np.linalg.norm(defect) <= 1e-11 * scale


def stepwise_finite(model, terminal, N):
    """Stages k = N..0 of the backward recursion, one :func:`cdre_step`
    per stage: ``{k: (P, Upsilon, M, K, upsilon_min_eig)}`` up to the first
    failure, and that failure (or None)."""
    stages, P = {}, np.asarray(terminal, dtype=float)
    for k in range(N, -1, -1):
        try:
            stages[k] = cdre_step(P, model, stage=k)
        except MjlsError as exc:
            return stages, exc
        P = stages[k][0]
    return stages, None


def failure_fields(exc):
    return (type(exc), str(exc), exc.args) + tuple(
        getattr(exc, name, None) for name in
        ("stage", "mode", "eigenvalue", "kind"))


def solution_stage(sol, k):
    """Stage k of ``sol``: P, Upsilon, K and the smallest eigenvalues of
    Upsilon, as :func:`step_stage` orders a step."""
    return sol.P[k], sol.Upsilon[k], sol.K[k], sol.upsilon_min_eig[k]


def step_stage(step):
    """A :func:`cdre_step` result without its M."""
    P, ups, _, K, low = step
    return P, ups, K, low


def assert_stages_match(sol, stages, N):
    """Every stage of ``sol`` holds the bits of the stepwise recursion, and
    stages it did not reach hold NaN."""
    for k in range(N + 1):
        got = solution_stage(sol, k)
        if k not in stages:
            assert all(np.isnan(field).all() for field in got), k
            continue
        for field, want in zip(got, step_stage(stages[k])):
            assert field.tobytes() == want.tobytes(), k


def assert_matches_stepwise(model, terminal, N):
    """solve_finite from the ``terminal`` ("zero" or "identity") weights
    raises what the stepwise recursion raised, with either
    ``raise_on_breakdown``, and otherwise records its failure and holds its
    bits at every stage."""
    n, L = model.state_dim, model.mode_count
    term = [np.zeros((n, n)) if terminal == "zero" else np.eye(n)] * L
    stages, want = stepwise_finite(model, term, N)
    if isinstance(want, NumericalFailure):
        for raise_on_breakdown in (True, False):
            with pytest.raises(NumericalFailure) as info:
                solve_finite(model, term, N, raise_on_breakdown)
            assert failure_fields(info.value) == failure_fields(want)
        return
    if isinstance(want, RiccatiBreakdown):
        with pytest.raises(RiccatiBreakdown) as info:
            solve_finite(model, term, N)
        assert failure_fields(info.value) == failure_fields(want)
    sol = solve_finite(model, term, N, raise_on_breakdown=False)
    assert sol.solvable == (want is None)
    if want is not None:
        assert failure_fields(sol.breakdown) == failure_fields(want)
    assert_stages_match(sol, stages, N)


def counted_steps(monkeypatch):
    """A list that gains one entry per call of the unchecked Riccati step."""
    steps = []
    step = mjls.riccati._riccati_step
    monkeypatch.setattr(mjls.riccati, "_riccati_step",
                        lambda *args: steps.append(1) or step(*args))
    return steps


def chained_scalar_modes(a0, b1, A1=0.7, q1=1.0, r1=0.0):
    """Mode 0 is uncontrolled (b = 0) with dynamics a0 and feeds mode 1
    (both rows of the chain jump to mode 0), so Upsilon[1](k) = b1^2
    P[0](k+1) + r1 follows the growth or decay of mode 0 down the
    horizon."""
    return MjlsModel(A=[[[a0]], [[A1]]], B=[[[0.0]], [[b1]]],
                     Q=[[[1.0 if a0 > 1.0 else 0.0]], [[q1]]],
                     R=[[[1.0]], [[r1]]], transition=[[1.0, 0.0], [1.0, 0.0]],
                     initial_distribution=[0.5, 0.5], x0=[1.0])


class TestBatchedStageChecks:
    """solve_finite checks all stages after one sweep; it must raise and
    record what a check after every step raised."""

    N = 30

    def test_mid_horizon_breakdown(self):
        # Upsilon[1](k) = 0.25^(N - k) reaches the definiteness floor at
        # stage N - 17 = 13; the stages at and below it hold NaN.
        model = chained_scalar_modes(0.5, 1.0)
        term = [np.eye(1)] * 2
        stages, want = stepwise_finite(model, term, self.N)
        assert isinstance(want, RiccatiBreakdown)
        assert (want.stage, want.mode, want.kind) == (13, 1, "singular")
        with pytest.raises(RiccatiBreakdown) as info:
            solve_finite(model, term, self.N)
        assert failure_fields(info.value) == failure_fields(want)
        sol = solve_finite(model, term, self.N, raise_on_breakdown=False)
        assert not sol.solvable
        assert failure_fields(sol.breakdown) == failure_fields(want)
        assert_stages_match(sol, stages, self.N)
        assert sol.breakdown.stage == 13
        assert np.isfinite(sol.P[14]).all() and np.isnan(sol.P[:14]).all()
        assert sol.P[self.N + 1].tobytes() == np.stack(term).tobytes()

    def test_recorded_breakdown_keeps_the_stages_above_it(self, tmp_path):
        # Stages 14..N+1 are those of a clean solve over the horizon that
        # ends above the breakdown; only they reach riccati.csv.
        model = chained_scalar_modes(0.5, 1.0)
        term = [np.eye(1)] * 2
        sol = solve_finite(model, term, self.N, raise_on_breakdown=False)
        top = sol.breakdown.stage + 1
        clean = solve_finite(model, term, self.N - top)
        assert clean.solvable
        assert sol.P[top:].tobytes() == clean.P.tobytes()
        write_riccati_csv(sol, tmp_path / "riccati.csv")
        text = (tmp_path / "riccati.csv").read_text()
        assert "nan" not in text.lower()
        stages = [int(line.split(",")[0]) for line in text.split()[1:]]
        assert stages[0] == top and stages[-1] == self.N + 1
        with pytest.raises(InvalidState):
            sol.policy()
        with pytest.raises(InvalidState):
            optimal_cost_finite(sol, model)

    @pytest.mark.parametrize("a0, b1, what, stage", [
        (10.0, 1e150, "input-weight term at stage 26", 1),
        (1e20, 1.0, "cost-to-go at stage 23", 0),
    ], ids=["upsilon", "cost-to-go"])
    def test_overflow_names_the_same_stage_and_mode(self, a0, b1, what,
                                                    stage):
        # Mode 0 grows by a0^2 per stage: with b1 = 1e150 Upsilon[1]
        # overflows first, with a0 = 1e20 P[0] does.
        model = chained_scalar_modes(a0, b1, r1=1.0)
        term = [np.eye(1)] * 2
        _, want = stepwise_finite(model, term, self.N)
        assert str(want) == f"{what} is not finite in mode {stage}"
        for raise_on_breakdown in (True, False):
            with pytest.raises(NumericalFailure) as info:
                solve_finite(model, term, self.N, raise_on_breakdown)
            assert failure_fields(info.value) == failure_fields(want)

    def test_failed_solve_ends_the_sweep(self, monkeypatch):
        # Upsilon is exactly 0 at stage N - 1, so its solve fails there and
        # the 10^4 stages below it are never stepped.
        steps = counted_steps(monkeypatch)
        model = scalar_model(a=1.0, b=1.0, q=0.0, r=0.0)
        sol = solve_finite(model, [np.eye(1)], 10 ** 4,
                           raise_on_breakdown=False)
        assert sol.breakdown.stage == 10 ** 4 - 1 and len(steps) == 2

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), N=st.integers(0, 12),
           terminal=st.sampled_from(["zero", "identity"]),
           r_scale=st.sampled_from([1.0, 0.0]),
           a_scale=st.sampled_from([1.0, 1e40]),
           b_scale=st.sampled_from([1.0, 1e160]))
    def test_every_stage_matches_stepwise_recursion(self, seed, N, terminal,
                                                    r_scale, a_scale,
                                                    b_scale):
        rng = np.random.default_rng(seed)
        base = random_model(rng, n_max=3, m_max=3, L_max=4)
        # R = 0 lets Upsilon break down; a huge A lets P overflow, a huge
        # B Upsilon.
        model = MjlsModel(A=a_scale * base.A, B=b_scale * base.B, Q=base.Q,
                          R=r_scale * base.R, transition=base.transition,
                          initial_distribution=base.initial_distribution,
                          x0=base.x0)
        assert_matches_stepwise(model, terminal, N)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), N=st.integers(0, 300),
           terminal=st.sampled_from(["zero", "identity"]),
           variant=st.sampled_from(["plain"] * 3
                                   + ["R = 0", "huge A", "huge B"]))
    def test_repeated_tails_match_stepwise_recursion(self, seed, N, terminal,
                                                     variant):
        # Small models at long horizons mostly reach a fixed point or a
        # cycle, below which solve_finite copies stages instead of
        # stepping.  R = 0 lets Upsilon break down; a huge A lets P
        # overflow, a huge B Upsilon.
        rng = np.random.default_rng(seed)
        base = random_model(rng, n_max=2, m_max=2, L_max=3)
        scale = {"A": 1e40 if variant == "huge A" else 1.0,
                 "B": 1e160 if variant == "huge B" else 1.0,
                 "R": 0.0 if variant == "R = 0" else 1.0}
        model = MjlsModel(A=scale["A"] * base.A, B=scale["B"] * base.B,
                          Q=base.Q, R=scale["R"] * base.R,
                          transition=base.transition,
                          initial_distribution=base.initial_distribution,
                          x0=base.x0)
        assert_matches_stepwise(model, terminal, N)

    def test_fixed_point_ends_the_sweep(self, monkeypatch):
        # The scalar recursion reaches its fixed point in a few dozen
        # steps; the 10^4 stages below it are copies.
        model = scalar_model(a=0.9, b=1.0, q=1.0, r=1.0)
        N = 10 ** 4
        stages, want = stepwise_finite(model, [np.eye(1)], N)
        assert want is None
        steps = counted_steps(monkeypatch)
        sol = solve_finite(model, [np.eye(1)], N)
        assert len(steps) < 100
        for k in (0, 1, N):
            for got, want in zip(solution_stage(sol, k),
                                 step_stage(stages[k])):
                assert got.tobytes() == want.tobytes(), k

    # Seeds of random_model(n_max=2, m_max=2, L_max=3) whose recursion from
    # the identity ends in a cycle of period 2, 3, 8 and 12.
    @pytest.mark.parametrize("seed", [0, 1, 4, 9])
    def test_cycle_is_copied_bit_for_bit(self, seed, monkeypatch):
        model = random_model(np.random.default_rng(seed), n_max=2, m_max=2,
                             L_max=3)
        term = identity_terminal(model)
        N = 300
        stages, want = stepwise_finite(model, term, N)
        assert want is None
        steps = counted_steps(monkeypatch)
        sol = solve_finite(model, term, N)
        assert len(steps) < N + 1
        assert sol.P[0].tobytes() != sol.P[1].tobytes()
        assert_stages_match(sol, stages, N)


class TestOptimalCost:
    def test_zero_state(self):
        model = scalar_model(x0=0.0)
        sol = solve_finite(model, [np.eye(1)], 4)
        assert optimal_cost_finite(sol, model) == 0.0

    def test_identity_quadratic_form(self):
        # With A = 0 and Q = I the stage-0 value matrix is exactly the
        # identity, so the cost is the initial-mode-weighted form x0'x0 = 2.
        model = MjlsModel(
            A=[np.zeros((2, 2)), np.eye(2)],
            B=[np.ones((2, 1)), np.ones((2, 1))],
            Q=[np.eye(2), np.eye(2)],
            R=[[[1.0]], [[1.0]]],
            transition=[[1.0, 0.0], [0.0, 1.0]],
            initial_distribution=[1.0, 0.0], x0=[1.0, 1.0])
        sol = solve_finite(model, identity_terminal(model), 0)
        assert np.allclose(sol.P[0][0], np.eye(2))
        assert optimal_cost_finite(sol, model) == pytest.approx(2.0)


class TestSolveCare:
    def test_scalar_closed_form_root(self):
        # p = a^2 p + q - (abp)^2/(b^2 p + r) collapses to
        # p^2 - 0.25 p - 1 = 0 for a = 0.5, b = q = r = 1.
        root = (0.25 + math.sqrt(0.0625 + 4.0)) / 2.0
        sol = solve_care(scalar_model(a=0.5))
        assert sol.P[0][0, 0] == pytest.approx(root, abs=1e-8)
        assert sol.residual <= 1e-8
        assert sol.p_min_eig[0] > 0.0

    def test_uncontrollable_unstable_mode_diverges(self):
        with pytest.raises(NotStabilizable) as info:
            solve_care(scalar_model(a=2.0, b=0.0))
        assert info.value.reason == "diverged"

    def test_budget_exhaustion_reported_distinctly(self):
        # A marginally unstable uncontrollable mode grows only linearly, so
        # the divergence bound is never hit inside a small budget.
        with pytest.raises(NotStabilizable) as info:
            solve_care(scalar_model(a=1.0, b=0.0), max_iter=200)
        assert info.value.reason == "budget"

    def test_benchmark_fixed_point(self, bench):
        sol = solve_care(bench)
        assert all(eig > 0.0 for eig in sol.p_min_eig)
        assert sol.residual <= 1e-8
        assert care_residual(sol.P, bench) <= 1e-8

    def test_zero_state_weight_flags_observability(self):
        with pytest.raises(ObservabilityViolation):
            solve_care(scalar_model(a=0.5, q=0.0))

    def test_semidefinite_input_weight_rejected(self):
        with pytest.raises(PreconditionFailed):
            solve_care(scalar_model(r=0.0))

    def test_fixed_point_unique_across_initializations(self, bench):
        rng = np.random.default_rng(25)
        models = [bench]
        while len(models) < 8:
            model = random_model(rng, pd_state_weight=True,
                                 target_radius=float(rng.uniform(0.3, 0.9)))
            models.append(model)
        for model in models:
            from_zero = solve_care(model, tol=1e-12)
            from_identity = solve_care(
                model, tol=1e-12,
                initial=[np.eye(model.state_dim)] * model.mode_count)
            for i in range(model.mode_count):
                gap = np.linalg.norm(from_zero.P[i] - from_identity.P[i],
                                     "fro")
                assert gap <= 1e-8

    def test_gains_are_stationary_fixed_point_quantities(self, bench):
        sol = solve_care(bench)
        _, U, M, K, _ = cdre_step(sol.P, bench)
        for i in range(2):
            assert np.allclose(sol.Upsilon[i], U[i], atol=1e-12)
            assert np.allclose(sol.K[i], K[i], atol=1e-12)


class TestNewtonHandOver:
    """Value iteration hands over to Newton-Kleinman steps once a gain is
    certified mean-square stabilizing (models with L n^2 <= DENSE_LIMIT)."""

    # (iterations, value_iterations, newton_steps) at the default tolerance;
    # value iteration alone takes 133 / 3,008 / 49,407 steps.
    EDGE_STEPS = {1.3: (7, 2, 5), 1.41: (13, 8, 5), 1.414: (34, 30, 4)}

    @pytest.mark.parametrize("a", sorted(EDGE_STEPS))
    def test_edge_family(self, a):
        model = edge_model(a)
        sol = solve_care(model)
        assert (sol.iterations, sol.value_iterations, sol.newton_steps) \
            == self.EDGE_STEPS[a]
        assert dense_radius(closed_loop_operator(model, sol.policy())) < 1.0
        reference = literal_scalar_value_iteration(model, 1e-13)
        assert np.all(np.abs(sol.P[:, 0, 0] - reference)
                      <= 1e-8 * reference)

    def test_newton_agrees_with_value_iteration_on_corpus(self,
                                                          monkeypatch):
        def solve(model):
            try:
                return solve_care(model, tol=1e-13, max_iter=10 ** 5)
            except MjlsError as exc:
                return type(exc)

        compared = 0
        for model in stacked_corpus(np.random.default_rng(2024)):
            if model.mode_count * model.state_dim ** 2 > \
                    mjls.riccati.DENSE_LIMIT:
                continue
            newton = solve(model)
            with monkeypatch.context() as patch:
                patch.setattr(mjls.riccati, "DENSE_LIMIT", 0)
                value = solve(model)
            if isinstance(value, type):
                assert newton is value
                continue
            assert value.newton_steps == 0 < newton.newton_steps
            gap = np.linalg.norm(newton.P - value.P, axis=(1, 2))
            assert np.all(gap <= 1e-8 * np.linalg.norm(value.P, axis=(1, 2)))
            compared += 1
        assert compared >= 30

    def test_rank_deficient_output_hands_over(self, monkeypatch):
        # Q = C'C with rank-1 C on n = 3: the Lyapunov decrease
        # Q[i] + K[i]' R[i] K[i] has rank at most 2, so only the radius of
        # the second-moment operator can certify a gain.
        C = np.array([[1.0, 0.0, 0.0]])
        model = MjlsModel(
            A=[[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.9, -1.5, 1.7]],
               [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-0.4, 0.3, 1.2]]],
            B=[[[0.0], [0.0], [1.0]]] * 2, Q=[C.T @ C] * 2, R=[[[1.0]]] * 2,
            transition=[[0.7, 0.3], [0.4, 0.6]], initial_distribution=[1, 0],
            x0=[1.0, 1.0, 1.0], C=[C, C])
        sol = solve_care(model)
        assert sol.newton_steps > 0
        assert dense_radius(closed_loop_operator(model, sol.policy())) < 1.0
        monkeypatch.setattr(mjls.riccati, "DENSE_LIMIT", 0)
        value = solve_care(model, tol=1e-13)
        assert value.newton_steps == 0
        gap = np.linalg.norm(sol.P - value.P, axis=(1, 2))
        assert np.all(gap <= 1e-8 * np.linalg.norm(value.P, axis=(1, 2)))

    def test_singular_lyapunov_system_falls_back_to_value_iteration(self):
        # From P = 0 the gain is zero and Abar = a = 1, so the Lyapunov
        # system 1 - a^2 = 0 is singular and the first step is a value
        # iteration; p = 1 + p / (p + 1) then has the golden ratio as root.
        sol = solve_care(scalar_model(a=1.0))
        assert sol.value_iterations == 1 and sol.newton_steps >= 2
        assert sol.P[0, 0, 0] == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0,
                                               rel=1e-12)

    def test_stalled_newton_steps_hand_back_to_value_iteration(
            self, monkeypatch):
        # Newton answers that carry a relative error of 1e-8 stop shrinking
        # their increments well above tol; value iteration must finish.
        newton_step = mjls.riccati._newton_step
        factors = itertools.cycle([1.0 + 1e-8, 1.0 - 1e-8])

        def noisy(*args):
            X = newton_step(*args)
            return None if X is None else X * next(factors)

        monkeypatch.setattr(mjls.riccati, "_newton_step", noisy)
        model = edge_model(1.3)
        sol = solve_care(model, max_iter=1000)
        assert sol.newton_steps >= 3 and sol.value_iterations >= 10
        reference = literal_scalar_value_iteration(model, 1e-13)
        assert np.all(np.abs(sol.P[:, 0, 0] - reference)
                      <= 1e-8 * reference)

    def test_budget_counts_both_phases(self):
        model = edge_model(1.414)
        assert solve_care(model, max_iter=34).iterations == 34
        with pytest.raises(NotStabilizable) as info:
            solve_care(model, max_iter=33)
        assert info.value.reason == "budget"
        assert info.value.iterations == 33

    def test_large_models_keep_value_iteration(self):
        rng = np.random.default_rng(26)
        model = random_model(rng, n_max=3, L_max=4, pd_state_weight=True,
                             target_radius=0.5)
        while model.mode_count * model.state_dim ** 2 <= \
                mjls.riccati.DENSE_LIMIT:
            model = random_model(rng, n_max=3, L_max=4, pd_state_weight=True,
                                 target_radius=0.5)
        sol = solve_care(model)
        assert sol.newton_steps == 0
        assert sol.value_iterations == sol.iterations


class TestCareResidual:
    def test_zero_matrices_have_positive_residual(self):
        model = scalar_model(a=0.5)
        assert care_residual([np.zeros((1, 1))], model) > 0.1

    def test_perturbation_increases_residual(self, bench):
        sol = solve_care(bench)
        base = care_residual(sol.P, bench)
        bumped = [mat + 0.01 * np.eye(2) for mat in sol.P]
        assert care_residual(bumped, bench) > base

    def test_breakdown_propagates(self):
        model = scalar_model(a=1.0, b=1.0, q=0.0, r=0.0)
        with pytest.raises(RiccatiBreakdown):
            care_residual([np.zeros((1, 1))], model)


class TestRiccatiCsv:
    def test_schema_and_roundtrip_values(self, bench, tmp_path):
        sol = solve_finite(bench, identity_terminal(bench), 2)
        path = tmp_path / "riccati.csv"
        write_riccati_csv(sol, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,mode,row,col,P,gain_row,gain_col,K"
        # stages 0..3, 2 modes, 2x2 entries each
        assert len(lines) == 1 + 4 * 2 * 4
        first = lines[1].split(",")
        assert float(first[4]) == pytest.approx(sol.P[0][0][0, 0])
        assert float(first[7]) == pytest.approx(sol.K[0][0][0, 0])
        # terminal stage rows carry no gain entries
        terminal_rows = [l for l in lines[1:] if l.startswith("3,")]
        assert terminal_rows and all(r.endswith(",,,") for r in terminal_rows)
