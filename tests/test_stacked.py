"""The stacked (L, ., .) solvers against literal per-mode loops.

Every kernel that works on all modes at once (the coupled Riccati step, the
observability Gramian, the second-moment recursion and the lifted operator)
must agree with its mode-by-mode reference in ``corpus.py`` to 1e-12
relative, and report a breakdown at the same (stage, mode, kind).
"""

import numpy as np
import pytest

from mjls import (
    MjlsModel,
    NumericalFailure,
    Policy,
    RiccatiBreakdown,
    cdre_step,
    closed_loop_operator,
    is_exactly_observable,
    is_mss,
    propagate_second_moment,
    solve_care,
    solve_finite,
    spectral_radius,
)
from mjls.stability import DENSE_LIMIT, closed_loop_matrices, \
    observability_gramian
from corpus import (
    LiteralBreakdown,
    closed_form_radii,
    dense_radius,
    literal_cdre_step,
    literal_gramian,
    literal_lifted_operator,
    literal_moments,
    random_model,
    random_stationary_policy,
    stacked_corpus,
)

REL = 1e-12


def assert_close(actual, reference):
    for got, want in zip(actual, reference):
        want = np.asarray(want, float)
        scale = 1.0 + np.linalg.norm(want)
        assert np.linalg.norm(np.asarray(got) - want) <= REL * scale


@pytest.fixture(scope="module")
def corpus():
    return stacked_corpus(np.random.default_rng(2024))


def test_corpus_covers_the_edge_shapes(corpus):
    assert any(model.mode_count == 1 for model in corpus)
    assert any(model.input_dim > model.state_dim for model in corpus)
    assert any(np.any(model.transition == 0.0) for model in corpus)
    assert any(np.all(model.R == 0.0) for model in corpus)


def test_cdre_step_matches_literal_loop(corpus):
    rng = np.random.default_rng(1)
    for model in corpus:
        n, L = model.state_dim, model.mode_count
        G = rng.uniform(-1.0, 1.0, (L, n, n))
        P_next = [np.eye(n)] * L if rng.random() < 0.3 else \
            [g.T @ g + np.eye(n) for g in G]
        for _ in range(5):
            stacked = cdre_step(P_next, model)
            literal = literal_cdre_step(P_next, model)
            for got, want in zip(stacked[:4], literal):
                assert_close(got, want)
            low = [np.linalg.eigvalsh(u)[0] for u in literal[1]]
            assert_close([stacked[4]], [low])
            P_next = literal[0]


def test_breakdown_reports_the_literal_stage_mode_and_kind():
    # Random cost-to-go matrices, some indefinite, and input weights that
    # are sometimes zero: wherever the literal loop breaks down the stacked
    # step must name the same mode and kind.
    rng = np.random.default_rng(7)
    seen = set()
    for trial in range(300):
        model = random_model(rng, n_max=3, m_max=2, L_max=4)
        L, n, m = model.mode_count, model.state_dim, model.input_dim
        R = [np.zeros((m, m)) if rng.random() < 0.4 else r for r in model.R]
        B = [b * (rng.random() < 0.7) for b in model.B]
        model = MjlsModel(A=model.A, B=B, Q=model.Q, R=R,
                          transition=model.transition,
                          initial_distribution=model.initial_distribution,
                          x0=model.x0)
        P_next = [rng.choice([-1.0, 1.0]) * np.eye(n) for _ in range(L)]
        try:
            literal_cdre_step(P_next, model, stage=trial)
        except LiteralBreakdown as exc:
            with pytest.raises(RiccatiBreakdown) as info:
                cdre_step(P_next, model, stage=trial)
            got = (info.value.stage, info.value.mode, info.value.kind)
            assert got == exc.triple
            seen.add(exc.triple[2])
        else:
            cdre_step(P_next, model, stage=trial)
    assert seen == {"singular", "indefinite"}


def test_breakdown_inside_the_backward_recursion_matches_literal():
    # Mode 1 has no input penalty and no dynamics: the stage-N step is fine
    # (identity terminal), the next one meets a zero cost-to-go in mode 1.
    model = MjlsModel(
        A=[np.eye(2), np.zeros((2, 2))], B=[np.eye(2)[:, :1]] * 2,
        Q=[np.eye(2), np.zeros((2, 2))], R=[[[1.0]], [[0.0]]],
        transition=[[0.5, 0.5], [0.0, 1.0]],
        initial_distribution=[0.5, 0.5], x0=[1.0, 1.0])
    N = 4
    P = [np.eye(2)] * 2
    expected = None
    for k in range(N, -1, -1):
        try:
            P = literal_cdre_step(P, model, stage=k)[0]
        except LiteralBreakdown as exc:
            expected = exc.triple
            break
    assert expected == (N - 1, 1, "singular")
    with pytest.raises(RiccatiBreakdown) as info:
        solve_finite(model, [np.eye(2)] * 2, N)
    assert (info.value.stage, info.value.mode, info.value.kind) == expected
    sol = solve_finite(model, [np.eye(2)] * 2, N, raise_on_breakdown=False)
    assert not sol.solvable and sol.breakdown.stage == N - 1
    assert np.isfinite(sol.P[N]).all() and np.isnan(sol.P[:N]).all()


def test_gramian_matches_literal_loop(corpus):
    for model in corpus:
        for horizon in range(model.state_dim * model.mode_count + 1):
            assert_close(observability_gramian(model, horizon),
                         literal_gramian(model, horizon))
        # The verdict reads the same Gramian's definiteness.
        G = literal_gramian(model, model.state_dim * model.mode_count)
        eig = [np.linalg.eigvalsh(g) for g, p in
               zip(G, model.initial_distribution) if p > 0.0]
        assert is_exactly_observable(model) == all(
            e[0] > 1e-10 * (1.0 + np.abs(e).max()) for e in eig)


def test_second_moments_match_literal_loop(corpus):
    rng = np.random.default_rng(3)
    for model in corpus:
        policies = [None, random_stationary_policy(rng, model, scale=0.5)]
        try:
            policies.append(solve_finite(
                model, [np.eye(model.state_dim)] * model.mode_count,
                12).policy())
        except RiccatiBreakdown:
            pass
        for policy in policies:
            steps = 13 if policy is not None and policy.staged else 30
            chain = propagate_second_moment(model, policy, steps)
            literal = literal_moments(
                model, lambda k, i: None if policy is None
                else policy.gains[k, i] if policy.staged
                else policy.gains[i], steps)
            for k in range(steps + 1):
                assert_close(chain.X[k], literal[k])


def test_lifted_operator_matches_literal_kron_blocks(corpus):
    rng = np.random.default_rng(4)
    for model in corpus:
        for policy in (None, random_stationary_policy(rng, model)):
            abar = [model.A[i] if policy is None
                    else model.A[i] + model.B[i] @ policy.gains[i]
                    for i in range(model.mode_count)]
            assert_close(closed_loop_matrices(model, policy), abar)
            T = literal_lifted_operator(abar, model.transition)
            assert_close([closed_loop_operator(model, policy)], [T])
            _, radius = is_mss(model, policy)
            assert radius == pytest.approx(dense_radius(T), rel=1e-9,
                                           abs=1e-12)


def test_matrix_free_radius_above_the_dense_limit():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 6:
        model = random_model(rng, n_max=4, L_max=5, pd_state_weight=True,
                             target_radius=float(rng.uniform(0.5, 1.5)))
        size = model.mode_count * model.state_dim ** 2
        if size <= DENSE_LIMIT:
            continue
        _, radius = is_mss(model)
        T = literal_lifted_operator(list(model.A), model.transition)
        assert radius == pytest.approx(dense_radius(T), abs=1e-8)
        checked += 1


def test_spectral_radius_above_the_dense_limit():
    rng = np.random.default_rng(6)
    for size in (DENSE_LIMIT + 1, 60):
        for model, radius in closed_form_radii(rng, size):
            T = closed_loop_operator(model)
            assert T.shape == (size, size)
            assert spectral_radius(T) == pytest.approx(radius, rel=1e-10)


def test_periodic_rotation_model_radius():
    # Every eigenvalue of the lifted map has modulus 0.81 here, which the
    # block power iteration cannot separate; the dense path takes it.
    axis = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
    K = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    rot = np.eye(3) + np.sin(0.7) * K + (1.0 - np.cos(0.7)) * K @ K
    model = MjlsModel(A=[0.9 * rot] * 2, B=[np.eye(3)[:, :1]] * 2,
                      Q=[np.eye(3)] * 2, R=[[[1.0]]] * 2,
                      transition=[[0.0, 1.0], [1.0, 0.0]],
                      initial_distribution=[0.5, 0.5], x0=[1.0, 0.0, 0.0])
    stable, radius = is_mss(model)
    assert stable
    assert radius == pytest.approx(0.81, abs=1e-9)


class TestOverflow:
    def test_cdre_step_names_stage_and_mode(self):
        model = MjlsModel(A=[[[1.0]], [[1e300]]], B=[[[1.0]]] * 2,
                          Q=[[[1.0]]] * 2, R=[[[1.0]]] * 2,
                          transition=[[0.5, 0.5], [0.5, 0.5]],
                          initial_distribution=[0.5, 0.5], x0=[1.0])
        with pytest.raises(NumericalFailure, match="stage 7 .*mode 1"):
            cdre_step([np.eye(1)] * 2, model, stage=7)
        with pytest.raises(NumericalFailure, match="stage 2 .*mode 1"):
            solve_finite(model, [np.zeros((1, 1))] * 2, 3)

    def test_gramian_of_huge_dynamics_stays_finite(self):
        # The scaled dynamics 1e100 / (1 + 1e100) round to 1, so
        # G(t) = t + 1 where the unscaled Gramian overflowed at step 2.
        model = MjlsModel(A=[[[1e100]]], B=[[[1.0]]], Q=[[[1.0]]],
                          R=[[[1.0]]], transition=[[1.0]],
                          initial_distribution=[1.0], x0=[1.0])
        for horizon in (1, 2, 50):
            assert observability_gramian(model, horizon)[0, 0, 0] == \
                horizon + 1.0
            assert is_exactly_observable(model, horizon=horizon)

    def test_lifted_operator_and_moments(self):
        model = MjlsModel(A=[[[1e300]]], B=[[[1.0]]], Q=[[[1.0]]],
                          R=[[[1.0]]], transition=[[1.0]],
                          initial_distribution=[1.0], x0=[1.0])
        with pytest.raises(NumericalFailure, match="mode 0"):
            is_mss(model)
        with pytest.raises(NumericalFailure, match="step 1 .*mode 0"):
            propagate_second_moment(model, None, 3)
        tame = MjlsModel(A=[[[1e100]]], B=[[[1.0]]], Q=[[[1.0]]],
                         R=[[[1.0]]], transition=[[1.0]],
                         initial_distribution=[1.0], x0=[1.0])
        assert is_mss(tame)[1] == pytest.approx(1e200)


def test_solutions_are_read_only_stacks(bench):
    sol = solve_finite(bench, [np.eye(2)] * 2, 3)
    care = solve_care(bench)
    shapes = [(sol, "P", (5, 2, 2, 2)), (sol, "Upsilon", (4, 2, 1, 1)),
              (sol, "K", (4, 2, 1, 2)), (sol, "upsilon_min_eig", (4, 2)),
              (care, "P", (2, 2, 2)), (care, "Upsilon", (2, 1, 1)),
              (care, "K", (2, 1, 2)), (care, "p_min_eig", (2,))]
    for owner, name, shape in shapes:
        stack = getattr(owner, name)
        assert isinstance(stack, np.ndarray) and stack.shape == shape, name
        with pytest.raises(ValueError):
            stack[(0,) * stack.ndim] = 1.0
    assert not hasattr(sol, "M") and not hasattr(care, "M")
    policy = sol.policy()
    assert policy.gains.shape == (4, 2, 1, 2)
    assert isinstance(Policy.stationary(sol.K[0]).gains, np.ndarray)
