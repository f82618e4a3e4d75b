import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mjls import (
    InvalidInput,
    MjlsModel,
    Policy,
    load_model,
    save_model,
    validate,
)
from mjls.model import coupled_average, lifted_adjoint, lifted_apply, \
    lifted_matrix

from conftest import scalar_model


class TestValidate:
    def test_degenerate_single_mode_passes(self):
        model = scalar_model(a=0.5)
        report = validate(model)
        assert report.ok, str(report)

    def test_row_sum_violation_reports_residual(self):
        model = MjlsModel(
            A=[np.eye(2), np.eye(2)], B=[np.ones((2, 1)), np.ones((2, 1))],
            Q=[np.eye(2), np.eye(2)], R=[[[1.0]], [[1.0]]],
            transition=[[0.9, 0.2], [0.7, 0.3]],
            initial_distribution=[0.5, 0.5], x0=[1.0, 1.0])
        report = validate(model)
        assert not report.ok
        bad = {c.name: c for c in report.failures}
        assert "transition row-stochastic" in bad
        assert bad["transition row-stochastic"].residual == pytest.approx(0.1)

    def test_benchmark_model_passes(self, bench):
        assert bench.validate().ok

    def test_failing_report_lists_every_violation(self):
        model = MjlsModel(
            A=[np.eye(2)], B=[np.ones((2, 1))],
            Q=[[[1.0, 0.5], [0.4, 1.0]]],  # asymmetric
            R=[[[-1.0]]],                  # indefinite
            transition=[[0.8]],            # row sum 0.8
            initial_distribution=[1.0], x0=[0.0, 0.0])
        report = validate(model)
        names = {c.name for c in report.failures}
        assert {"Q symmetric", "R positive semi-definite",
                "transition row-stochastic"} <= names

    def test_negative_probability_fails(self):
        model = MjlsModel(
            A=[np.eye(1), np.eye(1)], B=[np.eye(1), np.eye(1)],
            Q=[np.eye(1), np.eye(1)], R=[np.eye(1), np.eye(1)],
            transition=[[1.2, -0.2], [0.5, 0.5]],
            initial_distribution=[0.5, 0.5], x0=[1.0])
        report = validate(model)
        assert any(c.name == "transition nonnegative" for c in report.failures)

    def test_nan_entries_fail(self):
        model = scalar_model()
        nan_model = MjlsModel(A=[[[np.nan]]], B=model.B, Q=model.Q, R=model.R,
                              transition=model.transition,
                              initial_distribution=model.initial_distribution,
                              x0=model.x0)
        report = validate(nan_model)
        assert any(c.name == "finite entries" for c in report.failures)

    def test_dimension_mismatch_reported(self):
        model = MjlsModel(
            A=[np.eye(2)], B=[np.ones((3, 1))], Q=[np.eye(2)], R=[[[1.0]]],
            transition=[[1.0]], initial_distribution=[1.0], x0=[0.0, 0.0])
        report = validate(model)
        assert any(c.name == "dimensions" for c in report.failures)

    def test_supplied_factor_checked(self):
        model = MjlsModel(
            A=[np.eye(2)], B=[np.ones((2, 1))], Q=[np.eye(2)], R=[[[1.0]]],
            transition=[[1.0]], initial_distribution=[1.0], x0=[0.0, 0.0],
            C=[2.0 * np.eye(2)])
        report = validate(model)
        assert any(c.name == "C'C matches Q" for c in report.failures)

    def test_ensure_valid_raises_with_details(self):
        model = MjlsModel(
            A=[np.eye(1)], B=[np.eye(1)], Q=[np.eye(1)], R=[np.eye(1)],
            transition=[[0.5]], initial_distribution=[1.0], x0=[1.0])
        with pytest.raises(InvalidInput, match="row-stochastic"):
            model.ensure_valid()

    def test_arrays_frozen_after_construction(self, bench):
        with pytest.raises(ValueError):
            bench.A[0][0, 0] = 3.0


class TestModeAverage:
    """coupled_average, the transition-weighted mode average E."""

    def test_degenerate_row_returns_first(self):
        P = np.array([np.diag([1.0, 2.0]), np.diag([5.0, 7.0])])
        out = coupled_average(P, np.array([[1.0, 0.0], [0.5, 0.5]]))
        assert np.array_equal(out[0], P[0])

    def test_convex_combination_of_scaled_identities(self):
        P = np.array([np.eye(2), 3.0 * np.eye(2)])
        out = coupled_average(P, np.full((2, 2), 0.5))
        assert np.allclose(out, 2.0 * np.eye(2))

    def test_identical_summands(self):
        P = np.array([np.eye(2), np.eye(2)])
        out = coupled_average(P, np.array([[0.9, 0.1], [0.7, 0.3]]))
        assert np.allclose(out, np.eye(2))

    def test_linearity_and_psd_preservation(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            L = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            lam = rng.uniform(0.0, 1.0, (L, L))
            lam /= lam.sum(axis=1, keepdims=True)
            G1 = rng.uniform(-1.0, 1.0, (L, n, n))
            G2 = rng.uniform(-1.0, 1.0, (L, n, n))
            P1 = G1.transpose(0, 2, 1) @ G1
            P2 = G2.transpose(0, 2, 1) @ G2
            a, b = rng.uniform(-2.0, 2.0, 2)
            combined = coupled_average(a * P1 + b * P2, lam)
            split = a * coupled_average(P1, lam) + b * coupled_average(P2, lam)
            assert np.allclose(combined, split, atol=1e-12)
            out = coupled_average(P1, lam)
            assert np.array_equal(out, out.transpose(0, 2, 1))
            assert np.linalg.eigvalsh(out)[:, 0].min() >= -1e-12

    def test_output_exactly_symmetric(self):
        asym = np.array([[[1.0, 0.3], [0.3 + 1e-13, 2.0]]])
        out = coupled_average(asym, np.array([[1.0]]))
        assert np.array_equal(out[0], out[0].T)


def lifted_case(L, n, batch, seed):
    """A closed-loop stack, a row-stochastic chain and a (batch, L, n, n)
    stack of unsymmetric moments."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.0, 1.0, (L, L)) * (rng.random((L, L)) < 0.8)
    lam[np.arange(L), rng.integers(L, size=L)] += 0.5
    lam /= lam.sum(axis=1, keepdims=True)
    return (rng.uniform(-1.5, 1.5, (L, n, n)), lam,
            rng.uniform(-1.0, 1.0, (batch, L, n, n)))


def assert_near(actual, expected, tol=1e-12):
    scale = 1.0 + np.max(np.abs(expected))
    assert np.max(np.abs(actual - expected)) <= tol * scale


# L <= 4 modes, n <= 3 states, up to 3 batch rows, any seed.
LIFTED_CASES = (st.integers(1, 4), st.integers(1, 3), st.integers(1, 3),
                st.integers(0, 2 ** 32 - 1))


class TestLiftedKernel:
    """lifted_apply and lifted_adjoint against the dense lifted matrix."""

    @settings(max_examples=100, deadline=None)
    @given(*LIFTED_CASES)
    def test_apply_is_the_dense_matrix(self, L, n, batch, seed):
        abar, lam, X = lifted_case(L, n, batch, seed)
        dense = lifted_matrix(abar, lam) @ X[0].reshape(-1)
        assert_near(lifted_apply(abar, lam, X[0]), dense.reshape(L, n, n))

    @settings(max_examples=100, deadline=None)
    @given(*LIFTED_CASES)
    def test_batched_apply_equals_row_by_row(self, L, n, batch, seed):
        abar, lam, X = lifted_case(L, n, batch, seed)
        rows = np.stack([lifted_apply(abar, lam, x) for x in X])
        assert lifted_apply(abar, lam, X).shape == X.shape
        assert_near(lifted_apply(abar, lam, X), rows)

    @settings(max_examples=100, deadline=None)
    @given(*LIFTED_CASES)
    def test_adjoint_is_the_transposed_matrix(self, L, n, batch, seed):
        abar, lam, X = lifted_case(L, n, batch, seed)
        dense = (lifted_matrix(abar, lam).T @ X[0].reshape(-1)).reshape(
            L, n, n)
        assert_near(lifted_adjoint(abar, lam, X[0]),
                    0.5 * (dense + dense.transpose(0, 2, 1)))

    @settings(max_examples=100, deadline=None)
    @given(*LIFTED_CASES)
    def test_adjoint_pairing(self, L, n, batch, seed):
        abar, lam, X = lifted_case(L, n, batch, seed)
        Y = X[-1] + X[-1].transpose(0, 2, 1)
        TX = lifted_apply(abar, lam, X[0])
        left, right = np.sum(TX * Y), np.sum(X[0] * lifted_adjoint(abar,
                                                                     lam, Y))
        assert abs(left - right) <= 1e-12 * (1.0 + np.sum(np.abs(TX * Y)))


class TestPolicy:
    def test_stationary_gain_lookup(self):
        policy = Policy.stationary([np.array([[1.0, 2.0]]),
                                    np.array([[3.0, 4.0]])])
        assert not policy.staged and policy.gains.shape == (2, 1, 2)
        assert np.array_equal(policy.gains[1], [[3.0, 4.0]])

    def test_staged_gain_lookup_and_horizon(self):
        stages = [[np.zeros((1, 2))], [np.ones((1, 2))]]
        policy = Policy.from_stages(stages)
        assert policy.staged and policy.gains.shape == (2, 1, 1, 2)
        assert np.array_equal(policy.gains[1, 0], np.ones((1, 2)))

    def test_nonfinite_gains_rejected(self):
        with pytest.raises(InvalidInput):
            Policy.stationary([np.array([[np.inf, 0.0]])])


class TestJsonRoundtrip:
    def test_save_load_roundtrip(self, bench, tmp_path):
        path = tmp_path / "model.json"
        save_model(bench, path)
        back = load_model(path)
        assert back.validate().ok
        for i in range(bench.mode_count):
            assert np.array_equal(back.A[i], bench.A[i])
            assert np.array_equal(back.B[i], bench.B[i])
        assert np.array_equal(back.transition, bench.transition)
        assert np.array_equal(back.x0, bench.x0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidInput):
            load_model(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InvalidInput):
            load_model(path)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text('{"modes": [{"A": [[1.0]]}]}')
        with pytest.raises(InvalidInput):
            load_model(path)

    def test_optional_factor_roundtrip(self, tmp_path):
        model = MjlsModel(
            A=[np.eye(2)], B=[np.ones((2, 1))], Q=[np.eye(2)], R=[[[1.0]]],
            transition=[[1.0]], initial_distribution=[1.0], x0=[1.0, 0.0],
            C=[np.eye(2)])
        path = tmp_path / "withc.json"
        save_model(model, path)
        back = load_model(path)
        assert back.C is not None
        assert np.array_equal(back.C[0], np.eye(2))
