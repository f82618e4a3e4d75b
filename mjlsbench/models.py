"""Seeded model generators for the benchmark workloads.

Every model is drawn from ``np.random.default_rng([seed, tag...])`` so a seed
fixes all inputs, and each model carries what the checks need to know about
it by construction (a stabilizing certificate gain or the best achievable
closed-loop radius).
"""

from __future__ import annotations

import numpy as np

from reference import Model, lifted_radius

# Open-loop lifted radius above which a design model's certificate gain is
# shrunk: the observability Gramian in the program runs n * L steps of the
# open loop, and a faster-growing open loop overflows it at (50, 10).
OPEN_LOOP_CAP = 1.6


def _pd(rng, k, floor):
    G = rng.standard_normal((k, k))
    return G.T @ G / k + floor * np.eye(k)


def _stochastic(rng, L, low=0.1):
    T = rng.uniform(low, 1.0, (L, L))
    return T / T.sum(axis=1, keepdims=True)


def design_model(rng, L: int, n: int) -> Model:
    """A_i = M_i - B_i F_i with ||M_i||_2 < 1, so F is a certificate gain.

    The open loop is unstable for many draws; its lifted radius is kept
    below ``OPEN_LOOP_CAP`` by shrinking F.
    """
    m = max(1, n // 2)
    B = rng.standard_normal((L, n, m))
    F = rng.standard_normal((L, m, n)) * rng.uniform(0.3, 1.0) / np.sqrt(n)
    M = rng.standard_normal((L, n, n))
    M *= (rng.uniform(0.5, 0.9, L)
          / np.linalg.norm(M, 2, axis=(1, 2)))[:, None, None]
    Q = np.array([_pd(rng, n, 0.5) for _ in range(L)])
    R = np.array([_pd(rng, m, 0.5) for _ in range(L)])
    T = _stochastic(rng, L)
    pi0 = rng.uniform(0.1, 1.0, L)
    x0 = rng.uniform(-1.0, 1.0, n)
    while True:
        model = Model(A=M - B @ F, B=B, Q=Q, R=R, T=T, pi0=pi0 / pi0.sum(),
                      x0=x0, cert=F)
        if lifted_radius(model.A, T) <= OPEN_LOOP_CAP:
            return model
        F = 0.8 * F


def scalar_model(radius: float) -> Model:
    """Two scalar modes x+ = a x + b_i u with b = (1, 0) and uniform jumps.

    Mode 1 cannot be controlled; the gain F = (-a, 0) zeroes mode 0, which
    leaves the best achievable closed-loop radius a^2 / 2 = ``radius``.
    """
    a = float(np.sqrt(2.0 * radius))
    return Model(A=np.full((2, 1, 1), a), B=np.array([[[1.0]], [[0.0]]]),
                 Q=np.ones((2, 1, 1)), R=np.ones((2, 1, 1)),
                 T=np.full((2, 2), 0.5), pi0=np.full(2, 0.5),
                 x0=np.ones(1), cert=np.array([[[-a]], [[0.0]]]))


def marginal_model(rng, L: int, n: int, radius: float) -> Model:
    """One uncontrolled mode sets the best achievable radius.

    Mode 0 has B = 0 and A_0 = s V diag(1, d) V^-1 with self-transition
    probability p, the other modes are fully actuated (B = I), so zeroing
    them gives the best achievable lifted radius p s^2 = ``radius``.
    """
    T = _stochastic(rng, L, low=0.2)
    p = rng.uniform(0.4, 0.7)
    T[0] = np.concatenate([[p], (1.0 - p) * T[0, 1:] / T[0, 1:].sum()])
    s = np.sqrt(radius / p)
    V = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    d = np.diag(np.concatenate([[1.0], rng.uniform(-0.6, 0.6, n - 1)]))
    A = rng.uniform(-1.5, 1.5, (L, n, n))
    A[0] = s * V @ d @ np.linalg.inv(V)
    B = np.broadcast_to(np.eye(n), (L, n, n)).copy()
    B[0] = 0.0
    cert = -A.copy()
    cert[0] = 0.0
    pi0 = rng.uniform(0.2, 1.0, L)
    return Model(A=A, B=B, Q=np.array([_pd(rng, n, 0.3) for _ in range(L)]),
                 R=np.array([_pd(rng, n, 0.3) for _ in range(L)]), T=T,
                 pi0=pi0 / pi0.sum(), x0=rng.uniform(-1.0, 1.0, n), cert=cert)


def two_mode_benchmark() -> Model:
    """The package's running example (tests/conftest.py), by value."""
    return Model(A=np.array([[[2.0, 1.1], [-1.7, -0.8]],
                             [[0.8, 0.0], [0.0, 0.6]]]),
                 B=np.array([[[1.0], [1.0]], [[2.0], [1.0]]]),
                 Q=np.array([np.eye(2), np.eye(2)]),
                 R=np.array([[[1.0]], [[1.0]]]),
                 T=np.array([[0.9, 0.1], [0.7, 0.3]]),
                 pi0=np.array([0.5, 0.5]), x0=np.array([5.0, 5.0]))


def rollout_model(rng, L: int, n: int) -> Model:
    """Small random model with one input."""
    pi0 = rng.uniform(0.1, 1.0, L)
    return Model(A=rng.uniform(-1.2, 1.2, (L, n, n)),
                 B=rng.uniform(-1.5, 1.5, (L, n, 1)),
                 Q=np.array([_pd(rng, n, 0.2) for _ in range(L)]),
                 R=np.array([_pd(rng, 1, 0.2) for _ in range(L)]),
                 T=_stochastic(rng, L), pi0=pi0 / pi0.sum(),
                 x0=rng.uniform(-2.0, 2.0, n))

