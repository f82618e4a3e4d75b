"""Reference computations that share no code with ``mjls``.

Every routine works on stacked ``(L, ., .)`` numpy arrays and uses plain
numpy only: LU solves (``np.linalg.solve``) where the program uses Cholesky
factors, ``einsum`` where it loops over modes, a matrix-free power iteration
where it builds the dense lifted operator, and a literal Python loop over
every mode path where it vectorizes over an enumerated ensemble.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# Lifted operators up to this size get a dense eigendecomposition; larger
# ones go through the matrix-free power iteration.
DENSE_LIMIT = 256


@dataclass(eq=False)
class Model:
    """One MJLS as stacked arrays; ``cert`` is a known stabilizing gain."""

    A: np.ndarray           # (L, n, n)
    B: np.ndarray           # (L, n, m)
    Q: np.ndarray           # (L, n, n)
    R: np.ndarray           # (L, m, m)
    T: np.ndarray           # (L, L), row i = transition probabilities from i
    pi0: np.ndarray         # (L,)
    x0: np.ndarray          # (n,)
    cert: np.ndarray | None = None  # (L, m, n), A + B cert is MSS

    @property
    def L(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.B.shape[2]

    def to_json(self) -> dict:
        """The model-file schema ``mjls.load_model`` reads."""
        return {
            "modes": [{"A": self.A[i].tolist(), "B": self.B[i].tolist(),
                       "Q": self.Q[i].tolist(), "R": self.R[i].tolist()}
                      for i in range(self.L)],
            "transition": self.T.tolist(),
            "initial_distribution": self.pi0.tolist(),
            "x0": self.x0.tolist(),
        }


def terminal_weights(model: Model, kind: str) -> np.ndarray:
    eye = np.eye(model.n) if kind == "identity" else np.zeros((model.n,) * 2)
    return np.broadcast_to(eye, (model.L, model.n, model.n)).copy()


def _tr(X):
    return np.swapaxes(X, -1, -2)


def closed_loop(model: Model, K) -> np.ndarray:
    """A_i + B_i K_i; the open loop when ``K`` is None."""
    return model.A.copy() if K is None else model.A + model.B @ K


def riccati_step(P, model: Model):
    """One coupled Riccati step: returns (P_new, K) with u = K x."""
    W = np.einsum("ij,jab->iab", model.T, P)
    Bt = _tr(model.B)
    ups = Bt @ W @ model.B + model.R
    M = Bt @ W @ model.A
    K = -np.linalg.solve(ups, M)
    P_new = _tr(model.A) @ W @ model.A + model.Q + _tr(M) @ K
    return 0.5 * (P_new + _tr(P_new)), K


def finite_riccati(model: Model, N: int, terminal):
    """Backward recursion over stages N..0: (P(0), gains[k] for k=0..N)."""
    P = np.asarray(terminal, dtype=float)
    gains = [None] * (N + 1)
    for k in range(N, -1, -1):
        P, gains[k] = riccati_step(P, model)
    return P, np.array(gains)


def value(model: Model, P) -> float:
    """sum_i pi0[i] x0' P[i] x0."""
    return float(model.pi0 @ np.einsum("a,iab,b->i", model.x0, P, model.x0))


def care(model: Model, tol: float = 1e-13, max_iter: int = 10 ** 6):
    """Fixed point of the coupled ARE by value iteration from P = 0.

    Returns (P, K, iterations); the increment test is the program's, so at
    its tolerance the iteration counts agree.
    """
    P = np.zeros((model.L, model.n, model.n))
    for iteration in range(1, max_iter + 1):
        P_new, K = riccati_step(P, model)
        done = _increment(P_new, P) <= tol
        P = P_new
        if done:
            return P, riccati_step(P, model)[1], iteration
    raise RuntimeError("reference value iteration did not converge")


def _increment(P_new, P) -> float:
    num = np.linalg.norm(P_new - P, axis=(1, 2))
    return float(np.max(num / (1.0 + np.linalg.norm(P, axis=(1, 2)))))


def care_residual(P, model: Model) -> float:
    """max_i ||Ric(P)_i - P_i||_F / (1 + ||P_i||_F)."""
    return _increment(riccati_step(P, model)[0], P)


def lyapunov_margins(P, K, model: Model) -> np.ndarray:
    """Smallest eigenvalue of P_i - Abar_i' (sum_j T_ij P_j) Abar_i per mode.

    All positive together with P_i > 0 certifies mean-square stability of
    the closed loop under ``K`` (coupled Lyapunov inequality).
    """
    Ab = closed_loop(model, K)
    W = np.einsum("ij,jab->iab", model.T, P)
    D = P - _tr(Ab) @ W @ Ab
    return np.linalg.eigvalsh(0.5 * (D + _tr(D)))[:, 0]


def lifted_apply(Ab, T, X):
    """X_j <- sum_i T[i, j] Abar_i X_i Abar_i' (the second-moment map)."""
    return np.einsum("ij,iab->jab", T, Ab @ X @ _tr(Ab))


def lifted_matrix(Ab, T) -> np.ndarray:
    L, n = Ab.shape[0], Ab.shape[1]
    d = n * n
    out = np.zeros((L * d, L * d))
    for i in range(L):
        kron = np.kron(Ab[i], Ab[i])
        for j in range(L):
            out[j * d:(j + 1) * d, i * d:(i + 1) * d] = T[i, j] * kron
    return out


def lifted_radius(Ab, T, tol: float = 1e-13, max_iter: int = 200000) -> float:
    """Spectral radius of the second-moment map.

    Dense eigenvalues for small lifted sizes.  Above ``DENSE_LIMIT`` a power
    iteration from X_i = I: the map preserves the positive semidefinite
    cone, so its spectral radius is an eigenvalue with a PSD eigenvector
    and the growth ratio of the iterates converges to it.
    """
    L, n = Ab.shape[0], Ab.shape[1]
    if L * n * n <= DENSE_LIMIT:
        return float(np.max(np.abs(np.linalg.eigvals(lifted_matrix(Ab, T)))))
    X = np.broadcast_to(np.eye(n), (L, n, n)) / np.sqrt(L * n)
    previous = np.inf
    for it in range(max_iter):
        Y = lifted_apply(Ab, T, X)
        norm = float(np.linalg.norm(Y))
        if norm == 0.0:
            return 0.0
        ratio = norm / float(np.linalg.norm(X))
        X = Y / norm
        if it > 20 and abs(ratio - previous) <= tol * ratio:
            return ratio
        previous = ratio
    raise RuntimeError("reference power iteration did not converge")


def second_moment_traces(model: Model, K, steps: int) -> np.ndarray:
    """Exact trace(X_i(k)) for k = 0..steps under stationary gain ``K``."""
    Ab = closed_loop(model, K)
    X = model.pi0[:, None, None] * np.outer(model.x0, model.x0)
    out = [np.trace(X, axis1=1, axis2=2)]
    for _ in range(steps):
        X = lifted_apply(Ab, model.T, X)
        out.append(np.trace(X, axis1=1, axis2=2))
    return np.array(out)


def stationary_cost(model: Model, K, N: int, terminal) -> float:
    """Expected finite-horizon cost of u = K_i x via the moment recursion."""
    Ab = closed_loop(model, K)
    stage = model.Q + _tr(K) @ model.R @ K
    X = model.pi0[:, None, None] * np.outer(model.x0, model.x0)
    cost = 0.0
    for _ in range(N + 1):
        cost += float(np.einsum("iab,iba->", stage, X))
        X = lifted_apply(Ab, model.T, X)
    return cost + float(np.einsum("iab,iba->", np.asarray(terminal), X))


def enumerated_cost(model: Model, gains, N: int, terminal) -> float:
    """Expected cost of staged gains, one literal rollout per mode path."""
    total = 0.0
    for path in itertools.product(range(model.L), repeat=N + 2):
        prob = model.pi0[path[0]]
        for k in range(N + 1):
            prob *= model.T[path[k], path[k + 1]]
        if prob == 0.0:
            continue
        x = model.x0
        cost = 0.0
        for k in range(N + 1):
            i = path[k]
            u = gains[k][i] @ x
            cost += x @ model.Q[i] @ x + u @ model.R[i] @ u
            x = model.A[i] @ x + model.B[i] @ u
        cost += x @ terminal[path[N + 1]] @ x
        total += prob * cost
    return float(total)
