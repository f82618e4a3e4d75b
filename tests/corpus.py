"""Random problem generators and reference implementations for the tests.

The reference routines here deliberately avoid the package's code paths:
the single-mode Riccati recursion uses plain LU solves, the costate oracle
multiplies out the state-transition products literally, the spectral
radius oracles are a dense eigendecomposition and, for scalar modes, closed
forms, and the coupled Riccati step, observability Gramian, moment
recursion and lifted operator are literal loops over modes (the package
works on stacked arrays).  The path enumeration and the trajectory, Riccati
and second-moment CSV writers are literal versions of the mode-first
extension and of ``csv.writer`` rows.
"""

import csv
import itertools

import numpy as np

from mjls import MjlsModel, closed_loop_operator


def random_model(rng, n_max=2, m_max=1, L_max=2, pd_state_weight=False,
                 target_radius=None, x0_scale=1.0) -> MjlsModel:
    """Random validated model with positive definite input weights.

    ``pd_state_weight`` forces Q positive definite (hence exactly
    observable); ``target_radius`` rescales the A matrices so the open-loop
    lifted operator has that spectral radius, which makes the model
    mean-square stabilizable by construction (zero feedback already works).
    """
    L = int(rng.integers(1, L_max + 1))
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    A = [rng.uniform(-1.5, 1.5, (n, n)) for _ in range(L)]
    B = [rng.uniform(-1.5, 1.5, (n, m)) for _ in range(L)]
    Q = []
    for _ in range(L):
        G = rng.uniform(-1.0, 1.0, (n, n))
        q = G.T @ G
        if pd_state_weight:
            q = q + (0.1 + rng.uniform(0.0, 0.5)) * np.eye(n)
        Q.append(q)
    R = []
    for _ in range(L):
        H = rng.uniform(-1.0, 1.0, (m, m))
        R.append(H.T @ H + (0.1 + rng.uniform(0.0, 1.0)) * np.eye(m))
    transition = rng.uniform(0.05, 1.0, (L, L))
    transition /= transition.sum(axis=1, keepdims=True)
    pi0 = rng.uniform(0.05, 1.0, L)
    pi0 /= pi0.sum()
    x0 = rng.uniform(-2.0, 2.0, n) * x0_scale
    model = MjlsModel(A=A, B=B, Q=Q, R=R, transition=transition,
                      initial_distribution=pi0, x0=x0)
    if target_radius is not None:
        open_radius = dense_radius(closed_loop_operator(model))
        # The lifted operator is quadratic in A, so scaling A by s scales
        # the radius by s**2.
        scale = np.sqrt(target_radius / open_radius)
        model = MjlsModel(A=[scale * a for a in A], B=B, Q=Q, R=R,
                          transition=transition, initial_distribution=pi0,
                          x0=x0)
    return model


def random_stationary_policy(rng, model, scale=1.0):
    from mjls import Policy
    return Policy.stationary(
        [rng.uniform(-scale, scale, (model.input_dim, model.state_dim))
         for _ in range(model.mode_count)])


def dense_radius(T) -> float:
    """Spectral radius by dense eigendecomposition (reference)."""
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(T, float)))))


def closed_form_radii(rng, L):
    """Models of L scalar modes with the spectral radius of their lifted
    operator in closed form, as (model, radius) pairs.

    For scalar modes the lifted operator is the L x L matrix
    T[j, i] = p_ij a_i^2.  An i.i.d. chain (p_ij = pi_j) makes it
    pi (a^2)', of rank one, with radius sum_i pi_i a_i^2.  A cyclic chain
    (p_i,i+1 = 1) gives T^L = prod_i a_i^2 I, so all L eigenvalues have
    the modulus prod_i |a_i|^(2/L).  With two modes, T is nonnegative and
    its radius is the larger root of its characteristic polynomial.
    """
    a = rng.uniform(-1.5, 1.5, L)
    square = a ** 2
    pi = rng.dirichlet(np.ones(L))
    cases = [(np.tile(pi, (L, 1)), float(pi @ square)),
             (np.roll(np.eye(L), 1, axis=1),
              float(np.exp(np.mean(np.log(square)))))]
    if L == 2:
        p, q = rng.uniform(0.0, 1.0, 2)
        transition = np.array([[1.0 - p, p], [q, 1.0 - q]])
        (t00, t01), (t10, t11) = (transition * square[:, None]).T
        half = (t00 + t11) / 2.0
        cases.append((transition, float(
            half + np.sqrt(half ** 2 - (t00 * t11 - t01 * t10)))))
    ones = np.ones((L, 1, 1))
    return [(MjlsModel(A=a.reshape(L, 1, 1), B=ones, Q=ones, R=ones,
                       transition=transition, initial_distribution=pi,
                       x0=[1.0]), radius)
            for transition, radius in cases]


def classical_finite_riccati(A, B, Q, R, terminal, N):
    """Single-mode backward Riccati recursion with plain LU solves."""
    A, B, Q, R = (np.asarray(M, float) for M in (A, B, Q, R))
    P = [None] * (N + 2)
    K = [None] * (N + 1)
    P[N + 1] = np.asarray(terminal, float)
    for k in range(N, -1, -1):
        Pn = P[k + 1]
        ups = B.T @ Pn @ B + R
        mat = B.T @ Pn @ A
        gain = -np.linalg.solve(ups, mat)
        P[k] = A.T @ Pn @ A + Q + mat.T @ gain
        K[k] = gain
    return P, K


def classical_observability_rank(C, A) -> bool:
    """Rank test on the stacked observability matrix [C; CA; ...]."""
    C, A = np.asarray(C, float), np.asarray(A, float)
    n = A.shape[0]
    blocks = []
    block = C
    for _ in range(n):
        blocks.append(block)
        block = block @ A
    return np.linalg.matrix_rank(np.vstack(blocks), tol=1e-10) == n


def iter_positive_paths(model, N):
    """All mode sequences theta(0..N+1) with their probabilities, literally."""
    L = model.mode_count
    for path in itertools.product(range(L), repeat=N + 2):
        prob = model.initial_distribution[path[0]]
        for k in range(N + 1):
            prob *= model.transition[path[k], path[k + 1]]
        if prob > 0.0:
            yield np.asarray(path, dtype=int), float(prob)


def roll_single_path(model, policy, path, terminal):
    """States, controls and cost down one mode path (plain loop)."""
    N = len(path) - 2
    n, m = model.state_dim, model.input_dim
    x = np.zeros((N + 2, n))
    u = np.zeros((N + 1, m))
    x[0] = model.x0
    cost = 0.0
    for k in range(N + 1):
        i = path[k]
        if policy is not None:
            u[k] = (policy.gains[k, i] if policy.staged
                    else policy.gains[i]) @ x[k]
        cost += float(x[k] @ model.Q[i] @ x[k] + u[k] @ model.R[i] @ u[k])
        x[k + 1] = model.A[i] @ x[k] + model.B[i] @ u[k]
    if terminal is not None:
        j = path[N + 1]
        cost += float(x[N + 1] @ np.asarray(terminal[j], float) @ x[N + 1])
    return x, u, cost


def transition_product(model, path, a, b):
    """A[theta(a)] @ ... @ A[theta(b)]; identity when a == b - 1."""
    F = np.eye(model.state_dim)
    for t in range(b, a + 1):
        F = model.A[path[t]] @ F
    return F


def literal_costates(model, policy, N, terminal):
    """Costates straight from their defining conditional expectation.

    Returns one dict per stage k mapping each prefix theta(0..k) to the
    probability-weighted average over continuations of

        sum_{t=k+1..N} F'(t-1, k+1) Q[theta(t)] x(t)
        + F'(N, k+1) P_term[theta(N+1)] x(N+1)

    with F the literal product of state-transition matrices.
    """
    if terminal is None:
        terminal = [np.zeros((model.state_dim,) * 2)] * model.mode_count
    accum = [dict() for _ in range(N + 1)]
    weights = [dict() for _ in range(N + 1)]
    for path, prob in iter_positive_paths(model, N):
        x, _, _ = roll_single_path(model, policy, path, None)
        for k in range(N + 1):
            value = np.zeros(model.state_dim)
            for t in range(k + 1, N + 1):
                F = transition_product(model, path, t - 1, k + 1)
                value += F.T @ model.Q[path[t]] @ x[t]
            F = transition_product(model, path, N, k + 1)
            value += F.T @ np.asarray(terminal[path[N + 1]], float) @ x[N + 1]
            key = tuple(int(v) for v in path[:k + 1])
            accum[k][key] = accum[k].get(key, 0.0) + prob * value
            weights[k][key] = weights[k].get(key, 0.0) + prob
    return [{key: accum[k][key] / weights[k][key] for key in accum[k]}
            for k in range(N + 1)]


# Literal per-mode references for the stacked (L, ., .) solvers.  Each loops
# over modes and sums transition-weighted terms one at a time, the way the
# recursions are written in the paper.


class LiteralBreakdown(Exception):
    """Raised by :func:`literal_cdre_step` with (stage, mode, kind)."""

    def __init__(self, stage, mode, kind):
        super().__init__(stage, mode, kind)
        self.triple = (stage, mode, kind)


def _literal_average(mats, weights):
    out = np.zeros_like(np.asarray(mats[0], float))
    for weight, mat in zip(weights, mats):
        out = out + weight * np.asarray(mat, float)
    return 0.5 * (out + out.T)


def literal_cdre_step(P_next, model, stage=None):
    """One coupled Riccati step, mode by mode, with plain LU solves.

    Returns per-mode lists (P, Upsilon, M, K).  The first mode whose input
    term has smallest eigenvalue at or below 1e-10 (1 + its two-norm)
    raises :class:`LiteralBreakdown`.
    """
    P, U, M, K = [], [], [], []
    for i in range(model.mode_count):
        W = _literal_average(P_next, model.transition[i])
        A, B = np.asarray(model.A[i]), np.asarray(model.B[i])
        ups = B.T @ W @ B + model.R[i]
        ups = 0.5 * (ups + ups.T)
        eig = np.linalg.eigvalsh(ups)
        floor = 1e-10 * (1.0 + max(abs(eig[0]), abs(eig[-1])))
        if eig[0] <= floor:
            kind = "indefinite" if eig[0] < -floor else "singular"
            raise LiteralBreakdown(stage, i, kind)
        mat = B.T @ W @ A
        gain = -np.linalg.solve(ups, mat)
        p = A.T @ W @ A + model.Q[i] + mat.T @ gain
        P.append(0.5 * (p + p.T))
        U.append(ups)
        M.append(mat)
        K.append(gain)
    return P, U, M, K


def literal_scalar_value_iteration(model, tol):
    """Value iteration from P = 0 on a model with n = m = 1, in Python
    floats: w_i = sum_j transition[i, j] p_j and
    p_i <- a_i^2 w_i + q_i - (a_i b_i w_i)^2 / (b_i^2 w_i + r_i), until the
    largest |change| / (1 + |old|) is at most ``tol``."""
    a, b, q, r = ([float(v) for v in getattr(model, name).ravel()]
                  for name in "ABQR")
    lam = model.transition.tolist()
    p = [0.0] * len(a)
    while True:
        w = [sum(weight * pj for weight, pj in zip(row, p)) for row in lam]
        new = [ai * ai * wi + qi - (ai * bi * wi) ** 2 / (bi * bi * wi + ri)
               for ai, bi, qi, ri, wi in zip(a, b, q, r, w)]
        change = max(abs(x - y) / (1.0 + abs(y)) for x, y in zip(new, p))
        p = new
        if change <= tol:
            return np.array(p)


def literal_gramian(model, horizon):
    """Observability Gramians G[i](horizon) of the scaled dynamics
    A[i] / max(1, ||A[i]||_2), mode by mode."""
    L = model.mode_count
    S = [np.asarray(model.A[i], float)
         / max(1.0, np.linalg.norm(model.A[i], 2)) for i in range(L)]
    G = [np.asarray(model.Q[i], float) for i in range(L)]
    for _ in range(horizon):
        G = [model.Q[i] + S[i].T @ _literal_average(
            G, model.transition[i]) @ S[i] for i in range(L)]
        G = [0.5 * (g + g.T) for g in G]
    return G


def literal_moments(model, gain, steps):
    """Second moments X[k][i] for k = 0..steps under u = gain(k, i) x.

    ``gain`` returns the m x n gain or None for an open loop.
    """
    L = model.mode_count
    x0 = np.asarray(model.x0, float)
    X = [[model.initial_distribution[i] * np.outer(x0, x0) for i in range(L)]]
    for k in range(steps):
        pushed = []
        for i in range(L):
            F = gain(k, i)
            Ab = model.A[i] if F is None else model.A[i] + model.B[i] @ F
            pushed.append(Ab @ X[k][i] @ Ab.T)
        X.append([_literal_average(pushed, model.transition[:, j])
                  for j in range(L)])
    return X


def literal_lifted_operator(abar, transition):
    """Dense lifted operator: block (j, i) = transition[i, j] kron(Ab_i,
    Ab_i), built block by block."""
    L = len(abar)
    d = abar[0].shape[0] ** 2
    T = np.zeros((L * d, L * d))
    for i in range(L):
        for j in range(L):
            T[j * d:(j + 1) * d, i * d:(i + 1) * d] = \
                transition[i, j] * np.kron(abar[i], abar[i])
    return T


def stacked_corpus(rng, count=40):
    """Models covering L = 1, m > n, zero transition entries and R = 0 with
    invertible B, alongside random draws."""
    models = [semidefinite_input_weight_model()]
    while len(models) < count:
        kind = len(models) % 4
        model = random_model(rng, n_max=3, m_max=3, L_max=4)
        L, n = model.mode_count, model.state_dim
        if kind == 0:
            model = random_model(rng, n_max=3, m_max=2, L_max=1)
        elif kind == 1:
            n = int(rng.integers(1, 3))
            m = n + int(rng.integers(1, 3))
            model = MjlsModel(
                A=rng.uniform(-1.2, 1.2, (L, n, n)),
                B=rng.uniform(-1.0, 1.0, (L, n, m)),
                Q=[np.eye(n)] * L, R=[0.5 * np.eye(m)] * L,
                transition=model.transition,
                initial_distribution=model.initial_distribution,
                x0=rng.uniform(-1.0, 1.0, n))
        elif kind == 2 and L > 1:
            lam = rng.uniform(0.1, 1.0, (L, L))
            lam[rng.uniform(size=(L, L)) < 0.4] = 0.0
            lam[np.arange(L), rng.integers(L, size=L)] = 1.0
            lam /= lam.sum(axis=1, keepdims=True)
            model = MjlsModel(A=model.A, B=model.B, Q=model.Q, R=model.R,
                              transition=lam,
                              initial_distribution=model.initial_distribution,
                              x0=model.x0)
        models.append(model)
    return models


def semidefinite_input_weight_model():
    """Zero input penalty with square invertible input maps (criterion 4)."""
    return MjlsModel(
        A=[[[1.3, 0.2], [0.4, 0.9]], [[0.7, -0.3], [0.2, 1.1]]],
        B=[np.eye(2), [[1.0, 0.5], [0.0, 1.0]]],
        Q=[np.eye(2), np.eye(2)],
        R=[np.zeros((2, 2)), np.zeros((2, 2))],
        transition=[[0.6, 0.4], [0.2, 0.8]],
        initial_distribution=[0.3, 0.7], x0=[1.0, -2.0])


def ensemble_paths(ensemble):
    """The (count, N+2) whole mode sequences of a
    :class:`~mjls.PathEnsemble`, one per node of its last level, read back
    through the parent links."""
    N = ensemble.horizon
    paths = np.empty((ensemble.count, N + 2), dtype=np.int64)
    node = np.arange(ensemble.count)
    for k in range(N + 1, -1, -1):
        paths[:, k] = ensemble.modes[k][node]
        node = ensemble.parents[k][node] if k else node
    return paths


def literal_mode_first_paths(model, N):
    """Positive-probability paths extended one slot at a time: for each
    next mode j in ascending order, every kept path in its current order."""
    paths = [[i] for i in range(model.mode_count)
             if model.initial_distribution[i] > 0.0]
    probs = [float(model.initial_distribution[p[0]]) for p in paths]
    for _ in range(N + 1):
        new_paths, new_probs = [], []
        for j in range(model.mode_count):
            for path, prob in zip(paths, probs):
                weight = model.transition[path[-1], j]
                if weight > 0.0:
                    new_paths.append(path + [j])
                    new_probs.append(prob * weight)
        paths, probs = new_paths, new_probs
    return np.array(paths, dtype=np.int64), np.array(probs)


def literal_trajectory_csv(trajectories, path, model):
    """``trajectories.csv`` through ``csv.writer``, one row at a time."""
    n, m = model.state_dim, model.input_dim
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "k", "mode"]
                        + [f"x_{d + 1}" for d in range(n)]
                        + [f"u_{d + 1}" for d in range(m)] + ["stage_cost"])
        for trial, traj in enumerate(trajectories):
            N = len(traj.modes) - 2
            for k in range(N + 2):
                row = [trial, k, int(traj.modes[k])]
                row += [repr(float(v)) for v in traj.states[k]]
                if k <= N:
                    row += [repr(float(v)) for v in traj.controls[k]]
                    row += [repr(float(traj.stage_costs[k]))]
                else:
                    row += [""] * m + [repr(float(traj.terminal_cost))]
                writer.writerow(row)


def literal_riccati_csv(sol, path):
    """``riccati.csv`` through ``csv.writer``, one matrix entry at a time."""
    n = sol.P.shape[2]
    m = sol.K.shape[2] if sol.solvable else 0
    first = 0 if sol.solvable else sol.breakdown.stage + 1
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "mode", "row", "col", "P",
                         "gain_row", "gain_col", "K"])
        for k in range(first, len(sol.P)):
            P_k = sol.P[k]
            gains = m > 0 and k <= sol.horizon
            for i in range(len(P_k)):
                for row in range(max(n, m) if gains else n):
                    for col in range(n):
                        if row < n:
                            cells = [k, i, row, col,
                                     repr(float(P_k[i][row][col]))]
                        else:
                            cells = [k, i, "", col, ""]
                        if gains and row < m:
                            cells += [row, col,
                                      repr(float(sol.K[k][i][row][col]))]
                        else:
                            cells += ["", "", ""]
                        writer.writerow(cells)


def literal_moment_csv(chain, path):
    """A second-moment CSV through ``csv.writer``, one mode at a time."""
    traces = chain.traces()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "mode", "trace", "total"])
        for k in range(len(traces)):
            total = repr(float(traces[k].sum()))
            for i in range(traces.shape[1]):
                writer.writerow([k, i, repr(float(traces[k, i])), total])


# The ``str.format`` templates the writers once filled, as references for
# the spliced templates that replaced them.


def format_stage_template(L, n, m, mirror):
    """One stage of ``riccati.csv``: field 0 the stage, then the P entries
    of each mode (upper triangle, row-major, when ``mirror``), then the
    m x n gain entries of each mode."""
    size = n * (n + 1) // 2 if mirror else n * n
    upper = {rc: j for j, rc in enumerate(zip(*np.triu_indices(n)))}
    gain = 1 + L * size
    lines = []
    for i in range(L):
        for row in range(max(n, m)):
            for col in range(n):
                if row >= n:
                    head = f"{{0}},{i},,{col},"
                else:
                    at = (upper[min(row, col), max(row, col)] if mirror
                          else row * n + col)
                    head = f"{{0}},{i},{row},{col},{{{1 + i * size + at}}}"
                tail = (f",{row},{col},{{{gain + (i * m + row) * n + col}}}"
                        if row < m else ",,,")
                lines.append(head + tail + "\r\n")
    return "".join(lines)


def format_trial_template(N, n, m):
    """One trial of ``trajectories.csv``: field 0 the trial, fields 1..N+2
    the modes, then the states, the controls and the costs."""
    x0 = N + 3
    u0 = x0 + (N + 2) * n
    c0 = u0 + (N + 1) * m
    lines = []
    for k in range(N + 2):
        xs = "".join(f",{{{x0 + k * n + d}}}" for d in range(n))
        us = ("".join(f",{{{u0 + k * m + d}}}" for d in range(m))
              if k <= N else "," * m)
        lines.append(f"{{0}},{k},{{{1 + k}}}{xs}{us},{{{c0 + k}}}\r\n")
    return "".join(lines)


def format_array_template(shape, indent):
    """``json.dump`` of a float array's ``.tolist()`` at the line
    ``indent``, one auto-numbered ``{}`` per entry."""
    if not shape:
        return "{}"
    if not shape[0]:
        return "[]"
    inner = indent + "  "
    item = format_array_template(shape[1:], inner)
    return "[" + inner + ("," + inner).join([item] * shape[0]) + indent + "]"
