"""Mean-square stability, exact observability, and stabilizability tests.

Mean-square stability of a mode-switched linear map is decided through the
lifted second-moment operator: with X[i](k) = E[x(k)x(k)' 1{mode = i}] and
closed-loop matrices Abar[i] = A[i] + B[i] F[i],

    X[j](k+1) = sum_i transition[i, j] * Abar[i] X[i](k) Abar[i]',

a linear map on the stacked vectorized moments whose spectral radius below
one is equivalent to E||x(k)||^2 -> 0 for every initial state and mode.  The
same recursion run forward gives exact (sampling-free) second moments.

The map is :func:`mjls.model.lifted_apply` (its adjoint steps the
observability Gramian).  :func:`is_mss` takes dense eigenvalues of
``lifted_matrix`` when L n^2 <= ``DENSE_LIMIT``; above that, block power
iteration applies the map to blocks of moment stacks, never forming the
matrix (Costa, Fragoso & Marques, Discrete-Time Markov Jump Linear Systems,
2005, ch. 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .artifacts import Template, blocked_reprs
from .errors import InvalidInput, NotStabilizable, NumericalFailure, \
    PreconditionFailed
from .model import DENSE_LIMIT, MjlsModel, Policy, lifted_adjoint, \
    lifted_apply, lifted_matrix, pd_floor, require_finite, sym
from .riccati import solve_care

__all__ = [
    "SecondMomentChain",
    "closed_loop_matrices",
    "closed_loop_operator",
    "spectral_radius",
    "is_mss",
    "propagate_second_moment",
    "is_exactly_observable",
    "is_stabilizable",
    "stabilizability",
    "write_moment_csv",
]

# is_mss: stable means radius < 1 - MSS_MARGIN; above DENSE_LIMIT the radius
# iteration settles to RADIUS_TOL within RADIUS_MAX_ITER steps per block.
MSS_MARGIN = 1e-9
RADIUS_TOL = 1e-12
RADIUS_MAX_ITER = 10000


def closed_loop_matrices(model: MjlsModel,
                         policy: Policy | None) -> np.ndarray:
    """Stacked (L, n, n) A[i] + B[i] F[i] of a stationary policy; a copy of
    A without a policy."""
    if policy is None:
        return model.A.copy()
    return model.A + model.B @ model.feedback_gains(policy)


def closed_loop_operator(model: MjlsModel,
                         policy: Policy | None = None) -> np.ndarray:
    """Lifted second-moment transition operator, an (L n^2) square matrix.

    Block (target mode j, source mode i) equals
    transition[i, j] * kron(Abar[i], Abar[i]).
    """
    model.ensure_valid()
    return lifted_matrix(closed_loop_matrices(model, policy),
                         model.transition)


def spectral_radius(T) -> float:
    """Largest eigenvalue magnitude of a finite square matrix, from its
    dense eigenvalues."""
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise InvalidInput("spectral radius needs a square matrix")
    if not np.all(np.isfinite(T)):
        raise InvalidInput("matrix entries must be finite")
    return float(np.max(np.abs(np.linalg.eigvals(T)), initial=0.0))


@np.errstate(over="ignore")
def is_mss(model: MjlsModel, policy: Policy | None = None):
    """Decide mean-square stability of the (closed-loop) switched system.

    Returns ``(stable, radius)`` where ``stable`` requires the lifted
    operator's spectral radius to sit strictly below ``1 - MSS_MARGIN``;
    a marginal radius of one is not mean-square stable since the second
    moment then fails to vanish.  An overflow raises NumericalFailure.

    The radius is the dense one up to ``DENSE_LIMIT`` rows.  Above it,
    orthogonal iteration from a seeded start widens its block (1, 2, 4, 8)
    while the dominant eigenvalues will not separate, until ||T V - V H||_F
    (H = V' T V) is within ``RADIUS_TOL * (1 + ||T||_F)`` and the estimate
    has settled, or raises NumericalFailure after ``RADIUS_MAX_ITER`` steps.
    """
    model.ensure_valid()
    abar, lam = closed_loop_matrices(model, policy), model.transition
    L, n = abar.shape[:2]
    # Frobenius norms of the lifted operator's block rows.
    rows = np.sqrt((lam ** 2).sum(axis=1)) * np.sum(abar * abar, axis=(1, 2))
    require_finite(rows, "lifted second-moment operator")
    size = L * n * n
    if size <= DENSE_LIMIT:
        radius = spectral_radius(lifted_matrix(abar, lam))
        return radius < 1.0 - MSS_MARGIN, radius
    fro = float(np.hypot.reduce(rows))
    rng = np.random.default_rng(0x5eed)
    for block in (1, 2, 4, 8):
        V = np.linalg.qr(rng.standard_normal((size, block)))[0]
        previous = np.inf
        for _ in range(RADIUS_MAX_ITER):
            # Columns of V are row-major vectorized moment stacks X[i].
            W = lifted_apply(abar, lam, V.T.reshape(block, L, n, n)).reshape(
                block, size).T
            H = V.T @ W
            radius = float(np.max(np.abs(np.linalg.eigvals(H))))
            # A map that sends V to zero has H = 0 and so radius 0.0.
            if ((np.linalg.norm(W - V @ H) <= RADIUS_TOL * (1.0 + fro)
                 and abs(radius - previous) <= RADIUS_TOL * (1.0 + radius))
                    or not W.any()):
                return radius < 1.0 - MSS_MARGIN, radius
            previous = radius
            V = np.linalg.qr(W)[0]
    raise NumericalFailure(
        f"spectral radius estimate did not settle within {RADIUS_MAX_ITER} "
        "iterations (block widths 1, 2, 4, 8)")


@dataclass(eq=False)
class SecondMomentChain:
    """Exact conditional second moments, X[k][i] = E[x(k) x(k)' 1{mode i}]
    as a (steps + 1, L, n, n) array, and the mode masses."""

    X: np.ndarray
    mode_mass: np.ndarray

    @property
    def steps(self) -> int:
        return len(self.X) - 1

    def traces(self) -> np.ndarray:
        """Array [k, i] of trace(X[k][i])."""
        return np.trace(self.X, axis1=2, axis2=3)

    def total_second_moment(self) -> np.ndarray:
        """E||x(k)||^2 for k = 0..steps."""
        return self.traces().sum(axis=1)


@np.errstate(over="ignore", invalid="ignore")
def propagate_second_moment(model: MjlsModel, policy: Policy | None,
                            steps: int) -> SecondMomentChain:
    """Propagate exact second moments of the closed loop; no sampling.

    Starts from X[0][i] = pi0[i] * x0 x0' and applies the lifted recursion
    ``steps`` times, one batched product per stage.  A staged policy must
    cover every propagated stage.  Raises :class:`NumericalFailure` naming
    the first step and mode whose moment overflows.
    """
    model.ensure_valid()
    if steps < 0:
        raise InvalidInput("steps must be nonnegative")
    abar = model.A if policy is None else model.A + model.B @ \
        model.feedback_gains(policy, steps if policy.staged else None)
    abar = np.broadcast_to(abar, (steps,) + model.A.shape)
    x0, lam = model.x0, model.transition
    X = np.empty((steps + 1,) + model.A.shape)
    X[0] = model.initial_distribution[:, None, None] * np.outer(x0, x0)
    mass = np.empty((steps + 1, model.mode_count))
    mass[0] = model.initial_distribution
    # X[k+1][j] = sum_i transition[i, j] Abar[i] X[k][i] Abar[i]'
    for k in range(steps):
        X[k + 1] = sym(lifted_apply(abar[k], lam, X[k]))
        require_finite(X[k + 1], f"second moment at step {k + 1}")
        mass[k + 1] = mass[k] @ lam
    return SecondMomentChain(X=X, mode_mass=mass)


@np.errstate(over="ignore", invalid="ignore")
def observability_gramian(model: MjlsModel, horizon: int) -> np.ndarray:
    """(L, n, n) stack of the transition-weighted observability Gramians of
    the scaled dynamics S[i] = A[i] / max(1, ||A[i]||_2),

        G[i](0) = Q[i],   G[i](t) = Q[i] + S[i]' (sum_j transition[i,j]
                                                  G[j](t-1)) S[i]

    at t = ``horizon``, all modes per step.  Modes with ||A[i]||_2 <= 1 are
    not scaled, so on them G is the Gramian of A itself.  An expanding mode
    is scaled to norm 1; in exact arithmetic a positive scale per mode
    leaves the kernel of every G[i](t), and so the verdict, as it is for A,
    and it keeps G within (horizon + 1) max ||Q||, so the definiteness
    floor tracks Q rather than the growth of A.  (The floored test can
    still differ from the exact one on directions that an expanding mode
    reaches only through its contracting part.)  An overflow raises
    :class:`NumericalFailure` naming the step and mode."""
    scale = np.maximum(1.0, np.linalg.norm(model.A, 2, axis=(1, 2)))
    S = model.A / scale[:, None, None]
    G = model.Q
    for step in range(1, horizon + 1):
        G = sym(model.Q + lifted_adjoint(S, model.transition, G))
        require_finite(G, f"observability Gramian at step {step}")
    return G


def is_exactly_observable(model: MjlsModel, horizon: int | None = None,
                          strict: bool = False) -> bool:
    """Whether an almost-surely zero output forces a zero initial state.

    Checks positive definiteness (above the ``PD_TOL`` floor of
    :func:`mjls.model.pd_floor`) of :func:`observability_gramian` after
    ``horizon`` steps (defaults to n * L; Gramian kernels are non-increasing
    and stall within that many steps).  By default only modes with positive
    initial probability are checked; ``strict=True`` demands all of them.
    """
    model.ensure_valid()
    G = observability_gramian(model, model.state_dim * model.mode_count
                              if horizon is None else horizon)
    low, floor = pd_floor(G if strict else G[model.initial_distribution > 0])
    return bool(np.all(low > floor))


def stabilizability(model: MjlsModel, observable: bool | None = None,
                    **care_options):
    """The Riccati stabilizability verdict, its note and the CARE solution.

    Some mode-indexed feedback makes the loop mean-square stable exactly
    when the coupled algebraic Riccati equation has a positive definite
    solution.  That equivalence needs positive definite input weights and
    exact observability, so both are checked first and their failure
    raises :class:`PreconditionFailed`; ``observable`` is the verdict of
    :func:`is_exactly_observable` when the caller already has it.  Returns
    ``(True, "", solution)`` when :func:`solve_care` converges,
    ``(False, reason, None)`` when the value iterates diverge, and
    ``(None, "undetermined: " + reason, None)`` when the step budget runs
    out before convergence; other errors of :func:`solve_care` propagate.
    """
    model.ensure_valid()
    model.require_pd_input_weights()
    if not (is_exactly_observable(model) if observable is None
            else observable):
        raise PreconditionFailed(
            "not exactly observable: the Riccati stabilizability "
            "criterion does not apply")
    try:
        solution = solve_care(model, **care_options)
    except NotStabilizable as exc:
        if exc.reason == "budget":
            return None, f"undetermined: {exc}", None
        return False, str(exc), None
    return True, "", solution


def is_stabilizable(model: MjlsModel, **care_options) -> bool | None:
    """Whether some mode-indexed feedback makes the loop mean-square stable:
    the verdict of :func:`stabilizability`, None when undetermined."""
    return stabilizability(model, **care_options)[0]


@lru_cache(maxsize=8)
def _moment_template(L: int) -> Template:
    """Template of one stage of the moment CSV: field 0 is the stage,
    fields 1..L the traces and field L + 1 their total."""
    return Template(item for i in range(L)
                    for item in (0, f",{i},", i + 1, ",", L + 1, "\r\n"))


def write_moment_csv(chain: SecondMomentChain, path):
    """Dump per-mode second-moment traces to CSV.

    Columns: ``k, mode, trace, total`` where ``total`` repeats
    E||x(k)||^2 = sum_i trace(X[k][i]) on each row of stage k.  The file
    holds the bytes ``csv.writer`` writes for these rows: floats with
    ``repr``, CRLF line ends.  Floats are formatted through
    :func:`~mjls.artifacts.float_reprs`, a block of stages per call, and
    each stage is spliced into a cached :class:`~mjls.artifacts.Template`.
    """
    traces = chain.traces()
    table = np.column_stack([traces, traces.sum(axis=1)])
    template = _moment_template(traces.shape[1])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("k,mode,trace,total\r\n")
        for k, reprs in blocked_reprs(enumerate(table)):
            fh.write(template.render([str(k), *reprs]))
