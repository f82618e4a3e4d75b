"""Coupled Riccati recursions for jump-linear quadratic control.

Finite horizon: a backward recursion couples the per-mode matrices through
the transition-weighted average W_i = sum_j transition[i, j] P[j](k+1):

    Upsilon[i](k) = B[i]' W_i B[i] + R[i]
    M[i](k)       = B[i]' W_i A[i]
    P[i](k)       = A[i]' W_i A[i] + Q[i] - M[i](k)' Upsilon[i](k)^{-1} M[i](k)

with the optimal feedback u(k) = -Upsilon[i](k)^{-1} M[i](k) x(k) and optimal
cost sum_i pi0[i] x0' P[i](0) x0.  The recursion is well defined exactly when
every Upsilon[i](k) is positive definite; a semi-definite or indefinite term
raises :class:`RiccatiBreakdown`.

Infinite horizon: iterating the same step from P = 0 (value iteration) drives
the per-mode matrices to the fixed point of the coupled algebraic Riccati
equation whenever a mean-square stabilizing controller exists; divergence of
the iterates is the non-existence signal.  Value iteration needs about
18 / (1 - r) steps at best closed-loop radius r, so on small models
(L n^2 <= ``DENSE_LIMIT``) it hands over to Newton-Kleinman steps (Hewer,
IEEE TAC 16(4), 1971; coupled form in Costa, Fragoso & Marques,
Discrete-Time Markov Jump Linear Systems, 2005, ch. 4 and App. A) as soon
as a step's gain K is certified mean-square stabilizing by the spectral
radius of its dense second-moment operator.  A Newton step
replaces P by the cost-to-go of the gain of P, the solution X of the
coupled Lyapunov equation

    X[i] = Abar[i]' (sum_j transition[i, j] X[j]) Abar[i]
           + Q[i] + K[i]' R[i] K[i],        Abar[i] = A[i] + B[i] K[i],

and converges quadratically from any stabilizing gain.

One step handles all modes on the stacked (L, ., .) arrays of
:mod:`mjls.model`: one product forms every W_i, and batched ``matmul`` and
``solve`` give Upsilon, M, P and the gains.  Its checks are separate: one
batched ``eigvalsh`` certifies that Upsilon is definite and ``isfinite``
catches overflow.  :func:`cdre_step` checks each step; :func:`solve_finite`
runs the unchecked step from stage N down and then checks the stages at once,
raising the failure the stage-by-stage checks would have met first.  Rounding
often brings the sweep to a fixed point or a short cycle, a P(k) equal bit for
bit to some P(k + p); the step reads only P(k+1), so every stage below k
repeats that cycle exactly, and the sweep stops there and copies it.  The
solution is the (stages, L, ., .) stacks of P, Upsilon and K that the sweep
fills, NaN at and below a recorded breakdown; M is not kept.  The
Lyapunov equation, X = T*(X) + Q + K'RK (:func:`mjls.model.lifted_adjoint`),
is one dense solve of size L n^2 after one dense ``eigvals`` certifies K.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import artifacts
from .artifacts import Template, float_reprs
from .errors import (
    InvalidInput,
    InvalidState,
    NotStabilizable,
    NumericalFailure,
    ObservabilityViolation,
    RiccatiBreakdown,
)
from .model import DENSE_LIMIT, MjlsModel, Policy, coupled_average, \
    lifted_matrix, pd_floor, require_finite, sym

__all__ = [
    "FiniteHorizonSolution",
    "CareSolution",
    "cdre_step",
    "solve_finite",
    "optimal_cost_finite",
    "solve_care",
    "care_residual",
    "write_riccati_csv",
]

# solve_care's divergence bound on a trace and its fixed-point residual bound.
DIVERGENCE_BOUND = 1e12
RESIDUAL_TOL = 1e-8


def _frozen(*arrays):
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _relative_change(new, old) -> float:
    """Largest per-mode ||new[i] - old[i]||_F / (1 + ||old[i]||_F)."""
    return float(np.max(np.linalg.norm(new - old, axis=(1, 2))
                        / (1.0 + np.linalg.norm(old, axis=(1, 2)))))


def _riccati_step(P_next, model: MjlsModel):
    """The step formula of the module docstring on an (L, n, n) stack,
    without checks: returns ``(P, Upsilon, M, K, solved)``.  A solve that
    fails, as on a non-finite or singular Upsilon, gives NaN for K and P
    and ``solved = False``; that stage then fails the checks of
    :func:`_check_stages`.  Callers set the floating-point error state."""
    A, B = model.A, model.B
    W = coupled_average(P_next, model.transition)
    WB = W @ B
    ups = sym(B.transpose(0, 2, 1) @ WB + model.R)
    mat = WB.transpose(0, 2, 1) @ A
    try:
        gain, solved = -np.linalg.solve(ups, mat), True
    except np.linalg.LinAlgError:
        gain, solved = np.full(mat.shape, np.nan), False
    P = sym(A.transpose(0, 2, 1) @ W @ A + model.Q
            + mat.transpose(0, 2, 1) @ gain)
    return P, ups, mat, gain, solved


def _check_stages(ups, P, stages):
    """The (s, L) smallest eigenvalues of the Upsilon stack ``ups``
    (s, L, m, m), after checking it and the cost-to-go stack ``P``
    (s, L, n, n) of the stages labelled ``stages``.

    Entry j holds stage ``stages[j]``, and the recursion reaches the entries
    from last to first.  The first failure in that order is raised:
    :class:`NumericalFailure` for an Upsilon that is not finite, then
    :class:`RiccatiBreakdown` for one that is not positive definite, then
    :class:`NumericalFailure` for a P that is not finite, each naming the
    stage and the first such mode.  Entries below the first failure may
    hold anything and raise nothing of their own.  Eigenvalues of a stage
    whose Upsilon is not finite read NaN.
    """
    if np.isfinite(ups).all():
        low, floor = pd_floor(ups)
        if (low > floor).all() and np.isfinite(P).all():
            return low
    # Some stage fails: find the first in recursion order and raise.
    finite = np.isfinite(ups).all(axis=(1, 2, 3))
    low, floor = np.full((2,) + ups.shape[:2], np.nan)
    low[finite], floor[finite] = pd_floor(ups[finite])
    bad = ~finite | (low <= floor).any(axis=1) \
        | ~np.isfinite(P).all(axis=(1, 2, 3))
    j = len(bad) - 1 - int(np.argmax(bad[::-1]))
    stage = stages[j]
    where = "" if stage is None else f" at stage {stage}"
    require_finite(ups[j], f"input-weight term{where}")
    broken = low[j] <= floor[j]
    if broken.any():
        i = int(np.argmax(broken))
        kind = "indefinite" if low[j, i] < -floor[j, i] else "singular"
        raise RiccatiBreakdown(
            f"input-weight term is {kind}{where} in mode {i}: "
            f"min eigenvalue {low[j, i]:.3e}",
            stage=stage, mode=i, eigenvalue=float(low[j, i]), kind=kind)
    require_finite(P[j], f"cost-to-go{where}")
    return low


# Overflow is detected by the finiteness checks, which name stage and mode.
@np.errstate(over="ignore", invalid="ignore")
def cdre_step(P_next, model: MjlsModel, stage=None):
    """One backward step of the coupled difference Riccati recursion.

    ``P_next`` holds the cost-to-go matrices of the following stage, as an
    (L, n, n) array or a sequence; ``stage`` labels diagnostics.  Returns
    the stacks ``(P, Upsilon, M, K, upsilon_min_eig)``, with u = K[i] x the
    feedback.  Raises :class:`NumericalFailure` when Upsilon[i] is not
    finite, then :class:`RiccatiBreakdown` for the first mode whose
    Upsilon[i] is not positive definite (smallest eigenvalue at or below
    ``1e-10 * (1 + ||Upsilon[i]||)``), then :class:`NumericalFailure` when
    P[i] overflows.
    """
    P_next = model.state_stack(P_next, "cost-to-go")
    P, ups, mat, gain, _ = _riccati_step(P_next, model)
    low = _check_stages(ups[None], P[None], (stage,))[0]
    return P, ups, mat, gain, low


@dataclass(eq=False)
class FiniteHorizonSolution:
    """Backward-recursion output over stages k = 0..N, as the read-only
    stacks :func:`solve_finite` fills.

    ``P`` is (N+2, L, n, n), ``P[N+1]`` being the terminal weight;
    ``Upsilon`` (N+1, L, m, m), ``K`` (N+1, L, m, n) and
    ``upsilon_min_eig`` (N+1, L) run over k = 0..N.  When the recursion
    breaks down, ``solvable`` is False, ``breakdown`` records the stage,
    and every stage at and below it holds NaN.
    """

    horizon: int
    P: np.ndarray
    Upsilon: np.ndarray
    K: np.ndarray
    upsilon_min_eig: np.ndarray
    solvable: bool
    breakdown: RiccatiBreakdown | None = None

    def policy(self) -> Policy:
        """Optimal staged feedback policy u(k) = K[k][i] x(k)."""
        if not self.solvable:
            raise InvalidState("no policy: the recursion broke down")
        return Policy.from_stages(self.K)


def solve_finite(model: MjlsModel, terminal, N: int,
                 raise_on_breakdown: bool = True) -> FiniteHorizonSolution:
    """Run the coupled backward recursion from stage N down to stage 0.

    ``terminal`` holds the per-mode weights of stage N+1, as
    :meth:`~mjls.model.MjlsModel.terminal_weights` checks them.  The step
    runs without checks down to stage 0, or to a stage k whose P repeats a
    later P(k + p) bit for bit; the stages below k repeat that cycle (see
    the module docstring) and are copied from it.  The computed stages are
    checked at once: the first failure from stage N down, never in a copy,
    is raised as :func:`cdre_step` raises it.  With
    ``raise_on_breakdown=False`` a breakdown is recorded on the returned
    solution instead of raised, and the stages at and below it hold NaN.
    """
    model.ensure_valid()
    if N < 0:
        raise InvalidInput("horizon must be nonnegative")
    term = model.terminal_weights(terminal)
    L, n, m = model.mode_count, model.state_dim, model.input_dim
    P = np.empty((N + 2, L, n, n))
    ups = np.empty((N + 1, L, m, m))
    K = np.empty((N + 1, L, m, n))
    P[N + 1] = sym(term)
    # One sweep without checks, to stage 0 or to a repeated P.  ``seen``
    # keys the last stage by P's first 32 entries, as cheap at any size; a
    # hit counts when all bytes agree.  Checks then run on the stacks.
    flat = P.reshape(N + 2, -1)
    seen, stop, period = {}, 0, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(N, -1, -1):
            key = flat[k + 1, :32].tobytes()
            j, seen[key] = seen.get(key), k + 1
            if j and flat[j].tobytes() == flat[k + 1].tobytes():
                stop, period = k + 1, j - k - 1
                break
            P[k], ups[k], _, K[k], solved = _riccati_step(P[k + 1], model)
            if not solved:
                # Stage k fails its checks, so no stage below is read.
                P[:k] = ups[:k] = K[:k] = np.nan
                break
    breakdown = None
    try:
        eigs = _check_stages(ups[stop:], P[stop:N + 1], range(stop, N + 1))
    except RiccatiBreakdown as exc:
        if raise_on_breakdown:
            raise
        breakdown, top = exc, exc.stage + 1
        P[:top] = ups[:top] = K[:top] = np.nan
        eigs = np.full((N + 1, L), np.nan)
        eigs[top:] = pd_floor(ups[top:])[0]
    if period and breakdown is None:
        fill = stop + (np.arange(stop) - stop) % period
        eigs = np.concatenate([eigs[fill - stop], eigs])
        for stack in (P, ups, K):
            stack[:stop] = stack[fill]
    return FiniteHorizonSolution(N, *_frozen(P, ups, K, eigs),
                                 solvable=breakdown is None,
                                 breakdown=breakdown)


def optimal_cost_finite(sol: FiniteHorizonSolution, model: MjlsModel) -> float:
    """Optimal performance index sum_i pi0[i] * x0' P[i](0) x0."""
    if not sol.solvable:
        raise InvalidState("cost undefined: the recursion broke down")
    return float(model.initial_distribution @ (sol.P[0] @ model.x0 @ model.x0))


@dataclass(eq=False)
class CareSolution:
    """Fixed point of the coupled algebraic Riccati equation.

    ``P``, ``Upsilon`` and ``K`` are read-only (L, ., .) stacks;
    ``K[i]`` is the stationary feedback gain u = K[i] x; the (L,)
    ``p_min_eig`` certifies positive definiteness of each P[i].
    ``iterations`` counts every step, the ``value_iterations`` that applied
    the Riccati step and the ``newton_steps`` that solved the coupled
    Lyapunov equation of a certified gain.
    """

    P: np.ndarray
    Upsilon: np.ndarray
    K: np.ndarray
    p_min_eig: np.ndarray
    iterations: int
    final_increment: float
    residual: float
    value_iterations: int
    newton_steps: int

    def policy(self) -> Policy:
        return Policy.stationary(self.K)


# Non-finite solutions are rejected by the finiteness test.
@np.errstate(over="ignore", invalid="ignore")
def _newton_step(model: MjlsModel, P, stepped, gain):
    """Cost-to-go X of the stationary feedback u = gain[i] x, where
    ``stepped`` and ``gain`` are :func:`cdre_step` of ``P``; None unless
    this feedback is certified mean-square stabilizing.

    The certificate is the exact one (Costa, Fragoso & Marques 2005,
    Thm 3.9): the dense second-moment operator of Abar = A + B gain has
    spectral radius below 1.  It holds for semidefinite Q, where the
    Lyapunov decrease X[i] - Abar[i]' E_i(X) Abar[i] = Q[i] + K[i]' R[i] K[i]
    is only semidefinite.  X then solves the coupled Lyapunov equation of
    the module docstring.  The Riccati step of P is the Lyapunov map of its
    own gain at P, so X = P + D with

        D[i] = Abar[i]' (sum_j transition[i, j] D[j]) Abar[i]
               + stepped[i] - P[i],

    solved densely, one unknown per entry of the (L, n, n) stack.  The
    right side comes from the Riccati step, free of the cancellation in a
    high-gain Abar, and the solve's error scales with D rather than X.
    X must also come out finite and positive semidefinite up to
    :func:`pd_floor`, as the cost-to-go of a stabilizing gain is; this
    rejects a radius that rounding put just below 1.  An operator that
    overflows or a singular system certifies nothing.
    """
    abar = model.A + model.B @ gain
    lifted = lifted_matrix(abar, model.transition)
    try:
        if np.max(np.abs(np.linalg.eigvals(lifted))) >= 1.0:
            return None
        D = np.linalg.solve(np.eye(len(lifted)) - lifted.T,
                            (stepped - P).reshape(-1))
    except np.linalg.LinAlgError:
        return None
    X = sym(P + D.reshape(P.shape))
    if not np.isfinite(X).all():
        return None
    low, floor = pd_floor(X)
    return X if (low >= -floor).all() else None


def solve_care(model: MjlsModel, tol: float = 1e-10, max_iter: int = 10000,
               initial=None) -> CareSolution:
    """Solve the coupled algebraic Riccati equation.

    Starts from P = 0 (or ``initial``).  Each step takes the gain K of the
    current P from :func:`cdre_step`.  When L n^2 <= ``DENSE_LIMIT`` and
    :func:`_newton_step` certifies K mean-square stabilizing, the step is
    a Newton step: P becomes the cost-to-go of K.  Otherwise it is a value
    iteration: P becomes the Riccati step of P.  Once a Newton candidate
    fails to shrink the increment, that step and every later one is a value
    iteration.  Both kinds share the ``max_iter`` budget, and the loop ends
    once the relative per-mode increment is at most ``tol``.  Requires every
    R[i] positive definite.

    A value iterate with trace above ``DIVERGENCE_BOUND`` means no
    mean-square stabilizing controller exists and raises
    :class:`NotStabilizable` with reason ``"diverged"``; an exhausted budget
    decides nothing and raises it with reason ``"budget"``.  A fixed point
    that is PSD but not PD raises :class:`ObservabilityViolation` since
    positivity is guaranteed under exact observability.
    """
    model.ensure_valid()
    model.require_pd_input_weights()
    L, n = model.mode_count, model.state_dim
    P = np.zeros((L, n, n)) if initial is None else \
        sym(model.state_stack(initial, "initial"))
    # Newton steps end for good once one fails to shrink its increment:
    # the dense solve has then reached its rounding floor, and value
    # iterations finish the convergence.
    newton = L * n * n <= DENSE_LIMIT

    increment = newton_increment = np.inf
    newton_steps = 0
    for iteration in range(1, max_iter + 1):
        new_P, _, _, gain, _ = cdre_step(P, model)
        newton_P = _newton_step(model, P, new_P, gain) if newton else None
        if newton_P is not None:
            step = _relative_change(newton_P, P)
            newton, newton_increment = step < newton_increment, step
        if newton_P is not None and newton:
            new_P = newton_P
            newton_steps += 1
        elif np.trace(new_P, axis1=1, axis2=2).max() > DIVERGENCE_BOUND:
            raise NotStabilizable(
                f"iterates diverged after {iteration} iterations "
                f"(trace above {DIVERGENCE_BOUND:.1e}); "
                "no mean-square stabilizing controller exists",
                reason="diverged", iterations=iteration)
        increment = _relative_change(new_P, P)
        P = new_P
        if increment <= tol:
            break
    else:
        raise NotStabilizable(
            f"no convergence within {max_iter} iterations "
            f"(last increment {increment:.3e})",
            reason="budget", iterations=max_iter)

    # One step at the fixed point: its residual and stationary coefficients.
    stepped, Upsilon, _, K, _ = cdre_step(P, model)
    residual = _relative_change(stepped, P)
    if residual > RESIDUAL_TOL:
        raise NumericalFailure(
            f"converged iterates leave residual {residual:.3e} "
            f"above {RESIDUAL_TOL:.1e}")
    p_eigs, floor = pd_floor(P)
    if (p_eigs <= floor).any():
        i = int(np.argmax(p_eigs <= floor))
        raise ObservabilityViolation(
            f"fixed point P[{i}] is not positive definite "
            f"(min eigenvalue {p_eigs[i]:.3e}); the state weights likely "
            "fail exact observability")
    return CareSolution(*_frozen(P, Upsilon, K, p_eigs),
                        iterations=iteration, final_increment=increment,
                        residual=residual,
                        value_iterations=iteration - newton_steps,
                        newton_steps=newton_steps)


def care_residual(P, model: MjlsModel) -> float:
    """Fixed-point defect of the coupled algebraic Riccati equation.

    Applies one recursion step to ``P`` and returns the largest per-mode
    Frobenius distance to ``P`` normalized by (1 + ||P[i]||_F).
    """
    return _relative_change(cdre_step(P, model)[0],
                            np.asarray(P, dtype=float))


@lru_cache(maxsize=16)
def _stage_template(L: int, n: int, m: int, mirror: bool) -> Template:
    """Template of one stage of ``riccati.csv``.

    Fields 0..L-1 are the line prefixes ``"k,i,"`` of stage k, mode i;
    then come the P entries of each mode, only its upper triangle
    (row-major) when ``mirror`` is set, and then the m x n gain entries of
    each mode; ``m = 0`` writes no gain columns.
    """
    size = n * (n + 1) // 2 if mirror else n * n
    upper = {rc: j for j, rc in enumerate(zip(*np.triu_indices(n)))}
    gain = L + L * size

    def items():
        for i in range(L):
            for row in range(max(n, m)):
                for col in range(n):
                    yield i
                    if row >= n:
                        yield f",{col},"
                    else:
                        yield f"{row},{col},"
                        yield L + i * size + (
                            upper[min(row, col), max(row, col)] if mirror
                            else row * n + col)
                    if row < m:
                        yield f",{row},{col},"
                        yield gain + (i * m + row) * n + col
                        yield "\r\n"
                    else:
                        yield ",,,\r\n"

    return Template(items())


def write_riccati_csv(sol: FiniteHorizonSolution, path):
    """Dump per-stage Riccati coefficients and gains to CSV.

    Columns: ``k, mode, row, col, P, gain_row, gain_col, K``.  Each stage k,
    mode i contributes one line per matrix entry; the gain columns are empty
    where no gain entry exists (terminal stage, or row/col outside the gain
    shape).  The file holds the bytes ``csv.writer`` writes for these rows:
    floats with ``repr``, empty fields, CRLF line ends.  Stages go in blocks
    of about ``BLOCK_FLOATS`` floats, each formatted by one
    :func:`~mjls.artifacts.float_reprs` call; a block whose P stacks are
    all bitwise symmetric formats only their upper triangles.  Each stage
    is spliced into its cached :class:`~mjls.artifacts.Template`.
    """
    L, m, n = sol.K.shape[1:]
    # Above a breakdown, only the P stages are written.
    first, m = (0, m) if sol.solvable else (sol.breakdown.stage + 1, 0)
    upper = np.triu_indices(n)
    step = max(1, artifacts.BLOCK_FLOATS // (L * (len(upper[0]) + m * n)))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("k,mode,row,col,P,gain_row,gain_col,K\r\n")
        for lo in range(first, len(sol.P), step):
            P = sol.P[lo:lo + step]
            bits = P.view(np.uint64)
            mirror = np.array_equal(bits, bits.swapaxes(2, 3))
            P = (P[:, :, upper[0], upper[1]] if mirror else P).reshape(
                len(P), -1)
            # Gains run to stage N; the terminal stage N + 1 has none.
            K = sol.K[lo:lo + step].reshape(-1, L * m * n) if m \
                else np.empty((0, 0))
            # A cold cache builds the templates before the block's strings.
            with_gains = _stage_template(L, n, m, mirror)
            last = _stage_template(L, n, 0, mirror) if len(K) < len(P) \
                else None
            reprs = float_reprs(np.concatenate([P.ravel(), K.ravel()]))
            width, gains, start = P.shape[1], K.shape[1], P.size
            for j in range(len(P)):
                template = with_gains if j < len(K) else last
                fh.write(template.render([
                    *(f"{lo + j},{i}," for i in range(L)),
                    *reprs[j * width:(j + 1) * width],
                    *reprs[start + j * gains:start + (j + 1) * gains]]))
