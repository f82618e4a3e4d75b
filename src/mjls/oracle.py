"""Brute-force verification on the tree of mode prefixes.

At small sizes every positive-probability mode sequence theta(0..N+1) can be
enumerated with its exact probability.  :func:`enumerate_paths` lists them
as a tree with one level per stage: each history theta(0..k) appears once,
with its mode, parent and probability.  States and controls are
deterministic given the history, so one pass of :func:`mjls.sim.rollout`
rolls every prefix once, and an expected cost sums prefix probability times
stage cost.  The conditional costates follow from one backward pass (the
tower property: each node sums its children, weighted by their transition
probabilities).  Stationarity, the costate relation and the
completion-of-squares identity are evaluated node by node against the
Riccati solver -- an independent check that shares none of its code path.
Policies and terminal weights are checked by the model's
:meth:`~mjls.model.MjlsModel.feedback_gains` and ``terminal_weights``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, RiccatiBreakdown, TooLarge
from .model import MjlsModel, Policy, coupled_average
from .riccati import FiniteHorizonSolution, optimal_cost_finite, \
    solve_finite
from .sim import matvec, quad, require_seed, rollout

__all__ = [
    "PathEnsemble",
    "CostateSequence",
    "enumerate_paths",
    "exact_cost",
    "costate_from_definition",
    "stationarity_residual",
    "costate_relation_residual",
    "decomposition_check",
    "perturbation_optimality",
    "verification_report",
]

# Largest a-priori path count L**(N+2) that enumerate_paths accepts.
ENUMERATION_CAP = 10 ** 6
# verification_report: tolerances of its relative and costate checks, and
# the count and scale of its gain perturbations.
REL_TOL = 1e-9
COSTATE_TOL = 1e-10
PERTURBATIONS = 25
PERTURBATION_SCALE = 1e-2
# Node-policy pairs per level in one batched roll: every policy of the
# workload-sized trees shares one pass, and wide trees stay within tens of MB.
BATCH_NODES = 2 ** 19


@dataclass(eq=False)
class PathEnsemble:
    """Every positive-probability mode sequence theta(0..N+1).

    Level k = 0..N+1 of the prefix tree holds each history theta(0..k)
    once: its last mode ``modes[k]``, the index ``parents[k]`` (k >= 1) of
    theta(0..k-1) at level k - 1 and its probability ``weights[k]``.
    Children come mode first, then in parent order.  ``probabilities`` are
    the exact chain probabilities of the whole sequences, one per node of
    the last level, and sum to one.
    """

    modes: list = field(repr=False)
    parents: list = field(repr=False)
    weights: list = field(repr=False)

    @property
    def horizon(self) -> int:
        return len(self.modes) - 2

    @property
    def count(self) -> int:
        return len(self.modes[-1])

    @property
    def probabilities(self) -> np.ndarray:
        return self.weights[-1]


def enumerate_paths(model: MjlsModel, N: int) -> PathEnsemble:
    """Enumerate mode sequences theta(0..N+1) with exact probabilities.

    Zero-probability transitions are pruned while extending, but the a-priori
    bound L**(N+2) must not exceed ``ENUMERATION_CAP`` (raises
    :class:`TooLarge`).
    """
    model.ensure_valid()
    if N < 0:
        raise InvalidInput("horizon must be nonnegative")
    L = model.mode_count
    total = L ** (N + 2)
    if total > ENUMERATION_CAP:
        raise TooLarge(f"{L}**{N + 2} = {total} mode sequences exceed the "
                       f"cap {ENUMERATION_CAP}")
    pi0, lam = model.initial_distribution, model.transition
    start = np.nonzero(pi0 > 0.0)[0]
    modes, parents, weights = [start], [None], [pi0[start]]
    for _ in range(N + 1):
        last = modes[-1]
        mode, parent = np.nonzero(lam[last].T > 0.0)
        modes.append(mode)
        parents.append(parent)
        weights.append(weights[-1][parent] * lam[last[parent], mode])
    return PathEnsemble(modes, parents, weights)


def _checked(model, N, policy, terminal):
    """The prefix tree of horizon N, and the (1, N+1, L, m, n) gains and
    the terminal weights that :func:`rollout` takes."""
    ensemble = enumerate_paths(model, N)
    return (ensemble, model.feedback_gains(policy, N + 1)[None],
            model.terminal_weights(terminal))


def _expect(values, weights):
    """Probability-weighted sum over a level's nodes: one pairwise sum per
    policy row, whatever the number of policies in the batch."""
    return np.ascontiguousarray(values.T * weights).sum(axis=1)


# Costs may overflow while the states are still finite; the rollout kernel
# raises DivergedTrajectory once they are not.
@np.errstate(over="ignore", invalid="ignore")
def _tally(ensemble, levels, sol=None):
    """Expected cost of each policy rolled in ``levels`` and, given ``sol``,
    its expected Upsilon-weighted deviation from the optimal feedback."""
    cost = excess = 0.0
    for k, (x, u, stage, _) in enumerate(levels):
        w = ensemble.weights[k]
        cost = cost + _expect(stage, w)
        if sol is not None and u is not None:
            i = ensemble.modes[k]
            dev = u - matvec(sol.K[k][i], x)
            excess = excess + _expect(quad(dev, sol.Upsilon[k][i]), w)
    return cost, np.broadcast_to(excess, cost.shape)


def _tally_batch(model, ensemble, gains, terminal, sol=None):
    """:func:`_tally` of a (P, N+1, L, m, n) gain stack, rolled in groups
    that keep each level to at most ``BATCH_NODES`` node-policy pairs."""
    step = max(1, BATCH_NODES // ensemble.count)
    parts = [_tally(ensemble, rollout(model, gains[lo:lo + step],
                                      ensemble.modes, ensemble.parents,
                                      terminal), sol)
             for lo in range(0, len(gains), step)]
    return tuple(np.concatenate(part) for part in zip(*parts))


def exact_cost(model: MjlsModel, policy: Policy | None, N: int,
               terminal=None) -> float:
    """Expected cost of a policy, exact up to roundoff.

    Sums prob(prefix) * stage cost over every node of the prefix tree, in
    fixed tree order so the value is reproducible.
    """
    cost, _ = _tally_batch(model, *_checked(model, N, policy, terminal))
    return float(cost[0])


@dataclass(eq=False)
class CostateSequence:
    """Conditional costates keyed by mode-history prefix.

    ``eta[k]`` maps each prefix tuple theta(0..k) to the costate vector at
    stage k, and ``state[k]`` maps the same prefix to x(k+1) (the successor
    state, which the prefix determines).
    """

    eta: list
    state: list

    @property
    def horizon(self) -> int:
        return len(self.eta) - 1


def _costate_pass(model, ensemble, gains, terminal):
    """Roll ``gains`` over the tree once keeping every level, and form the
    conditional costates eta(k), (nodes, n, 1), at every level k = 0..N.

    For one path the costate definition telescopes: the stage-N value is
    P_term[theta(N+1)] x(N+1), and each earlier stage adds
    Q[theta(k+1)] x(k+1) and pushes through A[theta(k+1)]'.  By the tower
    property the expectation given theta(0..k) is the transition-weighted
    sum of those terms over the node's children: one backward pass.
    """
    levels = list(rollout(model, gains, ensemble.modes, ensemble.parents,
                          terminal))
    modes, parents, N = ensemble.modes, ensemble.parents, ensemble.horizon
    value = matvec(terminal[modes[N + 1]], levels[N][3][parents[N + 1]])
    eta = [None] * (N + 1)
    for k in range(N, -1, -1):
        parent, i = parents[k + 1], modes[k]
        lam = model.transition[i[parent], modes[k + 1]]
        eta[k] = np.stack([
            np.bincount(parent, lam * value[:, a, 0], len(i))
            for a in range(model.state_dim)], axis=1)[..., None]
        value = (matvec(model.Q[i], levels[k][0])
                 + matvec(model.A[i].transpose(0, 2, 1), eta[k]))
    return ensemble, levels, eta


def costate_from_definition(model: MjlsModel, policy: Policy | None, N: int,
                            terminal=None) -> CostateSequence:
    """Costates from their defining conditional expectation.

    For each stage k and each positive-probability mode history theta(0..k),
    the expected pathwise costate integrand over the continuations, formed
    by one backward pass over the prefix tree.
    """
    ensemble, levels, eta = _costate_pass(
        model, *_checked(model, N, policy, terminal))
    seq = CostateSequence(eta=[], state=[])
    prefix = ensemble.modes[0][:, None]
    for k in range(N + 1):
        if k:
            prefix = np.hstack([prefix[ensemble.parents[k]],
                                ensemble.modes[k][:, None]])
        keys = list(map(tuple, prefix.tolist()))
        seq.eta.append(dict(zip(keys, eta[k][..., 0])))
        seq.state.append(dict(zip(keys, levels[k][3][..., 0])))
    return seq


def _stationarity(model, ensemble, levels, eta):
    """Largest norm of B' eta(k) + R u(k) over every node of every level."""
    worst = 0.0
    for k, eta_k in enumerate(eta):
        i = ensemble.modes[k]
        residual = (matvec(model.B[i].transpose(0, 2, 1), eta_k)
                    + matvec(model.R[i], levels[k][1]))
        worst = max(worst, float(np.linalg.norm(residual, axis=1).max()))
    return worst


def stationarity_residual(model: MjlsModel, policy: Policy, N: int,
                          terminal=None) -> float:
    """First-order optimality defect of a policy.

    The optimal controller zeroes B' eta(k) + R u(k) given the mode history;
    both factors are determined by the prefix, so the residual is the largest
    norm of that expression over all stages and prefixes.
    """
    return _stationarity(model, *_costate_pass(
        model, *_checked(model, N, policy, terminal)))


def _relation(model, sol, ensemble, levels, eta):
    """Largest gap between eta(k) and W(k)[theta(k)] x(k+1), normalized."""
    worst = 0.0
    for k, eta_k in enumerate(eta):
        W = coupled_average(sol.P[k + 1], model.transition)
        reference = matvec(W[ensemble.modes[k]], levels[k][3])
        gap = (np.linalg.norm(eta_k - reference, axis=1)
               / (1.0 + np.linalg.norm(reference, axis=1)))
        worst = max(worst, float(gap.max()))
    return worst


def _require_solution(sol, N):
    if not sol.solvable:
        raise InvalidInput("need a solvable finite-horizon solution")
    if sol.horizon != N:
        raise InvalidInput("solution horizon does not match N")


def costate_relation_residual(model: MjlsModel, sol: FiniteHorizonSolution,
                              N: int) -> float:
    """Largest normalized gap between defined and closed-form costates.

    Under the optimal policy the costate collapses onto the state through
    the transition-weighted cost-to-go:
    eta(k) = (sum_j transition[theta(k), j] P[j](k+1)) x(k+1).
    Residuals are normalized by (1 + ||reference||).
    """
    _require_solution(sol, N)
    return _relation(model, sol, *_costate_pass(
        model, *_checked(model, N, sol.policy(), sol.P[N + 1])))


def _decomposition(model, sol, lhs, excess):
    lhs = float(lhs)
    rhs = optimal_cost_finite(sol, model) + float(excess)
    return lhs, rhs, abs(lhs - rhs)


def decomposition_check(model: MjlsModel, policy: Policy, N: int,
                        sol: FiniteHorizonSolution):
    """Completion-of-squares identity, evaluated exactly.

    For any policy the cost splits into the optimal value plus an
    Upsilon-weighted quadratic penalty on the deviation from the optimal
    feedback:

        J = sum_i pi0[i] x0' P[i](0) x0
            + sum_k E[(u(k) - K x(k))' Upsilon (u(k) - K x(k))].

    Returns ``(lhs, rhs, gap)`` where lhs is the enumerated cost of
    ``policy`` with the solution's terminal weight.
    """
    _require_solution(sol, N)
    cost, excess = _tally_batch(
        model, *_checked(model, N, policy, sol.P[N + 1]), sol)
    return _decomposition(model, sol, cost[0], excess[0])


def _perturbed_gains(sol, count, scale, seed):
    """``count`` copies of the optimal staged gains, every entry perturbed
    uniformly within ``scale``; the draws run copy by copy, stage by stage,
    mode by mode."""
    rng = np.random.default_rng(seed)
    return sol.K + rng.uniform(-scale, scale, size=(count,) + sol.K.shape)


def perturbation_optimality(model: MjlsModel, sol: FiniteHorizonSolution,
                            N: int, count: int, scale: float, seed) -> float:
    """Worst cost change over random perturbations of the optimal gains.

    Perturbs every stage/mode gain entry uniformly within ``scale`` and
    returns min(perturbed cost - optimal cost); a genuine optimum keeps this
    nonnegative up to roundoff.  ``count=0`` returns +inf (vacuous pass).
    """
    _require_solution(sol, N)
    ensemble, gains, terminal = _checked(model, N, sol.policy(),
                                         sol.P[N + 1])
    gains = np.concatenate([gains, _perturbed_gains(sol, count, scale, seed)])
    cost, _ = _tally_batch(model, ensemble, gains, terminal)
    return float(np.min(cost[1:] - cost[0], initial=math.inf))


def verification_report(model: MjlsModel, N: int, terminal, *,
                        seed=0) -> dict:
    """Run the full brute-force battery against the Riccati solver.

    Returns ``{"checks": [{name, residual, tolerance, passed}...],
    "passed": bool}``.  Residuals are normalized by (1 + |reference|) so the
    stated tolerances (``REL_TOL``, ``COSTATE_TOL``) survive large initial
    states.  ``seed`` draws the arbitrary policy and the ``PERTURBATIONS``
    gain perturbations of scale ``PERTURBATION_SCALE``.  The paths are
    enumerated once; one roll of the optimal policy serves its cost,
    costates, stationarity and decomposition, and one batched roll serves
    the arbitrary policy and every perturbation.
    """
    require_seed(seed)
    checks = []

    def record(name, residual, tolerance):
        entry = {"name": name, "residual": float(residual),
                 "tolerance": float(tolerance),
                 "passed": bool(residual <= tolerance)}
        checks.append(entry)

    try:
        sol = solve_finite(model, terminal, N)
    except RiccatiBreakdown as exc:
        record(f"finite-horizon solve ({exc})", math.inf, 0.0)
        return {"checks": checks, "passed": False, "horizon": N}
    record("finite-horizon solve", 0.0, 0.0)

    value = optimal_cost_finite(sol, model)
    # The solver checked the terminal weights and made the gains.
    terminal = sol.P[N + 1]
    ensemble, levels, eta = _costate_pass(
        model, enumerate_paths(model, N), sol.K[None], terminal)
    cost, excess = _tally(ensemble, levels, sol)
    enumerated = float(cost[0])
    record("optimal cost equals enumerated cost",
           abs(enumerated - value) / (1.0 + abs(value)), REL_TOL)

    record("costate matches transition-weighted cost-to-go",
           _relation(model, sol, ensemble, levels, eta), COSTATE_TOL)

    record("first-order stationarity at the optimum",
           _stationarity(model, ensemble, levels, eta) / (1.0 + abs(value)),
           REL_TOL)

    lhs, _, gap = _decomposition(model, sol, cost[0], excess[0])
    record("cost decomposition at the optimum",
           gap / (1.0 + abs(lhs)), REL_TOL)

    shape = sol.K.shape
    random_gains = np.random.default_rng(seed).uniform(-1.0, 1.0, shape[1:])
    gains = np.concatenate([
        np.broadcast_to(random_gains, (1,) + shape),
        _perturbed_gains(sol, PERTURBATIONS, PERTURBATION_SCALE, seed)])
    cost, excess = _tally_batch(model, ensemble, gains, terminal, sol)
    lhs, _, gap = _decomposition(model, sol, cost[0], excess[0])
    record("cost decomposition for an arbitrary policy",
           gap / (1.0 + abs(lhs)), REL_TOL)

    decrease = float(np.min(cost[1:] - enumerated, initial=math.inf))
    shortfall = 0.0 if math.isinf(decrease) else max(0.0, -decrease)
    record("no gain perturbation improves the cost",
           shortfall / (1.0 + abs(value)), 1e-10)

    return {"checks": checks,
            "passed": all(c["passed"] for c in checks),
            "horizon": N}
