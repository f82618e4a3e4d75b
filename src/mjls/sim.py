"""Markov chain sampling, the rollout kernel, and Monte Carlo costing.

One kernel, :func:`rollout`, rolls x(k+1) = A x(k) + B u(k) under
u(k) = F_k[theta(k)] x(k) over a tree of mode prefixes, one level per
stage: a node is one history theta(0..k), with its mode and its parent at
level k - 1.  A state depends only on the history before it, so each node
is rolled once for all its continuations.  Monte Carlo trials form the flat
tree (each node its own parent); :mod:`mjls.oracle` rolls the tree of every
positive-probability history.  Per-node matrices are gathered from the
stacked model and gain arrays, and every product is a fixed sequence of
elementwise operations, so a node's numbers do not depend on its batch.

Sampling is deterministic given a seed: modes are drawn by inverse CDF over
the cumulative transition row (ascending mode order, so ties at probability
boundaries resolve the same way everywhere).  Monte Carlo trials read one
stream, ``default_rng(seed)``, in consecutive blocks of N+2 uniforms, trial t
taking draws t(N+2) .. (t+1)(N+2) - 1; a chunk of trials jumps the PCG64
state ahead to its first draw, so chunked and whole runs agree bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .artifacts import Template, blocked_reprs
from .errors import DivergedTrajectory, InvalidInput
from .model import MjlsModel, Policy

__all__ = [
    "Trajectory",
    "sample_markov_chain",
    "rollout",
    "simulate_closed_loop",
    "simulate_trials",
    "monte_carlo_cost",
    "write_trajectory_csv",
]


def _inverse_cdf(transition, pi0, uniforms):
    """One mode path theta(0..N+1) per row of a (rows, N+2) uniform block.

    (cum <= u).sum() is right-sided ``searchsorted`` on each cumulative row.
    """
    L = len(pi0)
    cum_rows = np.cumsum(transition, axis=1)
    modes = np.empty(uniforms.shape, dtype=np.int64)
    modes[:, 0] = np.minimum(
        (np.cumsum(pi0) <= uniforms[:, :1]).sum(axis=1), L - 1)
    for k in range(uniforms.shape[1] - 1):
        modes[:, k + 1] = np.minimum(
            (cum_rows[modes[:, k]] <= uniforms[:, k + 1, None]).sum(axis=1),
            L - 1)
    return modes


def require_seed(seed):
    """Raise :class:`InvalidInput` for a seed ``default_rng`` rejects: its
    ``SeedSequence`` takes only nonnegative ints and sequences of them."""
    try:
        np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise InvalidInput("seed must be nonnegative int(s) or a "
                           f"SeedSequence, got {seed!r}") from exc


def sample_markov_chain(transition, initial_distribution, N: int, seed):
    """Sample one mode path theta(0..N+1); deterministic given ``seed``.

    ``seed`` may be an int, a SeedSequence, or a Generator.  For an int
    seed s, this path is trial 0 of :func:`simulate_trials` and
    :func:`monte_carlo_cost` at seed s.
    """
    transition = np.asarray(transition, dtype=float)
    pi0 = np.asarray(initial_distribution, dtype=float)
    L = pi0.shape[0]
    if transition.shape != (L, L):
        raise InvalidInput("transition shape does not match distribution")
    if N < 0:
        raise InvalidInput("horizon must be nonnegative")
    require_seed(seed)
    return _inverse_cdf(transition, pi0,
                        np.random.default_rng(seed).random((1, N + 2)))[0]


def _sample_trials(model, first, trials, seed, N):
    """Mode paths of trials [first, first + trials) as a (trials, N+2) array.

    Trial t reads draws t(N+2) .. (t+1)(N+2) - 1 of ``default_rng(seed)``;
    the stream is advanced past the trials before ``first``, so any split
    into spans gives the rows of the whole block bitwise.  A Generator
    ``seed`` raises InvalidInput: its state would carry over between spans.
    """
    if isinstance(seed, (np.random.Generator, np.random.BitGenerator)):
        raise InvalidInput("trials take an int or SeedSequence seed, not a "
                           "Generator")
    rng = np.random.Generator(np.random.PCG64(seed))
    rng.bit_generator.advance(first * (N + 2))
    return _inverse_cdf(model.transition, model.initial_distribution,
                        rng.random((trials, N + 2)))


def matvec(M, v):
    """Per-node products M v, (nodes, a, P), for v of shape (nodes, b, P)
    and M (nodes, a, b), shared by the P policies, or (nodes, a, b, P).  The
    sum over b is a fixed sequence of elementwise operations, so a result
    does not depend on the batch its node and policy sit in."""
    if M.ndim == 3:
        M = M[..., None]
    out = M[:, :, 0] * v[:, None, 0]
    for b in range(1, v.shape[1]):
        out += M[:, :, b] * v[:, None, b]
    return out


def quad(v, M):
    """Per-node quadratic forms v' M v, (nodes, P), as :func:`matvec`."""
    w = matvec(M, v)
    out = v[:, 0] * w[:, 0]
    for a in range(1, v.shape[1]):
        out += v[:, a] * w[:, a]
    return out


def rollout(model: MjlsModel, gains, modes, parents, terminal):
    """Roll the closed loop level by level over a tree of mode prefixes.

    ``modes[k]`` holds theta(k) at every node of level k = 0..N+1 and
    ``parents[k]`` (k >= 1; entry 0 is unused) the index of each node's
    parent at level k - 1; ``parents=None`` is the flat tree of independent
    trials.  ``gains`` stacks the feedback of P policies rolled together as
    (P, N+1, L, m, n) and ``terminal`` holds one weight per mode, both as
    the model's :meth:`~mjls.model.MjlsModel.feedback_gains` and
    :meth:`~mjls.model.MjlsModel.terminal_weights` return them.

    Yields ``(x, u, cost, x_next)`` for each level k = 0..N: states x(k)
    (nodes, n, P), controls (nodes, m, P), stage costs (nodes, P) and
    successors x(k+1); then ``(None, None, cost, None)`` with the terminal
    cost at every node of level N+1.  Raises :class:`DivergedTrajectory` at
    the first step whose state is not finite; its ``trial`` is the first
    trial, or leaf of the tree, that passes through that state.
    """
    n = model.state_dim
    N = len(modes) - 2
    table = np.moveaxis(gains, 0, -1)
    x = np.broadcast_to(model.x0[:, None], (len(modes[0]), n, len(gains)))
    for k in range(N + 1):
        i = modes[k]
        with np.errstate(over="ignore", invalid="ignore"):
            u = matvec(table[k][i], x)
            cost = quad(x, model.Q[i]) + quad(u, model.R[i])
            nxt = matvec(model.A[i], x) + matvec(model.B[i], u)
        if not np.isfinite(nxt).all():
            bad = ~np.isfinite(nxt).all(axis=(1, 2))
            for parent in (parents or [])[k + 1:]:
                bad = bad[parent]
            raise DivergedTrajectory(
                f"state became non-finite at step {k + 1}",
                step=k + 1, trial=int(np.argmax(bad)))
        yield x, u, cost, nxt
        x = nxt if parents is None else nxt[parents[k + 1]]
    # One form per parent node and leaf mode: leaves share their parent's
    # state, so no state is gathered onto the widest level.
    with np.errstate(over="ignore", invalid="ignore"):
        forms = np.stack([quad(nxt, np.broadcast_to(mat, (len(nxt), n, n)))
                          for mat in terminal], axis=1)
    leaf = np.arange(len(nxt)) if parents is None else parents[N + 1]
    yield None, None, forms[leaf, modes[N + 1]], None


@dataclass(eq=False)
class Trajectory:
    """One sampled rollout: modes theta(0..N+1), states, controls, costs.

    ``total_cost`` is the sum of ``stage_costs`` plus ``terminal_cost``;
    states satisfy the recursion x(k+1) = A x(k) + B u(k) exactly as rolled.
    """

    modes: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    stage_costs: np.ndarray
    terminal_cost: float
    total_cost: float

    @property
    def horizon(self) -> int:
        return len(self.modes) - 2


def _check_rollout_args(model, policy, N, terminal):
    """The (1, N+1, L, m, n) gains and terminal weights :func:`rollout`
    takes."""
    model.ensure_valid()
    if N < 0:
        raise InvalidInput("horizon must be nonnegative")
    return (model.feedback_gains(policy, N + 1)[None],
            model.terminal_weights(terminal))


def _trajectories(model, gains, terminal, modes):
    """One :class:`Trajectory` per row of a (trials, N+2) mode array."""
    *stages, (_, _, term, _) = rollout(model, gains, modes.T, None,
                                       terminal)
    xs, us, costs, nxts = zip(*stages)
    states = np.stack(xs + nxts[-1:], axis=1)[..., 0]
    controls = np.stack(us, axis=1)[..., 0]
    stage_costs = np.stack(costs, axis=1)[..., 0]
    totals = sum(costs, 0.0) + term
    return [Trajectory(modes=modes[t], states=states[t],
                       controls=controls[t], stage_costs=stage_costs[t],
                       terminal_cost=float(term[t, 0]),
                       total_cost=float(totals[t, 0]))
            for t in range(len(modes))]


def simulate_closed_loop(model: MjlsModel, policy: Policy | None,
                         terminal=None, *, path=None, seed=None,
                         N: int | None = None) -> Trajectory:
    """Roll the switched dynamics forward under mode-indexed feedback.

    Either pass a mode ``path`` of length N+2 or a ``seed`` together with
    ``N`` to sample one.  ``policy=None`` runs the loop open (u = 0);
    ``terminal=None`` means no terminal penalty.
    """
    if path is None:
        if seed is None or N is None:
            raise InvalidInput("need either a mode path or (seed, N)")
        path = sample_markov_chain(model.transition,
                                   model.initial_distribution, N, seed)
    path = np.asarray(path, dtype=np.int64)
    if path.ndim != 1 or path.shape[0] < 2:
        raise InvalidInput("mode path must hold at least two entries")
    if path.min() < 0 or path.max() >= model.mode_count:
        raise InvalidInput("mode path contains out-of-range modes")
    return _trajectories(model, *_check_rollout_args(
        model, policy, path.shape[0] - 2, terminal), path[None])[0]


def simulate_trials(model: MjlsModel, policy: Policy | None, trials: int,
                    seed, N: int, terminal=None) -> list:
    """Sample and roll trials 0..trials-1 in one batch.

    Trial t follows the mode path drawn from block t of the one stream
    ``default_rng(seed)`` (trial 0 is :func:`sample_markov_chain` at
    ``seed``), and its ``total_cost`` is the value
    :func:`monte_carlo_cost` averages.  The model checks ``policy`` and
    ``terminal`` (:meth:`~mjls.model.MjlsModel.feedback_gains`,
    :meth:`~mjls.model.MjlsModel.terminal_weights`).
    """
    checked = _check_rollout_args(model, policy, N, terminal)
    require_seed(seed)
    return _trajectories(model, *checked,
                         _sample_trials(model, 0, trials, seed, N))


def cost_statistics(costs):
    """Sample mean and standard error of per-trial costs."""
    return (float(np.mean(costs)),
            float(np.std(costs, ddof=1) / np.sqrt(len(costs))))


def monte_carlo_cost(model: MjlsModel, policy: Policy | None, trials: int,
                     seed, N: int, terminal=None, workers: int = 1):
    """Sample mean and standard error of the rollout cost.

    Trials read consecutive blocks of the one stream ``default_rng(seed)``
    (see :func:`simulate_trials`).  They are processed in ``workers``
    contiguous chunks, one after another, each advancing the stream to its
    first trial; the costs are joined in trial order, and the mean uses
    numpy's pairwise summation over that fixed order, so the result does
    not depend on the chunk count.
    """
    if trials < 2:
        raise InvalidInput("at least two trials are needed")
    gains, terminal = _check_rollout_args(model, policy, N, terminal)
    require_seed(seed)

    def run(span):
        lo, hi = span
        modes = _sample_trials(model, lo, hi - lo, seed, N)
        total = 0.0
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                for _, _, cost, _ in rollout(model, gains, modes.T, None,
                                             terminal):
                    total = total + cost[:, 0]
        except DivergedTrajectory as exc:
            exc.trial += lo
            raise
        return total

    bounds = np.linspace(0, trials, max(workers, 1) + 1).astype(int)
    spans = [(int(lo), int(hi)) for lo, hi in zip(bounds, bounds[1:])
             if hi > lo]
    return cost_statistics(np.concatenate([run(span) for span in spans]))


@lru_cache(maxsize=16)
def _trial_template(N: int, n: int, m: int) -> Template:
    """Template of one trial's rows of ``trajectories.csv``.

    Field 0 is the trial, fields 1..N+2 the modes; then come the (N+2) x n
    states, the (N+1) x m controls and the N+2 cost entries, the last of
    them the terminal penalty, whose row leaves the control fields empty.
    """
    x0 = N + 3
    u0 = x0 + (N + 2) * n
    c0 = u0 + (N + 1) * m

    def items():
        for k in range(N + 2):
            yield from (0, f",{k},", 1 + k)
            for d in range(n):
                yield from (",", x0 + k * n + d)
            for d in range(m):
                yield from ((",", u0 + k * m + d) if k <= N else (",",))
            yield from (",", c0 + k, "\r\n")

    return Template(items())


def write_trajectory_csv(trajectories, path, model: MjlsModel):
    """Dump sampled rollouts to CSV.

    Columns: ``trial, k, mode, x_1..x_n, u_1..u_m, stage_cost``.  The final
    row of each trial (k = N+1) carries the terminal state; its control
    columns are empty and its ``stage_cost`` column holds the terminal
    penalty, so each trial's column sum reproduces the total cost.  The file
    holds the bytes ``csv.writer`` writes for these rows: floats with
    ``repr``, CRLF line ends.  Floats are formatted through
    :func:`~mjls.artifacts.float_reprs`, a block of trials per call; each
    trial is spliced into a cached :class:`~mjls.artifacts.Template` and
    written on its own.
    """
    n, m = model.state_dim, model.input_dim
    header = (["trial", "k", "mode"]
              + [f"x_{d + 1}" for d in range(n)]
              + [f"u_{d + 1}" for d in range(m)]
              + ["stage_cost"])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        floats = ((traj, np.concatenate([
            np.ravel(traj.states), np.ravel(traj.controls),
            traj.stage_costs, [traj.terminal_cost]]))
            for traj in trajectories)
        for trial, (traj, reprs) in enumerate(blocked_reprs(floats)):
            template = _trial_template(len(traj.modes) - 2, n, m)
            fh.write(template.render(
                [str(trial), *map(str, traj.modes.tolist()), *reprs]))
