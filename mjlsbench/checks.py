"""Output checks for each CLI subcommand.

Each check reads the artifacts one ``mjls`` job wrote and compares them with
the benchmark's own computations (``reference.py``) or with properties the
method must have.  A check returns normally when the output is right and
raises :class:`WrongOutput` when it is not.  A job hit by a known program
fault raises :class:`KnownFault` instead, so the run counts it as failed
without calling the program's other outputs wrong.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import reference as ref

# Rows of trajectories.csv must satisfy the dynamics to this relative
# accuracy; a state off by 1e-6 is well outside it.
ROLLOUT_TOL = 1e-9
RADIUS_TOL = 1e-6
COST_TOL = 1e-9
CARE_RESIDUAL_TOL = 1e-8


class WrongOutput(Exception):
    """The program's output disagrees with the reference."""


class KnownFault(Exception):
    """The job failed in the documented way of a known program fault."""


def require(condition, message):
    if not condition:
        raise WrongOutput(message)


def close(actual, expected, tol, what):
    gap = abs(float(actual) - float(expected))
    require(gap <= tol * (1.0 + abs(float(expected))),
            f"{what}: {actual!r} vs reference {expected!r}")


class References:
    """Reference quantities of one model, each computed once on demand."""

    def __init__(self, model: ref.Model):
        self.model = model
        self._memo = {}

    def _get(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def open_radius(self):
        return self._get("open", lambda: ref.lifted_radius(
            ref.closed_loop(self.model, None), self.model.T))

    def care(self):
        """(P, K, iterations) of the coupled ARE, increments below 1e-13."""
        return self._get("care", lambda: ref.care(self.model))

    def radius(self, K):
        return ref.lifted_radius(ref.closed_loop(self.model, K), self.model.T)

    def care_radius(self):
        return self._get("care_radius", lambda: self.radius(self.care()[1]))

    def finite(self, N, terminal):
        """(optimal value, staged gains) of the finite-horizon problem."""
        def compute():
            P0, gains = ref.finite_riccati(
                self.model, N, ref.terminal_weights(self.model, terminal))
            return ref.value(self.model, P0), gains
        return self._get(("finite", N, terminal), compute)

    def cert_cost(self, N, terminal):
        return self._get(("cert", N, terminal), lambda: ref.stationary_cost(
            self.model, self.model.cert, N,
            ref.terminal_weights(self.model, terminal)))

    def enumerated_cost(self, N, terminal):
        """Cost of the optimal gains by literal enumeration of mode paths."""
        def compute():
            gains = self.finite(N, terminal)[1]
            return ref.enumerated_cost(
                self.model, gains, N,
                ref.terminal_weights(self.model, terminal))
        return self._get(("enum", N, terminal), compute)

    def moment_totals(self, K, steps):
        return ref.second_moment_traces(self.model, K, steps).sum(axis=1)


def _json(path: Path):
    require(path.is_file(), f"missing artifact {path.name}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _arg(args, flag, default=None):
    return args[args.index(flag) + 1] if flag in args else default


def check_solve_finite(job, rc, text, out: Path, refs: References):
    require(rc == 0, f"exit code {rc}: {text[-300:]}")
    model = refs.model
    N = int(_arg(job.args, "--horizon"))
    terminal = _arg(job.args, "--terminal", "zero")
    report = _json(out / "gains.json")
    value, gains = refs.finite(N, terminal)
    require(report["horizon"] == N, "wrong horizon in gains.json")
    close(report["optimal_cost"], value, COST_TOL, "optimal cost")
    if model.cert is not None:
        bound = refs.cert_cost(N, terminal)
        require(report["optimal_cost"] <= bound * (1.0 + COST_TOL),
                f"optimal cost {report['optimal_cost']!r} exceeds the "
                f"certificate gain's cost {bound!r}")
    K0 = np.asarray(report["gains"][0], dtype=float)
    require(K0.shape == gains[0].shape, "wrong gain shape")
    gap = float(np.max(np.abs(K0 - gains[0])))
    require(gap <= 1e-7 * (1.0 + float(np.max(np.abs(gains[0])))),
            f"stage-0 gains differ from the reference by {gap:.3e}")
    lines = (out / "riccati.csv").read_bytes().count(b"\n")
    require(lines == 1 + (N + 2) * model.L * model.n * model.n,
            f"riccati.csv has {lines} lines")


def _check_care_budget_fault(job, rc, text, stabilizable=None):
    """The value-iteration budget fault: exit 3 or a 'false' verdict."""
    if job.known_fault is None:
        return
    if "no convergence within" in text and (rc == 3 or stabilizable is False):
        raise KnownFault(job.known_fault)


def check_solve_care(job, rc, text, out: Path, refs: References):
    _check_care_budget_fault(job, rc, text)
    require(rc == 0, f"exit code {rc}: {text[-300:]}")
    report = _json(out / "care.json")
    P = np.asarray(report["P"], dtype=float)
    K = np.asarray(report["gains"], dtype=float)
    model = refs.model
    require(P.shape == (model.L, model.n, model.n), "wrong shape of P")
    require(K.shape == (model.L, model.m, model.n), "wrong shape of gains")
    low = np.linalg.eigvalsh(0.5 * (P + np.swapaxes(P, 1, 2)))[:, 0]
    require(np.all(low > 0.0), f"P not positive definite: {low.min():.3e}")
    residual = ref.care_residual(P, model)
    require(residual <= CARE_RESIDUAL_TOL, f"CARE residual {residual:.3e}")
    margin = ref.lyapunov_margins(P, K, model)
    require(np.all(margin > 0.0),
            f"coupled Lyapunov inequality fails: {margin.min():.3e}")
    radius = refs.radius(K)
    require(radius < 1.0, f"reported gains leave radius {radius!r}")
    close(report["closed_loop_spectral_radius"], radius, RADIUS_TOL,
          "closed-loop radius")
    require(report["closed_loop_mean_square_stable"] is True,
            "closed loop not reported mean-square stable")
    close(report["optimal_cost"], ref.value(model, refs.care()[0]), 1e-7,
          "infinite-horizon cost")


def check_check(job, rc, text, out: Path, refs: References):
    require(rc == 0, f"exit code {rc}: {text[-300:]}")
    report = _json(out / "check.json")
    _check_care_budget_fault(job, rc, report.get("note", ""),
                             report.get("stabilizable"))
    steps = int(_arg(job.args, "--horizon", 50))
    open_radius = refs.open_radius()
    close(report["open_loop"]["spectral_radius"], open_radius, RADIUS_TOL,
          "open-loop radius")
    require(report["open_loop"]["mean_square_stable"] == (open_radius < 1.0),
            "open-loop verdict contradicts the radius")
    require(report["exactly_observable"] is True,
            "positive definite state weights reported unobservable")
    require(report["stabilizable"] is True,
            f"stabilizable model reported {report['stabilizable']!r}: "
            f"{report.get('note', '')}")
    closed = report["closed_loop"]
    close(closed["spectral_radius"], refs.care_radius(), RADIUS_TOL,
          "closed-loop radius")
    require(closed["mean_square_stable"] is True and
            closed["spectral_radius"] < 1.0, "closed loop not stable")
    _check_moments(out / "second_moments_open_loop.csv",
                   refs.moment_totals(None, steps), refs.model.L, 1e-8)
    _check_moments(out / "second_moments_closed_loop.csv",
                   refs.moment_totals(refs.care()[1], steps), refs.model.L,
                   1e-6)


def _check_moments(path: Path, totals, L, tol):
    require(path.is_file(), f"missing artifact {path.name}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    require(data.shape[0] == len(totals) * L, f"{path.name}: wrong row count")
    got = data[::L, 3]
    gap = np.abs(got - totals) / (1.0 + np.abs(totals))
    require(float(gap.max()) <= tol,
            f"{path.name}: totals off by {float(gap.max()):.3e}")


def check_simulate(job, rc, text, out: Path, refs: References):
    require(rc == 0, f"exit code {rc}: {text[-300:]}")
    model = refs.model
    N = int(_arg(job.args, "--horizon"))
    trials = int(_arg(job.args, "--trials"))
    terminal = _arg(job.args, "--terminal", "zero")
    value, gains = refs.finite(N, terminal)
    stats = _json(out / "cost_stats.json")
    require(stats["trials"] == trials and stats["horizon"] == N,
            "cost_stats.json does not echo the run")
    close(stats["optimal_cost"], value, COST_TOL, "optimal cost")
    mean, stderr = stats["mean_cost"], stats["standard_error"]
    require(stderr > 0.0 and abs(mean - value) <= 5.0 * stderr,
            f"mean cost {mean!r} is more than 5 standard errors "
            f"({stderr!r}) from the optimum {value!r}")
    totals = check_trajectories(out / "trajectories.csv", model, gains, N,
                                trials, ref.terminal_weights(model, terminal))
    close(float(np.mean(totals)), mean, COST_TOL,
          "mean of the written trajectories' costs")


def check_trajectories(path: Path, model, gains, N, trials, terminal):
    """Check every row of trajectories.csv; returns per-trial total costs."""
    require(path.is_file(), f"missing artifact {path.name}")
    n, m = model.n, model.m
    data = np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)
    require(data.shape == (trials * (N + 2), 3 + n + m + 1),
            f"trajectories.csv has shape {data.shape}")
    data = data.reshape(trials, N + 2, -1)
    require(np.array_equal(data[:, :, 0], np.repeat(
        np.arange(trials)[:, None], N + 2, axis=1)), "bad trial column")
    require(np.array_equal(data[:, :, 1], np.broadcast_to(
        np.arange(N + 2), (trials, N + 2))), "bad stage column")
    modes = data[:, :, 2].astype(np.int64)
    require(modes.min() >= 0 and modes.max() < model.L, "mode out of range")
    prob = model.pi0[modes[:, 0]] * np.prod(
        model.T[modes[:, :-1], modes[:, 1:]], axis=1)
    require(np.all(prob > 0.0), "a trajectory follows an impossible path")
    x = data[:, :, 3:3 + n]
    u = data[:, :N + 1, 3 + n:3 + n + m]
    cost = data[:, :, -1]
    mk = modes[:, :N + 1]
    K = gains[np.arange(N + 1)[None, :], mk]           # (trials, N+1, m, n)
    xk = x[:, :N + 1, :, None]
    expect_u = (K @ xk)[..., 0]
    _rows_close(u, expect_u, "control u(k) = K x(k)")
    expect_x = (model.A[mk] @ xk + model.B[mk] @ u[..., None])[..., 0]
    _rows_close(x[:, 1:], expect_x, "state x(k+1) = A x(k) + B u(k)")
    stage = (np.einsum("tka,tkab,tkb->tk", x[:, :N + 1], model.Q[mk],
                       x[:, :N + 1])
             + np.einsum("tka,tkab,tkb->tk", u, model.R[mk], u))
    term = np.einsum("ta,tab,tb->t", x[:, N + 1], terminal[modes[:, N + 1]],
                     x[:, N + 1])
    _rows_close(cost[:, :N + 1, None], stage[..., None], "stage cost")
    _rows_close(cost[:, N + 1, None], term[:, None], "terminal cost")
    return cost.sum(axis=1)


def _rows_close(actual, expected, what):
    scale = 1.0 + np.abs(expected).max(axis=-1)
    gap = np.abs(actual - expected).max(axis=-1) / scale
    worst = float(gap.max())
    require(worst <= ROLLOUT_TOL, f"{what} off by {worst:.3e}")


def check_verify(job, rc, text, out: Path, refs: References):
    require(rc == 0, f"exit code {rc}: {text[-300:]}")
    report = _json(out / "verification.json")
    N = int(_arg(job.args, "--horizon"))
    require(report["horizon"] == N, "wrong horizon in verification.json")
    require(report["passed"] is True and report["checks"] and
            all(c["passed"] for c in report["checks"]),
            "verification reported a failed check")
    # The reference side of the same claim: the literal enumeration of
    # every mode path prices the optimal gains at the optimal value.
    terminal = _arg(job.args, "--terminal", "zero")
    close(refs.enumerated_cost(N, terminal), refs.finite(N, terminal)[0],
          COST_TOL, "enumerated optimal cost")


CHECKS = {
    "solve-finite": check_solve_finite,
    "solve-care": check_solve_care,
    "check": check_check,
    "simulate": check_simulate,
    "verify": check_verify,
}
