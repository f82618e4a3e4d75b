"""Command-line front end.

Every subcommand reads a model JSON file (``--model``) and writes CSV/JSON
artifacts into ``--out``, byte-identical on every run with the same flags.
Besides those two it takes only the flags it reads:

    solve-finite  --horizon --terminal
    solve-care    --tol --max-iter
    check         --horizon (moment steps, default 50) --tol --max-iter
    simulate      --horizon --terminal --seed --trials
    verify        --horizon --terminal --seed

Parsing checks the ranges, before ``--out`` is created: integers
``--horizon`` >= 0, ``--seed`` >= 0, ``--trials`` >= 2 and ``--max-iter``
>= 1, and a finite ``--tol`` >= 0.

Exit codes partition the outcomes:

    0  success
    1  malformed input, a usage error (unknown command or flag, bad value),
       or an output that cannot be written (the message names its path)
    2  Riccati breakdown (input-weight term not positive definite)
    3  solve-care found no stabilizing solution: the value iterates
       diverged (not mean-square stabilizable), or the step budget ran out
       before convergence (undetermined)
    4  assumption violation (input weights not PD / not exactly observable)
    5  verification failure, diverged simulation or numerical overflow
    6  enumeration larger than the cap

``check`` exits 0 in both of the code-3 cases and records them in
``check.json``: ``"stabilizable": false`` when the iterates diverged, and
``"stabilizable": null`` with a ``note`` that starts with ``undetermined:``
when the budget ran out.  ``care.json`` counts every step in
``iterations``, split into ``value_iterations`` and ``newton_steps``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache
from pathlib import Path

import numpy as np

from .artifacts import write_json
from .errors import (
    DivergedTrajectory,
    InvalidInput,
    NotStabilizable,
    NumericalFailure,
    ObservabilityViolation,
    PreconditionFailed,
    RiccatiBreakdown,
    TooLarge,
)
from .model import MjlsModel, load_model
from .oracle import verification_report
from .riccati import optimal_cost_finite, solve_care, solve_finite, \
    write_riccati_csv
from .sim import cost_statistics, simulate_trials, write_trajectory_csv
from .stability import is_exactly_observable, is_mss, \
    propagate_second_moment, stabilizability, write_moment_csv

__all__ = ["main", "entry_point"]


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as InvalidInput: exit 1, not argparse's 2."""

    def error(self, message):
        raise InvalidInput(message)


def _at_least(kind, low):
    """argparse type of a finite ``kind`` (int or float) of at least
    ``low``."""
    def parse(text):
        value = kind(text)
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(
                f"must be a finite number >= {low}, got {text}")
        return value
    parse.__name__ = kind.__name__
    return parse


# Flags besides --model and --out, and each subcommand's help and flags.
_FLAGS = {
    "--horizon": dict(type=_at_least(int, 0), help="stage horizon N"),
    "--terminal": dict(default="zero", help="'zero', 'identity', or a JSON "
                       "file holding one terminal matrix per mode"),
    "--tol": dict(type=_at_least(float, 0), default=1e-10,
                  help="CARE convergence tolerance on the relative "
                  "increment of a step"),
    "--max-iter": dict(type=_at_least(int, 1), default=10000,
                       help="CARE step budget, value iterations and Newton "
                       "steps together"),
    "--seed": dict(type=_at_least(int, 0), default=0, help="RNG seed"),
    "--trials": dict(type=_at_least(int, 2), default=50,
                     help="Monte Carlo trial count"),
}
_COMMANDS = {
    "solve-finite": ("finite-horizon coupled Riccati recursion",
                     ("--horizon", "--terminal")),
    "solve-care": ("infinite-horizon fixed point by value iteration and "
                   "Newton-Kleinman steps", ("--tol", "--max-iter")),
    "check": ("stability, observability and stabilizability report",
              ("--horizon", "--tol", "--max-iter")),
    "simulate": ("Monte Carlo rollouts under the optimal finite-horizon "
                 "gains", ("--horizon", "--terminal", "--seed", "--trials")),
    "verify": ("brute-force verification of the solver at small sizes",
               ("--horizon", "--terminal", "--seed")),
}


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first :func:`main` call and reused:
    each ``parse_args`` fills a fresh namespace, so no call sees another's
    flags."""
    parser = _Parser(
        prog="mjls",
        description="LQR and mean-square stabilization for discrete-time "
                    "Markov jump linear systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--model", required=True, help="model JSON file")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--out", default=".", help="artifact directory")
    return parser


def _require_horizon(args, default=None) -> int:
    horizon = default if args.horizon is None else args.horizon
    if horizon is None:
        raise InvalidInput(f"--horizon is required for {args.command}")
    return horizon


def _terminal_matrices(spec: str, model: MjlsModel):
    """The terminal weights that ``--terminal`` names, an (L, n, n) stack
    or the JSON data of a file; the solver checks them
    (:meth:`~mjls.model.MjlsModel.terminal_weights`)."""
    if spec == "zero":
        return np.zeros(model.A.shape)
    if spec == "identity":
        return np.tile(np.eye(model.state_dim), (model.mode_count, 1, 1))
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read terminal file {spec}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"terminal file {spec} is not JSON: {exc}") from exc
    return data


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_valid_model(args) -> MjlsModel:
    model = load_model(args.model)
    model.ensure_valid()
    return model


def cmd_solve_finite(args) -> int:
    model = _load_valid_model(args)
    N = _require_horizon(args)
    terminal = _terminal_matrices(args.terminal, model)
    sol = solve_finite(model, terminal, N)
    cost = optimal_cost_finite(sol, model)
    out = _out_dir(args)
    write_riccati_csv(sol, out / "riccati.csv")
    write_json({
        "horizon": N,
        "optimal_cost": cost,
        "mode_count": model.mode_count,
        "state_dim": model.state_dim,
        "input_dim": model.input_dim,
        "gains": sol.K,
        "upsilon_min_eigenvalues": sol.upsilon_min_eig,
    }, out / "gains.json")
    print(f"solvable over {N + 1} stages; optimal cost {cost!r}")
    return 0


def cmd_solve_care(args) -> int:
    model = _load_valid_model(args)
    # The Riccati criterion for stabilizability needs both assumptions.
    model.require_pd_input_weights()
    if not is_exactly_observable(model):
        raise PreconditionFailed(
            "the state weights are not exactly observable")
    sol = solve_care(model, tol=args.tol, max_iter=args.max_iter)
    stable, radius = is_mss(model, sol.policy())
    out = _out_dir(args)
    write_json({
        "converged": True,
        "iterations": sol.iterations,
        "value_iterations": sol.value_iterations,
        "newton_steps": sol.newton_steps,
        "final_increment": sol.final_increment,
        "residual": sol.residual,
        "P": sol.P,
        "gains": sol.K,
        "P_min_eigenvalues": sol.p_min_eig,
        "closed_loop_spectral_radius": radius,
        "closed_loop_mean_square_stable": stable,
        "optimal_cost": float(
            model.initial_distribution @ (sol.P @ model.x0 @ model.x0)),
    }, out / "care.json")
    print(f"converged in {sol.iterations} iterations "
          f"({sol.newton_steps} Newton steps); "
          f"residual {sol.residual!r}; closed-loop radius {radius!r}")
    return 0


def cmd_check(args) -> int:
    model = _load_valid_model(args)
    steps = _require_horizon(args, default=50)
    out = _out_dir(args)
    open_stable, open_radius = is_mss(model)
    report = {
        "open_loop": {"mean_square_stable": open_stable,
                      "spectral_radius": open_radius},
        "exactly_observable": is_exactly_observable(model),
        "closed_loop": None,
        "stabilizable": None,
        "note": "",
    }
    write_moment_csv(propagate_second_moment(model, None, steps),
                     out / "second_moments_open_loop.csv")
    try:
        verdict, note, sol = stabilizability(
            model, report["exactly_observable"], tol=args.tol,
            max_iter=args.max_iter)
    except (PreconditionFailed, ObservabilityViolation) as exc:
        report["note"] = str(exc)
    else:
        report["stabilizable"], report["note"] = verdict, note
        if sol is not None:
            closed_stable, closed_radius = is_mss(model, sol.policy())
            report["closed_loop"] = {"mean_square_stable": closed_stable,
                                     "spectral_radius": closed_radius}
            write_moment_csv(
                propagate_second_moment(model, sol.policy(), steps),
                out / "second_moments_closed_loop.csv")
    write_json(report, out / "check.json")
    print(f"open-loop radius {open_radius!r}; "
          f"observable {report['exactly_observable']}; "
          f"stabilizable {report['stabilizable']}")
    return 0


def cmd_simulate(args) -> int:
    model = _load_valid_model(args)
    N = _require_horizon(args)
    terminal = _terminal_matrices(args.terminal, model)
    sol = solve_finite(model, terminal, N)
    trajectories = simulate_trials(model, sol.policy(), args.trials,
                                   args.seed, N, terminal)
    mean, stderr = cost_statistics([t.total_cost for t in trajectories])
    out = _out_dir(args)
    write_trajectory_csv(trajectories, out / "trajectories.csv", model)
    write_json({
        "trials": args.trials,
        "seed": args.seed,
        "horizon": N,
        "mean_cost": mean,
        "standard_error": stderr,
        "optimal_cost": optimal_cost_finite(sol, model),
    }, out / "cost_stats.json")
    print(f"{args.trials} trials; mean cost {mean!r} "
          f"(standard error {stderr!r})")
    return 0


def cmd_verify(args) -> int:
    model = _load_valid_model(args)
    N = _require_horizon(args)
    terminal = _terminal_matrices(args.terminal, model)
    report = verification_report(model, N, terminal, seed=args.seed)
    out = _out_dir(args)
    write_json(report, out / "verification.json")
    for check in report["checks"]:
        status = "pass" if check["passed"] else "FAIL"
        print(f"{status}  {check['name']}  "
              f"residual={check['residual']:.3e}  "
              f"tolerance={check['tolerance']:.1e}")
    if not report["passed"]:
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
        return 5
    return 0


_HANDLERS = {
    "solve-finite": cmd_solve_finite,
    "solve-care": cmd_solve_care,
    "check": cmd_check,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        try:
            return _HANDLERS[args.command](args)
        except OSError as exc:
            # Reading the model or terminal file raises InvalidInput, so
            # this failed on the output side.
            raise InvalidInput(f"cannot write {exc.filename or args.out}: "
                               f"{exc.strerror or exc}") from exc
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RiccatiBreakdown as exc:
        print(f"riccati breakdown: {exc}", file=sys.stderr)
        return 2
    except NotStabilizable as exc:
        print(f"not stabilizable: {exc}", file=sys.stderr)
        return 3
    except (PreconditionFailed, ObservabilityViolation) as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return 4
    except (DivergedTrajectory, NumericalFailure) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 5
    except TooLarge as exc:
        print(f"enumeration too large: {exc}", file=sys.stderr)
        return 6


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
