"""The per-layer metrics: which ``mjls`` function each is read from, and how.

A metric is one of
  ``ms``        inclusive milliseconds in the function per round,
  ``calls``     calls per round,
  ``self_us``   mean self time per call in microseconds,
  ``self_ms``   self milliseconds per round (the CLI's own share of a job),
  ``sum:<c>``   counter ``c`` summed per round,
  ``max:<c>``   largest counter ``c`` over all calls, in millions,
  ``rate:<c>``  counter ``c`` summed over inclusive seconds.
A function the package no longer has is reported with value ``None``.
"""

from __future__ import annotations

LAYERS = ("model", "riccati", "stability", "sim", "oracle", "cli")


def _care_iterations(args, result, exc):
    source = result if exc is None else exc
    iterations = getattr(source, "iterations", None)
    return None if iterations is None else {"iterations": iterations}


COUNTERS = {
    "riccati.solve_care": _care_iterations,
    "stability.closed_loop_operator":
        lambda args, result, exc: None if exc else {"bytes": result.nbytes},
    "sim.monte_carlo_cost":
        lambda args, result, exc: {"trial_steps":
                                   args["trials"] * (args["N"] + 1)},
    "oracle.enumerate_paths":
        lambda args, result, exc: None if exc else {"paths": result.count},
}

# (metric, unit, span, kind)
PER_LAYER = [
    ("model.load_model.ms", "ms", "model.load_model", "ms"),
    ("model.validate.ms", "ms", "model.validate", "ms"),
    ("riccati.cdre_step.calls", "count", "riccati.cdre_step", "calls"),
    ("riccati.cdre_step.us", "us", "riccati.cdre_step", "self_us"),
    ("riccati.solve_finite.ms", "ms", "riccati.solve_finite", "ms"),
    ("riccati.solve_care.ms", "ms", "riccati.solve_care", "ms"),
    ("riccati.solve_care.iterations", "count", "riccati.solve_care",
     "sum:iterations"),
    ("riccati.write_riccati_csv.ms", "ms", "riccati.write_riccati_csv", "ms"),
    ("stability.is_exactly_observable.ms", "ms",
     "stability.is_exactly_observable", "ms"),
    ("stability.spectral_radius.ms", "ms", "stability.spectral_radius", "ms"),
    ("stability.propagate_second_moment.ms", "ms",
     "stability.propagate_second_moment", "ms"),
    ("stability.write_moment_csv.ms", "ms", "stability.write_moment_csv",
     "ms"),
    ("stability.closed_loop_operator.ms", "ms",
     "stability.closed_loop_operator", "ms"),
    ("stability.closed_loop_operator.mb", "MB",
     "stability.closed_loop_operator", "max:bytes"),
    ("sim.monte_carlo_cost.trial_steps_per_s", "1/s", "sim.monte_carlo_cost",
     "rate:trial_steps"),
    ("sim.simulate_closed_loop.calls", "count", "sim.simulate_closed_loop",
     "calls"),
    ("sim.simulate_closed_loop.ms", "ms", "sim.simulate_closed_loop", "ms"),
    ("sim.sample_markov_chain.ms", "ms", "sim.sample_markov_chain", "ms"),
    ("sim.write_trajectory_csv.ms", "ms", "sim.write_trajectory_csv", "ms"),
    ("oracle.enumerate_paths.paths_per_s", "1/s", "oracle.enumerate_paths",
     "rate:paths"),
    ("oracle.verification_report.ms", "ms", "oracle.verification_report",
     "ms"),
    ("oracle.costate_from_definition.ms", "ms",
     "oracle.costate_from_definition", "ms"),
    ("oracle.stationarity_residual.ms", "ms", "oracle.stationarity_residual",
     "ms"),
    ("oracle.exact_cost.calls", "count", "oracle.exact_cost", "calls"),
    ("cli.self_ms", "ms", "cli.main", "self_ms"),
]


def per_layer_metrics(stats, wrapped, rounds: int) -> dict:
    """Turn a :meth:`Tracer.summary` over ``rounds`` rounds into metrics."""
    out = {}
    for metric, unit, span, kind in PER_LAYER:
        if span not in wrapped:
            out[metric] = {"value": None, "unit": unit}
            continue
        entry = stats.get(span)
        calls = entry["calls"] if entry else 0
        if kind == "ms":
            value = 1e3 * entry["inclusive_s"] / rounds if calls else 0.0
        elif kind == "calls":
            value = calls / rounds
        elif kind == "self_us":
            value = 1e6 * entry["self_s"] / calls if calls else 0.0
        elif kind == "self_ms":
            value = 1e3 * entry["self_s"] / rounds if calls else 0.0
        else:
            how, counter = kind.split(":")
            if not calls:
                value = 0.0
            elif how == "sum":
                value = entry["sum"][counter] / rounds
            elif how == "max":
                value = entry["max"][counter] / 1e6
            else:
                value = entry["sum"][counter] / entry["inclusive_s"]
        out[metric] = {"value": value, "unit": unit}
    return out
