"""The three workloads: which models each one generates and which CLI jobs
it runs on them, in a fixed order that makes up one round.

``design``   solve-finite / solve-care / check on the ROADMAP size ladder
             (L, n) = (2,2) x8, (8,4) x4, (20,6) x2, (50,10) x1.
``marginal`` solve-care / check on tiny models whose best closed-loop
             radius climbs from 0.8 towards 1, plus one fixed edge model.
``rollouts`` simulate / verify on the package's two-mode example and four
             small random models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import models
import reference as ref

# (L, n) -> (models per round, solve-finite horizon)
DESIGN_LADDER = {(2, 2): (8, 200), (8, 4): (4, 100), (20, 6): (2, 50),
                 (50, 10): (1, 40)}
# solve-care at (50, 10) repeats the Gramian and value iteration that check
# already runs there, at 3-5 s a job; it is left out to keep rounds short.
DESIGN_SKIP = {"solve-care/d50x10-0"}
SCALAR_RADII = (0.8, 0.9, 0.95, 0.98, 0.99, 0.994)
MARGINAL_RANDOM = 13
# Reference value-iteration count above which a random marginal model is
# drawn again: the program's budget is 10^4 iterations.
MARGINAL_MAX_ITER = 4000
EDGE_RADIUS = 0.999
EDGE_FAULT = ("riccati.solve_care exhausts its 10^4-iteration budget and "
              "raises NotStabilizable('budget'); solve-care exits 3 and "
              "check reports stabilizable: false")
# (L, n) of the random rollout models; the enumeration size of verify
# depends on L, so it is fixed rather than drawn.
ROLLOUT_SHAPES = ((2, 2), (2, 1), (3, 1), (3, 2))
SIM_HORIZON = 20
VERIFY_SEEDS = 7


@dataclass(frozen=True)
class Job:
    name: str
    command: str
    model: str
    args: tuple = ()
    known_fault: str | None = None


@dataclass(eq=False)
class Workload:
    models: dict
    jobs: list


def _rng(seed, *tag):
    return np.random.default_rng([seed, *tag])


def design(seed: int) -> Workload:
    mods, jobs = {}, []
    for (L, n), (count, horizon) in DESIGN_LADDER.items():
        for c in range(count):
            key = f"d{L}x{n}-{c}"
            mods[key] = models.design_model(_rng(seed, 1, L, n, c), L, n)
            jobs += [Job(f"solve-finite/{key}", "solve-finite", key,
                         ("--horizon", str(horizon))),
                     Job(f"solve-care/{key}", "solve-care", key),
                     Job(f"check/{key}", "check", key)]
    jobs = [job for job in jobs if job.name not in DESIGN_SKIP]
    return Workload(mods, jobs)


def _near_one(rng, radius):
    """Jitter ``radius`` by up to 2 % of its distance to 1, downwards.

    Value iteration takes about 18 / (1 - radius) steps, so a wider jitter
    would make the amount of work depend on the seed.
    """
    return 1.0 - (1.0 - radius) * rng.uniform(1.0, 1.02)


def marginal(seed: int) -> Workload:
    mods = {}
    rng = _rng(seed, 2)
    for r in SCALAR_RADII:
        mods[f"scalar-{r}"] = models.scalar_model(_near_one(rng, r))
    # Best radii on a geometric ladder from 0.8 to 0.985.
    ladder = 1.0 - 0.2 * 0.075 ** (np.arange(MARGINAL_RANDOM)
                                   / (MARGINAL_RANDOM - 1))
    for c, r in enumerate(ladder):
        rng = _rng(seed, 3, c)
        while True:
            # Shapes cycle through L = 2..4 and n = 1..2.
            model = models.marginal_model(rng, 2 + c % 3, 1 + c // 3 % 2,
                                          _near_one(rng, r))
            if ref.care(model, tol=1e-10)[2] <= MARGINAL_MAX_ITER:
                break
        mods[f"random-{c}"] = model
    # Inputs of the edge model do not depend on the seed: its jobs fail on
    # every run until the budget fault is fixed.
    mods["edge"] = models.scalar_model(EDGE_RADIUS)
    jobs = []
    for key in mods:
        fault = EDGE_FAULT if key == "edge" else None
        jobs += [Job(f"solve-care/{key}", "solve-care", key, (), fault),
                 Job(f"check/{key}", "check", key, (), fault)]
    return Workload(mods, jobs)


def rollouts(seed: int) -> Workload:
    mods = {"benchmark": models.two_mode_benchmark()}
    for c, (L, n) in enumerate(ROLLOUT_SHAPES):
        mods[f"random-{c}"] = models.rollout_model(_rng(seed, 4, c), L, n)
    common = ("--terminal", "identity")
    sim = ("--horizon", str(SIM_HORIZON), "--seed", str(seed % 2 ** 31))
    jobs = [Job("simulate/benchmark", "simulate", "benchmark",
                sim + ("--trials", "2000") + common),
            Job("simulate/random-0", "simulate", "random-0",
                sim + ("--trials", "1000") + common)]
    for key, model in mods.items():
        # Smallest horizon with at least 10^3 enumerated paths.
        N = int(np.ceil(np.log(1000) / np.log(model.L))) - 2
        jobs += [Job(f"verify/{key}-s{s}", "verify", key,
                     ("--horizon", str(N), "--seed", str(s)) + common)
                 for s in range(VERIFY_SEEDS)]
    # Larger enumerations: 2^11 and 2^12 paths.
    jobs += [Job(f"verify/{key}-N{N}", "verify", key,
                 ("--horizon", str(N)) + common)
             for key, N in (("random-0", 9), ("random-1", 9),
                            ("benchmark", 10))]
    return Workload(mods, jobs)


WORKLOADS = {"design": design, "marginal": marginal, "rollouts": rollouts}
