"""LQR and mean-square stabilization for discrete-time Markov jump linear
systems: coupled Riccati recursions, lifted second-moment stability tests,
Monte Carlo simulation, and brute-force verification oracles."""

from .errors import (
    DivergedTrajectory,
    InvalidInput,
    InvalidState,
    MjlsError,
    NotStabilizable,
    NumericalFailure,
    ObservabilityViolation,
    PreconditionFailed,
    RiccatiBreakdown,
    TooLarge,
)
from .model import (
    MjlsModel,
    Policy,
    ValidationCheck,
    ValidationReport,
    load_model,
    save_model,
    validate,
)
from .oracle import (
    CostateSequence,
    PathEnsemble,
    costate_from_definition,
    costate_relation_residual,
    decomposition_check,
    enumerate_paths,
    exact_cost,
    perturbation_optimality,
    stationarity_residual,
    verification_report,
)
from .riccati import (
    CareSolution,
    FiniteHorizonSolution,
    care_residual,
    cdre_step,
    optimal_cost_finite,
    solve_care,
    solve_finite,
    write_riccati_csv,
)
from .sim import (
    Trajectory,
    monte_carlo_cost,
    rollout,
    sample_markov_chain,
    simulate_closed_loop,
    simulate_trials,
    write_trajectory_csv,
)
from .stability import (
    SecondMomentChain,
    closed_loop_matrices,
    closed_loop_operator,
    is_exactly_observable,
    is_mss,
    is_stabilizable,
    propagate_second_moment,
    spectral_radius,
    stabilizability,
    write_moment_csv,
)

__version__ = "0.1.0"
