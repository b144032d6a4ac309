"""Privacy-preserving calibration for the two-paper, two-reviewer review model.

The package computes the exact tradeoff between conference decision
error and the deanonymization error of a MAP adversary, constructs the
Pareto-optimal randomized calibration policies, verifies every closed
form by seeded simulation, and reproduces the exogenous calibration
benefit study.
"""

__version__ = "0.1.0"

from .model import (
    Assignment,
    ConfigurationError,
    Decision,
    DegenerateInstanceError,
    Instance,
    ModeError,
    PhiPair,
    Population,
    QualityPosterior,
    ReviewerProfile,
    ScorePair,
    phi_pair,
    quality_posterior,
)
from .frontier import (
    ErrorPair,
    FrontierSegment,
    Infeasible,
    SegmentKind,
    curve_vertices,
    frontier,
    instance_geometry,
    max_adversary_error_curve,
)
from .mechanism import (
    AccuracyError,
    AveragePolicy,
    Policy,
    QuadratureSettings,
    alg1_policy,
    alg2_policy,
    alg3_policy,
    zeta_eta,
)
from .adversary import (
    Guess,
    GuessKind,
    ScenarioTable,
    map_guess,
    per_instance_errors,
    rr_epsilon,
    rr_gamma,
    scenario_table,
)
from .simlab import (
    Alg1Rule,
    Alg2Rule,
    SimResult,
    StudyConfig,
    StudyResult,
    TruthfulRule,
    kendall_tau_distance,
    messy_middle_error,
    run_calibration_study,
    simulate_average,
    simulate_instance,
)
