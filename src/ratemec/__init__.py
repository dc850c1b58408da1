"""Maximum-information couplings of binary marginals under rate and
classification budgets: closed-form solvers, brute-force oracles, and a
Monte Carlo validator."""

from .bernoulli_rate import (
    BINARY_MAPS,
    CASE_MARGINAL_BOUND,
    CASE_RATE_BOUND,
    MapMixture,
    RateProblem,
    SolverResult,
    saturation_rate,
    solve_mecbr,
)
from .bernoulli_rate_class import (
    DerivedLabelParams,
    RateClassProblem,
    feasibility,
    label_params,
    solve_mecbrc,
)
from .errors import (
    DimensionCapError,
    DomainError,
    InfeasibleError,
    MonotonicityError,
    OracleMismatchError,
    RatemecError,
)
from .generic_oracle import (
    DEFAULT_MAP_CAP,
    LinearPolytope,
    MapTable,
    build_polytope,
    coupling_oracle_theta,
    enumerate_maps,
    frechet_interval,
    solve_vertex,
)
from .mc_sim import SimConfig, SimReport, simulate, verify_constraints
from .prob_core import (
    BitsValue,
    JointPmf,
    Pmf,
    binary_entropy,
    conditional_entropy,
    entropy,
    mutual_information,
)

__version__ = "0.1.0"

__all__ = [
    "BINARY_MAPS",
    "BitsValue",
    "CASE_MARGINAL_BOUND",
    "CASE_RATE_BOUND",
    "DEFAULT_MAP_CAP",
    "DerivedLabelParams",
    "DimensionCapError",
    "DomainError",
    "InfeasibleError",
    "JointPmf",
    "LinearPolytope",
    "MapMixture",
    "MapTable",
    "MonotonicityError",
    "OracleMismatchError",
    "Pmf",
    "RateClassProblem",
    "RateProblem",
    "RatemecError",
    "SimConfig",
    "SimReport",
    "SolverResult",
    "binary_entropy",
    "build_polytope",
    "conditional_entropy",
    "coupling_oracle_theta",
    "entropy",
    "enumerate_maps",
    "feasibility",
    "frechet_interval",
    "label_params",
    "mutual_information",
    "saturation_rate",
    "simulate",
    "solve_mecbr",
    "solve_mecbrc",
    "solve_vertex",
    "verify_constraints",
]
