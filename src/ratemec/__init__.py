"""Maximum-information couplings of binary marginals under rate and
classification budgets: closed-form solvers, brute-force oracles, and a
Monte Carlo validator.

Public names resolve on first use (PEP 562), so ``import ratemec`` and
the closed forms load no numpy; the oracles and the sampler do.
"""

import importlib

__version__ = "0.1.0"

_MODULES = {
    "bernoulli_rate": (
        "CASE_MARGINAL_BOUND", "CASE_RATE_BOUND", "MapMixture", "RateProblem",
        "SolverResult", "saturation_rate", "solve_mecbr",
    ),
    "bernoulli_rate_class": (
        "DerivedLabelParams", "RateClassProblem", "feasibility", "label_params",
        "solve_mecbrc",
    ),
    "errors": (
        "DimensionCapError", "DomainError", "InfeasibleError", "MonotonicityError",
        "OracleMismatchError", "RatemecError",
    ),
    "generic_oracle": (
        "BINARY_MAPS", "DEFAULT_MAP_CAP", "LinearPolytope", "MapTable",
        "build_polytope", "coupling_oracle_theta", "enumerate_maps",
        "frechet_interval", "solve_vertex",
    ),
    "mc_sim": ("SimConfig", "SimReport", "simulate", "verify_constraints"),
    "prob_core": (
        "BitsValue", "JointPmf", "Pmf", "binary_entropy", "conditional_entropy",
        "entropy", "mutual_information",
    ),
}

#: Public name -> the submodule that defines it.
_ORIGIN = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    elif name in _MODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
