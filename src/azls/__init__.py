"""AZ algorithm toolkit: least squares for ill-conditioned rectangular
systems given a complementary operator Z with A - A Z* A numerically low
rank, plus frame-approximation problem builders and experiment tooling."""

from .azcore import (AzProblem, WeightedAzProblem, az_solve, az_weighted_solve,
                     default_config)
from .operators import LinearOperator, az_step1_operator, from_dense, materialize
from .solvers import (SolveReport, SolverConfig, direct_lsq,
                      randomized_tqr_solve, randomized_tsvd_solve, tqr_solve,
                      tsvd_solve)

__all__ = [
    "AzProblem", "WeightedAzProblem", "az_solve", "az_weighted_solve",
    "default_config",
    "LinearOperator", "az_step1_operator", "from_dense", "materialize",
    "SolveReport", "SolverConfig", "direct_lsq", "randomized_tqr_solve",
    "randomized_tsvd_solve", "tqr_solve", "tsvd_solve",
]

__version__ = "0.1.0"
