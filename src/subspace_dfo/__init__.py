"""Random-subspace derivative-free optimization and its expected-decrease analysis.

The package bundles three layers:

* an optimizer that iterates direct-search or linear-model steps inside
  uniformly random low-dimensional subspaces (:mod:`subspace_dfo.optimizer`,
  :mod:`subspace_dfo.rng`);
* closed-form, one-dimensional quadrature, and asymptotic evaluation of the
  expected per-iteration and per-evaluation objective decrease as a function
  of the subspace dimension p and the ambient dimension d, exact for every p
  and returned as plain floats; ``Variant.named("ds")`` and
  ``Variant.named("mb")`` give each variant's ``exact``, ``per_work`` and
  ``asymptotic`` values (:mod:`subspace_dfo.formulas`,
  :mod:`subspace_dfo.specfun`);
* seeded Monte Carlo estimation of the same quantities, the independent
  check of every formula
  (:mod:`subspace_dfo.montecarlo`, :mod:`subspace_dfo.experiments`).
"""

__version__ = "0.1.0"

from .errors import (
    DomainError,
    InvalidDimensionError,
    NonFiniteObjectiveError,
)
from .rng import (
    RngStream,
    sample_stiefel,
    sample_unit_vector,
    split_stream,
)
from .specfun import gamma_half_ratio, log_gamma
from .formulas import (
    VARIANTS,
    Variant,
    expected_decrease_ds,
    expected_decrease_mb,
    per_evaluation_opportunistic,
    polling_factor,
)
from .optimizer import (
    DriverConfig,
    DriverTrace,
    ObjectiveHandle,
    TraceRecord,
    ds_iteration,
    mb_iteration,
    run_driver,
)
from .montecarlo import (
    Estimate,
    estimate,
    estimates,
    paired_ratio_gap,
    replicate_decreases,
)
from .experiments import (
    Check,
    ExperimentSpec,
    GateResult,
    ResultRow,
    default_figure_spec,
    make_objective,
    run_named_figure,
    run_optimizer_experiment,
    run_parallel_sweep,
    run_verify,
)

__all__ = [
    "__version__",
    "DomainError",
    "InvalidDimensionError",
    "NonFiniteObjectiveError",
    "RngStream",
    "sample_stiefel",
    "sample_unit_vector",
    "split_stream",
    "gamma_half_ratio",
    "log_gamma",
    "VARIANTS",
    "Variant",
    "expected_decrease_ds",
    "expected_decrease_mb",
    "per_evaluation_opportunistic",
    "polling_factor",
    "DriverConfig",
    "DriverTrace",
    "ObjectiveHandle",
    "TraceRecord",
    "ds_iteration",
    "mb_iteration",
    "run_driver",
    "Estimate",
    "estimate",
    "estimates",
    "paired_ratio_gap",
    "replicate_decreases",
    "Check",
    "ExperimentSpec",
    "GateResult",
    "ResultRow",
    "default_figure_spec",
    "make_objective",
    "run_named_figure",
    "run_optimizer_experiment",
    "run_parallel_sweep",
    "run_verify",
]
