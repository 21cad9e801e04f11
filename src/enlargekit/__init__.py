"""enlargekit: simulation and classification toolkit for initially
enlarged filtrations.

Three pillars:

* Monte Carlo: deterministic path simulation, information-drift
  compensators, and statistically certified martingale batteries for the
  compensated processes.
* Classification: a singularity-aware truncation ladder deciding
  whether a stochastic integral survives the enlargement by a terminal
  value.
* Exact verification: the product-space/decoupling-measure machinery
  reproduced on finite probability spaces with rational arithmetic and
  zero tolerances.
"""

from .grid import GridError, TimeGrid, build_grid
from .paths import (
    JumpSampler,
    PathEnsemble,
    SeedSpec,
    constant_jumps,
    normal_jumps,
    parse_jump_sampler,
    rademacher_jumps,
    simulate_brownian,
    simulate_compound_poisson,
)
from .integrands import (
    DeterministicIntegrand,
    InformationHorizonError,
    constant,
    indicator,
    information_drift,
    jeulin_yor,
    linear_ramp,
    log_density_identity_residual,
    parse_integrand,
    residual_variance,
    running_mean,
    tabulated,
)
from .classifier import (
    ClassificationVerdict,
    LadderResult,
    classify,
    jeulin_yor_functional,
    l2_norm,
)
from .enlargement import (
    DecomposedProcess,
    EnlargementSpec,
    NonIntegrableError,
    RefusedNonSemimartingaleError,
    compensate_brownian,
    compensate_martingale,
    drift_compensator,
    integrate_under_enlargement,
    levy_bridge_compensator,
    realize_X,
    symmetry_identity_check,
)
from .mgtests import (
    BasisFunction,
    MartingaleTestReport,
    default_basis,
    increment_regression_test,
    levy_characterization_suite,
    non_integrator_demo,
)
from . import finitelab

__version__ = "0.1.0"
