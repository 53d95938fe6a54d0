"""Numerical verification lab for Gaussian-semigroup tail bounds.

The package evaluates the Ornstein-Uhlenbeck and heat semigroups of density
families relative to the standard Gaussian measure, simulates the drift
process whose time-1 law is f dgamma, and checks every quantitative
inequality of the construction at desk scale: tail envelopes, entropy
identities, Girsanov normalizations, deviation bounds, and the perturbation
estimates behind them.
"""

from .errors import (
    ClosedFormUnavailableError,
    ConfigError,
    DimensionMismatchError,
    NonFiniteValueError,
    OutailError,
    ResolutionError,
)
from .foellmer import (
    BatchStats,
    DriftField,
    PathConfig,
    Trajectory,
    perturbation_arrays,
    simulate_batch,
    simulate_path,
)
from .measures import (
    DensityModel,
    MixtureDensity,
    SinePerturbationDensity,
    TiltDensity,
    beta_probe,
    constant_density,
    validate_normalization,
)
from .quadrature import QuadratureRule
from .reports import BoundReport, TailCurve
from .semigroup import (
    hypercontractivity_check,
    nelson_exponent,
    ou_apply_mc,
    ou_log,
    ou_log_hessian_min_eig,
)
from .verify import (
    default_families,
    drift_energy_report,
    entropy_identity_report,
    exp_moment_report,
    deviation_margin_report,
    girsanov_reports,
    canonical_delta,
    relative_entropy_quadrature,
    sharpness_report,
    sharpness_values,
    shell_shift_report,
    simulate_family_batch,
    tail_curve,
    tail_probability,
    tv_reports,
    z_suite_reports,
)

__version__ = "0.1.0"
