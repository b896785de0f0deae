"""Poisson processes of lambda-geodesic hyperplanes in hyperbolic space:
sampling, exact moment integrals, limit laws and fluctuation diagnostics."""

from .errors import DomainError, QuadratureError, UnsupportedDimensionError
from .hyperbolic import (
    LambdaGeometry,
    ModelConfig,
    ball_volume,
    intersection_volume,
    intersection_volume_bound,
    lambda_geometry,
    rho,
    rho_bounds,
)
from .sampling import (
    ProcessSample,
    intensity_density,
    inverse_cdf,
    mean_count,
    read_sample_dump,
    sample_process,
    write_sample_dump,
)
from .functionals import (
    SurfaceResult,
    berry_esseen_indicator,
    cumulant_integral,
    expected_surface_area,
    limit_profile,
    normalized_cumulant_limit,
    normalized_profile,
    simulate_surface,
    total_surface_area,
    variance,
    variance_order,
)
from .limitlaw import (
    LimitLawSpec,
    cdf_via_inversion,
    characteristic_function,
    levy_density,
    limit_cumulant,
    limit_law_spec,
    sample_limit,
)
from .stats import (
    k_statistics,
    ks_distance,
    ks_two_sample,
    regime_report,
    wasserstein1,
)
from .render import render_disk

__version__ = "0.1.0"
