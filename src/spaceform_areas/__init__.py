"""Stochastic-area and winding laws of Brownian motion on complex
projective and complex hyperbolic spaces: spectral densities, SDE
samplers, characteristic-function evaluators, and heat-kernel quadrature.
"""

__version__ = "0.1.0"

from .densities import (
    DensityValue,
    SeriesControl,
    SeriesNotConvergedError,
    TimeTooSmallError,
    berger_kernel,
    berger_limit_kernel,
    spherical_density,
    stationary_spherical_density,
)
from .hyperbolic_kernels import (
    JointDensityValue,
    QuadratureControl,
    QuadratureFailureError,
    WindowExhaustedError,
    ch1_area_cf,
    ch1_joint_density,
    ch1_loop_area_density,
    ch1_loop_slice,
    chn_joint_density,
)
from .analytics import (
    cf_conditional_cp,
    cf_marginal_ch,
    cf_marginal_cp,
    levy_cf,
    winding_limit_cf,
)
from .simulate import (
    AreaSamples,
    Geometry,
    RadialSamples,
    Scheme,
    SimConfig,
    WindingSamples,
    girsanov_cf_estimator,
    sample_area,
    sample_planar_area,
    sample_radial_hyperbolic,
    sample_radial_spherical,
    sample_winding,
)
from .specfun import (
    CauchyLaw,
    JacobiParams,
    NormalLaw,
    Regime,
    jacobi_poly,
    jacobi_poly_at_one,
    log_gamma_ratio,
    reference_cf,
)
from .stats import (
    CfEstimate,
    HistogramBin,
    SampleSet,
    empirical_cf,
    histogram_density,
    ks_statistic,
)
