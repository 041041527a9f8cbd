"""Stochastic-area and winding laws of Brownian motion on complex
projective and complex hyperbolic spaces: spectral densities, SDE
samplers, characteristic-function evaluators, and heat-kernel quadrature.
"""

__version__ = "0.1.0"

from .densities import (
    DensityValue,
    SeriesNotConvergedError,
    TimeTooSmallError,
    berger_kernel,
    berger_limit_kernel,
    spherical_density,
    stationary_spherical_density,
)
from .hyperbolic_kernels import (
    JointDensityValue,
    QuadratureFailureError,
    WindowExhaustedError,
    ch1_joint_density,
    ch1_loop_slice,
    ch_area_cf,
    chn_joint_density,
)
from .analytics import (
    cf_conditional_cp,
    cf_marginal_cp,
    levy_cf,
    winding_limit_cf,
)
from .simulate import (
    AreaSamples,
    Geometry,
    RadialSamples,
    SimConfig,
    WindingSamples,
    girsanov_cf_estimator,
    sample_area,
    sample_planar_area,
    sample_radial_hyperbolic,
    sample_winding,
)
from .specfun import (
    JacobiParams,
    jacobi_poly,
)
from .stats import (
    CfEstimate,
    SampleSet,
    empirical_cf,
    ks_statistic,
)
