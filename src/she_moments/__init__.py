"""Moment kernels of the multiplicative stochastic heat equation, the joint
Brownian local-time law, and stochastic cross-verifiers."""

from .bounds import p_moment_upper_bound, second_moment_lower_bound
from .errors import (ConfigError, DivergenceError, DomainError,
                     InadmissibleMeasureError, KernelOverflowError, PoleError,
                     QuadratureError, SheMomentsError)
from .gaussian import (exp_phi, gaussian_product_moment_bound,
                       gaussian_product_split, heat_kernel, normal_cdf)
from .kernels import (KernelParams, MomentBoundParams, TwoPointQuery,
                      covariance_kernel, mgf_local_time, second_moment_kernel,
                      second_moment_time_factor, two_point_kernel,
                      two_point_kernel_centered, two_point_lebesgue,
                      two_point_time_factor)
from .local_time import JointLocalTimeLaw, first_passage_convolution
from .measures import (DensityMeasure, DiracAtoms, GrowthCertificate,
                       InitialMeasure, LebesgueScaled, MeasureSum,
                       check_membership, gaussian_density, mean_field,
                       parse_measure, second_moment, two_point)
from .simulate import (Estimate, McConfig, RhoSpec, SpdeGrid, fk_two_point,
                       fk_two_point_occupation, spde_estimate_two_point,
                       spde_lattice_second_moment, spde_solve_path)
from .transforms import (TransformCase, conv_heat_offset_factor,
                         conv_heat_time_factor, inverse_transform_f1,
                         laplace_closed, laplace_numeric)
from .verify import run_suite

__version__ = "0.6.0"
