"""Numerical toolkit for Finsleroid geometry.

Evaluate the anisotropic metric function and its full tensor stack, solve
geodesics in closed form, compute angles, scalar products and two-vector
metric tensors, and reproduce the standard profile curves.
"""

from .core import Param, ScalarForms, Space, fmf, make_param, scalar_forms
from .cospace import co_metric, co_scalar_forms, fhf, from_costate, to_costate
from .errors import (AntipodalSingular, AxisSingular, BadDirection, BadFrame,
                     ChartOutOfRange, CollinearVectors, ConeLimit, DegenerateVector,
                     DegenerateW, FinsleroidError, NegativeRadicand,
                     NotUnitSpeed, OutOfRange, SingularXi, VertexSingular)
from .geodesic import (GeodesicBoundary, connect, difference_gradients,
                       endpoint_velocities, finsleroid_geodesic,
                       qe_geodesic_at, qe_geodesic_initial, qe_velocity)
from .angle import (AnglePair, axis_angle, equator_angle, fins_angle,
                    parallelogram_diff, parallelogram_exact,
                    parallelogram_residuals, parallelogram_sum,
                    perpendicular_companion, qe_angle)
from .quasieuclid import (NMetric, QEFrames, conformal_check,
                          conformal_factor, mnorm, mu, mu_jacobian, n_metric,
                          qe_christoffel, qe_curvature, qe_frames, sigma,
                          sigma_jacobian, snorm, sphere_curvature, unit_l)
from .shape import (ShapeReport, indicatrix_point, indicatrix_profile,
                    profile_slopes, shape_report)
from .tensors import (CartanTensors, CurvatureS, angular, cartan,
                      curvature_S, grad_covector, metric, metric_det,
                      metric_inverse)
from .twovector import (TwoVectorTensor, covector_pair, g2,
                        invert_covector_pair, n2, n2_frame, scalar_grad)
from .plane import (TrigTriple, gen_trig, indicatrix_length, landsberg_check,
                    rund_residual, trig_derivatives)

__version__ = "0.1.0"
