"""Kernel-generalized rank correlation coefficients.

A family of dependence measures built from a bivariate variation kernel h
on [0,1]^2 and a monotone map F of the response, covering the plugin,
rank-based and simplified coefficients, Chatterjee's rank correlation as a
special case, null-variance machinery for independence testing, and a
seeded simulation harness.
"""

from . import cdf, errors, estimator, inference, kernels, simulate
from .cdf import *
from .errors import *
from .estimator import *
from .inference import *
from .kernels import *
from .simulate import *

__version__ = "0.1.0"

__all__ = [*cdf.__all__, *errors.__all__, *estimator.__all__, *inference.__all__,
           *kernels.__all__, *simulate.__all__]
