"""Derivative sampling and reconstruction in shift-invariant spline spaces.

Configuration kappa = (Q_m, a, rho) fixes the spline order, the sample-set
shift, and the number of derivative channels.  The package certifies when
derivative sampling on (a + rho Z)/W determines every element of the spline
space, builds the reconstruction kernels, applies the sampling operator to
arbitrary signals, and measures approximation rates against averaged moduli
of smoothness.

The public names are those of each library module's `__all__`.
"""

from . import bspline, kernel, laurent, sampler, signals, smoothness, symbol
from .bspline import *
from .kernel import *
from .laurent import *
from .sampler import *
from .signals import *
from .smoothness import *
from .symbol import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (bspline, kernel, laurent, sampler, signals, smoothness, symbol)
    for name in module.__all__
]
