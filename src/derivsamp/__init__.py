"""Derivative sampling and reconstruction in shift-invariant spline spaces.

Configuration kappa = (Q_m, a, rho) fixes the spline order, the sample-set
shift, and the number of derivative channels.  The package certifies when
derivative sampling on (a + rho Z)/W determines every element of the spline
space, builds the reconstruction kernels, applies the sampling operator to
arbitrary signals, and measures approximation rates against averaged moduli
of smoothness.
"""

from .bspline import (
    bspline_series,
    fourier_q_derivs,
    krein_favard,
    riesz_lower_bound,
)
from .kernel import (
    KernelTable,
    inv_symbol_coeffs,
    moment_check_fourier,
    reproducing_order,
    theta_eval,
    theta_support,
)
from .laurent import CircleCertificate, LaurentPoly, circle_values, laurent_det, roots_unit_circle
from .sampler import (
    BoundsReport,
    SampleGrid,
    SampleNodeError,
    SplineElement,
    apply_sw,
    frame_bounds,
    grid_for_window,
    required_l_range,
    sw_spline_coeffs,
    take_samples,
    verify_sampling_inequality,
)
from .signals import SignalSpec, catalog, channel, get_signal
from .smoothness import (
    TauEstimate,
    fit_order,
    tau_modulus,
)
from .symbol import (
    CisReport,
    Kappa,
    NotCISError,
    SymbolMatrix,
    build_symbol,
    check_cis,
    predicted_cis_shift,
    scan_assumption1,
    table_polynomial,
)

__version__ = "0.1.0"

__all__ = [
    "bspline_series",
    "fourier_q_derivs",
    "krein_favard",
    "riesz_lower_bound",
    "LaurentPoly",
    "CircleCertificate",
    "laurent_det",
    "circle_values",
    "roots_unit_circle",
    "Kappa",
    "SymbolMatrix",
    "CisReport",
    "NotCISError",
    "build_symbol",
    "check_cis",
    "table_polynomial",
    "predicted_cis_shift",
    "scan_assumption1",
    "KernelTable",
    "inv_symbol_coeffs",
    "theta_eval",
    "theta_support",
    "reproducing_order",
    "moment_check_fourier",
    "SplineElement",
    "SampleGrid",
    "SampleNodeError",
    "BoundsReport",
    "required_l_range",
    "grid_for_window",
    "take_samples",
    "sw_spline_coeffs",
    "apply_sw",
    "frame_bounds",
    "verify_sampling_inequality",
    "SignalSpec",
    "catalog",
    "channel",
    "get_signal",
    "TauEstimate",
    "tau_modulus",
    "fit_order",
]
