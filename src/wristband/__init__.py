"""Wristband Gaussianization losses and their evaluation protocol.

The package maps point batches onto the product of the unit sphere and
the unit interval, scores uniformity there with reflected-kernel
repulsion (an exact pairwise path and a fast spectral path), calibrates
the components against a Monte-Carlo Gaussian null, optimizes point
clouds directly, and evaluates results with an exact-transport
barycentric z-score.
"""

__version__ = "0.1.0"

from .accelerators import (
    MomentSummary,
    moment_summary,
    moment_w2_loss,
    radial_w2_loss,
    symmetric_eigen,
)
from .baselines import mmd_loss, sliced_w2_loss
from .calibration import CalibrationTable, calibrate_null, standardized_wristband_loss
from .errors import (
    ContractViolation,
    FormatError,
    OptimizationFailure,
    WristbandError,
)
from .evaluation import (
    Assignment,
    barycentric_reference,
    barycentric_z_score,
    hungarian_assign,
    w2_exact,
)
from .generators import (
    RngStream,
    gaussian_batch,
    parity_batch,
    rac_batch,
    whiten,
    x_batch,
)
from .io import read_batch, write_batch
from .optimize import AdamState, OptimizeConfig, adam_step, optimize_point_cloud
from .pairwise import (
    ALPHA_UNIFORM_STD,
    KernelConfig,
    LossValueGrad,
    angular_kernel,
    pairwise_repulsion_loss,
    radial_image_kernel,
    radial_neumann_kernel,
)
from .parity import finite_difference_check, gradient_cosine, parity_suite, timing_sweep
from .specfun import chi2_cdf, chi2_pdf, log_gamma, scaled_bessel_i
from .spectral import (
    SpectralCoeffs,
    SpectralSummary,
    angular_eigenvalues,
    radial_cosine_coeffs,
    spectral_loss,
    spectral_summary,
)
from .wristband_map import (
    NORM_FLOOR,
    WristbandBatch,
    wristband_backward,
    wristband_forward,
)
