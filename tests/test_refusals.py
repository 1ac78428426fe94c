"""Every entry point that takes a count, a seed or a real refuses a bad one with a typed error.

A float, a boolean, a string or None where an integer belongs, and a
boolean, a string, None, NaN or an integer beyond the range of a double
where a real belongs, must raise the named `WristbandError` subclass: never
truncate (a seed of 1.5 drawing seed 1's batches), never fail later as a
bare TypeError or OverflowError.  The other refusals of the library are
tabulated with the words their messages must contain.
"""

from __future__ import annotations

import functools
import re
from dataclasses import replace

import numpy as np
import pytest

from wristband import calibration, evaluation
from wristband.baselines import sample_projections, sliced_w2_loss
from wristband.calibration import calibrate_null
from wristband.errors import ContractViolation, DomainError, WristbandError
from wristband.evaluation import barycentric_reference, barycentric_z_score
from wristband.generators import RngStream, gaussian_batch, parity_batch, rac_batch, x_batch
from wristband.optimize import AdamState, OptimizeConfig, adam_step
from wristband.pairwise import (
    KernelConfig,
    pairwise_repulsion_loss,
    pairwise_value_from_wristband,
    radial_neumann_kernel,
)
from wristband.parity import timing_sweep
from wristband.specfun import (
    chi2_cdf,
    chi2_cdf_array,
    chi2_pdf,
    chi2_pdf_array,
    gaussian_quantile_grid,
    log_gamma,
    scaled_bessel_i,
)
from wristband.spectral import angular_eigenvalues, radial_cosine_coeffs, spectral_summary
from wristband.wristband_map import wristband_backward, wristband_forward

BAD_INTEGERS = {"16.0": 16.0, "1.5": 1.5, "True": True, "'8'": "8", "None": None}
BAD_REALS = {"True": True, "'8'": "8", "None": None, "10**400": 10**400, "nan": float("nan")}

CFG = KernelConfig()


@functools.cache
def _table():
    return calibrate_null(16, 3, CFG, 4, 1)


@functools.cache
def _reference():
    return barycentric_reference(8, 2, 2, RngStream(1))


def _batch():
    return gaussian_batch(8, 3, RngStream(2))


# (entry point and argument, call with the bad value, error class)
INTEGER_SLOTS = [
    ("RngStream.seed", lambda v: RngStream(v), ContractViolation),
    ("calibrate_null.n", lambda v: calibrate_null(v, 3, CFG, 4, 1), ContractViolation),
    ("calibrate_null.dim", lambda v: calibrate_null(16, v, CFG, 4, 1), ContractViolation),
    ("calibrate_null.reps", lambda v: calibrate_null(16, 3, CFG, v, 1), ContractViolation),
    ("calibrate_null.seed", lambda v: calibrate_null(16, 3, CFG, 4, v), ContractViolation),
    ("CalibrationTable.n", lambda v: replace(_table(), n=v), ContractViolation),
    ("CalibrationTable.reps", lambda v: replace(_table(), reps=v), ContractViolation),
    ("CalibrationTable.seed", lambda v: replace(_table(), seed=v), ContractViolation),
    ("gaussian_batch.n", lambda v: gaussian_batch(v, 3, RngStream(1)), ContractViolation),
    ("gaussian_batch.d", lambda v: gaussian_batch(8, v, RngStream(1)), ContractViolation),
    ("x_batch.n", lambda v: x_batch(v, 3, RngStream(1)), ContractViolation),
    ("x_batch.d", lambda v: x_batch(8, v, RngStream(1)), ContractViolation),
    ("rac_batch.n", lambda v: rac_batch(v, 3, RngStream(1)), ContractViolation),
    ("rac_batch.d", lambda v: rac_batch(8, v, RngStream(1)), ContractViolation),
    ("parity_batch.n", lambda v: parity_batch("ring", v, 3, RngStream(1)), ContractViolation),
    ("parity_batch.d", lambda v: parity_batch("ring", 32, v, RngStream(1)), ContractViolation),
    ("barycentric_reference.n", lambda v: barycentric_reference(v, 2, 2, RngStream(1)),
     ContractViolation),
    ("barycentric_reference.d", lambda v: barycentric_reference(8, v, 2, RngStream(1)),
     ContractViolation),
    ("barycentric_reference.num_batches", lambda v: barycentric_reference(8, 2, v, RngStream(1)),
     ContractViolation),
    ("barycentric_z_score.null_batches",
     lambda v: barycentric_z_score(_reference(), _reference(), v, RngStream(3)),
     ContractViolation),
    ("timing_sweep.repetitions", lambda v: timing_sweep([3], [8], 2, v, CFG), ContractViolation),
    ("pairwise_repulsion_loss.tile", lambda v: pairwise_repulsion_loss(_batch(), CFG, v),
     ContractViolation),
    ("pairwise_value_from_wristband.tile",
     lambda v: pairwise_value_from_wristband(wristband_forward(_batch()), CFG, v), ContractViolation),
    # The projection count behind a sliced-w2 call, refused where it is drawn.
    ("sliced_w2_loss.projections",
     lambda v: sliced_w2_loss(_batch(), sample_projections(3, v, RngStream(4))), ContractViolation),
    ("OptimizeConfig.steps", lambda v: OptimizeConfig(steps=v), ContractViolation),
    ("OptimizeConfig.seed", lambda v: OptimizeConfig(seed=v), ContractViolation),
    ("KernelConfig.modes", lambda v: KernelConfig(modes=v), DomainError),
    ("radial_neumann_kernel.images", lambda v: radial_neumann_kernel(0.5, 0.25, 8.0, v), DomainError),
    ("chi2_cdf_array.d", lambda v: chi2_cdf_array(v, np.ones(2)), DomainError),
    ("chi2_pdf_array.d", lambda v: chi2_pdf_array(v, np.ones(2)), DomainError),
    ("gaussian_quantile_grid.n", lambda v: gaussian_quantile_grid(v), DomainError),
    ("radial_cosine_coeffs.modes", lambda v: radial_cosine_coeffs(8.0, v), DomainError),
    ("spectral_summary.modes", lambda v: spectral_summary(wristband_forward(_batch()), v), DomainError),
    ("angular_eigenvalues.d", lambda v: angular_eigenvalues(v, 8.0, 1.0), DomainError),
]

REAL_SLOTS = [
    ("KernelConfig.beta", lambda v: KernelConfig(beta=v), DomainError),
    ("KernelConfig.alpha", lambda v: KernelConfig(alpha=v), DomainError),
    ("KernelConfig.eps", lambda v: KernelConfig(eps=v), DomainError),
    ("KernelConfig.weights", lambda v: KernelConfig(weights=(1.0, v, 1.0)), DomainError),
    ("OptimizeConfig.lr", lambda v: OptimizeConfig(lr=v), ContractViolation),
    ("adam_step.lr", lambda v: adam_step(np.ones((2, 2)), np.ones((2, 2)), AdamState.zeros((2, 2)), v),
     ContractViolation),
    ("CalibrationTable.mu_rep", lambda v: replace(_table(), mu_rep=v), ContractViolation),
    ("CalibrationTable.sd_numerator", lambda v: replace(_table(), sd_numerator=v), ContractViolation),
    ("log_gamma.a", lambda v: log_gamma(v), DomainError),
    ("scaled_bessel_i.nu", lambda v: scaled_bessel_i(v, 1.0), DomainError),
    ("scaled_bessel_i.c", lambda v: scaled_bessel_i(1.0, v), DomainError),
    ("chi2_cdf.s", lambda v: chi2_cdf(3, v), DomainError),
    ("chi2_pdf.s", lambda v: chi2_pdf(3, v), DomainError),
    ("radial_cosine_coeffs.beta", lambda v: radial_cosine_coeffs(v, 4), DomainError),
]

CASES = [pytest.param(call, value, error, id=f"{name}-{label}")
         for slots, bad in ((INTEGER_SLOTS, BAD_INTEGERS), (REAL_SLOTS, BAD_REALS))
         for name, call, error in slots
         for label, value in bad.items()]


@pytest.mark.parametrize("call, value, error", CASES)
def test_bad_number_is_refused_with_a_typed_error(call, value, error):
    with pytest.raises(error):
        call(value)


# (entry point and refusal, call, error class, text the message contains)
REFUSALS = [
    ("OptimizeConfig.loss-unknown", lambda: OptimizeConfig(loss="adam"), ContractViolation,
     "loss must be one of"),
    ("OptimizeConfig.schedule-unknown", lambda: OptimizeConfig(schedule="linear"),
     ContractViolation, "schedule must be one of"),
    ("wristband_backward.wb-shape",
     lambda: wristband_backward(_batch(), wristband_forward(_batch()[:4]), np.zeros((8, 3)),
                                np.zeros(8)),
     ContractViolation, "wristband batch does not match"),
    ("angular_eigenvalues.beta-negative", lambda: angular_eigenvalues(3, -1.0, 1.0), DomainError,
     "need 2*beta*alpha^2 > 0, got -2.0"),
    # At beta 1e6 every pair kernel underflows: the repulsion has sd 0.0 exactly, and the
    # table refuses it without a warning (the suite runs RuntimeWarnings as errors).
    ("calibrate_null.degenerate-null", lambda: calibrate_null(8, 2, KernelConfig(beta=1e6), 2, 0),
     ContractViolation, "calibration table sd_rep must be a finite real > 0.0, got 0.0"),
    ("barycentric_reference.d-1", lambda: barycentric_reference(256, 1, 64, RngStream(1)),
     ContractViolation, "d must be >= 2, got 1"),
    ("calibrate_null.dim-1", lambda: calibrate_null(16, 1, CFG, 4, 1), ContractViolation,
     "dim must be >= 2, got 1"),
]


@pytest.mark.parametrize("call, error, match", [pytest.param(*row[1:], id=row[0]) for row in REFUSALS])
def test_refusal_is_typed_and_named(call, error, match):
    with pytest.raises(error, match=re.escape(match)):
        call()


@pytest.mark.parametrize("call", [
    lambda: barycentric_reference(256, 1, 64, RngStream(1)),
    lambda: calibrate_null(16, 1, CFG, 4, 1),
], ids=["barycentric_reference", "calibrate_null"])
def test_one_dimension_is_refused_before_a_batch_is_drawn(call, monkeypatch):
    def no_draw(*args):
        raise AssertionError("a batch was drawn")

    for module in (calibration, evaluation):
        monkeypatch.setattr(module, "gaussian_batch", no_draw)
    with pytest.raises(ContractViolation, match=">= 2, got 1"):
        call()


def test_null_distances_of_zero_variance_are_refused(monkeypatch):
    # Every null batch drawn as the reference itself: every null distance is 0.0.
    reference = _reference()
    monkeypatch.setattr(evaluation, "gaussian_batch", lambda n, d, stream: reference.copy())
    with pytest.raises(ContractViolation, match="zero variance"):
        barycentric_z_score(gaussian_batch(8, 2, RngStream(4)), reference, 4, RngStream(3))


def test_every_error_class_is_a_wristband_error():
    assert all(issubclass(error, WristbandError)
               for _, _, error, *_ in INTEGER_SLOTS + REAL_SLOTS + REFUSALS)


def test_numpy_numbers_are_accepted_as_python_numbers():
    # An integral numpy seed draws the same stream as the int and is recorded as one.
    assert np.array_equal(RngStream(np.int64(3)).normals(4), RngStream(3).normals(4))
    ref = barycentric_reference(np.int32(8), np.uint8(2), np.int64(2), RngStream(np.int64(1)))
    assert ref.tobytes() == _reference().tobytes()
    table = calibrate_null(np.int64(16), np.int64(3), CFG, np.int64(4), np.int64(1))
    assert table == _table() and type(table.seed) is int
