"""Every refused argument is a `ContractViolation`, whichever entry point checks it.

A float, a boolean, a string or None where an integer belongs, and a
boolean, a string, None, NaN or an integer beyond the range of a double
where a real belongs, must raise `ContractViolation`: never truncate (a
seed of 1.5 drawing seed 1's batches), never fail later as a bare
TypeError or OverflowError.  The other refusals of the library are
tabulated with the words their messages must contain.
"""

from __future__ import annotations

import functools
import re
from dataclasses import replace

import numpy as np
import pytest

from wristband import calibration, errors, evaluation
from wristband.baselines import mmd_loss, sample_projections, sliced_w2_loss
from wristband.calibration import calibrate_null
from wristband.errors import ContractViolation, FormatError, OptimizationFailure, WristbandError
from wristband.evaluation import barycentric_reference, barycentric_z_score
from wristband.generators import RngStream, gaussian_batch, parity_batch, rac_batch, x_batch
from wristband.optimize import OptimizeConfig, adam_step
from wristband.pairwise import (
    KernelConfig,
    pairwise_repulsion_loss,
    pairwise_value_from_wristband,
    radial_image_kernel,
    radial_neumann_kernel,
)
from wristband.parity import finite_difference_check, parity_suite, timing_sweep
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


def _adam(t=1, lr=0.1, **arrays):
    """adam_step on fresh 2 x 2 arrays, but for the ones given."""
    fresh = {"x": np.zeros((2, 2)), "g": np.ones((2, 2)), "m": np.zeros((2, 2)),
             "v": np.zeros((2, 2))}
    return adam_step(**{**fresh, **arrays}, t=t, lr=lr)


# (entry point and argument, call with the bad value)
INTEGER_SLOTS = [
    ("RngStream.seed", lambda v: RngStream(v)),
    ("calibrate_null.n", lambda v: calibrate_null(v, 3, CFG, 4, 1)),
    ("calibrate_null.dim", lambda v: calibrate_null(16, v, CFG, 4, 1)),
    ("calibrate_null.reps", lambda v: calibrate_null(16, 3, CFG, v, 1)),
    ("calibrate_null.seed", lambda v: calibrate_null(16, 3, CFG, 4, v)),
    ("CalibrationTable.n", lambda v: replace(_table(), n=v)),
    ("CalibrationTable.reps", lambda v: replace(_table(), reps=v)),
    ("CalibrationTable.seed", lambda v: replace(_table(), seed=v)),
    ("gaussian_batch.n", lambda v: gaussian_batch(v, 3, RngStream(1))),
    ("gaussian_batch.d", lambda v: gaussian_batch(8, v, RngStream(1))),
    ("x_batch.n", lambda v: x_batch(v, 3, RngStream(1))),
    ("x_batch.d", lambda v: x_batch(8, v, RngStream(1))),
    ("rac_batch.n", lambda v: rac_batch(v, 3, RngStream(1))),
    ("rac_batch.d", lambda v: rac_batch(8, v, RngStream(1))),
    ("parity_batch.n", lambda v: parity_batch("ring", v, 3, RngStream(1))),
    ("parity_batch.d", lambda v: parity_batch("ring", 32, v, RngStream(1))),
    ("barycentric_reference.n", lambda v: barycentric_reference(v, 2, 2, RngStream(1))),
    ("barycentric_reference.d", lambda v: barycentric_reference(8, v, 2, RngStream(1))),
    ("barycentric_reference.num_batches", lambda v: barycentric_reference(8, 2, v, RngStream(1))),
    ("barycentric_z_score.null_batches",
     lambda v: barycentric_z_score(_reference(), _reference(), v, RngStream(3))),
    ("timing_sweep.repetitions", lambda v: timing_sweep([3], [8], 2, v, CFG)),
    ("pairwise_repulsion_loss.tile", lambda v: pairwise_repulsion_loss(_batch(), CFG, v)),
    ("pairwise_value_from_wristband.tile",
     lambda v: pairwise_value_from_wristband(wristband_forward(_batch()), CFG, v)),
    # The projection count behind a sliced-w2 call, refused where it is drawn.
    ("sliced_w2_loss.projections",
     lambda v: sliced_w2_loss(_batch(), sample_projections(3, v, RngStream(4)))),
    ("sample_projections.d", lambda v: sample_projections(v, 3, RngStream(4))),
    ("adam_step.t", lambda v: _adam(t=v)),
    ("OptimizeConfig.steps", lambda v: OptimizeConfig(steps=v)),
    ("OptimizeConfig.seed", lambda v: OptimizeConfig(seed=v)),
    ("KernelConfig.modes", lambda v: KernelConfig(modes=v)),
    ("radial_neumann_kernel.images", lambda v: radial_neumann_kernel(0.5, 0.25, 8.0, v)),
    ("chi2_cdf_array.d", lambda v: chi2_cdf_array(v, np.ones(2))),
    ("chi2_pdf_array.d", lambda v: chi2_pdf_array(v, np.ones(2))),
    ("gaussian_quantile_grid.n", lambda v: gaussian_quantile_grid(v)),
    ("radial_cosine_coeffs.modes", lambda v: radial_cosine_coeffs(8.0, v)),
    ("spectral_summary.modes", lambda v: spectral_summary(wristband_forward(_batch()), v)),
    ("angular_eigenvalues.d", lambda v: angular_eigenvalues(v, 8.0, 1.0)),
]

REAL_SLOTS = [
    ("KernelConfig.beta", lambda v: KernelConfig(beta=v)),
    ("KernelConfig.alpha", lambda v: KernelConfig(alpha=v)),
    ("KernelConfig.eps", lambda v: KernelConfig(eps=v)),
    ("KernelConfig.weights", lambda v: KernelConfig(weights=(1.0, v, 1.0))),
    ("OptimizeConfig.lr", lambda v: OptimizeConfig(lr=v)),
    ("adam_step.lr", lambda v: _adam(lr=v)),
    ("CalibrationTable.mu_rep", lambda v: replace(_table(), mu_rep=v)),
    ("CalibrationTable.sd_numerator", lambda v: replace(_table(), sd_numerator=v)),
    ("log_gamma.a", lambda v: log_gamma(v)),
    ("scaled_bessel_i.nu", lambda v: scaled_bessel_i(v, 1.0)),
    ("scaled_bessel_i.c", lambda v: scaled_bessel_i(1.0, v)),
    ("chi2_cdf.s", lambda v: chi2_cdf(3, v)),
    ("chi2_pdf.s", lambda v: chi2_pdf(3, v)),
    ("radial_cosine_coeffs.beta", lambda v: radial_cosine_coeffs(v, 4)),
    ("angular_eigenvalues.beta", lambda v: angular_eigenvalues(4, v, 1.0)),
    ("angular_eigenvalues.alpha", lambda v: angular_eigenvalues(4, 8.0, v)),
    ("radial_image_kernel.beta", lambda v: radial_image_kernel(0.2, 0.3, v)),
    ("radial_neumann_kernel.beta", lambda v: radial_neumann_kernel(0.2, 0.3, v)),
    ("finite_difference_check.h_scale",
     lambda v: finite_difference_check(mmd_loss, _batch(), h_scale=v)),
]

CASES = [pytest.param(call, value, id=f"{name}-{label}")
         for slots, bad in ((INTEGER_SLOTS, BAD_INTEGERS), (REAL_SLOTS, BAD_REALS))
         for name, call in slots
         for label, value in bad.items()]


@pytest.mark.parametrize("call, value", CASES)
def test_bad_number_is_refused_with_a_typed_error(call, value):
    with pytest.raises(ContractViolation):
        call(value)


# (entry point and refusal, call, text the message contains).  One rule is one class at
# every entry point: the first three groups each name one rule that several modules check.
REFUSALS = [
    # d = 1: every entry point that takes a dimension or a batch needs d >= 2.
    ("wristband_forward.d-1", lambda: wristband_forward(np.ones((4, 1))),
     "point batch needs dimension >= 2, got 1"),
    ("angular_eigenvalues.d-1", lambda: angular_eigenvalues(1, 8.0, 1.0), "d must be >= 2, got 1"),
    ("calibrate_null.dim-1", lambda: calibrate_null(16, 1, CFG, 4, 1), "dim must be >= 2, got 1"),
    ("barycentric_reference.d-1", lambda: barycentric_reference(256, 1, 64, RngStream(1)),
     "d must be >= 2, got 1"),
    ("x_batch.d-1", lambda: x_batch(8, 1, RngStream(1)), "d must be >= 2, got 1"),
    # A non-positive real where a positive one belongs.
    ("KernelConfig.beta-zero", lambda: KernelConfig(beta=0), "beta must be a finite real > 0.0, got 0"),
    ("OptimizeConfig.lr-zero", lambda: OptimizeConfig(lr=0), "lr must be a finite real > 0.0, got 0"),
    ("radial_neumann_kernel.beta-negative", lambda: radial_neumann_kernel(0.2, 0.3, -1.0),
     "beta must be a finite real > 0.0, got -1.0"),
    ("finite_difference_check.h_scale-zero",
     lambda: finite_difference_check(mmd_loss, _batch(), h_scale=0.0),
     "h_scale must be a finite real > 0.0, got 0.0"),
    # A name that is not one of the choices.
    ("parity_batch.kind-unknown", lambda: parity_batch("nope", 8, 3, RngStream(1)),
     "unknown parity batch kind 'nope'; expected one of"),
    ("KernelConfig.reduction-unknown", lambda: KernelConfig(reduction="nope"),
     "reduction must be one of ('global', 'per_point'), got 'nope'"),
    ("OptimizeConfig.loss-unknown", lambda: OptimizeConfig(loss="adam"), "loss must be one of"),
    ("OptimizeConfig.schedule-unknown", lambda: OptimizeConfig(schedule="linear"),
     "schedule must be one of"),
    # Rules of a single entry point.
    ("wristband_backward.wb-shape",
     lambda: wristband_backward(_batch(), wristband_forward(_batch()[:4]), np.zeros((8, 3)),
                                np.zeros(8)),
     "wristband batch does not match"),
    ("angular_eigenvalues.beta-negative", lambda: angular_eigenvalues(3, -1.0, 1.0),
     "need 2*beta*alpha^2 > 0, got -2.0"),
    # At beta 1e6 every pair kernel underflows: the repulsion has sd 0.0 exactly, and the
    # table refuses it without a warning (the suite runs RuntimeWarnings as errors).
    ("calibrate_null.degenerate-null", lambda: calibrate_null(8, 2, KernelConfig(beta=1e6), 2, 0),
     "calibration table sd_rep must be a finite real > 0.0, got 0.0"),
    ("parity_suite.seeds-empty", lambda: parity_suite(4, 64, 3, [], CFG),
     "parity_suite needs at least one seed"),
    # adam_step writes x, m and v in place: each is a float64, writeable, C-contiguous array
    # of g's shape, and no two of the four overlap.
    ("adam_step.shape", lambda: _adam(g=np.ones((3, 2))),
     "x has shape (2, 2), but g has shape (3, 2)"),
    ("adam_step.x-strided", lambda: _adam(x=np.zeros((4, 2))[::2]),
     "x must be a writeable, C-contiguous array"),
    ("adam_step.m-float32", lambda: _adam(m=np.zeros((2, 2), np.float32)),
     "m must be a float64 array, got float32"),
    ("adam_step.v-read-only", lambda: _adam(v=np.frombuffer(bytes(32)).reshape(2, 2)),
     "v must be a writeable, C-contiguous array"),
    ("adam_step.m-is-v", lambda: _adam(m=(z := np.zeros((2, 2))), v=z), "m and v overlap"),
    ("adam_step.g-overlaps-x", lambda: _adam(x=(b := np.zeros((3, 2)))[:2], g=b[1:]),
     "x and g overlap"),
]


@pytest.mark.parametrize("call, match", [pytest.param(*row[1:], id=row[0]) for row in REFUSALS])
def test_refusal_is_typed_and_named(call, match):
    with pytest.raises(ContractViolation, match=re.escape(match)):
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
    # One class per source of a refusal: a bad argument, a malformed file, a diverged run.
    classes = {v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception)}
    assert classes == {WristbandError, ContractViolation, FormatError, OptimizationFailure}
    assert all(issubclass(error, WristbandError) for error in classes)


def test_numpy_numbers_are_accepted_as_python_numbers():
    # An integral numpy seed draws the same stream as the int and is recorded as one.
    assert np.array_equal(RngStream(np.int64(3)).normals(4), RngStream(3).normals(4))
    ref = barycentric_reference(np.int32(8), np.uint8(2), np.int64(2), RngStream(np.int64(1)))
    assert ref.tobytes() == _reference().tobytes()
    table = calibrate_null(np.int64(16), np.int64(3), CFG, np.int64(4), np.int64(1))
    assert table == _table() and type(table.seed) is int
