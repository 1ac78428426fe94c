"""Property tests of the wristband adjoint over random shapes and radii.

`wristband_backward` evaluates the pullback as g_u / |x| + x c with a
per-row coefficient c; these tests hold it to the projection form
(I - u u^T) g_u / |x| + 2 f(s) g_t x row by row, and check that it
commutes with rotations.  Batches mix ordinary radii with floored points
(norm below NORM_FLOOR), norms near 1e-10 and saturated radii (t = 1).
Examples are derandomized, so the suite sees the same cases on every run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wristband.specfun import chi2_pdf_array
from wristband.wristband_map import NORM_FLOOR, wristband_backward, wristband_forward

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# Row norms of the edge regimes: two floored, one just above the floor's
# hundredfold, and one far enough out that t rounds to 1 for d <= 16.
EDGE_NORMS = (0.0, 1e-13, 1e-10, 60.0)


@st.composite
def pullback_cases(draw):
    """(x, grad_u, grad_t): a batch with some edge-regime rows and random cotangents."""
    n = draw(st.integers(1, 64))
    d = draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, d)) * np.exp(rng.normal(size=(n, 1)))
    for norm in draw(st.lists(st.sampled_from(EDGE_NORMS), max_size=min(n, 4))):
        v = rng.normal(size=d)
        x[draw(st.integers(0, n - 1))] = norm * v / np.linalg.norm(v)
    grad_u = rng.normal(size=(n, d)) * np.exp(rng.normal(size=(n, 1)))
    grad_t = rng.normal(size=n) * np.exp(rng.normal(size=n))
    return x, grad_u, grad_t


def projection_form(x, grad_u, grad_t):
    """(I - u u^T) g_u / |x| + 2 f(s) g_t x per row, floored rows zero, and a per-row scale.

    The scale |g_u| / |x| + 2 f(s) |g_t| |x| bounds both terms, so a few
    eps times it bounds the rounding of either way of writing the sum.
    """
    wb = wristband_forward(x)
    norm = np.sqrt(wb.s)
    radial = 2.0 * chi2_pdf_array(x.shape[1], wb.s)
    tangent = grad_u - np.sum(wb.u * grad_u, axis=1, keepdims=True) * wb.u
    want = tangent / norm[:, None] + (radial * grad_t)[:, None] * x
    want[wb.norm_floored] = 0.0
    scale = np.linalg.norm(grad_u, axis=1) / norm + radial * np.abs(grad_t) * norm
    return want, scale


def assert_rows_close(got, want, scale):
    err = np.linalg.norm(got - want, axis=1)
    assert np.all(err <= 1e-12 * scale), float(np.max(err / np.maximum(scale, 1e-300)))


@PROPERTY_SETTINGS
@given(pullback_cases())
def test_backward_matches_projection_form(case):
    x, grad_u, grad_t = case
    wb = wristband_forward(x)
    got = wristband_backward(x, wb, grad_u, grad_t)
    want, scale = projection_form(x, grad_u, grad_t)
    assert_rows_close(got, want, scale)
    assert np.all(got[wb.norm_floored] == 0.0)
    assert np.all(wb.norm_floored == (np.linalg.norm(x, axis=1) < NORM_FLOOR))


@PROPERTY_SETTINGS
@given(pullback_cases(), st.integers(0, 2**32 - 1))
def test_backward_is_rotation_equivariant(case, seed):
    # Rotating the batch and the u-cotangents by Q (t is rotation
    # invariant) rotates the gradient by Q.
    x, grad_u, grad_t = case
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(x.shape[1],) * 2))
    xr = x @ q.T
    got = wristband_backward(xr, wristband_forward(xr), grad_u @ q.T, grad_t)
    want = wristband_backward(x, wristband_forward(x), grad_u, grad_t) @ q.T
    assert_rows_close(got, want, projection_form(x, grad_u, grad_t)[1])


def test_edge_norms_reach_their_regimes():
    # The strategy's edge norms are what they claim: floored, unfloored
    # near 1e-10, and saturated with a density that has underflowed.
    d = 16
    x = np.zeros((len(EDGE_NORMS), d))
    x[:, 0] = EDGE_NORMS
    wb = wristband_forward(x)
    assert wb.norm_floored.tolist() == [True, True, False, False]
    assert wb.t[3] == 1.0 and chi2_pdf_array(d, wb.s[3:]) == 0.0
