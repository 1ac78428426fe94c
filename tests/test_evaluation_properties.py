"""Property tests of the evaluation layer against explicit-difference oracles.

The solver sees Kuhn-reduced squared distances built from one matmul;
these tests check that matrix entrywise against the Kuhn-reduced
explicit differences, and check the matchings, W2 values and reference
batches built on it against oracles that use explicit differences and
scipy's `linear_sum_assignment` directly.
Batches carry a common offset (translating both) and a relative shift
(moving `a` away from `b`), each up to 1e6, and optionally duplicated
rows.  Examples are derandomized, so the suite sees the same cases on
every run.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.optimize
from scipy.optimize import linear_sum_assignment

from wristband.evaluation import (
    _matching,
    barycentric_reference,
    w2_exact,
)
from wristband.generators import RngStream, gaussian_batch

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
EPS = np.finfo(np.float64).eps
OFFSETS = [0.0, 1.0, 1e2, 1e4, 1e6]


@st.composite
def batch_pairs(draw, max_shift=1e6, duplicates=True):
    """Two (N, d) Gaussian batches, offset together and shifted apart."""
    n = draw(st.integers(2, 128))
    d = draw(st.integers(2, 128))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.sampled_from(OFFSETS)) * rng.normal(size=d)
    shift = draw(st.sampled_from([s for s in OFFSETS if s <= max_shift])) * rng.normal(size=d)
    a = rng.normal(size=(n, d)) + offset + shift
    b = rng.normal(size=(n, d)) + offset
    if duplicates:
        dups = draw(st.integers(0, n // 2))
        a[n - dups:] = a[:dups]
        b[n - dups:] = b[:dups]
    return a, b


def explicit_sq_dists(a, b):
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)


def oracle_w2(a, b):
    cost = explicit_sq_dists(a, b)
    rows, cols = linear_sum_assignment(cost)
    return math.sqrt(cost[rows, cols].sum() / a.shape[0])


def solver_matrix(a, b):
    """The cost matrix `_matching(a, b)` hands the solver."""
    seen = []

    def spy(cost):
        seen.append(np.array(cost))
        return linear_sum_assignment(cost)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scipy.optimize, "linear_sum_assignment", spy)
        _matching(a, b)
    (cost,) = seen
    return cost


def kuhn_reduced(cost):
    cost = cost - cost.min(axis=1, keepdims=True)
    return cost - cost.min(axis=0)


@PROPERTY_SETTINGS
@given(batch_pairs())
def test_solver_matrix_matches_reduced_explicit_differences(pair):
    """|C_ij - R_ij| <= 2 K (T_i + max_k T_k), K = 2 (d + 4) eps, m = mean(a).

    R is the Kuhn reduction of the explicit matrix E, and C the matrix
    the solver sees.  Before its reductions C_ij equals E_ij - |a_i - m|^2
    to within K S_ij, S_ij = |a_i - m|^2 + |b_j - m|^2, counting the
    rounding of E as well: a length-d dot product errs by at most d eps/2
    times the product of the norms, and the centering and additions add
    a few eps S.  The row norm is constant along row i, so the row
    reduction removes it exactly and errs by at most 2 K T_i, with
    T_i = max_j S_ij; the column reduction adds at most the largest of
    those errors in the column.
    """
    a, b = pair
    d = a.shape[1]
    m = a.mean(axis=0)
    scale = ((a - m) ** 2).sum(axis=1)[:, None] + ((b - m) ** 2).sum(axis=1)[None, :]
    row_scale = scale.max(axis=1, keepdims=True)
    bound = 2.0 * 2.0 * (d + 4) * EPS * (row_scale + row_scale.max())
    err = np.abs(solver_matrix(a, b) - kuhn_reduced(explicit_sq_dists(a, b)))
    assert np.all(err <= bound)


@PROPERTY_SETTINGS
@given(batch_pairs(max_shift=1e2, duplicates=False))
def test_reduced_matching_equals_explicit_difference_matching(pair):
    """Without duplicate rows the solver's matching is the explicit one.

    The relative shift stops at 1e2: beyond that the explicit matrix
    itself rounds at eps * shift^2 per entry, and its own matching is
    decided by rounding.  The W2 property below covers larger shifts.
    """
    a, b = pair
    _, cols = linear_sum_assignment(explicit_sq_dists(a, b))
    assert np.array_equal(_matching(a, b), cols)


@PROPERTY_SETTINGS
@given(batch_pairs())
def test_solver_sees_a_reduced_matrix(pair):
    """The matrix handed to the solver is >= 0 with a zero in every row and column."""
    cost = solver_matrix(*pair)
    assert np.all(cost >= 0.0)
    assert np.all(cost.min(axis=0) == 0.0)
    assert np.all(cost.min(axis=1) == 0.0)


@PROPERTY_SETTINGS
@given(batch_pairs())
def test_w2_exact_matches_explicit_oracle(pair):
    a, b = pair
    assert math.isclose(w2_exact(a, b), oracle_w2(a, b), rel_tol=1e-12)


@PROPERTY_SETTINGS
@given(batch_pairs(), st.integers(0, 2**32 - 1))
def test_w2_of_a_permuted_copy_is_exactly_zero(pair, seed):
    x, _ = pair
    p = np.random.default_rng(seed).permutation(x.shape[0])
    assert w2_exact(x, x[p]) == 0.0


def oracle_reference(n, d, num_batches, stream):
    """`barycentric_reference` rebuilt from explicit differences and scipy."""
    batches = [gaussian_batch(n, d, stream.child(f"source{i:03d}")) for i in range(num_batches)]
    depth = 0
    while len(batches) > 1:
        order = stream.child(f"pair/level{depth}").shuffled(len(batches))
        merged = []
        for j in range(0, len(order), 2):
            a, b = batches[order[j]], batches[order[j + 1]]
            _, cols = linear_sum_assignment(explicit_sq_dists(a, b))
            merged.append(0.5 * (a + b[cols]))
        batches = merged
        depth += 1
    return batches[0]


def test_reference_bytes_equal_the_explicit_difference_oracle():
    stream = RngStream(13, "refpin")
    ref = barycentric_reference(64, 5, 8, stream)
    assert np.array_equal(ref, oracle_reference(64, 5, 8, stream))
