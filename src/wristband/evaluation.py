"""Calibrated barycentric-W2 evaluation.

A deterministic Gaussian reference batch is built by recursively
pairing Gaussian batches, solving an exact linear assignment inside
each pair, and replacing the pair with the midpoint batch of matched
points; `barycentric_reference` returns that batch as a plain array,
which its arguments rebuild.  A candidate batch is then scored by its
exact equal-weight W2 distance (the distance, not its square) to the
reference, standardized against the distances of fresh Gaussian batches
of the reference's shape.

Assignment solves go through scipy's `linear_sum_assignment`, Crouse's
exact shortest-augmenting-path solver; exactness is cross-checked
against a brute-force oracle in the tests.  To choose a matching the
solver sees squared distances in Gram form (one matmul) after Kuhn's
initial reduction (row minima, then column minima, subtracted), which
leaves the optimal matchings unchanged and shortens the solver's
augmenting-path searches.  Reported costs and midpoints come from the
explicit differences of the matched pairs, so they are exact.  Only a
near-tie, two matchings within rounding of each other, can resolve
differently than on explicit differences, and then to an equally cheap
matching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, _integer
from .generators import RngStream, gaussian_batch
from .wristband_map import validate_point_batch

__all__ = [
    "Assignment",
    "hungarian_assign",
    "w2_exact",
    "barycentric_reference",
    "barycentric_z_score",
]


@dataclass(frozen=True)
class Assignment:
    """An optimal row-to-column matching and its total cost."""

    perm: np.ndarray
    cost: float


def hungarian_assign(cost) -> Assignment:
    """Globally optimal assignment for a square cost matrix."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ContractViolation(f"cost matrix must be square, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ContractViolation("cost matrix contains non-finite entries")
    # Imported on first use: scipy.optimize is slow to load, and of the CLI
    # commands only `score` solves an assignment.
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(cost.shape[0], dtype=np.int64)
    perm[rows] = cols
    return Assignment(perm=perm, cost=float(cost[rows, cols].sum()))


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances |a_i - b_j|^2 in Gram form, for choosing a matching.

    Both batches are centered on m = mean(a) first, so the rounding
    error scales with their spread rather than their common offset: at
    most about 2 d eps (|a_i - m|^2 + |b_j - m|^2) per entry (pinned in
    the property tests).  Matchings whose total costs differ by less
    than that can swap, so a near-tie may resolve to a different but
    equally cheap matching than explicit differences would.  Callers
    recompute the matched costs from explicit differences.
    """
    mean = a.mean(axis=0)
    a, b = a - mean, b - mean
    sq = a @ (-2.0 * b).T  # every later pass is in place: one N x N allocation
    sq += np.einsum("ij,ij->i", a, a)[:, None]
    sq += np.einsum("ij,ij->i", b, b)[None, :]
    return np.maximum(sq, 0.0, out=sq)


def _matching(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """An optimal matching perm of rows of `a` to rows of `b`, on squared distances.

    The Gram-form matrix of `_sq_dists` gets Kuhn's initial reduction:
    each row's minimum is subtracted, then each column's minimum of the
    result.  Subtracting a constant from a row or a column adds the same
    constant to every permutation's cost, so the optimal matchings are
    unchanged; the solver gets a matrix >= 0 with a zero in every row
    and column, and its augmenting-path searches end sooner.  Both
    passes work in place on the matrix `_sq_dists` just made.
    """
    cost = _sq_dists(a, b)
    cost -= cost.min(axis=1, keepdims=True)
    cost -= cost.min(axis=0)
    return hungarian_assign(cost).perm


def w2_exact(a, b) -> float:
    """Exact equal-weight W2 distance between two same-shape batches.

    The matching is solved by `_matching` on the Kuhn-reduced Gram-form
    cost matrix; the reported cost comes from the explicit differences
    of the matched pairs, so a batch against a permutation of itself
    gives exactly 0.0.
    At a near-tie the matching may differ from the explicit-difference
    one, with a cost equal to within rounding.
    """
    a = validate_point_batch(a)
    b = validate_point_batch(b)
    if a.shape != b.shape:
        raise ContractViolation(f"batch shapes differ: {a.shape} vs {b.shape}")
    diff = a - b[_matching(a, b)]
    return math.sqrt(np.einsum("ij,ij->i", diff, diff).sum() / a.shape[0])


def barycentric_reference(n: int, d: int, num_batches: int, stream: RngStream) -> np.ndarray:
    """The (n, d) recursive Hungarian-midpoint reduction of `num_batches` Gaussian batches.

    num_batches must be a power of two in [2, 128].  At each level the
    surviving batches are shuffled with a labeled stream, paired
    adjacently, and each pair replaced by the midpoint of its matched
    points.
    """
    n, d, num_batches = _integer("n", n, 1), _integer("d", d, 2), _integer("num_batches", num_batches)
    if num_batches < 2 or num_batches > 128 or num_batches & (num_batches - 1):
        raise ContractViolation(
            f"num_batches must be a power of two in [2, 128], got {num_batches}"
        )
    batches = [
        gaussian_batch(n, d, stream.child(f"source{i:03d}")) for i in range(num_batches)
    ]
    depth = 0
    while len(batches) > 1:
        order = stream.child(f"pair/level{depth}").shuffled(len(batches))
        merged = []
        for j in range(0, len(order), 2):
            a = batches[order[j]]
            b = batches[order[j + 1]]
            merged.append(0.5 * (a + b[_matching(a, b)]))
        batches = merged
        depth += 1
    return batches[0]


def barycentric_z_score(candidate, reference, null_batches: int, stream: RngStream) -> float:
    """z-score of W2(candidate, reference) against fresh Gaussian batches of its shape.

    The null standard deviation uses the unbiased (n-1) estimator.  The
    numerator uses the W2 distance itself (not its square).  The first
    `w2_exact` checks the two batches, so every refusal comes before a
    solve.
    """
    null_batches = _integer("null_batches", null_batches, 2)
    w = w2_exact(candidate, reference)
    nulls = np.array(
        [
            w2_exact(gaussian_batch(*np.shape(reference), stream.child(f"null{k:03d}")), reference)
            for k in range(null_batches)
        ]
    )
    sd = float(nulls.std(ddof=1))
    if sd <= 0.0:
        raise ContractViolation("null W2 distances have zero variance")
    return (w - float(nulls.mean())) / sd
