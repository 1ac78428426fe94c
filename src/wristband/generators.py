"""Deterministic seeded samplers for every distribution the benchmarks use.

Streams are built on the counter-based Philox bit generator, keyed by
SHA-256 of (seed, label), so identical (seed, label) pairs reproduce
identical batches on every platform and independent labels give
independent streams.  Normals are produced by an explicit Box-Muller
transform over the stream's uniforms rather than an opaque library
sampler, to keep the byte-level output under this module's control.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .accelerators import _centered_moment_summary
from .errors import ContractViolation, _integer
from .wristband_map import validate_point_batch

__all__ = [
    "RngStream",
    "gaussian_batch",
    "x_batch",
    "rac_batch",
    "parity_batch",
    "whiten",
    "PARITY_KINDS",
    "PARITY_CONSTANTS",
]

RAC_SCORE_EPS = 1e-12

# Free constants of the parity generators.  No run report records them, so a report
# reproduces against the checkout that wrote it, not against its `tool_version`.
PARITY_CONSTANTS = {
    "mixture5_mean_scale": math.sqrt(2.0),  # component means ~ N(0, 2I), drawn once
    "mixture5_components": 5,
    "two_mode_mu": 2.0,
    "two_mode_sigma": 1.0,
    "student_t_dof": 3,
    "ring_modes": 4,
    "ring_angular_spread": 0.35,
    "ring_radial_spread": 0.05,
}

PARITY_KINDS = ("mixture5", "two_mode", "student_t", "ring")

# Internal seed for the shared parity-generator constants (mixture means,
# ring mode directions); independent of the caller's seed by design so
# the shapes are the same across runs.
_SHARED_CONSTANT_SEED = 0x57425043  # "WBPC"


@dataclass
class RngStream:
    """A labeled, reproducible random stream.

    Identical (seed, label) pairs yield identical sequences; distinct
    labels derived via :meth:`child` are statistically independent.
    A stream is single-owner: draws advance its state.
    """

    seed: int
    label: str = "root"
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        self.seed = _integer("seed", self.seed)
        digest = hashlib.sha256(f"{self.seed}:{self.label}".encode()).digest()
        key = int.from_bytes(digest[:16], "little")
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def child(self, sub_label: str) -> "RngStream":
        """A fresh stream derived from this stream's label (state-independent)."""
        return RngStream(self.seed, f"{self.label}/{sub_label}")

    def uniform(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1)."""
        return self._gen.random(n)

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller over consecutive uniform pairs.

        Pair (u1, u2) maps to r*cos(2 pi u2), r*sin(2 pi u2) with
        r = sqrt(-2 log(1 - u1)); outputs are interleaved in that order
        and truncated to n.
        """
        m = (n + 1) // 2
        u1 = self._gen.random(m)
        u2 = self._gen.random(m)
        r = np.sqrt(-2.0 * np.log1p(-u1))
        out = np.empty(2 * m)
        out[0::2] = r * np.cos(2.0 * np.pi * u2)
        out[1::2] = r * np.sin(2.0 * np.pi * u2)
        return out[:n]

    def normal_matrix(self, n: int, d: int) -> np.ndarray:
        return self.normals(n * d).reshape(n, d)

    def indices(self, n: int, high: int) -> np.ndarray:
        """n indices uniform on {0, ..., high-1} via floor(u * high)."""
        return np.minimum((self._gen.random(n) * high).astype(np.int64), high - 1)

    def shuffled(self, n: int) -> np.ndarray:
        """A permutation of range(n) by sorting fresh uniform keys."""
        return np.argsort(self._gen.random(n), kind="stable")


def gaussian_batch(n: int, d: int, stream: RngStream) -> np.ndarray:
    """n i.i.d. standard normal points in R^d."""
    return stream.normal_matrix(_integer("n", n, 1), _integer("d", d, 1))


def x_batch(n: int, d: int, stream: RngStream) -> np.ndarray:
    """Axis-uniform batch: one uniformly chosen coordinate per point, signed
    uniform on [-sqrt(3d), sqrt(3d)], all other coordinates zero.

    Has identity covariance by construction but is maximally far from
    elliptical symmetry.
    """
    n, d = _integer("n", n, 1), _integer("d", d, 2)
    axes = stream.indices(n, d)
    half_width = math.sqrt(3.0 * d)
    vals = (2.0 * stream.uniform(n) - 1.0) * half_width
    out = np.zeros((n, d))
    out[np.arange(n), axes] = vals
    return out


def rac_batch(n: int, d: int, stream: RngStream) -> np.ndarray:
    """Radial-angular copula impostor.

    Directions uniform on the sphere and radii chi_d, each marginal
    exactly preserved, but re-paired rankwise: the smallest radius goes
    to the direction with the smallest angular entropy score
    s(U) = -sum_j U_j^2 log(U_j^2 + eps), making radius and score
    comonotone.

    The score is symmetric under coordinate sign flips and permutations,
    so the impostor keeps zero mean and identity covariance.  Its
    departure from the Gaussian first shows in the coordinate fourth
    moment: E[x_j^4] - 3 = Cov(r^4, u_j^4) because both marginals are
    exact, and large radii sit on spread (small u_j^4) directions, so
    E[x_j^4] is ~2.38 against 3 at d=10 (measured from 2e5 points).
    """
    n, d = _integer("n", n, 1), _integer("d", d, 2)
    raw = stream.normal_matrix(n, d)
    norms = np.sqrt(np.einsum("ij,ij->i", raw, raw))
    u = raw / norms[:, None]
    radial_draws = stream.normal_matrix(n, d)
    radii = np.sqrt(np.einsum("ij,ij->i", radial_draws, radial_draws))
    usq = u * u
    scores = -np.sum(usq * np.log(usq + RAC_SCORE_EPS), axis=1)
    radii_sorted = np.sort(radii, kind="stable")
    score_order = np.argsort(scores, kind="stable")
    matched = np.empty(n)
    matched[score_order] = radii_sorted
    return matched[:, None] * u


def whiten(batch) -> np.ndarray:
    """Exact batch whitening: zero mean and identity sample covariance.

    Uses the inverse square root of the biased sample covariance via
    the symmetric eigensolver; a covariance that is numerically rank
    deficient is rejected.
    """
    ms, centered = _centered_moment_summary(validate_point_batch(batch, min_n=2))
    vals, vecs = ms.eigvals, ms.eigvecs
    if vals[-1] <= 1e-12 * max(vals[0], 1.0):
        raise ContractViolation("sample covariance is rank deficient; cannot whiten")
    w = vecs @ ((1.0 / np.sqrt(vals))[:, None] * vecs.T)
    out = centered @ w
    # One more centering pass pins the mean to zero after rounding.
    out -= out.mean(axis=0)
    return out


def _mixture5_means(d: int) -> np.ndarray:
    constants = RngStream(_SHARED_CONSTANT_SEED, f"parity/mixture5/means/d{d}")
    return PARITY_CONSTANTS["mixture5_mean_scale"] * constants.normal_matrix(
        PARITY_CONSTANTS["mixture5_components"], d
    )


def _ring_mode_directions(d: int) -> np.ndarray:
    constants = RngStream(_SHARED_CONSTANT_SEED, f"parity/ring/modes/d{d}")
    dirs = constants.normal_matrix(PARITY_CONSTANTS["ring_modes"], d)
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def parity_batch(kind: str, n: int, d: int, stream: RngStream) -> np.ndarray:
    """Structured non-Gaussian batches used by the spectral parity study.

    mixture5:  5-component Gaussian mixture, standardized coordinatewise.
    two_mode:  equal-mass modes near +/- mu e_1 plus isotropic noise.
    student_t: i.i.d. Student-t entries (3 dof), whitened.
    ring:      radius concentrated near sqrt(d) with 4 clustered angular
               modes, whitened.

    The mixture means and ring mode directions are drawn once from a
    fixed internal seed and shared across calls, so the distribution
    shapes do not depend on the caller's seed.
    """
    d = _integer("d", d, 1)
    n = _integer("n", n, 2 * d)  # whitening needs n >= 2d
    if kind == "mixture5":
        means = _mixture5_means(d)
        comp = stream.indices(n, means.shape[0])
        x = means[comp] + stream.normal_matrix(n, d)
        x = x - x.mean(axis=0)
        return x / x.std(axis=0)
    if kind == "two_mode":
        mu = PARITY_CONSTANTS["two_mode_mu"]
        sigma = PARITY_CONSTANTS["two_mode_sigma"]
        x = sigma * stream.normal_matrix(n, d)
        half = (n + 1) // 2
        x[:half, 0] += mu
        x[half:, 0] -= mu
        return x
    if kind == "student_t":
        dof = PARITY_CONSTANTS["student_t_dof"]
        z = stream.normal_matrix(n, d)
        chisq = np.zeros((n, d))
        for _ in range(dof):
            g = stream.normal_matrix(n, d)
            chisq += g * g
        return whiten(z / np.sqrt(chisq / dof))
    if kind == "ring":
        dirs = _ring_mode_directions(d)
        mode = stream.indices(n, dirs.shape[0])
        w = dirs[mode] + PARITY_CONSTANTS["ring_angular_spread"] * stream.normal_matrix(n, d)
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        radius = math.sqrt(d) * (1.0 + PARITY_CONSTANTS["ring_radial_spread"] * stream.normals(n))
        return whiten(radius[:, None] * w)
    raise ContractViolation(f"unknown parity batch kind {kind!r}; expected one of {PARITY_KINDS}")
