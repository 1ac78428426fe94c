import itertools
import math

import numpy as np
import pytest

from wristband.errors import ContractViolation
from wristband.evaluation import (
    barycentric_reference,
    barycentric_z_score,
    hungarian_assign,
    w2_exact,
)
from wristband.generators import RngStream, gaussian_batch, x_batch


class TestHungarian:
    def test_diag_dominant(self):
        out = hungarian_assign(np.array([[0.0, 9.0], [9.0, 0.0]]))
        assert list(out.perm) == [0, 1]
        assert out.cost == 0.0

    def test_all_equal_costs(self):
        c = 3.5
        out = hungarian_assign(np.full((6, 6), c))
        assert sorted(out.perm) == list(range(6))
        assert out.cost == pytest.approx(6 * c, rel=1e-15)

    def test_matches_bruteforce_7x7(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            cost = rng.random((7, 7))
            best = min(
                sum(cost[i, p[i]] for i in range(7))
                for p in itertools.permutations(range(7))
            )
            out = hungarian_assign(cost)
            assert out.cost == pytest.approx(best, abs=1e-12)
            assert sorted(out.perm) == list(range(7))

    def test_beats_random_permutations(self):
        rng = np.random.default_rng(1)
        cost = rng.random((30, 30))
        out = hungarian_assign(cost)
        idx = np.arange(30)
        for _ in range(1000):
            rng.shuffle(idx)
            assert out.cost <= cost[np.arange(30), idx].sum() + 1e-12

    def test_contracts(self):
        with pytest.raises(ContractViolation):
            hungarian_assign(np.ones((3, 4)))
        with pytest.raises(ContractViolation):
            hungarian_assign(np.array([[1.0, np.inf], [1.0, 1.0]]))


class TestW2Exact:
    def test_self_distance_zero(self):
        x = gaussian_batch(20, 3, RngStream(2, "a"))
        assert w2_exact(x, x) == 0.0

    def test_translation(self):
        x = gaussian_batch(40, 4, RngStream(3, "a"))
        v = np.array([1.0, -2.0, 0.5, 3.0])
        assert w2_exact(x, x + v) == pytest.approx(np.linalg.norm(v), rel=1e-9)

    def test_small_n_bruteforce(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(6, 2))
        b = rng.normal(size=(6, 2))
        sq = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        best = min(
            sum(sq[i, p[i]] for i in range(6))
            for p in itertools.permutations(range(6))
        )
        assert w2_exact(a, b) == pytest.approx(math.sqrt(best / 6), rel=1e-12)

    def test_metric_properties_sampled(self):
        rng = np.random.default_rng(5)
        a, b, c = (rng.normal(size=(12, 3)) for _ in range(3))
        ab, ba = w2_exact(a, b), w2_exact(b, a)
        assert ab == pytest.approx(ba, abs=1e-9)
        assert w2_exact(a, c) <= ab + w2_exact(b, c) + 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            w2_exact(np.ones((4, 2)), np.ones((5, 2)))


class TestBarycentricReference:
    def test_two_identical_batches(self):
        # If pairing matches a batch with itself, the midpoint is the
        # batch; emulate by making both sources equal via stream abuse.
        x = gaussian_batch(16, 3, RngStream(6, "src"))
        from wristband.evaluation import hungarian_assign as ha
        sq = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        perm = ha(sq).perm
        mid = 0.5 * (x + x[perm])
        assert np.allclose(mid, x)

    def test_determinism_and_depth(self):
        r1 = barycentric_reference(32, 3, 8, RngStream(7, "ref"))
        r2 = barycentric_reference(32, 3, 8, RngStream(7, "ref"))
        # The reference is a plain (n, d) batch; its arguments rebuild it.
        assert isinstance(r1, np.ndarray) and r1.shape == (32, 3)
        assert np.array_equal(r1, r2)

    def test_variance_reduction(self):
        # The reference covariance should be closer to the identity than
        # the median source batch's, for almost every seed.
        n, d = 64, 3
        wins = 0
        for seed in range(20):
            stream = RngStream(100 + seed, "vr")
            ref = barycentric_reference(n, d, 8, stream)
            sources = [
                gaussian_batch(n, d, stream.child(f"source{i:03d}")) for i in range(8)
            ]

            def cov_err(b):
                c = (b - b.mean(0)).T @ (b - b.mean(0)) / n
                return np.linalg.norm(c - np.eye(d))

            ref_err = cov_err(ref)
            med = np.median([cov_err(s) for s in sources])
            wins += ref_err < med
        assert wins >= 18

    def test_power_of_two_contract(self):
        with pytest.raises(ContractViolation):
            barycentric_reference(16, 3, 6, RngStream(8, "ref"))
        with pytest.raises(ContractViolation):
            barycentric_reference(16, 3, 256, RngStream(8, "ref"))


class TestZScore:
    def test_null_candidate_in_band(self):
        n, d = 64, 3
        inside = 0
        for seed in range(12):
            stream = RngStream(200 + seed, "z")
            ref = barycentric_reference(n, d, 8, stream.child("ref"))
            cand = gaussian_batch(n, d, stream.child("held_out"))
            z = barycentric_z_score(cand, ref, 32, stream.child("nulls"))
            inside += -3.0 <= z <= 3.0
        assert inside >= 11

    def test_reference_scores_negative(self):
        stream = RngStream(9, "z2")
        ref = barycentric_reference(48, 3, 8, stream.child("ref"))
        z = barycentric_z_score(ref, ref, 32, stream.child("nulls"))
        assert z < 0.0

    def test_raw_x_batch_enormous(self):
        n, d = 128, 2
        stream = RngStream(10, "z3")
        ref = barycentric_reference(n, d, 16, stream.child("ref"))
        raw = x_batch(n, d, stream.child("x"))
        z = barycentric_z_score(raw, ref, 48, stream.child("nulls"))
        assert z > 10.0

    def test_shape_contract(self):
        stream = RngStream(11, "z4")
        ref = barycentric_reference(16, 3, 4, stream.child("ref"))
        with pytest.raises(ContractViolation):
            barycentric_z_score(np.ones((16, 4)), ref, 8, stream.child("nulls"))

    def test_reference_is_checked_as_a_point_batch(self):
        # The reference is caller input: a non-finite or 1-D one is refused.
        stream = RngStream(12, "z5")
        ref = barycentric_reference(16, 3, 2, stream.child("ref"))
        bad = ref.copy()
        bad[0, 0] = np.nan
        for reference in (bad, ref[:, 0]):
            with pytest.raises(ContractViolation):
                barycentric_z_score(ref, reference, 8, stream.child("nulls"))
