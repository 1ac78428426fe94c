import dataclasses
import math

import numpy as np
import pytest

from wristband.calibration import calibrate_null, standardized_wristband_loss
from wristband.errors import ContractViolation, OptimizationFailure
from wristband.generators import RngStream, gaussian_batch, parity_batch, x_batch
from wristband.baselines import mmd_loss
from wristband import optimize
from wristband.optimize import OptimizeConfig, adam_step, optimize_point_cloud
from wristband.pairwise import KernelConfig


def _adam_run(x, grads, lrs):
    """x after one in-place adam_step per (gradient, rate), from zero moments."""
    x = np.array(x, dtype=np.float64)
    m, v = np.zeros_like(x), np.zeros_like(x)
    for t, (g, lr) in enumerate(zip(grads, lrs), start=1):
        assert adam_step(x, g, m, v, t, lr) is None
    return x


def _rates(opt):
    """The rate of each of opt's steps under its schedule."""
    if opt.schedule == "constant":
        return [opt.lr] * opt.steps
    return [opt.lr * 0.5 * (1.0 + math.cos(math.pi * step / opt.steps))
            for step in range(opt.steps)]


class TestAdamStep:
    def test_zero_gradient_keeps_params(self):
        p, m, v = np.ones((4, 3)), np.zeros((4, 3)), np.zeros((4, 3))
        adam_step(p, np.zeros_like(p), m, v, 1, lr=0.1)
        assert np.all(p == 1.0) and np.all(m == 0.0) and np.all(v == 0.0)

    def test_first_step_magnitude(self):
        # With bias correction, the first update is lr * g/|g| = lr
        # elementwise (up to the eps guard).
        p2 = _adam_run(np.zeros((2, 2)), [np.full((2, 2), 3.7)], [0.05])
        assert np.allclose(np.abs(p2), 0.05, rtol=1e-6)

    def test_shape_contract(self):
        with pytest.raises(ContractViolation):
            adam_step(np.ones((2, 2)), np.ones((3, 2)), np.zeros((2, 2)), np.zeros((2, 2)), 1, 0.1)

    def test_state_contract(self):
        p = np.ones((4, 3))
        with pytest.raises(ContractViolation):
            # a (1, d) second moment would silently broadcast
            adam_step(p, p.copy(), np.zeros((4, 3)), np.zeros((1, 3)), 1, 0.1)
        with pytest.raises(ContractViolation):
            # step 0 would divide by 1 - beta^0 = 0
            adam_step(p, p.copy(), np.zeros((4, 3)), np.zeros((4, 3)), 0, 0.1)

    def test_trajectory_reproducible(self):
        rng = np.random.default_rng(0)
        p = rng.normal(size=(8, 3))
        gs = [rng.normal(size=(8, 3)) for _ in range(20)]
        assert np.array_equal(_adam_run(p, gs, [0.01] * 20), _adam_run(p, gs, [0.01] * 20))


def _whole_array_adam(params, grads, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The Adam update written out on whole arrays, as the reference order."""
    m = b1 * m + (1.0 - b1) * grads
    v = b2 * v + (1.0 - b2) * grads * grads
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    return params - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


class TestInPlaceAdam:
    # With 32768-element blocks: eight whole blocks, one whole block and a
    # partial one, and a partial block alone.
    @pytest.mark.parametrize("shape", [(4096, 64), (1000, 33), (7, 3)])
    @pytest.mark.parametrize("schedule", ["constant", "cosine"])
    def test_blocked_update_equals_adam_step_loop(self, shape, schedule):
        # The blocked in-place loop against the whole-array formula, byte for byte.
        rng = np.random.default_rng(shape[0] + shape[1])
        steps = 4
        x = rng.normal(size=shape)
        m, v = np.zeros(shape), np.zeros(shape)
        ref, ref_m, ref_v = x.copy(), m.copy(), v.copy()
        lrs = _rates(OptimizeConfig(steps=steps, lr=0.05, schedule=schedule))
        for step, lr in enumerate(lrs):
            g = rng.standard_t(3, size=shape)
            adam_step(x, g, m, v, step + 1, lr)
            ref, ref_m, ref_v = _whole_array_adam(ref, g, ref_m, ref_v, step + 1, lr)
            assert x.tobytes() == ref.tobytes()
            assert m.tobytes() == ref_m.tobytes()
            assert v.tobytes() == ref_v.tobytes()

    def test_adam_step_leaves_its_inputs_alone(self):
        # A step writes x, m and v, never g; a refused step writes nothing.
        p, g = np.ones((5, 2)), np.full((5, 2), 2.0)
        m, v = np.full((5, 2), 0.5), np.full((5, 2), 0.25)
        with pytest.raises(ContractViolation, match="m and v overlap"):
            adam_step(p, g, m, m, 4, 0.1)
        with pytest.raises(ContractViolation, match="lr must be"):
            adam_step(p, g, m, v, 4, -0.1)
        assert np.all(p == 1.0) and np.all(m == 0.5) and np.all(v == 0.25)
        adam_step(p, g, m, v, 4, 0.1)
        assert np.all(g == 2.0) and np.all(p < 1.0)

    @pytest.mark.parametrize("schedule", ["constant", "cosine"])
    def test_optimizer_equals_adam_step_loop(self, schedule):
        initial = x_batch(48, 3, RngStream(21, "init"))
        opt = OptimizeConfig(loss="mmd", steps=12, lr=0.05, schedule=schedule, seed=22)
        final, _ = optimize_point_cloud(initial, opt, KernelConfig(), None)
        q, m, v = initial.copy(), np.zeros_like(initial), np.zeros_like(initial)
        for step, lr in enumerate(_rates(opt)):
            adam_step(q, mmd_loss(q).grad, m, v, step + 1, lr)
        assert final.tobytes() == q.tobytes()

    def test_optimizer_calls_adam_step_once_per_step(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args[4])
            return adam_step(*args)

        monkeypatch.setattr(optimize, "adam_step", spy)
        opt = OptimizeConfig(loss="mmd", steps=7, lr=0.05, seed=22)
        optimize_point_cloud(x_batch(16, 3, RngStream(21, "init")), opt, KernelConfig(), None)
        assert calls == list(range(1, opt.steps + 1))

    # The optimizer's buffered step against the public loss, which makes
    # fresh arrays, on both paths; 2048 x 64 buffers are 1 MiB each.
    @pytest.mark.parametrize("n, d, path, reduction", [
        (96, 4, "pairwise", "global"),
        (96, 4, "pairwise", "per_point"),
        (96, 5, "spectral", "global"),
        (2048, 64, "spectral", "global"),
    ])
    @pytest.mark.parametrize("schedule", ["constant", "cosine"])
    def test_wristband_optimizer_equals_public_loss_loop(self, n, d, path, reduction, schedule):
        cfg = KernelConfig(beta=8.0, alpha=0.5, reduction=reduction)
        table = calibrate_null(n, d, cfg, reps=4, seed=23, loss_path=path)
        initial = parity_batch("student_t", n, d, RngStream(24, "init"))
        initial[1] = 0.0  # a floored point
        opt = OptimizeConfig(loss=f"wristband_{path}", steps=6, lr=0.05, schedule=schedule,
                             seed=25, log_stride=1)
        final, trajectory = optimize_point_cloud(initial, opt, cfg, table)
        q, m, v = initial.copy(), np.zeros_like(initial), np.zeros_like(initial)
        values = []
        for step, lr in enumerate(_rates(opt)):
            lvg = standardized_wristband_loss(q, table)
            values.append(lvg.value)
            adam_step(q, lvg.grad, m, v, step + 1, lr)
        assert final.tobytes() == q.tobytes()
        assert [value for _, value in trajectory] == values


class TestSettingsContract:
    """The seven settings; values that would produce a NaN or a bare arithmetic
    error are refused up front."""

    def test_settings_are_the_seven_fields(self):
        # Adam's decay rates and offset are module constants, not settings.
        assert [f.name for f in dataclasses.fields(OptimizeConfig)] == [
            "loss", "steps", "lr", "schedule", "seed", "log_stride", "sliced_projections"
        ]

    @pytest.mark.parametrize("count", [0, -3])
    def test_sliced_projections_must_be_positive(self, count):
        with pytest.raises(ContractViolation, match="sliced_projections"):
            OptimizeConfig(loss="sliced_w2", sliced_projections=count)

    @pytest.mark.parametrize("field, value", [
        ("steps", 2.5), ("steps", True), ("seed", 1.5), ("seed", False), ("log_stride", 2.5),
        ("sliced_projections", 4.0), ("lr", "0.05"), ("lr", True), ("lr", None),
        ("lr", 10**400), ("steps", "8"), ("seed", None),
    ])
    def test_settings_refuse_other_types(self, field, value):
        # A float count was truncated or failed mid-run (steps=2.5), a
        # boolean was taken for 0 or 1, and a string lr was a bare TypeError.
        with pytest.raises(ContractViolation, match=field):
            OptimizeConfig(**{field: value})

    def test_numpy_scalars_are_accepted(self):
        opt = OptimizeConfig(steps=np.int64(3), lr=np.float64(0.1), seed=np.uint32(7))
        assert opt.steps == 3 and opt.lr == 0.1 and opt.seed == 7


class TestOptimizePointCloud:
    def test_bit_identical_runs(self):
        initial = x_batch(64, 2, RngStream(1, "init"))
        cfg = KernelConfig.direct_benchmark()
        table = calibrate_null(64, 2, cfg, reps=64, seed=2)
        opt = OptimizeConfig(loss="wristband_pairwise", steps=30, lr=0.05, seed=3)
        f1, t1 = optimize_point_cloud(initial, opt, cfg, table)
        f2, t2 = optimize_point_cloud(initial, opt, cfg, table)
        assert np.array_equal(f1, f2)
        assert t1 == t2

    def test_null_stability(self):
        # A batch that is already Gaussian starts inside the null band
        # and never leaves it upward: optimization may push the batch
        # below the band (a finite batch can be made more uniform than
        # a typical random draw), but must never make it worse, and the
        # trajectory must stay finite.
        n, d = 128, 4
        cfg = KernelConfig(beta=8.0, alpha=1.0)
        table = calibrate_null(n, d, cfg, reps=256, seed=4)
        initial = gaussian_batch(n, d, RngStream(5, "null"))
        opt = OptimizeConfig(loss="wristband_pairwise", steps=200, lr=0.05, seed=6, log_stride=5)
        _, traj = optimize_point_cloud(initial, opt, cfg, table)
        values = np.array([v for _, v in traj])
        assert abs(values[0]) < 3.0
        assert np.all(values < 3.0)
        assert values[-1] <= values[0]
        assert np.all(np.isfinite(values))

    def test_mmd_decreases(self):
        initial = x_batch(128, 2, RngStream(7, "init"))
        opt = OptimizeConfig(loss="mmd", steps=300, lr=0.05, seed=8, log_stride=1)
        _, traj = optimize_point_cloud(initial, opt, KernelConfig(), None)
        values = np.array([v for _, v in traj])
        head = values[:50].mean()
        tail = values[-50:].mean()
        assert tail < head

    def test_sliced_w2_runs_and_is_deterministic(self):
        initial = x_batch(64, 3, RngStream(9, "init"))
        opt = OptimizeConfig(loss="sliced_w2", steps=50, lr=0.05, seed=10,
                             sliced_projections=32)
        f1, _ = optimize_point_cloud(initial, opt, KernelConfig(), None)
        f2, _ = optimize_point_cloud(initial, opt, KernelConfig(), None)
        assert np.array_equal(f1, f2)

    def test_trajectory_stride_contract(self):
        initial = gaussian_batch(32, 3, RngStream(11, "init"))
        opt = OptimizeConfig(loss="mmd", steps=100, lr=0.01, seed=12, log_stride=10)
        _, traj = optimize_point_cloud(initial, opt, KernelConfig(), None)
        steps = [s for s, _ in traj]
        assert steps == list(range(0, 100, 10)) + [99]

    def test_wristband_requires_table(self):
        initial = gaussian_batch(16, 3, RngStream(13, "init"))
        opt = OptimizeConfig(loss="wristband_pairwise", steps=5, lr=0.05)
        with pytest.raises(ContractViolation):
            optimize_point_cloud(initial, opt, KernelConfig(), None)

    @pytest.mark.parametrize("loss", ["mmd", "sliced_w2"])
    def test_baseline_losses_refuse_a_table(self, loss):
        cfg = KernelConfig(beta=8.0, alpha=1.0)
        table = calibrate_null(16, 3, cfg, reps=4, seed=1)
        initial = gaussian_batch(16, 3, RngStream(20, "init"))
        opt = OptimizeConfig(loss=loss, steps=2, lr=0.05)
        with pytest.raises(ContractViolation, match="takes no calibration table"):
            optimize_point_cloud(initial, opt, cfg, table)

    def test_path_mismatch_rejected(self):
        cfg = KernelConfig(beta=8.0, alpha=1.0)
        table = calibrate_null(16, 3, cfg, reps=16, seed=1, loss_path="spectral")
        initial = gaussian_batch(16, 3, RngStream(14, "init"))
        opt = OptimizeConfig(loss="wristband_pairwise", steps=5, lr=0.05)
        with pytest.raises(ContractViolation):
            optimize_point_cloud(initial, opt, cfg, table)

    def test_kernel_config_must_match_table(self):
        cfg = KernelConfig(beta=8.0, alpha=1.0)
        table = calibrate_null(16, 3, cfg, reps=16, seed=1)
        initial = gaussian_batch(16, 3, RngStream(19, "init"))
        opt = OptimizeConfig(loss="wristband_pairwise", steps=2, lr=0.05)
        with pytest.raises(ContractViolation):
            optimize_point_cloud(initial, opt, KernelConfig.direct_benchmark(), table)
        final, _ = optimize_point_cloud(initial, opt, cfg, table)
        assert final.shape == (16, 3)

    def test_divergence_reports_step(self):
        # Adam moves a coordinate by about lr per step, so lr 1e300 sends the
        # first step's points past overflow.  The baselines' loss at step 1 is
        # then non-finite; on the wristband losses the moment covariance
        # overflows and the eigensolver refuses it, which is the same
        # divergence and is reported as one, with the refusal chained.  The
        # overflow warnings on the way are silenced so that the abort is
        # reached.
        initial = gaussian_batch(16, 3, RngStream(15, "init"))
        cfg = KernelConfig(beta=8.0, alpha=1.0)
        pairwise = calibrate_null(16, 3, cfg, reps=8, seed=1)
        refused = "batch refused at step 1: matrix contains non-finite entries"
        for loss, table, message in [
            ("mmd", None, "non-finite loss or gradient at step 1 (loss=nan)"),
            ("sliced_w2", None, "non-finite loss or gradient at step 1 (loss=inf)"),
            ("wristband_pairwise", pairwise, refused),
            ("wristband_spectral", calibrate_null(16, 3, cfg, reps=8, seed=1,
                                                  loss_path="spectral"), refused),
        ]:
            opt = OptimizeConfig(loss=loss, steps=50, lr=1e300, seed=16)
            with np.errstate(all="ignore"), pytest.raises(OptimizationFailure) as exc:
                optimize_point_cloud(initial, opt, cfg, table)
            assert exc.value.step == 1 and str(exc.value) == message, loss
            assert isinstance(exc.value.__cause__, ContractViolation) == (message == refused)
        # At step 0 the batch is still the caller's: a start whose moment
        # covariance overflows is a bad argument, not a diverged run.
        opt = OptimizeConfig(loss="wristband_pairwise", steps=5, seed=16)
        with np.errstate(all="ignore"), pytest.raises(ContractViolation) as exc:
            optimize_point_cloud(1e300 * initial, opt, cfg, pairwise)
        assert type(exc.value) is ContractViolation
        assert str(exc.value) == "matrix contains non-finite entries"

    def test_cosine_schedule_runs(self):
        initial = gaussian_batch(16, 3, RngStream(17, "init"))
        opt = OptimizeConfig(loss="mmd", steps=20, lr=0.05, schedule="cosine", seed=18)
        _, traj = optimize_point_cloud(initial, opt, KernelConfig(), None)
        assert len(traj) >= 2
