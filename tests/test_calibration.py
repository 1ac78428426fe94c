import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wristband import calibration
from wristband.accelerators import (
    _centered_moment_summary,
    _moment_gradient_matrix,
    _moment_value,
    _radial_value_grad_t,
    moment_w2_loss,
    radial_w2_loss,
)
from wristband.calibration import (
    _FLOAT_FIELDS,
    LOSS_PATHS,
    CalibrationTable,
    _standardized_step,
    _step_buffers,
    _validate_for_table,
    calibrate_null,
    standardized_wristband_loss,
)
from wristband.errors import ContractViolation, FormatError, UnsupportedDimension
from wristband.generators import RngStream, gaussian_batch, x_batch
from wristband.pairwise import DEFAULT_TILE, KernelConfig, _cotangents, pairwise_repulsion_loss
from wristband.parity import finite_difference_check
from wristband.spectral import spectral_loss
from wristband.wristband_map import _backward, wristband_backward, wristband_forward


CFG = KernelConfig(beta=8.0, alpha=1.0)


@pytest.fixture(scope="module")
def small_table():
    return calibrate_null(64, 4, CFG, reps=128, seed=11)


def test_determinism_bit_identical(small_table):
    again = calibrate_null(64, 4, CFG, reps=128, seed=11)
    assert small_table == again
    assert small_table.to_json() == again.to_json()


def test_json_roundtrip_bit_exact(small_table):
    back = CalibrationTable.from_json(small_table.to_json())
    assert back == small_table


def test_json_roundtrip_of_numpy_scalar_config():
    """A table calibrated under numpy-scalar bandwidths is written with floats and reads back."""
    cfg = KernelConfig(beta=np.float64(8.0), alpha=np.float32(0.5))
    table = calibrate_null(16, 3, cfg, reps=4, seed=1)
    back = CalibrationTable.from_json(table.to_json())
    assert back == table
    assert back.cfg == KernelConfig(beta=8.0, alpha=0.5)


def test_json_rejects_bad_version(small_table):
    import json

    doc = json.loads(small_table.to_json())
    doc["format_version"] = 2
    with pytest.raises(FormatError):
        CalibrationTable.from_json(json.dumps(doc))


MALFORMED_TABLE_EDITS = {
    "list": lambda doc: [],
    "string": lambda doc: "x",
    "null-float": lambda doc: {**doc, "mu_rep": None},
    "unknown-path": lambda doc: {**doc, "loss_path": "fourier"},
    "negative-sd": lambda doc: {**doc, "sd_rep": "-1.0"},
    "zero-sd-numerator": lambda doc: {**doc, "sd_numerator": "0.0"},
    "nan-mean": lambda doc: {**doc, "mu_rad": "nan"},
    "inf-sd": lambda doc: {**doc, "sd_mom": "inf"},
    "one-rep": lambda doc: {**doc, "reps": 1},
    "cfg-list": lambda doc: {**doc, "cfg": []},
    "cfg-null-beta": lambda doc: {**doc, "cfg": {**doc["cfg"], "beta": None}},
    "cfg-int-weights": lambda doc: {**doc, "cfg": {**doc["cfg"], "weights": 3}},
    "fractional-n": lambda doc: {**doc, "n": 16.9},
    "bool-n": lambda doc: {**doc, "n": True},
    "fractional-reps": lambda doc: {**doc, "reps": 4.7},
    "fractional-seed": lambda doc: {**doc, "seed": 1.5},
    "cfg-fractional-modes": lambda doc: {**doc, "cfg": {**doc["cfg"], "modes": 6.9}},
    "cfg-bool-modes": lambda doc: {**doc, "cfg": {**doc["cfg"], "modes": True}},
    "bool-float": lambda doc: {**doc, "sd_rep": True},
    "cfg-bool-beta": lambda doc: {**doc, "cfg": {**doc["cfg"], "beta": True}},
    "cfg-string-weights": lambda doc: {**doc, "cfg": {**doc["cfg"], "weights": "123"}},
}


@pytest.mark.parametrize("edit", MALFORMED_TABLE_EDITS)
def test_json_rejects_malformed_tables(small_table, edit):
    import json

    text = json.dumps(MALFORMED_TABLE_EDITS[edit](json.loads(small_table.to_json())))
    with pytest.raises(FormatError):
        CalibrationTable.from_json(text)


# Each edit breaks one table invariant.  At n = 64.0 the batch shape still
# matches, an sd of 0 divides by zero and a NaN constant gives a NaN value.
BROKEN_TABLE_EDITS = {
    "zero-sd": {"sd_rep": 0.0},
    "negative-sd": {"sd_numerator": -1.0},
    "nan-sd": {"sd_numerator": math.nan},
    "nan-mean": {"mu_rad": math.nan},
    "inf-sd": {"sd_mom": math.inf},
    "string-mean": {"mu_rep": "0.5"},
    "unknown-path": {"loss_path": "fourier"},
    "float-n": {"n": 64.0},
    "bool-n": {"n": True},
    "one-rep": {"reps": 1},
    "one-dim": {"dim": 1},
    "bool-seed": {"seed": True},
    "dict-cfg": {"cfg": {"beta": 8.0}},
}


@pytest.mark.parametrize("edit", BROKEN_TABLE_EDITS)
def test_table_refuses_broken_invariants(small_table, edit):
    # `replace` builds a new table through the constructor, as a hand-built table does.
    x = gaussian_batch(64, 4, RngStream(6, "broken"))
    with pytest.raises(ContractViolation):
        standardized_wristband_loss(x, replace(small_table, **BROKEN_TABLE_EDITS[edit]))


def test_constants_are_stored_as_python_floats(small_table):
    table = replace(small_table, mu_rep=np.float32(0.25), sd_rep=2, seed=np.int64(3))
    assert type(table.mu_rep) is float and type(table.sd_rep) is float
    assert CalibrationTable.from_json(table.to_json()) == table


def assert_table_invariants(table):
    """The table invariants, restated here rather than read from the constructor."""
    for name in ("n", "dim", "reps"):
        assert type(getattr(table, name)) is int and getattr(table, name) >= 2, name
    assert type(table.seed) is int
    assert isinstance(table.cfg, KernelConfig)
    assert table.loss_path in LOSS_PATHS
    for name in _FLOAT_FIELDS:
        value = getattr(table, name)
        assert type(value) is float and math.isfinite(value), name
        assert value > 0.0 or not name.startswith("sd_"), name
    assert CalibrationTable.from_json(table.to_json()) == table


JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.just(10**400),
    st.floats(),
    st.floats().map(repr),
    st.sampled_from(["", "x", "1e400", "global", "per_point", "pairwise", "spectral"]),
    st.lists(st.one_of(st.floats(), st.integers(-3, 3), st.text(max_size=2)), max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2),
)


def edit_fields(data, doc):
    """Up to three edits, each removing one top-level or cfg field or setting it
    to a small integer or another JSON value; returns the edited document."""
    for _ in range(data.draw(st.integers(1, 3))):
        fields = [(d, k) for d in (doc, doc.get("cfg")) if isinstance(d, dict) for k in sorted(d)]
        target, key = data.draw(st.sampled_from(fields))
        action = data.draw(st.sampled_from(["remove", "small-int", "value"]))
        if action == "remove":
            del target[key]
        else:
            target[key] = data.draw(st.integers(-2, 3) if action == "small-int" else JSON_VALUES)
    return doc


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_from_json_returns_a_checked_table_or_a_format_error(small_table, data):
    doc = edit_fields(data, json.loads(small_table.to_json()))
    try:
        table = CalibrationTable.from_json(json.dumps(doc))
    except FormatError:
        return
    assert_table_invariants(table)


def test_spectral_path_table():
    table = calibrate_null(64, 4, CFG, reps=64, seed=3, loss_path="spectral")
    assert table.loss_path == "spectral"
    batch = gaussian_batch(64, 4, RngStream(5, "t"))
    out = standardized_wristband_loss(batch, table)
    assert np.isfinite(out.value)


def test_null_self_consistency_small():
    table = calibrate_null(64, 4, CFG, reps=512, seed=1)
    vals = []
    for k in range(256):
        batch = gaussian_batch(64, 4, RngStream(77, f"fresh/{k}"))
        vals.append(standardized_wristband_loss(batch, table).value)
    vals = np.asarray(vals)
    assert abs(vals.mean()) < 0.2
    assert 0.8 < vals.std(ddof=1) < 1.25


def test_structured_batch_scores_high():
    n, d = 256, 2
    cfg = KernelConfig.direct_benchmark()
    table = calibrate_null(n, d, cfg, reps=256, seed=2)
    raw = x_batch(n, d, RngStream(9, "x"))
    out = standardized_wristband_loss(raw, table)
    assert out.value > 3.0


def test_weights_linearity(small_table):
    from dataclasses import replace

    cfg_rep_only = replace(CFG, weights=(1.0, 0.0, 0.0))
    table = calibrate_null(64, 4, cfg_rep_only, reps=128, seed=11)
    batch = gaussian_batch(64, 4, RngStream(13, "w"))
    out = standardized_wristband_loss(batch, table)
    # With weights (1, 0, 0) the statistic is the standardized repulsion
    # alone (up to its own numerator std).
    rep = pairwise_repulsion_loss(batch, cfg_rep_only).value
    expected = (rep - table.mu_rep) / (table.sd_rep * table.sd_numerator)
    assert out.value == pytest.approx(expected, rel=1e-12)


def _recomposed(x, table):
    """The statistic and its gradient from the public component functions."""
    cfg = table.cfg
    rep = (pairwise_repulsion_loss if table.loss_path == "pairwise" else spectral_loss)(x, cfg)
    rad = radial_w2_loss(wristband_forward(x))
    mom = moment_w2_loss(x)
    w_rep, w_rad, w_mom = cfg.weights
    s = (
        w_rep * (rep.value - table.mu_rep) / table.sd_rep
        + w_rad * (rad.value - table.mu_rad) / table.sd_rad
        + w_mom * (mom.value - table.mu_mom) / table.sd_mom
    )
    grad = (
        (w_rep / (table.sd_rep * table.sd_numerator)) * rep.grad
        + (w_rad / (table.sd_rad * table.sd_numerator)) * rad.grad
        + (w_mom / (table.sd_mom * table.sd_numerator)) * mom.grad
    )
    return s / table.sd_numerator, grad


@pytest.mark.parametrize("loss_path", ["pairwise", "spectral"])
def test_single_forward_matches_component_functions(loss_path):
    n, d = 96, 4
    table = calibrate_null(n, d, CFG, reps=32, seed=7, loss_path=loss_path)
    gauss = gaussian_batch(n, d, RngStream(8, "recompose"))
    floored = gauss.copy()
    floored[5] = 1e-14  # norm below NORM_FLOOR
    assert wristband_forward(floored).norm_floored[5]
    for x in (gauss, floored, x_batch(n, d, RngStream(9, "recompose"))):
        out = standardized_wristband_loss(x, table)
        value, grad = _recomposed(x, table)
        assert out.value == value
        assert np.max(np.abs(out.grad - grad)) <= 1e-12 * np.max(np.abs(grad))


@st.composite
def spectral_step_cases(draw):
    """A batch for the spectral path with a table of random null statistics.

    Shapes are n 2-64 and d 3-12, with n <= d in about half the cases;
    up to two rows are floored (at or near the origin) and up to two are
    saturated (scaled by 1e3, so t = 1 and the chi-squared density is 0).
    """
    weights = st.one_of(st.just(0.0), st.floats(0.01, 2.0))
    d = draw(st.integers(3, 12))
    n = draw(st.one_of(st.integers(2, d), st.integers(2, 64)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, d)) * np.exp(0.5 * rng.normal(size=(n, 1)))
    x[draw(st.lists(st.integers(0, n - 1), max_size=2))] *= 1e3
    x[draw(st.lists(st.integers(0, n - 1), max_size=2))] = draw(st.sampled_from([0.0, 1e-14]))
    cfg = KernelConfig(beta=draw(st.floats(1.0, 256.0)), alpha=draw(st.floats(0.25, 1.5)),
                       modes=draw(st.integers(1, 8)),
                       weights=tuple(draw(weights) for _ in range(3)))
    mus = [draw(st.floats(-1.0, 1.0)) for _ in range(3)]
    sds = [draw(st.floats(0.01, 10.0)) for _ in range(4)]
    table = CalibrationTable(n=n, dim=d, cfg=cfg, reps=2, mu_rep=mus[0], mu_rad=mus[1],
                             mu_mom=mus[2], sd_rep=sds[0], sd_rad=sds[1], sd_mom=sds[2],
                             sd_numerator=sds[3], seed=0, loss_path="spectral")
    return x, table


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=spectral_step_cases())
def test_spectral_step_matches_component_functions(case):
    # The spectral step writes its gradient without forming the direction
    # cotangent and carries the moment mean in the spectral product; the
    # public components compose the same statistic by separate pullbacks.
    # Values are equal.  Gradients differ by rounding, which the moment
    # term's clamped covariance derivative amplifies on rank-deficient
    # batches: over 6,000 random examples the worst difference relative
    # to the gradient's max norm was 1.7e-11 on rank-deficient batches and
    # 3.5e-15 on full-rank ones.  spectral_loss shares the step's pass, so
    # floored rows are also checked on their own: they get the moment
    # gradient alone.
    x, table = case
    out = standardized_wristband_loss(x, table)
    value, grad = _recomposed(x, table)
    assert out.value == value
    full_rank = np.linalg.matrix_rank(x - x.mean(axis=0)) == x.shape[1]
    bound = (1e-13 if full_rank else 1e-10) * np.max(np.abs(grad)) + 1e-300
    assert np.max(np.abs(out.grad - grad)) <= bound
    floored = wristband_forward(x).norm_floored
    c_mom = table.cfg.weights[2] / (table.sd_mom * table.sd_numerator)
    moment_rows = c_mom * moment_w2_loss(x).grad[floored]
    assert np.all(np.abs(out.grad[floored] - moment_rows) <= bound)


@pytest.mark.parametrize("reduction", ["global", "per_point"])
def test_pairwise_gradient_is_the_written_out_combination(reduction):
    # The pairwise pass weights the cotangents in place, pulls them back
    # with the radial t-cotangent and adds the moment term's mean row; the
    # step then accumulates the moment product.  That must give the same
    # bytes as weighting the cotangents outside, pulling back once, and
    # adding the scaled mean row and then the moment product: (P + r) + M.
    n, d = 77, 5
    cfg = KernelConfig(beta=8.0, alpha=1.0, reduction=reduction)
    table = calibrate_null(n, d, cfg, reps=16, seed=12)
    x = x_batch(n, d, RngStream(13, "in-place"))
    wb = wristband_forward(x)
    _, gu, gt = _cotangents(wb, cfg, DEFAULT_TILE)
    _, rt = _radial_value_grad_t(wb.t)
    ms, centered = _centered_moment_summary(x)
    w_rep, w_rad, w_mom = cfg.weights
    c_rep = w_rep / (table.sd_rep * table.sd_numerator)
    c_rad = w_rad / (table.sd_rad * table.sd_numerator)
    c_mom = w_mom / (table.sd_mom * table.sd_numerator)
    scale = c_mom * 2.0 / n
    expected = _backward(x, wb, c_rep * gu, c_rep * gt + c_rad * rt)
    expected += scale * ms.mean
    expected += centered @ _moment_gradient_matrix(ms, _moment_value(ms)[1], scale)
    assert standardized_wristband_loss(x, table).grad.tobytes() == expected.tobytes()


def test_gradient_fd(small_table):
    rng = np.random.default_rng(20)
    table = calibrate_null(24, 4, CFG, reps=64, seed=4)
    x = rng.normal(size=(24, 4))
    report = finite_difference_check(lambda b: standardized_wristband_loss(b, table), x)
    assert report.rel_l2_error <= 1e-5
    assert report.cosine >= 0.99999


def test_shape_and_path_contracts(small_table):
    with pytest.raises(ContractViolation):
        standardized_wristband_loss(np.ones((32, 4)), small_table)
    with pytest.raises(ContractViolation):
        calibrate_null(16, 3, CFG, reps=1, seed=0)
    with pytest.raises(ContractViolation):
        calibrate_null(16, 3, CFG, reps=8, seed=0, loss_path="fourier")
    with pytest.raises(ContractViolation):
        calibrate_null(1, 3, CFG, reps=8, seed=0)  # one point has no covariance


def test_standardized_loss_validates_the_batch(small_table):
    for bad in (np.ones(64 * 4), np.full((64, 4), np.nan), np.ones((1, 4))):
        with pytest.raises(ContractViolation):
            standardized_wristband_loss(bad, small_table)
    with pytest.raises(UnsupportedDimension):
        standardized_wristband_loss(np.ones((64, 1)), small_table)


class TestBufferedStep:
    """The optimizer's step writes into caller-owned buffers; public calls never alias."""

    def test_returned_gradient_survives_a_later_call(self):
        cfg = KernelConfig(beta=8.0, alpha=0.5)
        for path in ("pairwise", "spectral"):
            table = calibrate_null(48, 4, cfg, reps=8, seed=30, loss_path=path)
            x1 = x_batch(48, 4, RngStream(31, "first"))
            x2 = gaussian_batch(48, 4, RngStream(32, "second"))
            before = x1.copy()
            g1 = standardized_wristband_loss(x1, table).grad
            kept = g1.copy()
            standardized_wristband_loss(x2, table)
            assert g1.tobytes() == kept.tobytes()
            assert x1.tobytes() == before.tobytes()

    def test_public_pieces_leave_their_arguments_alone(self):
        x = x_batch(40, 5, RngStream(33, "args"))
        x[2] = 0.0  # a floored point
        wb = wristband_forward(x)
        grad_u = np.random.default_rng(34).normal(size=x.shape)
        grad_t = np.random.default_rng(35).normal(size=40)
        saved = [a.copy() for a in (x, grad_u, grad_t, wb.u, wb.t)]
        wristband_backward(x, wb, grad_u, grad_t)
        moment_w2_loss(x)
        for a, b in zip((x, grad_u, grad_t, wb.u, wb.t), saved):
            assert a.tobytes() == b.tobytes()

    def test_steady_state_step_allocates_no_batch_sized_array(self, monkeypatch):
        # At the benchmark's d = 64, every N x d result of a step goes to
        # the buffers, and the returned gradient is the second buffer itself
        # (a copy made by the accumulating product would not be).  The
        # spectral step's traced peak stays below the size of one N x d
        # float64 array (an allocating step reaches several).  The pairwise
        # pass holds image arrays wider than the batch and pulls back
        # through two N x d temporaries, so on that path the peak is taken
        # from the end of the pass, above what the pass leaves allocated:
        # the moment term after it must stay below one N x d array too.
        n, d = 1024, 64
        cfg = KernelConfig(beta=8.0, alpha=0.5)
        x = gaussian_batch(n, d, RngStream(39, "peak"))
        kernel_pass = calibration._pairwise_value_grad
        held = [0]

        def reset_peak_after(*args):
            result = kernel_pass(*args)
            tracemalloc.reset_peak()
            held[0] = tracemalloc.get_traced_memory()[0]
            return result

        for loss_path in ("spectral", "pairwise"):
            table = calibrate_null(n, d, cfg, reps=4, seed=38, loss_path=loss_path)
            buffers = _step_buffers(x.shape)
            _standardized_step(_validate_for_table(x, table), table, buffers)  # warm caches
            if loss_path == "pairwise":
                monkeypatch.setattr(calibration, "_pairwise_value_grad", reset_peak_after)
            tracemalloc.start()
            try:
                out = _standardized_step(_validate_for_table(x, table), table, buffers)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.grad is buffers[1]
            assert peak - held[0] < 8 * n * d, loss_path
