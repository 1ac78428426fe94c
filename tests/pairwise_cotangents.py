"""The pairwise loss's (u, t) cotangents, written out from `_accumulate_grads`.

The gradient pass weights the cotangents of its tile pass by the
reduction and pulls them back to the points in one call, so no package
function returns them.  The tests that check the cotangents themselves,
or the bytes of the pass and of the standardized step built from them,
take them from here.
"""

from wristband.pairwise import _accumulate_grads, _reduce, _row_sums


def reduction_cotangents(wb, cfg, tile):
    """Loss value and the cotangents (grad_u, grad_t), weighted as the reduction asks.

    Row weights w_i give grad = sum_j (w_i + w_j) dK(i, j).  Global
    reduction: one unit-weight pass gives the kernel total, and both
    cotangents are rescaled once by 2w, w = 1 / (beta (a + eps) (3N^2 - N)).
    Per-point reduction: the row sums first, then the pass weighted by
    w_i = 1 / (N beta (a_i + eps) (3N - 1)).
    """
    n = wb.n
    if cfg.reduction == "global":
        grad_u, grad_t, _, total = _accumulate_grads(wb, cfg, None, tile)
        value, a = _reduce(total, cfg)
        w2 = 2.0 / (cfg.beta * (a + cfg.eps) * (3.0 * n * n - n))
        grad_u *= w2
        grad_t *= w2
        return value, grad_u, grad_t
    value, a_i = _reduce(_row_sums(wb, cfg, tile), cfg)
    w = 1.0 / (n * cfg.beta * (a_i + cfg.eps) * (3.0 * n - 1.0))
    grad_u, grad_t, _, _ = _accumulate_grads(wb, cfg, w, tile)
    return value, grad_u, grad_t
