"""The pair table by gathered columns: the reference that
``antsel.selection._pair_table`` must equal bit for bit.

It forms the same products, sums and quotients in the same order, but
reads each pair's columns by fancy-index gathers of the whole block, in
one pass.  A channel's entries depend on that channel alone, so the
kernel's passes and its per-column broadcast products must not change a
bit of them.
"""

import numpy as np

from antsel.selection import _subsets


def reference_pair_table(H):
    """``(norms, fwd, bwd)`` of the (B, n_r, n_t) block ``H``, as
    ``_pair_table`` documents them."""
    B, n_r, n_t = H.shape
    iu, ju = _subsets(n_t, 2).T
    floats = np.ascontiguousarray(H, dtype=np.complex128).view(np.float64)
    re, im = np.ascontiguousarray(floats.reshape(B, n_r, n_t, 2).transpose(3, 1, 2, 0))
    re_i, re_j, im_i, im_j = re[:, iu], re[:, ju], im[:, iu], im[:, ju]
    sq = re * re + im * im
    g_re = re_i * re_j + im_i * im_j
    g_im = re_i * im_j - im_i * re_j
    for r in range(1, n_r):
        sq[0] += sq[r]
        g_re[0] += g_re[r]
        g_im[0] += g_im[r]
    n = sq[0]
    mag2 = g_re[0] * g_re[0] + g_im[0] * g_im[0]
    divisor = np.maximum(n, 1e-300)
    return n, n[iu] - mag2 / divisor[ju], n[ju] - mag2 / divisor[iu]
