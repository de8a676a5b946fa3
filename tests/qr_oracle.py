"""Per-draw selection rules on the QR route: the reference the batched
kernels of ``antsel.selection`` are tested against, and the per-draw
loop of verify's DF stage oracle.

Every height comes from ``channel.projection_height_sq`` (Householder QR
of the span columns), so these loops share no arithmetic with the
Gram-entry kernels.  Each rule walks its candidates in lexicographic
order and keeps the first best one; first-ordered prefers, within a pair,
the smaller column first, and across pairs the earlier pair.  The DF
stage oracle's loop selects through the package's per-draw ``select``
and reads its reference off the triangular diagonal of ``np.linalg.qr``.
"""

import itertools

import numpy as np

from antsel import receivers as rx
from antsel.channel import as_channel_matrix, projection_height_sq, sample_channel
from antsel.selection import AntennaSubset, select, subset_metrics


def height(H, k, span):
    return projection_height_sq(H, k, span).height_sq


def reference_columns(rule, H, L, rng=None):
    """Columns of ``H`` the rule selects, first decoded first.

    random draws one subset rank from ``rng`` with a scalar call.
    """
    H = as_channel_matrix(H)
    n_t = H.shape[1]
    if rule == "random":
        subsets = list(itertools.combinations(range(n_t), L))
        return subsets[int(rng.integers(0, len(subsets)))]
    if rule == "maxmin":
        best_val, best = -1.0, None
        for subset in itertools.combinations(range(n_t), L):
            val = subset_metrics(H, AntennaSubset(subset)).min_height
            if val > best_val:
                best_val, best = val, subset
        return best
    if rule == "first-fixed":
        best_val, best = -1.0, None
        for k, j in itertools.combinations(range(n_t), 2):
            val = height(H, k, (j,))
            if val > best_val:
                best_val, best = val, (k, j)
        return best
    if rule == "first-ordered":
        best_val, best = -1.0, None
        for k, j in itertools.combinations(range(n_t), 2):
            h_kj, h_jk = height(H, k, (j,)), height(H, j, (k,))
            if max(h_kj, h_jk) > best_val:
                best_val, best = max(h_kj, h_jk), ((k, j) if h_kj >= h_jk else (j, k))
        return best
    if rule == "qr-greedy":
        selected = []
        for _ in range(L):
            best_val, best = -1.0, None
            for j in range(n_t):
                if j not in selected and (val := height(H, j, selected)) > best_val:
                    best_val, best = val, j
            selected.append(best)
        return tuple(reversed(selected))  # the last pick is decoded first
    raise ValueError(f"no reference for rule {rule!r}")


def reference_scalar(rule, H, cols):
    """The outage scalar of ``cols`` (first decoded first): the worst
    stream for maxmin and random, else the first decoded layer's height
    against the other selected columns."""
    if rule in ("maxmin", "random"):
        return subset_metrics(H, AntennaSubset(tuple(sorted(cols)))).min_height
    return height(H, cols[0], cols[1:])


def reference_stage_oracle(draws, seed):
    """``verify.qr_df_stage_oracle`` one draw at a time through the per-draw
    API: ``sample_channel``, ``select("qr-greedy", ...)`` and
    ``df_stage_snrs``, against ``np.linalg.qr`` of each draw's selected
    columns."""
    n_t, n_r, L, rho0 = 3, 3, 2, 10.0
    budget = rx.LinkBudget(rho0=rho0, L=L)
    worst = 0.0
    first_pick_ok = True
    for d in range(draws):
        H = sample_channel(n_r, n_t, seed, d).matrix
        outcome = select("qr-greedy", H, L)
        # selection order: reverse of the decode order over the sorted subset
        selection_cols = [outcome.subset.indices[p] for p in reversed(outcome.decode_order)]
        norms = np.real(np.einsum("rt,rt->t", H.conj(), H))
        first_pick_ok &= bool(norms[selection_cols[0]] == norms.max())
        H_sel = H[:, selection_cols]
        r = np.linalg.qr(H_sel, mode="r")
        diag_snrs = (rho0 / L) * np.abs(np.diagonal(r)) ** 2
        stage = rx.df_stage_snrs(H_sel, budget, tuple(range(L - 1, -1, -1)))
        rel = np.abs(np.asarray(stage) - diag_snrs[::-1]) / diag_snrs[::-1]
        worst = max(worst, float(rel.max()))
    return worst, first_pick_ok
