"""Per-draw selection rules on the QR route: the reference the batched
kernels of ``antsel.selection`` are tested against.

Every height comes from ``channel.projection_height_sq`` (Householder QR
of the span columns), so these loops share no arithmetic with the
Gram-entry kernels.  Each rule walks its candidates in lexicographic
order and keeps the first best one; first-ordered prefers, within a pair,
the smaller column first, and across pairs the earlier pair.
"""

import itertools

from antsel.channel import as_channel_matrix, projection_height_sq
from antsel.selection import AntennaSubset, subset_metrics


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
