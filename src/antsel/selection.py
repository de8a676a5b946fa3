"""Antenna-subset enumeration and the transmit-selection rules.

The batched kernels read Gram entries of a (B, n_r, n_t) block of
channels: one pair table serves every rule at L = 2, a determinant
lattice serves maxmin and random at other L, and a Cholesky greedy
serves qr-greedy.  :func:`select_block` gives each channel's selected
columns, first decoded first; :func:`_outage_scalars` the scalar the
outage experiment thresholds.  The per-draw rules are batch-of-one calls
of :func:`select_block` returning a :class:`SelectionOutcome`, whose
heights come from the QR route of :func:`subset_metrics`.

Ties (probability zero under the continuous channel model) go to the
lexicographically smallest subset or pair, and in qr-greedy to the
smallest column at each step.  first-ordered prefers any pair's forward
height (smaller column first) to an equal backward height of any pair.
An all-zero column (a dead antenna) is valid input: a height against it
is the other column's norm, and a subset holding it has height 0.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .channel import as_channel_matrix, projection_height_sq

#: Stable rule identifiers used by the CLI and in output files.
RULES = ("maxmin", "first-fixed", "first-ordered", "qr-greedy", "random")

#: Channels per pass of the Gram-entry kernels (the determinant lattice,
#: the pair table and the Cholesky greedy).  Keeps their working set
#: cache-sized and their memory small next to the chunk's draw; 2048 was
#: the fastest of 1024-49152 for the (8, 8, 4) lattice.
_LATTICE_LANES = 2048


@dataclass(frozen=True)
class AntennaSubset:
    """Strictly increasing transmit-column indices of one candidate subset."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if not idx:
            raise ValueError("antenna subset cannot be empty")
        if min(idx) < 0 or any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError(f"subset indices must be distinct, ascending and non-negative: {self.indices}")
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class SubsetMetrics:
    """Per-stream squared projection heights of a subset and their minimum.

    ``heights[i]`` is the squared height of column ``subset.indices[i]``
    against the span of the other selected columns; ``min_height`` is the
    weakest stream and governs high-SNR behaviour.
    """

    subset: AntennaSubset
    heights: tuple[float, ...]
    min_height: float


@dataclass(frozen=True)
class SelectionOutcome:
    """Chosen subset, its metrics, and the receiver decode order.

    ``decode_order`` is a permutation of stream positions 0..L-1 within
    the sorted subset; the first entry is decoded first.
    """

    rule: str
    subset: AntennaSubset
    metrics: SubsetMetrics
    decode_order: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.decode_order) != list(range(len(self.subset))):
            raise ValueError(f"decode_order {self.decode_order} is not a permutation of 0..{len(self.subset) - 1}")


def enumerate_subsets(n_t: int, L: int) -> list[AntennaSubset]:
    """All size-L column subsets of ``n_t`` antennas in lexicographic order.

    The first (n_t-1 choose L-1) subsets are exactly those containing
    column 0.
    """
    if L < 1:
        raise ValueError(f"subset size must be positive, got {L}")
    if L > n_t:
        raise ValueError(f"cannot choose {L} antennas out of {n_t}")
    return [AntennaSubset(c) for c in itertools.combinations(range(int(n_t)), int(L))]


def subset_metrics(H, subset: AntennaSubset) -> SubsetMetrics:
    """Per-stream squared projection heights for ``subset`` columns of ``H``."""
    H = as_channel_matrix(H)
    if H.shape[0] < len(subset):
        raise ValueError(f"need at least {len(subset)} receive rows, got {H.shape[0]}")
    idx = subset.indices
    heights = []
    for i, k in enumerate(idx):
        others = idx[:i] + idx[i + 1:]
        heights.append(projection_height_sq(H, k, others).height_sq)
    return SubsetMetrics(subset=subset, heights=tuple(heights), min_height=min(heights))


# ---------------------------------------------------------------------------
# batched kernels
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _subsets(n_t: int, L: int) -> np.ndarray:
    """(C(n_t, L), L) column indices of every size-L subset, lexicographic."""
    subsets = np.array(list(itertools.combinations(range(n_t), L)), dtype=np.int64).reshape(-1, L)
    subsets.setflags(write=False)
    return subsets


def _max_argmax(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximum over the short axis 0 of a NaN-free (K, B) array and the
    smallest row index holding it.  One ``max(axis=0)`` and a match of
    the rows from the last to the first: ``argmax(axis=0)`` walks each
    lane across the rows and costs about twice as much at K = 3."""
    top = a.max(axis=0)
    arg = np.full(a.shape[1], len(a) - 1, dtype=np.int64)
    for p in range(len(a) - 2, -1, -1):
        arg = np.where(a[p] == top, p, arg)
    return top, arg


def _pair_table(H: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column norms and the two heights of every column pair.

    Returns ``norms`` (n_t, B), the squared column norms n_k, and ``fwd``,
    ``bwd`` (C(n_t, 2), B): for the pair (i, j), i < j, of lexicographic
    rank p, ``fwd[p]`` is the height of column i against column j,
    n_i - |g_ij|^2 / n_j, and ``bwd[p]`` that of j against i,
    n_j - |g_ij|^2 / n_i, where g_ij is entry (i, j) of G = H^H H.  Against
    an all-zero column g_ij = 0, and the divisor is clamped away from 0 so
    the height is the other column's norm.

    The Gram entries are sums over the receive rows of products of the
    real and imaginary planes of each pass of ``_LATTICE_LANES`` channels,
    laid out as (n_r, n_t, lanes); at small n_t this beats a complex
    matmul.  The rows are summed in order, elementwise, so a channel's
    entries do not depend on the pass it falls in.  Every L = 2 rule reads
    these arrays, so on common draws first-ordered >= first-fixed >=
    maxmin >= random holds exactly, draw by draw.
    """
    B, n_r, n_t = H.shape
    iu, ju = _subsets(n_t, 2).T
    norms = np.empty((n_t, B))
    fwd = np.empty((len(iu), B))
    bwd = np.empty((len(iu), B))
    for lo in range(0, B, _LATTICE_LANES):
        hi = min(lo + _LATTICE_LANES, B)
        floats = np.ascontiguousarray(H[lo:hi], dtype=np.complex128).view(np.float64)
        re, im = np.ascontiguousarray(floats.reshape(hi - lo, n_r, n_t, 2).transpose(3, 1, 2, 0))
        re_i, re_j, im_i, im_j = re[:, iu], re[:, ju], im[:, iu], im[:, ju]
        # per receive row: |h_rk|^2 and the real and imaginary parts of conj(h_ri) h_rj
        sq = re * re + im * im
        g_re = re_i * re_j + im_i * im_j
        g_im = re_i * im_j - im_i * re_j
        for r in range(1, n_r):
            sq[0] += sq[r]
            g_re[0] += g_re[r]
            g_im[0] += g_im[r]
        n = sq[0]
        mag2 = g_re[0] * g_re[0] + g_im[0] * g_im[0]
        norms[:, lo:hi] = n
        divisor = np.maximum(n, 1e-300)
        fwd[:, lo:hi] = n[iu] - mag2 / divisor[ju]
        bwd[:, lo:hi] = n[ju] - mag2 / divisor[iu]
    return norms, fwd, bwd


@dataclass(frozen=True)
class _LeafBlock:
    """The size-L subsets P + (t, j), t < j, below one prefix P of size L-2.

    ``lower_first`` ranks P + (start,) among the (L-1)-subsets; the ranks of
    P + (t,) for t >= start follow it.  ``leaf_first`` ranks the block's
    first leaf among the L-subsets.  ``minors[i, p]`` ranks leaf p with its
    i-th column dropped among the (L-1)-subsets.
    """

    start: int
    lower_first: int
    leaf_first: int
    first: np.ndarray
    second: np.ndarray
    minors: np.ndarray


@functools.lru_cache(maxsize=None)
def _lattice_plan(n_t: int, L: int) -> tuple:
    """Visit order of the determinant lattice for size-L subsets, L >= 2.

    The prefix tree is walked depth first with children in decreasing
    column order.  An ``(m, t)`` step extends the current prefix of size m
    by column t; a :class:`_LeafBlock` closes a prefix of size L-2.  The
    order visits prefixes in decreasing lexicographic order, so when a
    block is reached every (L-1)-minor its leaves need (each lies below a
    lexicographically larger prefix, or is P + (t,) itself) is known.
    """
    lower = {c: r for r, c in enumerate(itertools.combinations(range(n_t), L - 1))}
    upper = {c: r for r, c in enumerate(itertools.combinations(range(n_t), L))}
    plan: list = []

    def walk(prefix: tuple[int, ...]) -> None:
        start = prefix[-1] + 1 if prefix else 0
        m = len(prefix)
        if m == L - 2:
            pairs = list(itertools.combinations(range(start, n_t), 2))
            leaves = [prefix + p for p in pairs]
            minors = np.array([[lower[s[:i] + s[i + 1:]] for s in leaves] for i in range(L)],
                              dtype=np.int64).reshape(L, len(pairs))
            first, second = (np.array(c, dtype=np.int64) for c in zip(*pairs)) if pairs else (None, None)
            plan.append(_LeafBlock(start, lower[prefix + (start,)], upper[leaves[0]] if leaves else -1,
                                   first, second, minors))
            return
        # the final prefix needs one column after it: t <= n_t - L + m + 1
        for t in range(n_t - L + m + 1, start - 1, -1):
            plan.append((m, t))
            walk(prefix + (t,))

    walk(())
    return tuple(plan)


def _lattice_heights(H: np.ndarray, L: int) -> Iterator[tuple[int, np.ndarray]]:
    """Worst-stream heights of every size-L column subset from one
    determinant lattice of the Gram matrix G = H^H H.

    Yields ``(first_rank, heights)`` blocks: ``heights[p]`` (shape (B,)) is
    the worst-stream height of the subset of lexicographic rank
    ``first_rank + p``.  Blocks come in decreasing rank order, leaves
    within a block in increasing order; together they cover every subset
    once.

    Each height is a ratio of principal Gram minors,
    h(k | S minus k) = det G_S / det G_{S minus k}, so the worst stream of S
    is det G_S / max_k det G_{S minus k}.  G is formed once by one batched
    matmul and laid out as (n_t, n_t, B).  The prefix tree of the
    lexicographic subsets is walked depth first, carrying the Cholesky
    rows of the prefix and the residual diagonal d_j = h(j | prefix): a
    child costs one row update and det G_{T+j} = det G_T * d_j.  Only the
    (L-1)-minors are stored, in one (C(n_t, L-1), B) table; the size-L
    determinants are reduced block by block as they are yielded.  A
    column in the span of the prefix (pivot <= 0) gets a zero Cholesky
    row, and the largest minor is clamped away from 0, so a subset holding
    an all-zero column gets height 0.

    Accuracy: as on any Gram route, a worst-stream height h of a subset
    whose largest squared column norm is n has a relative error of order
    eps * n / h.  On near-collinear columns (TestLatticeAccuracy in
    tests/test_montecarlo.py) every draw stays within 1e-6 of the QR
    oracle down to h / n = 1e-9, and the median error passes 1e-6 near
    h / n = 6e-11, the same depth as the inverse-Gram route of
    ``channel.gram_inverse_diag``.  Thresholds that deep need the QR route
    of ``channel.projection_height_sq``.
    """
    B, _, n_t = H.shape
    gram = np.ascontiguousarray(np.matmul(H.conj().transpose(0, 2, 1), H).transpose(1, 2, 0))
    cols = np.arange(n_t)
    if L == 1:
        yield 0, gram[cols, cols].real
        return
    depth = L - 2
    rows = np.empty((depth, n_t, B), dtype=np.complex128)
    diag = np.empty((depth + 1, n_t, B))
    diag[0] = gram[cols, cols].real
    det = np.empty((depth + 1, B))
    det[0] = 1.0
    lower = np.empty((math.comb(n_t, L - 1), B))
    for step in _lattice_plan(n_t, L):
        if isinstance(step, tuple):
            m, t = step
            u = gram[t, t + 1:].copy()
            for i in range(m):
                u -= rows[i, t].conj() * rows[i, t + 1:]
            pivot = diag[m, t]
            row = rows[m, t + 1:]
            np.multiply(u, np.where(pivot > 0, 1.0 / np.sqrt(np.maximum(pivot, 1e-300)), 0.0), out=row)
            diag[m + 1, t + 1:] = diag[m, t + 1:] - (row.real ** 2 + row.imag ** 2)
            np.multiply(det[m], pivot, out=det[m + 1])
            continue
        d = diag[depth, step.start:]
        np.multiply(det[depth], d, out=lower[step.lower_first: step.lower_first + len(d)])
        if step.first is None:
            continue
        t, j = step.first, step.second
        schur = gram[t, j]  # entries (t, j) of the prefix's Schur complement
        for i in range(depth):
            schur -= rows[i, t].conj() * rows[i, j]
        det_s = (d[t - step.start] * d[j - step.start] - (schur.real ** 2 + schur.imag ** 2)) * det[depth]
        yield step.leaf_first, det_s / np.maximum(lower[step.minors].max(axis=0), 1e-300)


def _maxmin_block(H: np.ndarray, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Best worst-stream height over every size-L subset of H's columns,
    and the lexicographic rank of the subset achieving it (ties to the
    smallest rank).

    L = 2 reads the pair table of :func:`_pair_table`; every other L runs
    the determinant lattice of :func:`_lattice_heights` on
    ``_LATTICE_LANES`` channels at a time.
    """
    if L == 2:
        _, fwd, bwd = _pair_table(H)
        return _max_argmax(np.minimum(fwd, bwd))
    B = H.shape[0]
    best = np.full(B, -np.inf)
    arg = np.zeros(B, dtype=np.int64)
    for lo in range(0, B, _LATTICE_LANES):
        lanes = slice(lo, lo + _LATTICE_LANES)
        for first, heights in _lattice_heights(H[lanes], L):
            top = heights.max(axis=0)
            # blocks arrive in decreasing rank: >= keeps the smallest rank on ties
            take = top >= best[lanes]
            best[lanes] = np.where(take, top, best[lanes])
            arg[lanes] = np.where(take, first + heights.argmax(axis=0), arg[lanes])
    return best, arg


def _greedy_selection_block(H: np.ndarray, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Batched greedy column selection.

    Returns (chosen, picked_heights): ``chosen[b, s]`` is the column taken
    at step s and ``picked_heights[b, s]`` its projection height onto the
    complement of the span selected so far.  Ties resolve to the smallest
    column index.

    L = 2 reads the pair table of :func:`_pair_table`: the first pick p has
    the largest norm and the second maximizes n_j - |g_pj|^2 / n_p; at
    n_t = 3 this is faster than the Cholesky path below.  Other
    L run Cholesky row updates on G = H^H H, formed by one batched matmul
    per pass of ``_LATTICE_LANES`` channels.  The residual d_j = h(j | picks)
    starts at diag(G); each step takes p = argmax d over the columns not yet
    picked, forms the Cholesky row r = (G[p, :] - sum_i conj(r_i[p]) r_i)
    / sqrt(d_p) and lowers d by |r|^2.  The accuracy is that of the
    lattice (see :func:`_lattice_heights`).
    """
    B, _, n_t = H.shape
    if L == 2:
        norms, fwd, bwd = _pair_table(H)
        iu, ju = _subsets(n_t, 2).T
        first_norm, first = _max_argmax(norms)
        # heights against the first pick, on the pairs that hold it; within
        # those, the pair rank rises with the other column, so ties go to
        # the smallest index
        against = np.empty_like(fwd)
        for p, (i, j) in enumerate(zip(iu, ju)):
            against[p] = np.where(first == i, bwd[p], np.where(first == j, fwd[p], -np.inf))
        second_height, best = _max_argmax(against)
        chosen = np.stack([first, iu[best] + ju[best] - first], axis=1)
        return chosen, np.stack([first_norm, second_height], axis=1)
    chosen = np.empty((B, L), dtype=np.int64)
    picked = np.empty((B, L))
    for lo in range(0, B, _LATTICE_LANES):
        h = H[lo:lo + _LATTICE_LANES]
        span = slice(lo, lo + len(h))
        lanes = np.arange(len(h))
        gram = h.conj().transpose(0, 2, 1) @ h
        resid = gram.diagonal(axis1=1, axis2=2).real.copy()
        rows = np.empty((L - 1, len(h), n_t), dtype=np.complex128)
        for step in range(L):
            pick = resid.argmax(axis=1)
            pivot = resid[lanes, pick]
            chosen[span, step] = pick
            picked[span, step] = pivot
            if step == L - 1:
                break
            resid[lanes, pick] = -np.inf
            row = gram[lanes, pick]
            for i in range(step):
                row -= rows[i, lanes, pick, None].conj() * rows[i]
            np.multiply(row, (1.0 / np.sqrt(np.maximum(pivot, 1e-300)))[:, None], out=rows[step])
            resid -= rows[step].real ** 2 + rows[step].imag ** 2
    return chosen, picked


def select_block(rule: str, H: np.ndarray, L: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Selected columns of every channel of the (B, n_r, n_t) block ``H``,
    as a (B, L) array ordered first-decoded first.

    maxmin and random give their subset ascending; first-fixed its pair
    ascending; first-ordered its pair with the larger height first;
    qr-greedy the reverse of its picks.  random draws B subset ranks from
    ``rng`` at once and reads no channel entry.
    """
    n_t = H.shape[2]
    if rule == "maxmin":
        return _subsets(n_t, L)[_maxmin_block(H, L)[1]]
    if rule == "random":
        subsets = _subsets(n_t, L)
        return subsets[rng.integers(0, len(subsets), size=H.shape[0])]
    if rule == "first-fixed":
        return _subsets(n_t, 2)[_max_argmax(_pair_table(H)[1])[1]]
    if rule == "first-ordered":
        _, fwd, bwd = _pair_table(H)
        pairs = _subsets(n_t, 2)
        return np.concatenate([pairs, pairs[:, ::-1]])[_max_argmax(np.concatenate([fwd, bwd]))[1]]
    if rule == "qr-greedy":
        return _greedy_selection_block(H, L)[0][:, ::-1]  # detection reverses the selection order
    raise ValueError(f"unknown selection rule {rule!r}; expected one of {RULES}")


def _outage_scalars(rule: str, H: np.ndarray, L: int, rng: np.random.Generator | None) -> np.ndarray:
    """Per-channel scalar thresholded by the outage experiment.

    maxmin: best worst-stream height over all subsets.  first-fixed /
    first-ordered: the maximized first-layer height.  qr-greedy: the
    first decoded layer's height (last greedy increment).  random: the
    worst-stream height of the uniformly chosen subset that
    :func:`select_block` draws.
    """
    if rule == "maxmin":
        return _maxmin_block(H, L)[0]
    if rule == "first-fixed":
        return _pair_table(H)[1].max(axis=0)
    if rule == "first-ordered":
        _, fwd, bwd = _pair_table(H)
        return np.maximum(fwd, bwd).max(axis=0)
    if rule == "qr-greedy":
        _, picked = _greedy_selection_block(H, L)
        return picked[:, L - 1]
    if rule == "random":
        # evaluate only the drawn subset's columns: its best is its own
        return _maxmin_block(np.take_along_axis(H, select_block("random", H, L, rng)[:, None, :], axis=2), L)[0]
    raise ValueError(f"unknown selection rule {rule!r}; expected one of {RULES}")


# ---------------------------------------------------------------------------
# per-draw API
# ---------------------------------------------------------------------------

def select(rule: str, H, L: int, rng: np.random.Generator | None = None) -> SelectionOutcome:
    """Select ``L`` columns of the channel matrix ``H`` by rule identifier.

    One batch-of-one call of :func:`select_block`; ``rng`` is required for
    "random", which draws one subset rank from it.  first-fixed and
    first-ordered are defined for L = 2 only.
    """
    if rule in ("first-fixed", "first-ordered") and L != 2:
        raise ValueError(f"{rule} selection is defined for L = 2 only")
    if rule == "random" and rng is None:
        raise ValueError("random selection needs an explicit rng")
    H = as_channel_matrix(H)
    n_r, n_t = H.shape
    if L < 1 or n_t < L or n_r < L:
        raise ValueError(f"selection of {L} streams needs n_t >= {L} and n_r >= {L}, got {n_t}x{n_r}")
    cols = tuple(int(c) for c in select_block(rule, H[None], L, rng)[0])
    subset = AntennaSubset(tuple(sorted(cols)))
    decode_order = tuple(subset.indices.index(c) for c in cols)
    return SelectionOutcome(rule, subset, subset_metrics(H, subset), decode_order)


def select_maxmin(H, L: int) -> SelectionOutcome:
    """Pick the subset whose weakest stream (smallest height) is largest.

    This is the outage-optimal rule for linear receivers; the decode
    order defaults to the identity and callers may substitute an ordered
    one from the receivers module.
    """
    return select("maxmin", H, L)


def select_first_layer_fixed(H) -> SelectionOutcome:
    """Two-stream rule maximizing the first decoded layer under fixed order.

    Decoding always starts from the smaller-index stream of the pair, so
    the rule maximizes the height of column k against column j over pairs
    k < j.
    """
    return select("first-fixed", H, 2)


def select_first_layer_ordered(H) -> SelectionOutcome:
    """Two-stream rule maximizing the first decoded layer over both orders.

    For each pair both heights are candidates; the stream achieving the
    maximum is decoded first.
    """
    return select("first-ordered", H, 2)


def select_qr_greedy(H, L: int) -> SelectionOutcome:
    """Incremental selection of the column with the largest projection
    height onto the complement of the already-selected span.

    Step one therefore picks the largest-norm column.  Detection runs in
    reverse selection order: the last-selected antenna's stream is
    decoded first.
    """
    return select("qr-greedy", H, L)


def select_random(H, L: int, rng: np.random.Generator) -> SelectionOutcome:
    """Uniformly random subset; the no-selection baseline."""
    return select("random", H, L, rng)
