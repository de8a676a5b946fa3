"""Antenna-subset enumeration and the transmit-selection rules.

One multi-rule pass, :func:`_rule_pass`, serves every rule.  It reads
Gram entries of a (B, n_r, n_t) block of channels and builds one table
per pass of ``_pass_lanes(L)`` channels: at L = 2 the pair table, which
every rule reads, over passes of ``_PAIR_LANES``; at other L one Gram
matmul per pass of ``_LATTICE_LANES``, shared by the determinant lattice
of maxmin and the Cholesky greedy of qr-greedy, while random runs the
lattice on the columns it draws.  Each rule has one branch, which
reduces the table either to the scalar the outage experiment thresholds
or, when the caller asks for columns, to the rule's columns, first
decoded first; random's columns are the subsets it draws and read no
table.
:func:`select_block` is its one-rule column call.  The per-draw call,
:func:`select`, is a batch-of-one call of :func:`select_block` returning
a :class:`SelectionOutcome`, whose heights come from the QR route of
:func:`subset_metrics`.  Whether rules and an (n_t, n_r, L) shape are
valid is decided once, by :func:`check_selection`.

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
from typing import Iterator, Sequence

import numpy as np

from .channel import as_channel_matrix, projection_height_sq

#: The rules defined for two streams only.
_TWO_STREAM_RULES = ("first-fixed", "first-ordered")
#: Stable rule identifiers used by the CLI and in output files.
RULES = ("maxmin", *_TWO_STREAM_RULES, "qr-greedy", "random")

#: Channels per pass of the Gram-entry kernels at L != 2 (the determinant
#: lattice and the Cholesky greedy).  Keeps their working set cache-sized
#: and their memory small next to the chunk's draw; 2048 was the fastest
#: of 1024-49152 for the (8, 8, 4) lattice, where 4096 ran no faster and
#: held 9 MB more.
_LATTICE_LANES = 2048
#: Channels per pass at L = 2, where one pass builds only the pair table.
#: Its arrays are a few rows of lanes each, so a wider pass spends less on
#: per-call overhead: of 2048, 4096, 8192 and 16384 lanes, 8192 ran the
#: (3, 3, 2) outage rounds of the tier1-fixtures benchmark fastest
#: (the sweep is in BENCH_21.json).
_PAIR_LANES = 8192


def check_selection(n_t: int, n_r: int, L: int, rules: Sequence[str] = (), has_rng: bool = True) -> None:
    """The one check of a selection problem's rules and shape: 1 <= L <= n_t
    and n_r >= L; every rule of ``rules`` is one of ``RULES``; first-fixed
    and first-ordered only at L = 2; and random only with an rng
    (``has_rng``).  Raises ``ValueError`` naming the first that fails.
    :func:`select_block`, :func:`subset_metrics`, the experiment
    configurations of :mod:`antsel.montecarlo` and :mod:`antsel.analytic`
    call it; :func:`_rule_pass` relies on it.  A subset size alone
    (:func:`enumerate_subsets`) is checked with n_r = L, and the pair of
    columns of a pair-angle law with n_t = L = 2."""
    if not 1 <= L <= n_t:
        raise ValueError(f"need 1 <= L <= n_t, got L = {L} and n_t = {n_t}")
    if n_r < L:
        raise ValueError(f"L = {L} streams need n_r >= {L} receive antennas, got n_r = {n_r}")
    for rule in rules:
        if rule not in RULES:
            raise ValueError(f"unknown selection rule {rule!r}; expected one of {RULES}")
        if rule in _TWO_STREAM_RULES and L != 2:
            raise ValueError(f"{rule} selection is defined for L = 2 only")
        if rule == "random" and not has_rng:
            raise ValueError("random selection needs an explicit rng")


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
    the sorted subset; the first entry is decoded first.  :func:`select`
    builds it from the rule's columns; the receivers check any decode
    order they are given.
    """

    rule: str
    subset: AntennaSubset
    metrics: SubsetMetrics
    decode_order: tuple[int, ...]


def enumerate_subsets(n_t: int, L: int) -> list[AntennaSubset]:
    """All size-L column subsets of ``n_t`` antennas in lexicographic order.

    The first (n_t-1 choose L-1) subsets are exactly those containing
    column 0.  ``ValueError`` unless 1 <= L <= n_t (:func:`check_selection`).
    """
    check_selection(n_t, L, L)
    return [AntennaSubset(c) for c in itertools.combinations(range(int(n_t)), int(L))]


def subset_metrics(H, subset: AntennaSubset) -> SubsetMetrics:
    """Per-stream squared projection heights for ``subset`` columns of ``H``."""
    H = as_channel_matrix(H)
    check_selection(H.shape[1], H.shape[0], len(subset))
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
    real and imaginary planes of each pass of ``_pass_lanes(2)`` channels,
    laid out as (n_r, n_t, lanes); at small n_t this beats a complex
    matmul.  The pairs (i, j > i) of one first column i hold consecutive
    ranks, so each i writes the broadcast products of its column with the
    columns after it into one slice of the pass's (n_r, C(n_t, 2), lanes)
    buffers, and no column is gathered.  The rows are summed in order,
    elementwise, so a channel's entries do not depend on the pass it falls
    in.  Every L = 2 rule reads these arrays, so on common draws
    first-ordered >= first-fixed >= maxmin >= random holds exactly, draw
    by draw.
    """
    B, n_r, n_t = H.shape
    pairs = math.comb(n_t, 2)
    norms = np.empty((n_t, B))
    fwd = np.empty((pairs, B))
    bwd = np.empty((pairs, B))
    width = min(_pass_lanes(2), B)
    g_re, g_im = np.empty((2, n_r, pairs, width))
    term = np.empty((n_r, n_t - 1, width))
    for lanes in _passes(B, 2):
        m = lanes.stop - lanes.start
        floats = np.ascontiguousarray(H[lanes], dtype=np.complex128).view(np.float64)
        re, im = np.ascontiguousarray(floats.reshape(m, n_r, n_t, 2).transpose(3, 1, 2, 0))
        # per receive row: |h_rk|^2 and the real and imaginary parts of conj(h_ri) h_rj
        sq = re * re + im * im
        pass_re, pass_im = g_re[..., :m], g_im[..., :m]
        for i, ranks in _first_column_ranks(n_t):
            re_i, im_i, re_j, im_j = re[:, i:i + 1], im[:, i:i + 1], re[:, i + 1:], im[:, i + 1:]
            gr, gi, t = pass_re[:, ranks], pass_im[:, ranks], term[:, :n_t - 1 - i, :m]
            np.multiply(re_i, re_j, out=gr)
            gr += np.multiply(im_i, im_j, out=t)
            np.multiply(re_i, im_j, out=gi)
            gi -= np.multiply(im_i, re_j, out=t)
        for r in range(1, n_r):
            sq[0] += sq[r]
            pass_re[0] += pass_re[r]
            pass_im[0] += pass_im[r]
        n = sq[0]
        mag2 = pass_re[0] * pass_re[0] + pass_im[0] * pass_im[0]
        norms[:, lanes] = n
        divisor = np.maximum(n, 1e-300)
        for i, ranks in _first_column_ranks(n_t):
            np.subtract(n[i], mag2[ranks] / divisor[i + 1:], out=fwd[ranks, lanes])
            np.subtract(n[i + 1:], mag2[ranks] / divisor[i], out=bwd[ranks, lanes])
    return norms, fwd, bwd


def _first_column_ranks(n_t: int) -> list[tuple[int, slice]]:
    """Each first column i < n_t - 1 with the slice of the lexicographic
    ranks of its pairs (i, j), j > i."""
    return [(i, slice(_pair_rank(n_t, i, i + 1), _pair_rank(n_t, i, n_t - 1) + 1)) for i in range(n_t - 1)]


def _pair_rank(n_t: int, i: int, j: int) -> int:
    """Lexicographic rank of the column pair (i, j), i < j, of n_t columns."""
    return i * (2 * n_t - i - 1) // 2 + j - i - 1


@dataclass(frozen=True)
class _LeafBlock:
    """The size-L subsets P + (t, j), t < j, below one prefix P of size L-2.

    ``lower_first`` ranks P + (start,) among the (L-1)-subsets; the ranks of
    P + (t,) for t >= start follow it.  ``fans`` holds one entry per t,
    from n_t - 2 down to ``start``, for the leaves P + (t, j), j > t:
    ``(t, leaf_first, minor_firsts)``, where ``leaf_first`` ranks
    P + (t, t + 1) among the L-subsets and ``minor_firsts`` ranks among
    the (L-1)-subsets the minors of P + (t, t + 1) that drop t or a column
    of P.  Each leaf and each of these minors of P + (t, j) follows its
    j = t + 1 rank at j - t - 1; the remaining minor, which drops j, is
    P + (t,) for every j.
    """

    start: int
    lower_first: int
    fans: tuple[tuple[int, int, tuple[int, ...]], ...]


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
            fans = []
            for t in range(n_t - 2, start - 1, -1):
                leaf = prefix + (t, t + 1)
                drops = [leaf[:i] + leaf[i + 1:] for i in range(L - 1)]  # every column but j
                fans.append((t, upper[leaf], tuple(lower[d] for d in drops)))
            plan.append(_LeafBlock(start, lower[prefix + (start,)], tuple(fans)))
            return
        # the final prefix needs one column after it: t <= n_t - L + m + 1
        for t in range(n_t - L + m + 1, start - 1, -1):
            plan.append((m, t))
            walk(prefix + (t,))

    walk(())
    return tuple(plan)


def _gram(H: np.ndarray) -> np.ndarray:
    """(B, n_t, n_t) Gram matrices G = H^H H of a block, by one batched matmul."""
    return np.matmul(H.conj().transpose(0, 2, 1), H)


def _lattice_heights(gram: np.ndarray, L: int) -> Iterator[tuple[int, np.ndarray]]:
    """Worst-stream heights of every size-L column subset from one
    determinant lattice of the (B, n_t, n_t) Gram matrices ``gram``, as
    :func:`_gram` gives them.

    Yields ``(first_rank, heights)`` blocks: ``heights[p]`` (shape (B,)) is
    the worst-stream height of the subset of lexicographic rank
    ``first_rank + p``.  Blocks come in decreasing rank order, leaves
    within a block in increasing order; together they cover every subset
    once.

    Each height is a ratio of principal Gram minors,
    h(k | S minus k) = det G_S / det G_{S minus k}, so the worst stream of S
    is det G_S / max_k det G_{S minus k}.  G is laid out as (n_t, n_t, B).
    The prefix tree of the lexicographic subsets is walked depth first,
    carrying the Cholesky rows of the prefix and the residual diagonal
    d_j = h(j | prefix): a child costs one row update and
    det G_{T+j} = det G_T * d_j.  Only the (L-1)-minors are stored, in one
    (C(n_t, L-1), B) table; the size-L determinants are reduced fan by fan
    as they are yielded.  A fan is the leaves P + (t, j), j > t, of one
    prefix P and column t: they take one Schur complement row of P at t,
    and each of their minors is one slice of the table, or one row of it,
    so no leaf gathers.  A column in the span of the prefix (pivot <= 0)
    gets a zero Cholesky row, and the largest minor is clamped away from
    0, so a subset holding an all-zero column gets height 0.

    Accuracy: as on any Gram route, a worst-stream height h of a subset
    whose largest squared column norm is n has a relative error of order
    eps * n / h.  On near-collinear columns (TestLatticeAccuracy in
    tests/test_montecarlo.py) every draw stays within 1e-6 of the QR
    oracle down to h / n = 1e-9, and the median error passes 1e-6 near
    h / n = 6e-11, the same depth as the inverse-Gram route of
    ``channel.gram_inverse_diag``.  Thresholds that deep need the QR route
    of ``channel.projection_height_sq``.
    """
    B, n_t = gram.shape[:2]
    gram = np.ascontiguousarray(gram.transpose(1, 2, 0))
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
            row = rows[m, t + 1:]
            u = _schur_row(gram, rows, m, t)
            pivot = diag[m, t]
            np.multiply(u, np.where(pivot > 0, 1.0 / np.sqrt(np.maximum(pivot, 1e-300)), 0.0), out=row)
            diag[m + 1, t + 1:] = diag[m, t + 1:] - (row.real ** 2 + row.imag ** 2)
            np.multiply(det[m], pivot, out=det[m + 1])
            continue
        d = diag[depth, step.start:]
        np.multiply(det[depth], d, out=lower[step.lower_first: step.lower_first + len(d)])
        for t, leaf_first, minor_firsts in step.fans:
            k = n_t - 1 - t
            schur = _schur_row(gram, rows, depth, t)  # entries (t, j > t) of the prefix's Schur complement
            det_s = (d[t - step.start] * d[t - step.start + 1:] - (schur.real ** 2 + schur.imag ** 2)) * det[depth]
            largest = np.maximum(lower[minor_firsts[0]: minor_firsts[0] + k], lower[step.lower_first + t - step.start])
            for first in minor_firsts[1:]:
                np.maximum(largest, lower[first: first + k], out=largest)
            yield leaf_first, det_s / np.maximum(largest, 1e-300, out=largest)


def _schur_row(gram: np.ndarray, rows: np.ndarray, m: int, t: int) -> np.ndarray:
    """Entries (t, j), j > t, of the Schur complement of the first m
    Cholesky rows in the (n_t, n_t, B) Gram ``gram``: G[t, j] - sum_i
    conj(r_i[t]) r_i[j], subtracted in order of i.  Read only; with
    m = 0 it is a view of ``gram``."""
    u = gram[t, t + 1:]
    for i in range(m):
        term = rows[i, t].conj() * rows[i, t + 1:]
        if i:
            u -= term
        else:
            u = u - term
    return u


def _pass_lanes(L: int) -> int:
    """Channels per pass of the selection kernels for subsets of size L:
    ``_PAIR_LANES`` at L = 2, ``_LATTICE_LANES`` otherwise."""
    return _PAIR_LANES if L == 2 else _LATTICE_LANES


def _passes(B: int, L: int) -> Iterator[slice]:
    """The lanes of each pass of ``_pass_lanes(L)`` channels over a block of B."""
    lanes = _pass_lanes(L)
    return (slice(lo, min(lo + lanes, B)) for lo in range(0, B, lanes))


def _lattice_max(gram: np.ndarray, L: int, rank: np.ndarray | None = None) -> np.ndarray:
    """Best worst-stream height over every size-L subset, from the lattice
    of :func:`_lattice_heights` on one pass of Gram matrices.  When given,
    the (B,) array ``rank`` receives the lexicographic rank of the subset
    achieving it (ties to the smallest rank); without it no argmax is
    formed."""
    best = np.full(len(gram), -np.inf)
    for first, heights in _lattice_heights(gram, L):
        top = heights.max(axis=0)
        if rank is not None:
            # blocks arrive in decreasing rank: >= keeps the smallest rank on ties
            np.copyto(rank, first + heights.argmax(axis=0), where=top >= best)
        np.maximum(top, best, out=best)
    return best


def _best_row(a: np.ndarray, table: np.ndarray, cols: np.ndarray | None) -> np.ndarray:
    """Maximum over the rows of the (K, B) array ``a``; when ``cols`` is
    given it receives the row of ``table`` at the smallest row index
    holding it."""
    if cols is None:
        return a.max(axis=0)
    top, arg = _max_argmax(a)
    cols[:] = table[arg]
    return top


def _greedy_pair(norms: np.ndarray, fwd: np.ndarray, bwd: np.ndarray, cols: np.ndarray | None) -> np.ndarray:
    """qr-greedy at L = 2 from a pair table: the height of its second pick
    against its first.  The first pick has the largest norm (ties to the
    smallest column), the second the largest height against it (ties to
    the smallest column).  For each column c the heights of the other
    columns against c are reduced row by row, and each lane keeps the
    reduction of its first pick: 250 against 450 us per 8192 (3, 3)
    channels for a pass that masked every pair without the pick to -inf
    and reduced all pairs.  When given, the (B, 2) array ``cols``
    receives the second pick and then the first (detection reverses the
    selection order)."""
    n_t = len(norms)
    first = _max_argmax(norms)[1]
    top = second = None
    for c in range(n_t):
        others = [o for o in range(n_t) if o != c]
        against = [fwd[_pair_rank(n_t, o, c)] if o < c else bwd[_pair_rank(n_t, c, o)] for o in others]
        if cols is None:
            top_c = functools.reduce(np.maximum, against)
        else:
            top_c, arg = _max_argmax(np.stack(against))
            second_c = np.take(others, arg)
            second = second_c if second is None else np.where(first == c, second_c, second)
        top = top_c if top is None else np.where(first == c, top_c, top)
    if cols is not None:
        cols[:, 0] = second
        cols[:, 1] = first
    return top


def _greedy_residual(gram: np.ndarray, L: int, chosen: np.ndarray | None = None) -> np.ndarray:
    """The Cholesky greedy on one pass of (B, n_t, n_t) Gram matrices: the
    height of its L-th pick, and its picks in the order taken, recorded
    in the (B, L) array ``chosen`` when given.

    The residual d_j = h(j | picks) starts at diag(G); each step takes
    p = argmax d over the columns not yet picked (ties to the smallest
    column), sets d_p to -inf, forms the Cholesky row
    r = (G[p, :] - sum_i conj(r_i[p]) r_i) / sqrt(d_p) and lowers d by
    |r|^2.  After L - 1 steps the last pick is the argmax of d and its
    height the max.  Entries are read by flat index (lane * n_t + pick),
    which costs a third of a (lane, pick) fancy index.  The accuracy is
    that of the lattice (see :func:`_lattice_heights`).
    """
    B, n_t = gram.shape[:2]
    base = np.arange(B) * n_t
    resid = gram.diagonal(axis1=1, axis2=2).real.copy()
    gram_rows = gram.reshape(B * n_t, n_t)
    rows = np.empty((L - 1, B, n_t), dtype=np.complex128)
    for step in range(L - 1):
        pick = resid.argmax(axis=1)
        at = base + pick
        pivot = resid.take(at)
        if chosen is not None:
            chosen[:, step] = pick
        resid.put(at, -np.inf)
        row = gram_rows.take(at, axis=0)
        for i in range(step):
            row -= rows[i].take(at)[:, None].conj() * rows[i]
        np.multiply(row, (1.0 / np.sqrt(np.maximum(pivot, 1e-300)))[:, None], out=rows[step])
        resid -= rows[step].real ** 2 + rows[step].imag ** 2
    if chosen is not None:
        chosen[:, L - 1] = resid.argmax(axis=1)
    return _row_max(resid)


def _row_max(a: np.ndarray) -> np.ndarray:
    """Maximum over the short axis 1 of a (B, n) array, one column at a
    time: ``max(axis=1)`` reduces each short row on its own and costs
    about six times as much at n = 8."""
    top = a[:, 0].copy()
    for c in range(1, a.shape[1]):
        np.maximum(top, a[:, c], out=top)
    return top


def _rule_pass(rules: Sequence[str], H: np.ndarray, L: int, rng: np.random.Generator | None = None,
               cols: np.ndarray | None = None) -> np.ndarray | None:
    """One selection pass of every rule of ``rules`` over the
    (B, n_r, n_t) block ``H``.  Without ``cols`` it returns the
    (len(rules), B) outage scalars, row k for ``rules[k]``; with it, the
    (len(rules), B, L) array ``cols`` receives each rule's selected
    columns, first decoded first, and no scalars are returned.

    The scalars: maxmin's best worst-stream height over all subsets;
    first-fixed's and first-ordered's maximized first-layer height;
    qr-greedy's first decoded layer (its last pick's height); random's
    worst-stream height of its uniformly drawn subset.  The columns:
    maxmin and random give their subset ascending; first-fixed its pair
    ascending; first-ordered its pair with the larger height first;
    qr-greedy the reverse of its picks (detection reverses the selection
    order).

    random first draws its B subset ranks from ``rng`` in one call; its
    columns are the subsets at those ranks.  Then each pass of
    ``_pass_lanes(L)`` channels builds one table: at L = 2 the pair
    table, which random's scalar reads at its ranks; at other L one Gram
    matrix per channel, shared by the lattice of maxmin and the greedy of
    qr-greedy, while random's scalar runs the lattice on its subset's
    columns, gathered for the pass.  qr-greedy at L = 2 reads the pair
    table too: its first pick has the largest norm and its second the
    largest height against the first, which at n_t = 3 is faster than the
    Cholesky greedy.  A rule forms an argmax only for its columns, and a
    pass builds no table that none of its rules reads.

    The pass checks nothing: its callers pass rules and a shape that
    :func:`check_selection` accepts.
    """
    B, _, n_t = H.shape
    subsets = _subsets(n_t, L)
    ranks = rng.integers(0, len(subsets), size=B) if "random" in rules else None
    out = np.empty((len(rules), B)) if cols is None else None
    # random's columns are the subsets at its ranks; only its scalar reads a table
    tabled = [k for k, rule in enumerate(rules) if rule != "random" or out is not None]
    if cols is not None and ranks is not None:
        cols[rules.index("random")] = subsets[ranks]
    for lanes in _passes(B, L) if tabled else ():
        h = H[lanes]
        if L == 2:
            norms, fwd, bwd = _pair_table(h)
        elif "maxmin" in rules or "qr-greedy" in rules:
            gram = _gram(h)
        for k in tabled:
            rule, c = rules[k], None if cols is None else cols[k, lanes]
            if rule == "random":
                r = ranks[lanes]
                top = (np.minimum(np.take_along_axis(fwd, r[None], 0), np.take_along_axis(bwd, r[None], 0))[0]
                       if L == 2 else _lattice_max(_gram(np.take_along_axis(h, subsets[r, None, :], axis=2)), L))
            elif rule == "maxmin" and L == 2:
                top = _best_row(np.minimum(fwd, bwd), subsets, c)
            elif rule == "maxmin":
                rank = None if c is None else np.empty(len(h), dtype=np.int64)
                top = _lattice_max(gram, L, rank)
                if c is not None:
                    c[:] = subsets[rank]
            elif rule == "qr-greedy" and L == 2:
                top = _greedy_pair(norms, fwd, bwd, c)
            elif rule == "qr-greedy":
                top = _greedy_residual(gram, L, None if c is None else c[:, ::-1])
            elif rule == "first-fixed":
                top = _best_row(fwd, subsets, c)
            else:
                top = _best_row(np.concatenate([fwd, bwd]), np.concatenate([subsets, subsets[:, ::-1]]), c)
            if out is not None:
                out[k, lanes] = top
    return out


def select_block(rule: str, H: np.ndarray, L: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Selected columns of every channel of the (B, n_r, n_t) block ``H``,
    as a (B, L) array ordered first-decoded first: the columns of
    :func:`_rule_pass` for ``rule`` alone.  random draws B subset ranks
    from ``rng`` at once.  ``ValueError`` where :func:`check_selection`
    rejects the rule, the shape or a missing rng."""
    B, n_r, n_t = H.shape
    check_selection(n_t, n_r, L, (rule,), has_rng=rng is not None)
    cols = np.empty((1, B, L), dtype=np.int64)
    _rule_pass((rule,), H, L, rng, cols)
    return cols[0]


# ---------------------------------------------------------------------------
# per-draw API
# ---------------------------------------------------------------------------

def select(rule: str, H, L: int, rng: np.random.Generator | None = None) -> SelectionOutcome:
    """Select ``L`` columns of the channel matrix ``H`` by rule identifier.

    One batch-of-one call of :func:`select_block`, which checks the rule
    and the shape; ``rng`` is required for "random", which draws one
    subset rank from it.  The rules:

    - "maxmin": the subset whose weakest stream (smallest height) is
      largest, the outage-optimal rule for linear receivers; decoded in
      subset order, for which callers may substitute an ordered one from
      the receivers module.
    - "first-fixed" (L = 2 only): the first decoded layer maximized under
      fixed order; decoding starts from the smaller-index stream of the
      pair, so the rule maximizes the height of column k against column j
      over pairs k < j.
    - "first-ordered" (L = 2 only): the first decoded layer maximized over
      both orders; both heights of each pair are candidates, and the
      stream achieving the maximum is decoded first.
    - "qr-greedy": incremental selection of the column with the largest
      projection height onto the complement of the already-selected span,
      so step one picks the largest-norm column.  Detection runs in
      reverse selection order: the last-selected antenna's stream is
      decoded first.
    - "random": a uniformly random subset, the no-selection baseline.
    """
    H = as_channel_matrix(H)
    cols = tuple(int(c) for c in select_block(rule, H[None], L, rng)[0])
    subset = AntennaSubset(tuple(sorted(cols)))
    decode_order = tuple(subset.indices.index(c) for c in cols)
    return SelectionOutcome(rule, subset, subset_metrics(H, subset), decode_order)
