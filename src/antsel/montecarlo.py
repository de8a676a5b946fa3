"""Reproducible Monte Carlo engines and measurements: outage curves, BER
curves, diversity-multiplexing estimates, slope fits, and the statistics
of the independence and exponential-equivalence harnesses.  Everything
here returns plain values (curves, fits, correlations, p-values); the
bounds those values are judged by live in :mod:`antsel.verify`.

Outage, BER, the tail-exponent harness and the independence suite run on
one chunk driver, :func:`_run_chunks`, and all four take ``workers``.
Chunk i of a run draws every random quantity from the stream
``channel.stream_generator(master_seed, i)`` (an SFC64 generator keyed by a
SeedSequence, RNG layout 2), in a fixed order (channels, then frame bits, then
noise, then any rule randomness), and returns named counts and sums that
the driver adds up in plan order.  So output is bit-identical for any
worker count, and experiments that share a master seed see identical
channel draws regardless of the rule under test.  The multi-rule passes
:func:`estimate_outage_rules` and :func:`estimate_ber_rules` draw each
chunk once for all their rules in that order; :func:`estimate_outage`
and :func:`estimate_ber` are their one-rule calls.

A chunk draws its Gaussians in the blocks its kernels reduce, each block
just before it is read: outage channels in passes of the selection
kernels (``selection._pass_lanes(L)`` channels), BER noise in detection
blocks.  One stream drawn block after block gives the same normals, and
leaves the generator in the same state, as one whole-chunk draw, so
results do not depend on the block size and the memory of a chunk does
not grow with its draws.  The rule "random" is the
exception: its subset ranks follow the channels (outage) or the noise
(BER) in the stream, so those draws stay whole.

Selection runs in the multi-rule pass of :mod:`antsel.selection`, once
per block for all the rules of a chunk: outage chunks take its scalars,
BER chunks its columns.  Detection over the SNR grid is the one kernel
of :mod:`antsel.receivers`, :func:`antsel.receivers.detect_grid`, run in
the error domain on each block's symbols and noise.  This module keeps
the chunk plan, the draws, the decode-order overrides, the column gathers
and the counting.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from . import analytic
from . import receivers as rx
from .channel import complex_gaussian, stream_generator
from .selection import (
    _pair_rank,
    _pair_table,
    _pass_lanes,
    _row_max,
    _rule_pass,
    check_selection,
    select_block,
)

#: Cap on the complex noise samples (n_r per symbol) of one BER chunk.
#: It sets the chunk size, which keys the chunk streams, so manifests
#: record it as ``effective_chunk_size``, and it keeps its value for that
#: reason.  It does not bound the noise a chunk holds, which is drawn one
#: detection block at a time, except under "random": its subset ranks
#: follow the noise in the stream, so its noise is drawn whole.
_BER_CHUNK_SAMPLE_CAP = 2_000_000
#: Complex samples of one (frames, L, frame_symbols) array of a BER
#: detection block, 1 MiB, so that the arrays of a block stay in a core's
#: L2 cache.  Block sizes from 16k to 128k samples ran alike on a 2 MiB L2
#: (the sweep is in BENCH_7.json); larger blocks and whole chunks ran slower.
_BER_BLOCK_SAMPLES = 65_536


class FitError(RuntimeError):
    """A slope fit could not be performed; the message names the constraint."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of one Monte Carlo experiment.

    ``grid`` holds the abscissa values: outage thresholds for outage runs,
    SNR points in dB for BER runs (:func:`_check_grid`).  ``ordering``
    overrides the selection rule's native decode order when set ("fixed",
    "vblast", "qr-reverse").  ``trial_count`` is checked where every run
    plans its chunks (:func:`_chunk_plan`).
    """

    n_t: int
    n_r: int
    L: int
    rule: str
    trial_count: int
    master_seed: int
    grid: tuple[float, ...]
    chunk_size: int = 100_000
    receiver: str = "zf"
    feedback: str = "actual"
    ordering: str | None = None
    frame_symbols: int = 50

    def __post_init__(self):
        check_selection(self.n_t, self.n_r, self.L, (self.rule,))
        rx._check_modes(self.receiver, self.feedback)
        if self.ordering is not None and self.ordering not in rx.ORDERING_MODES:
            raise ValueError(f"unknown ordering {self.ordering!r}; expected one of {rx.ORDERING_MODES}")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError(f"master_seed must lie in [0, 2^64), got {self.master_seed}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {self.chunk_size}")
        if self.frame_symbols < 1:
            raise ValueError(f"frame_symbols must be positive, got {self.frame_symbols}")
        object.__setattr__(self, "grid", _check_grid(self.grid))


def _check_grid(points) -> tuple[float, ...]:
    """``points`` as a tuple of floats: the one check that a grid is
    non-empty, finite and strictly increasing, for ``ExperimentConfig``,
    the SNR grids of :func:`estimate_dmt_gains` and the grids of the
    command line.  Raises ``ValueError`` naming the first that fails."""
    grid = tuple(float(x) for x in points)
    if not grid:
        raise ValueError("grid is empty")
    if not all(math.isfinite(x) for x in grid):
        raise ValueError(f"grid values must be finite, got {grid}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"grid must be strictly increasing, got {grid}")
    return grid


@dataclass(frozen=True)
class EmpiricalCurve:
    """Counted events per abscissa point: probability = hits / trials.

    Outage curves evaluate every threshold on every trial, so their
    probabilities are non-decreasing by construction.
    """

    abscissa: tuple[float, ...]
    hits: tuple[int, ...]
    trials: tuple[int, ...]

    def __post_init__(self):
        if not (len(self.abscissa) == len(self.hits) == len(self.trials)):
            raise ValueError("abscissa, hits and trials must have equal length")
        if any(n < 1 for n in self.trials):
            raise ValueError(f"trials must be at least 1 at every point, got {self.trials}")
        if any(h < 0 or h > n for h, n in zip(self.hits, self.trials)):
            raise ValueError("hits must lie in [0, trials]")

    def p_hat(self) -> np.ndarray:
        return np.asarray(self.hits, dtype=float) / np.asarray(self.trials, dtype=float)

    def stderr(self) -> np.ndarray:
        p = self.p_hat()
        n = np.asarray(self.trials, dtype=float)
        return np.sqrt(p * (1.0 - p) / n)


@dataclass(frozen=True)
class SlopeFit:
    """Weighted log-log slope with its least-squares uncertainty."""

    slope: float
    intercept: float
    stderr: float
    fit_range: tuple[float, float]
    points_used: int


def _check_min_hits(min_hits: int) -> None:
    """The one check of a slope fit's hit floor, for :func:`fit_slope` and
    the command line's ``--min-hits``, which is checked before the run."""
    if min_hits < 1:  # a zero-hit point has no logarithm
        raise ValueError(f"min_hits must be at least 1, got {min_hits}")


def fit_slope(curve: EmpiricalCurve, min_hits: int = 10, p_max: float = 0.2) -> SlopeFit:
    """Weighted least-squares log-log slope of an empirical curve over its
    usable range.

    Only points with at least ``min_hits`` (>= 1) events and probability
    at most ``p_max`` (0 < p_max < 1) enter the fit: small enough to probe
    the asymptote, large enough for meaningful counts; a usable point
    whose abscissa is not finite and positive raises ``FitError``.
    Weights are the inverse delta-method variances of log p_hat,
    hits / (1 - p_hat).
    """
    _check_min_hits(min_hits)
    if not 0 < p_max < 1:  # a point at p_hat = 1 has an infinite weight
        raise ValueError(f"p_max must lie in (0, 1), got {p_max}")
    x = np.asarray(curve.abscissa, dtype=float)
    hits = np.asarray(curve.hits, dtype=float)
    p = hits / np.asarray(curve.trials, dtype=float)
    usable = (hits >= min_hits) & (p <= p_max)
    n_use = int(usable.sum())
    if n_use < 3:
        raise FitError(
            f"slope fit needs >= 3 usable points with hits >= {min_hits} and p_hat <= {p_max}; got {n_use}"
        )
    for v in x[usable]:
        if not 0 < v < math.inf:  # no finite logarithm
            raise FitError(f"log-log slope fit needs finite positive abscissae; usable point x = {float(v)!r} is not")
    lx = np.log(x[usable])
    ly = np.log(p[usable])
    w = hits[usable] / (1.0 - p[usable])
    s_w = w.sum()
    s_x = (w * lx).sum()
    s_xx = (w * lx * lx).sum()
    s_y = (w * ly).sum()
    s_xy = (w * lx * ly).sum()
    denom = s_w * s_xx - s_x * s_x
    slope = (s_w * s_xy - s_x * s_y) / denom
    intercept = (s_y - slope * s_x) / s_w
    xs = x[usable]
    return SlopeFit(float(slope), float(intercept), float(math.sqrt(s_w / denom)),
                    (float(xs.min()), float(xs.max())), n_use)


# ---------------------------------------------------------------------------
# chunking
# ---------------------------------------------------------------------------

def _chunk_plan(trial_count: int, chunk_size: int) -> list[tuple[int, int]]:
    """Fixed (chunk_index, trials) decomposition, independent of workers.
    Every run plans its chunks here, so this is the one check of a trial
    count: ``trial_count`` < 1 raises ``ValueError``."""
    if trial_count < 1:
        raise ValueError(f"trial count must be at least 1, got {trial_count}")
    return [(i, min(chunk_size, trial_count - lo)) for i, lo in enumerate(range(0, trial_count, chunk_size))]


#: glibc's mallopt parameter numbers (malloc.h).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _keep_freed_heap() -> None:
    """Fix glibc's malloc thresholds at the values its own heuristic
    reaches once a 32 MiB block has been freed: blocks up to 32 MiB come
    from the heap, and up to 64 MiB of freed heap is kept.

    Chunks allocate and free the same block-sized arrays again and again.
    Under the starting thresholds glibc hands that memory back to the
    system after each block, and every block faults its pages in again:
    2x10^6 (3,3,2) maxmin trials through the CLI in a fresh process took
    330k page faults and 1.8 s, against 7k and 1.2-1.3 s with these
    thresholds (2 shared vCPUs, Linux, glibc).  Only memory already freed,
    up to 64 MiB of it, stays mapped; the peak resident memory of every
    benchmark workload stayed level or fell.  Without glibc this does
    nothing.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _run_chunks(job: Callable[[int, int], dict], plan: list[tuple[int, int]], workers: int) -> dict:
    """Sum the dicts of named tallies that ``job(chunk_index, count)``
    returns over the chunks of ``plan``, in plan order for any ``workers``;
    a key that one chunk alone returns passes through unchanged.  With
    ``workers`` > 1 and more than one chunk the chunks run in a process
    pool, so ``job`` must pickle; a plan of one chunk runs in process,
    where a pool would only add its start-up.  ``workers`` < 1 raises
    ``ValueError``.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    _keep_freed_heap()
    totals: dict = {}
    with contextlib.ExitStack() as stack:
        if workers <= 1 or len(plan) <= 1:
            parts = map(job, *zip(*plan))
        else:
            # loaded here: the pool modules cost an import that one worker never uses
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            parts = pool.map(job, *zip(*plan), chunksize=max(1, len(plan) // (4 * workers)))
        for part in parts:
            for key, value in part.items():
                totals[key] = totals[key] + value if key in totals else value
    return totals


# ---------------------------------------------------------------------------
# outage experiments
# ---------------------------------------------------------------------------

def _outage_chunk(config: ExperimentConfig, chunk_index: int, count: int,
                  rules: Sequence[str]) -> dict[str, np.ndarray]:
    """Tally "hits": the hits of one chunk at each threshold of
    ``config.grid``, one row per rule of ``rules``.

    The chunk draws its channels once for every rule.  Unless "random" is
    among the rules, it draws them in blocks of ``_pass_lanes(L)``
    channels, one pass of the selection kernels, and reduces each block
    to its scalars before drawing the next, so only one block and the
    chunk's scalars are held.  The scalar of a channel depends on that
    channel alone, so the hits do not depend on the block size.  With
    "random" the chunk draws its channels whole, because random's subset
    ranks come after all of them in the stream.  Each rule's scalars are
    counted by :func:`_hits`.
    """
    shape = (config.n_r, config.n_t)
    block = count if "random" in rules else _pass_lanes(config.L)
    rng = stream_generator(config.master_seed, chunk_index)
    scalars = np.empty((len(rules), count))
    for lo in range(0, count, block):
        H = complex_gaussian(rng, (min(block, count - lo),) + shape)
        scalars[:, lo:lo + len(H)] = _rule_pass(rules, H, config.L, rng)
    grid = np.asarray(config.grid)
    return {"hits": np.stack([_hits(grid, row) for row in scalars])}


def _hits(grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The int64 count of ``values`` at or below each point of the strictly
    increasing ``grid``; NaN is never counted and -inf always is.  The
    values are sorted and the grid is searched in them.  Binning each
    value by the grid points below it (``searchsorted(grid, values)``,
    then ``bincount`` and ``cumsum``) gives the same counts but ran about
    four times slower: 3.1-3.4 ms against 0.7-0.9 ms for 10^5 values on a
    32-point grid (numpy 2.4, one x86 core with AVX-512), because each
    value's binary search branches unpredictably, where numpy's sort is
    vectorized."""
    return np.searchsorted(np.sort(values), grid, side="right").astype(np.int64, copy=False)


def _check_rules(config: ExperimentConfig, rules: Sequence[str]) -> tuple[str, ...]:
    """``rules`` as a tuple of distinct rules, each valid for the shape of
    ``config`` (:func:`selection.check_selection`)."""
    rules = tuple(rules)
    if not rules or len(set(rules)) != len(rules):
        raise ValueError(f"need one or more distinct rules, got {rules}")
    check_selection(config.n_t, config.n_r, config.L, rules)
    return rules


def estimate_outage_rules(config: ExperimentConfig, rules: Sequence[str],
                          workers: int = 1) -> dict[str, EmpiricalCurve]:
    """Outage curve of every rule of ``rules`` on the draws of ``config``,
    keyed by rule; ``config.rule`` is not read.

    Each chunk draws its channels once, in the stream order of a
    single-rule run (channels, then random's subset ranks), and every
    rule reduces the same selection table to its scalar.  So each curve
    is bit-identical to :func:`estimate_outage` of that rule alone.
    """
    rules = _check_rules(config, rules)
    plan = _chunk_plan(config.trial_count, config.chunk_size)
    hits = _run_chunks(functools.partial(_outage_chunk, config, rules=rules), plan, workers)["hits"]
    trials = (config.trial_count,) * len(config.grid)
    return {rule: EmpiricalCurve(config.grid, tuple(row.tolist()), trials) for rule, row in zip(rules, hits)}


def estimate_outage(config: ExperimentConfig, workers: int = 1) -> EmpiricalCurve:
    """Empirical outage curve of the rule's scalar over the threshold grid:
    :func:`estimate_outage_rules` of ``config.rule`` alone.

    One channel draw services every threshold, so the curve is monotone
    by construction and maximally correlated across grid points.
    """
    return estimate_outage_rules(config, (config.rule,), workers)[config.rule]


# ---------------------------------------------------------------------------
# BER experiments
# ---------------------------------------------------------------------------

def _apply_ordering(config: ExperimentConfig, H: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Reorder selected columns per the decode-order override, if any."""
    ordering = config.ordering
    if ordering is None:
        return cols
    if ordering == "fixed":
        return np.sort(cols, axis=1)
    sub = np.take_along_axis(H, cols[:, None, :], axis=2)
    if ordering == "vblast":
        perm = rx.vblast_order_block(sub)
    else:
        perm = select_block("qr-greedy", sub, config.L)  # the greedy within the subset
    return np.take_along_axis(cols, perm, axis=1)


def _ber_chunk_size(config: ExperimentConfig) -> int:
    cap = max(1, _BER_CHUNK_SAMPLE_CAP // (config.n_r * config.frame_symbols))
    return min(config.chunk_size, cap)


def _draw_bits(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """The (*shape, 2) bool bits of ``rng.integers(0, 2, (*shape, 2))``,
    drawn as one raw 64-bit word per pair of the chunk's SFC64 generator.
    That call keeps bit 31 of each 32-bit half-word, which SFC64 hands
    out low half first, so the bits are the signs of each word's two
    little-endian int32 halves, low half first.  An even count of bits
    empties the half-word buffer, so the generator is left in the same
    state."""
    words = rng.bit_generator.random_raw(math.prod(shape))
    return (words.astype("<u8", copy=False).view("<i4") < 0).reshape(shape + (2,))


def _linear_snr(snr_db: float) -> float:
    """The linear SNR 10^(dB/10) of one point in dB.  Raises
    ``ValueError`` naming the point when that is not a finite positive
    float."""
    try:
        rho0 = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        rho0 = math.inf
    if not 0.0 < rho0 < math.inf:
        raise ValueError(f"SNR point {snr_db!r} dB has no finite positive linear value (10^(dB/10) = {rho0!r})")
    return rho0


def _snr_budgets(config: ExperimentConfig) -> list[rx.LinkBudget]:
    """The link budget of each SNR point of ``config.grid`` (in dB); the
    first point without a finite positive linear value raises
    (:func:`_linear_snr`)."""
    return [rx.LinkBudget(rho0=_linear_snr(snr_db), L=config.L) for snr_db in config.grid]


def _ber_chunk(config: ExperimentConfig, chunk_index: int, frames: int,
               rules: Sequence[str]) -> dict[str, np.ndarray]:
    """Tallies "errors" and "bits": the bit errors of one chunk at each SNR
    point, one row per rule of ``rules``, and its bits at each point.

    The chunk draws in the documented order: channels and bits whole
    (:func:`_draw_bits` gives the bits of ``rng.integers(0, 2)``), then
    the noise, then random's subset ranks; every rule reads the same
    draws.  Every rule selects its columns in one selection pass, which
    builds one table for all of them, and orders them in one call each;
    then the chunk gathers columns, detects (``receivers.detect_grid`` on
    the symbols and the noise) and counts in blocks of
    max(1, ``_BER_BLOCK_SAMPLES`` // (L T)) frames, whose (B, L, T)
    arrays stay in cache.  Each block draws its own slice of the noise
    just before detecting it, which continues the stream as a whole-chunk
    draw would, and every rule detects that slice; with "random" the
    chunk draws the noise whole, because random's subset ranks follow the
    noise in the stream.  Every step is per frame, so the counts are the
    same for any block size.
    """
    n_r, n_t, L, T = config.n_r, config.n_t, config.L, config.frame_symbols
    rng = stream_generator(config.master_seed, chunk_index)
    H = complex_gaussian(rng, (frames, n_r, n_t))
    bits = _draw_bits(rng, (frames, L, T))
    noise = complex_gaussian(rng, (frames, n_r, T)) if "random" in rules else None
    cols = np.empty((len(rules), frames, L), dtype=np.int64)
    _rule_pass(rules, H, L, rng, cols)
    cols = [_apply_ordering(config, H, rule_cols) for rule_cols in cols]
    budgets = _snr_budgets(config)
    errors = np.zeros((len(rules), len(config.grid)), dtype=np.int64)
    block = max(1, _BER_BLOCK_SAMPLES // (L * T))
    for start in range(0, frames, block):
        part = slice(start, start + block)
        part_bits = bits[part]
        part_noise = complex_gaussian(rng, (len(part_bits), n_r, T)) if noise is None else noise[part]
        x = rx.qpsk_modulate(part_bits)
        for row, rule_cols in zip(errors, cols):
            Heff = np.take_along_axis(H[part], rule_cols[part, None, :], axis=2)
            for p_i, est in enumerate(rx.detect_grid(Heff, x, part_noise, config.receiver, config.feedback, budgets)):
                row[p_i] += rx.count_bit_errors(est, part_bits)
    return {"errors": errors, "bits": np.full(len(config.grid), bits.size, dtype=np.int64)}


def estimate_ber_rules(config: ExperimentConfig, rules: Sequence[str],
                       workers: int = 1) -> dict[str, EmpiricalCurve]:
    """BER curve of every rule of ``rules`` on the frames of ``config``,
    keyed by rule; ``config.rule`` is not read.

    The rules share each chunk's channels, bits and noise, drawn once in
    the stream order of a single-rule run; selection, ordering and
    detection run per rule.  So each curve is bit-identical to
    :func:`estimate_ber` of that rule alone.  Every SNR point is checked
    before any chunk runs (:func:`_snr_budgets`).
    """
    rules = _check_rules(config, rules)
    _snr_budgets(config)
    plan = _chunk_plan(config.trial_count, _ber_chunk_size(config))
    totals = _run_chunks(functools.partial(_ber_chunk, config, rules=rules), plan, workers)
    bits = tuple(totals["bits"].tolist())
    return {rule: EmpiricalCurve(config.grid, tuple(row.tolist()), bits) for rule, row in zip(rules, totals["errors"])}


def estimate_ber(config: ExperimentConfig, workers: int = 1) -> EmpiricalCurve:
    """Bit error rate across the SNR grid (``config.grid`` is in dB):
    :func:`estimate_ber_rules` of ``config.rule`` alone.

    Each trial is one block-fading frame: a fresh channel draw carrying
    ``frame_symbols`` QPSK symbols per stream.  Channel, bits and noise
    are shared across all SNR points of a frame, so curves ride common
    random numbers.
    """
    return estimate_ber_rules(config, (config.rule,), workers)[config.rule]


# ---------------------------------------------------------------------------
# diversity-multiplexing estimation
# ---------------------------------------------------------------------------

def estimate_dmt_gains(n_t: int, n_r: int, L: int, rule: str, grids: Mapping[float, Sequence[float]],
                       trials: int, master_seed: int = 0, workers: int = 1) -> dict[float, SlopeFit]:
    """Empirical diversity order at every multiplexing gain r of ``grids``,
    which maps r to its SNR grid in dB.

    At each SNR rho the outage event of gain r is the rule scalar falling
    below L * rho^-(1 - r/L); each returned slope is the fitted decay
    rate of that probability against log rho (so it estimates d(r)
    directly, with ``fit_range`` in linear rho).

    One outage run counts the union of all the gains' thresholds, so each
    gain gets the hits a run of its own on ``master_seed`` would count.
    An empty ``grids`` raises ``ValueError``.  Every SNR grid is checked
    before any chunk runs: by :func:`_check_grid`, then each point
    without a finite positive linear value raises ``ValueError`` naming
    it (:func:`_linear_snr`).
    """
    if not grids:
        raise ValueError("need at least one multiplexing gain")
    thresholds = {}
    for r, rho_grid_db in grids.items():
        if not 0 <= r < L:
            raise ValueError(f"multiplexing gain must satisfy 0 <= r < L, got {r}")
        rho_db = _check_grid(rho_grid_db)
        for snr_db in rho_db:
            _linear_snr(snr_db)
        rho = 10.0 ** (np.asarray(rho_db) / 10.0)
        thresholds[r] = rho, L * rho ** -(1.0 - r / L)  # decreasing in rho
    union = np.unique(np.concatenate([x for _, x in thresholds.values()]))
    config = ExperimentConfig(n_t=n_t, n_r=n_r, L=L, rule=rule, trial_count=trials,
                              master_seed=master_seed, grid=tuple(union))
    hits = np.asarray(estimate_outage(config, workers=workers).hits)
    fits = {}
    for r, (rho, x) in thresholds.items():
        curve = EmpiricalCurve(tuple(rho), tuple(hits[np.searchsorted(union, x)].tolist()), (trials,) * len(rho))
        fit = fit_slope(curve)
        fits[r] = replace(fit, slope=-fit.slope)
    return fits


# ---------------------------------------------------------------------------
# exponential-equivalence harnesses
# ---------------------------------------------------------------------------

#: Threshold grid of each harness's fitted small-x tails.
_LEMMA_GRIDS = {
    "III": np.geomspace(5e-3, 0.8, 28),
    "IV": np.geomspace(1e-4, 0.3, 28),
    "V": np.geomspace(1e-4, 0.5, 28),
}


def _lemma_chunk(lemma: str, exps: tuple[float, ...], master_seed: int, chunk_index: int,
                 count: int) -> dict[str, np.ndarray]:
    """Hits of one chunk of one harness at each threshold of its grid, as
    the tally "hits" with one row per fitted curve.  The (count, K) draws
    are summed and maximized column by column: numpy reduces a short
    axis 1 row by row, which took 56 ms for the maximum of 10^6 x 2."""
    rng = stream_generator(master_seed, chunk_index)
    n = np.asarray(exps)
    if lemma == "III":
        values = (functools.reduce(np.add, (rng.random((count, len(exps))) ** (1.0 / n)).T),)
    elif lemma == "IV":
        psi = (math.pi / 2.0) / len(exps)  # keeps the sum inside the monotone range of sin^2
        th = psi * rng.random((count, len(exps))) ** (1.0 / n)
        values = np.sin(functools.reduce(np.add, th.T)) ** 2, np.sin(_row_max(th)) ** 2
    else:
        n_a, n_b = exps
        a = rng.gamma(n_a, 1.0, size=count)
        b1 = rng.random(count) ** (1.0 / n_b)
        # second factor with the same exponent but a different shape:
        # CDF 2 x^{n_b} - x^{2 n_b}
        b2 = (1.0 - np.sqrt(1.0 - rng.random(count))) ** (1.0 / n_b)
        values = a * b1, a * b2
    return {"hits": np.stack([_hits(_LEMMA_GRIDS[lemma], v) for v in values])}


def lemma_harness(lemma: str, parameters: Sequence[float], trials: int,
                  master_seed: int = 0, workers: int = 1) -> tuple[SlopeFit, ...]:
    """Fitted small-x tail exponents of the synthetic variables of one
    exponential-equivalence statement.

    "III": ``parameters`` are the CDF exponents n_k (each variable is
    U^(1/n_k)); one fit, of the sum, whose exponent is sum(n_k).
    "IV": same variables squeezed into (0, (pi/2)/K) and mapped through
    sin^2; the fits of the sum and of the max variant, both of exponent
    sum(n_k)/2.
    "V": ``parameters`` = (n_a, n_b); a is Gamma(n_a, 1) and two
    differently-shaped [0, 1] factors share CDF exponent n_b; the fits of
    the two products, which agree, both of exponent min(n_a, n_b) when
    n_a != n_b.

    Each chunk of 10^6 draws is counted into the curves and dropped, so
    memory does not grow with ``trials``.
    """
    lemma = str(lemma).upper()
    exps = tuple(float(n) for n in parameters)
    if not exps or not all(0 < n < math.inf for n in exps):
        raise ValueError(f"exponents must be finite and positive, got {parameters}")
    if lemma not in _LEMMA_GRIDS:
        raise ValueError(f"unknown lemma {lemma!r}; expected III, IV or V")
    if lemma == "V" and (len(exps) != 2 or exps[0] != int(exps[0])):
        raise ValueError(f"lemma V takes (n_a, n_b) with an integer Gamma shape n_a, got {parameters}")
    job = functools.partial(_lemma_chunk, lemma, exps, master_seed)
    hits = _run_chunks(job, _chunk_plan(trials, 1_000_000), workers)["hits"]
    grid = tuple(_LEMMA_GRIDS[lemma])
    return tuple(fit_slope(EmpiricalCurve(grid, tuple(int(h) for h in row), (trials,) * len(grid)))
                 for row in hits)


# ---------------------------------------------------------------------------
# independence suite
# ---------------------------------------------------------------------------

#: Trials per chunk of the independence suite, and the draws of chunk 0
#: that its two KS tests read.
_INDEPENDENCE_CHUNK, _KS_SAMPLES = 200_000, 100_000
#: Thresholds of the product-CDF cells, for heights and angles alike.
_CDF_PROBES = (0.5, 1.0)


def pair_angle(height: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """The angle between a column and another's span, from the column's
    height against the other (a pair-table row) and its squared norm:
    sin^2 = height / norm."""
    return np.arcsin(np.sqrt(np.clip(height / norm, 0.0, 1.0)))


def _ks_test(sample: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> tuple[float, float]:
    """Two-sided one-sample Kolmogorov-Smirnov test of ``sample`` against
    the continuous law ``cdf``: its statistic d and the p-value P(D_n >= d).

    d is the larger of max(i/n - F(x_(i))) and max(F(x_(i)) - (i-1)/n)
    over the sorted sample.  The p-value is one minus the Pelz-Good (1976)
    expansion of the CDF of D_n through its 1/n term, K0 + K1/sqrt(n) +
    K2/n at z = d sqrt(n), in the theta-function form of Simard and
    L'Ecuyer (J. Stat. Softw. 39(11), 2011), who use it for large n; its
    next term is of order n^-3/2.  For p in [1e-6, 0.99] it read within
    1.9e-6 relative of scipy's exact route at n = 10^5 (the marginal-law
    samples), 1.1e-5 at n = 2x10^4 and 2 % at n = 100.
    """
    f = cdf(np.sort(sample))
    n = f.size
    d = float(max((np.arange(1, n + 1) / n - f).max(), (f - np.arange(n) / n).max()))
    z2 = n * d * d
    k = np.arange(1, math.ceil(16 * math.sqrt(z2) / math.pi) + 1)  # terms past 16 z / pi fall below rounding
    a = (math.pi * (k - 0.5)) ** 2
    w = np.exp(-a / (2 * z2))
    # K0, K1 and K2, each times z / sqrt(pi / 2)
    k0 = 2 * w.sum()
    k1 = (a - z2) @ w / (3 * z2 ** 1.5)
    k2 = ((6 * z2 ** 3 + 2 * z2 ** 2 + (2 * z2 ** 2 - 5 * z2) * a + (1 - 2 * z2) * a * a) @ w / (36 * z2 ** 3)
          - (math.pi * k) ** 2 @ np.exp(-(math.pi * k) ** 2 / (2 * z2)) / (18 * z2))
    below = math.sqrt(math.pi / 2 / z2) * float(k0 + k1 / math.sqrt(n) + k2 / n)  # P(D_n < d)
    return d, min(1.0, max(0.0, 1.0 - below))


def marginal_law_pvalues(heights: np.ndarray, angles: np.ndarray, n_r: int) -> tuple[float, float]:
    """KS p-values (:func:`_ks_test`) of pair heights against their
    Gamma(n_r - 1) law and of pair angles (:func:`pair_angle`) against
    ``analytic.theta_cdf``."""
    return (_ks_test(heights, lambda v: analytic.chi2n_cdf(v, n_r - 1))[1],
            _ks_test(angles, lambda v: analytic.theta_cdf(v, n_r))[1])


def _independence_chunk(n_t: int, n_r: int, master_seed: int, chunk_index: int, count: int) -> dict:
    """Tallies of one chunk of the independence suite: per named pair, its
    sums (x, y, x y, x^2, y^2) under ("corr", name) or its int64 counts of
    x <= a, of y <= b and of both at each probe pair (a, b) under ("cdf",
    name); chunk 0 adds its first ``_KS_SAMPLES`` heights and angles."""
    rng = stream_generator(master_seed, chunk_index)
    norms, fwd, _ = _pair_table(complex_gaussian(rng, (count, n_r, n_t)))
    depth = min(n_t - 1, 3)
    chain = [fwd[_pair_rank(n_t, k, k + 1)] for k in range(depth)]
    angles = [pair_angle(fwd[_pair_rank(n_t, 0, j + 1)], norms[0]) for j in range(depth)]
    pairs = list(itertools.combinations(range(depth), 2))
    corr = {f"chain heights ({i},{i + 1})x({j},{j + 1})": (chain[i], chain[j]) for i, j in pairs}
    corr.update({f"reference angles (0,{i + 1})x(0,{j + 1})": (angles[i], angles[j]) for i, j in pairs})
    corr["norm vs angle"] = norms[0], angles[0]
    corr["control"] = chain[0], fwd[_pair_rank(n_t, 0, 2)]  # two heights sharing column 0's norm
    cdf = {f"chain heights ({k},{k + 1})x({k + 1},{k + 2})": (chain[k], chain[k + 1]) for k in range(depth - 1)}
    cdf["reference angles (0,1)x(0,2)"] = angles[0], angles[1]
    out: dict = {("corr", name): np.array([x.sum(), y.sum(), (x * y).sum(), (x * x).sum(), (y * y).sum()])
                 for name, (x, y) in corr.items()}
    for name, (x, y) in cdf.items():
        out["cdf", name] = np.array([[np.count_nonzero(x <= a), np.count_nonzero(y <= b),
                                      np.count_nonzero((x <= a) & (y <= b))]
                                     for a, b in itertools.product(_CDF_PROBES, _CDF_PROBES)], dtype=np.int64)
    if chunk_index == 0:
        out["ks", "height"], out["ks", "angle"] = chain[0][:_KS_SAMPLES].copy(), angles[0][:_KS_SAMPLES].copy()
    return out


def independence_suite(n_t: int, n_r: int, trials: int, master_seed: int = 0, workers: int = 1) -> dict:
    """Statistics of the pairwise-height independence structure.

    Returns a dict of plain values: ``correlations``, the named (signed)
    correlations of chained heights (column k against column k+1), of the
    reference angles from column 0 and of column 0's norm against its
    first angle; ``cdf_gaps``, the named product-CDF gaps of chained
    heights and angles, each with its standard deviation under
    independence; ``ks_pvalues``, the KS p-values of the height and angle
    marginals against their closed forms, on the first 10^5 draws; and
    ``control_correlation``, the correlation of a deliberately dependent
    pair (two heights sharing column 0's norm).  Chunks return sums and
    counts, not draws, so memory does not grow with ``trials``.
    """
    if n_t < 3 or n_r < 2:
        raise ValueError(f"need n_t >= 3 and n_r >= 2, got ({n_t}, {n_r})")
    job = functools.partial(_independence_chunk, n_t, n_r, master_seed)
    totals = _run_chunks(job, _chunk_plan(trials, _INDEPENDENCE_CHUNK), workers)
    correlations, cdf_gaps = {}, {}
    for (kind, name), tally in totals.items():
        if kind == "corr":
            s_x, s_y, s_xy, s_xx, s_yy = tally
            correlations[name] = float((s_xy - s_x * s_y / trials)
                                       / math.sqrt((s_xx - s_x * s_x / trials) * (s_yy - s_y * s_y / trials)))
        elif kind == "cdf":
            for (a, b), counts in zip(itertools.product(_CDF_PROBES, _CDF_PROBES), tally):
                fx, fy, fxy = (int(c) / trials for c in counts)
                sigma = math.sqrt(max(fx * (1 - fx) * fy * (1 - fy), 1e-300) / trials)
                cdf_gaps[f"{name} product CDF at ({a}, {b})"] = (abs(fxy - fx * fy), sigma)
    control = correlations.pop("control")
    return {
        "correlations": correlations,
        "cdf_gaps": cdf_gaps,
        "ks_pvalues": marginal_law_pvalues(totals["ks", "height"], totals["ks", "angle"], n_r),
        "control_correlation": control,
    }
