"""Reproducible Monte Carlo engines and measurements: outage curves, BER
curves, diversity-multiplexing estimates, slope fits, and the statistics
of the independence and exponential-equivalence harnesses.  Everything
here returns plain values (curves, fits, correlations, p-values); the
bounds those values are judged by live in :mod:`antsel.verify`.

Trials are partitioned into fixed-size chunks; chunk i draws every random
quantity from the Philox stream keyed by (master_seed, i), in a fixed
order (channels, then frame bits, then noise, then any rule randomness).
Chunk results merge by integer addition, so output is bit-identical for
any worker count or schedule, and experiments that share a master seed
see identical channel draws regardless of the rule under test.

Each chunk selects with one call of the batched kernels of
:mod:`antsel.selection`; this module keeps the chunk plan, the draws, the
decode-order overrides, detection over the SNR grid and the counting.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from . import receivers as rx
from .analytic import chi2n_cdf, theta_cdf
from .channel import complex_gaussian, stream_generator
from .selection import RULES, _greedy_selection_block, _outage_scalars, _pair_table, _subsets, select_block

#: Cap on the complex noise samples (n_r per symbol) one BER chunk draws.
#: It sets the chunk size, which keys the chunk streams, so manifests
#: record it as ``effective_chunk_size``.
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
    SNR points in dB for BER runs.  ``ordering`` overrides the selection
    rule's native decode order when set ("fixed", "vblast", "qr-reverse").
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
        if self.L < 1 or self.n_t < self.L or self.n_r < self.L:
            raise ValueError(f"need n_t >= L >= 1 and n_r >= L, got ({self.n_t}, {self.n_r}, {self.L})")
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}; expected one of {RULES}")
        if self.rule in ("first-fixed", "first-ordered") and self.L != 2:
            raise ValueError(f"rule {self.rule!r} is defined for L = 2 only")
        if self.receiver not in rx.RECEIVERS:
            raise ValueError(f"unknown receiver {self.receiver!r}; expected one of {rx.RECEIVERS}")
        if self.feedback not in rx.FEEDBACK_MODES:
            raise ValueError(f"unknown feedback mode {self.feedback!r}")
        if self.ordering is not None and self.ordering not in rx.ORDERING_MODES:
            raise ValueError(f"unknown ordering {self.ordering!r}; expected one of {rx.ORDERING_MODES}")
        if self.trial_count < 1:
            raise ValueError(f"trial_count must be positive, got {self.trial_count}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {self.chunk_size}")
        if self.frame_symbols < 1:
            raise ValueError(f"frame_symbols must be positive, got {self.frame_symbols}")
        grid = tuple(float(x) for x in self.grid)
        if not grid:
            raise ValueError("abscissa grid is empty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("abscissa grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)


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


def fit_slope(curve: EmpiricalCurve, min_hits: int = 10, p_max: float = 0.2) -> SlopeFit:
    """Weighted least-squares log-log slope of an empirical curve over its
    usable range.

    Only points with at least ``min_hits`` events and probability at most
    ``p_max`` enter the fit: small enough to probe the asymptote, large
    enough for meaningful counts.  Weights are the inverse delta-method
    variances of log p_hat, hits / (1 - p_hat).
    """
    x = np.asarray(curve.abscissa, dtype=float)
    hits = np.asarray(curve.hits, dtype=float)
    p = hits / np.asarray(curve.trials, dtype=float)
    usable = (hits >= min_hits) & (p <= p_max)
    n_use = int(usable.sum())
    if n_use < 3:
        raise FitError(
            f"slope fit needs >= 3 usable points with hits >= {min_hits} and p_hat <= {p_max}; got {n_use}"
        )
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
    """Fixed (chunk_index, trials) decomposition, independent of workers."""
    plan = []
    full, rest = divmod(trial_count, chunk_size)
    for i in range(full):
        plan.append((i, chunk_size))
    if rest:
        plan.append((full, rest))
    return plan


def _run_chunks(job, plan, workers: int) -> list:
    if workers <= 1:
        return [job(args) for args in plan]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(job, plan, chunksize=max(1, len(plan) // (4 * workers) or 1)))


# ---------------------------------------------------------------------------
# outage experiments
# ---------------------------------------------------------------------------

def _outage_chunk(args: tuple[ExperimentConfig, int, int]) -> np.ndarray:
    config, chunk_index, count = args
    rng = stream_generator(config.master_seed, chunk_index)
    H = complex_gaussian(rng, (count, config.n_r, config.n_t))
    scalars = _outage_scalars(config.rule, H, config.L, rng)
    grid = np.asarray(config.grid)
    return np.searchsorted(np.sort(scalars), grid, side="right").astype(np.int64)


def estimate_outage(config: ExperimentConfig, workers: int = 1) -> EmpiricalCurve:
    """Empirical outage curve of the rule's scalar over the threshold grid.

    One channel draw services every threshold, so the curve is monotone
    by construction and maximally correlated across grid points.
    """
    plan = [(config, i, n) for i, n in _chunk_plan(config.trial_count, config.chunk_size)]
    hits = np.zeros(len(config.grid), dtype=np.int64)
    for part in _run_chunks(_outage_chunk, plan, workers):
        hits += part
    trials = (config.trial_count,) * len(config.grid)
    return EmpiricalCurve(config.grid, tuple(int(h) for h in hits), trials)


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
        # greedy within the subset; decoding reverses the selection order
        perm = _greedy_selection_block(sub, config.L)[0][:, ::-1]
    return np.take_along_axis(cols, perm, axis=1)


def _detect_grid(config: ExperimentConfig, Heff: np.ndarray, bits: np.ndarray,
                 noise: np.ndarray) -> Iterator[np.ndarray]:
    """Stream estimates at each SNR point of ``config.grid``, in order, for
    a block of frames whose columns are already in decode order (stream i
    of the symbols of ``bits`` rides column i of ``Heff``).  Their rail
    signs are the decisions (``receivers.qpsk_slice`` gives the symbols);
    the next point overwrites them.

    Detection runs in the error domain.  At stream scale s the
    matched-filter output over s is y = G x + z / s, with the Gram
    matrices G, the symbols x and the noise projection z = Heff^H noise.
    Every receiver's stage matrix V has V G = I - lam V on the columns it
    nulls and the decision-feedback leak below them, so the estimate
    before cancellation is x + V (z / s - lam x) and no G x is formed.
    For ZF (lam = 0) W = V z is formed once per call, as (V Heff^H) noise,
    and a point costs est = x + W / s; the MMSE front ends build their
    stage matrices and one matmul per point.  Actual feedback then takes
    the leak times (sliced - x) off the later stages; genie feedback
    cancels nothing.  Every step works frame by frame, so the estimates
    of a frame do not depend on the other frames of the call.
    """
    x = rx.qpsk_modulate(bits)
    G = rx.matched_filter(Heff, Heff)
    if regularized := config.receiver in ("mmse", "df-mmse"):
        z = rx.matched_filter(Heff, noise)
        u = np.empty_like(z)
    else:
        V, leak = rx.stage_matrices(G, config.receiver, 0.0)
        W = (V @ Heff.conj().transpose(0, 2, 1)) @ noise
    est = np.empty_like(x)
    for snr_db in config.grid:
        budget = rx.LinkBudget(rho0=10.0 ** (snr_db / 10.0), L=config.L)
        if regularized:
            lam = rx.nulling_lam(config.receiver, budget)
            V, leak = rx.stage_matrices(G, config.receiver, lam)
            np.multiply(x, lam, out=est)
            np.multiply(z, 1.0 / budget.stream_scale, out=u)
            u -= est
            np.matmul(V, u, out=est)
        else:
            np.multiply(W, 1.0 / budget.stream_scale, out=est)
        est += x
        if config.feedback == "actual":
            rx.detect_matched(leak, est, cancelled=x)
        yield est


def _ber_chunk_size(config: ExperimentConfig) -> int:
    cap = max(1, _BER_CHUNK_SAMPLE_CAP // (config.n_r * config.frame_symbols))
    return min(config.chunk_size, cap)


def _draw_bits(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """The (*shape, 2) bool bits of ``rng.integers(0, 2, (*shape, 2))``,
    drawn as one raw 64-bit word per pair.  That call keeps bit 31 of each
    32-bit half-word, low half first, and an even count of bits empties
    its half-word buffer, so the generator is left in the same state."""
    words = rng.bit_generator.random_raw(math.prod(shape)).reshape(shape)
    bits = np.empty(shape + (2,), dtype=bool)
    np.right_shift(words, 63, out=bits[..., 1], casting="unsafe")
    words <<= 32
    np.right_shift(words, 63, out=bits[..., 0], casting="unsafe")
    return bits


def _ber_chunk(args: tuple[ExperimentConfig, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Bit errors and bits counted at each SNR point over one chunk.

    The chunk draws whole, in the documented order (channels, bits, noise,
    then the rule's randomness), and selects and orders its columns in one
    call each; :func:`_draw_bits` gives the bits of ``rng.integers(0, 2)``.  The column gather, detection and counting then run on
    blocks of max(1, ``_BER_BLOCK_SAMPLES`` // (L T)) frames, whose
    (B, L, T) arrays stay in cache; each of these steps is per frame, so
    the counts are the same for any block size.
    """
    config, chunk_index, frames = args
    n_r, n_t, L, T = config.n_r, config.n_t, config.L, config.frame_symbols
    rng = stream_generator(config.master_seed, chunk_index)
    H = complex_gaussian(rng, (frames, n_r, n_t))
    bits = _draw_bits(rng, (frames, L, T))
    noise = complex_gaussian(rng, (frames, n_r, T))
    cols = _apply_ordering(config, H, select_block(config.rule, H, L, rng))
    errors = np.zeros(len(config.grid), dtype=np.int64)
    block = max(1, _BER_BLOCK_SAMPLES // (L * T))
    for start in range(0, frames, block):
        part = slice(start, start + block)
        Heff = np.take_along_axis(H[part], cols[part, None, :], axis=2)
        for p_i, est in enumerate(_detect_grid(config, Heff, bits[part], noise[part])):
            errors[p_i] += rx.count_bit_errors(est, bits[part])
    return errors, np.full(len(config.grid), bits.size, dtype=np.int64)


def estimate_ber(config: ExperimentConfig, workers: int = 1) -> EmpiricalCurve:
    """Bit error rate across the SNR grid (``config.grid`` is in dB).

    Each trial is one block-fading frame: a fresh channel draw carrying
    ``frame_symbols`` QPSK symbols per stream.  Channel, bits and noise
    are shared across all SNR points of a frame, so curves ride common
    random numbers.
    """
    chunk = _ber_chunk_size(config)
    plan = [(config, i, n) for i, n in _chunk_plan(config.trial_count, chunk)]
    errors = np.zeros(len(config.grid), dtype=np.int64)
    counted = np.zeros(len(config.grid), dtype=np.int64)
    for part_err, part_bits in _run_chunks(_ber_chunk, plan, workers):
        errors += part_err
        counted += part_bits
    return EmpiricalCurve(config.grid, tuple(int(e) for e in errors), tuple(int(b) for b in counted))


# ---------------------------------------------------------------------------
# diversity-multiplexing estimation
# ---------------------------------------------------------------------------

def estimate_dmt(n_t: int, n_r: int, L: int, rule: str, r: float,
                 rho_grid_db: Sequence[float], trials: int, master_seed: int = 0,
                 workers: int = 1) -> SlopeFit:
    """Empirical diversity order at multiplexing gain ``r``.

    At each SNR rho the outage event is the rule scalar falling below
    L * rho^-(1 - r/L); the returned slope is the fitted decay rate of
    that probability against log rho (so it estimates d(r) directly, with
    ``fit_range`` in linear rho).
    """
    if not 0 <= r < L:
        raise ValueError(f"multiplexing gain must satisfy 0 <= r < L, got {r}")
    rho_db = np.asarray(sorted(float(v) for v in rho_grid_db))
    if len(rho_db) != len(set(rho_db)):
        raise ValueError("rho grid contains duplicate points")
    rho = 10.0 ** (rho_db / 10.0)
    thresholds = L * rho ** -(1.0 - r / L)  # decreasing in rho
    order = np.argsort(thresholds)
    config = ExperimentConfig(
        n_t=n_t, n_r=n_r, L=L, rule=rule, trial_count=trials,
        master_seed=master_seed, grid=tuple(thresholds[order]),
    )
    hits = np.empty(len(rho), dtype=np.int64)
    hits[order] = estimate_outage(config, workers=workers).hits
    fit = fit_slope(EmpiricalCurve(tuple(rho), tuple(hits.tolist()), (trials,) * len(rho)))
    return replace(fit, slope=-fit.slope)


# ---------------------------------------------------------------------------
# exponential-equivalence harnesses
# ---------------------------------------------------------------------------

def _lemma_case(lemma: str, exps: list[float]):
    """Threshold grid and chunk sampler of one harness.  The sampler maps
    (rng, n) to the value arrays whose small-x tails are fitted, one per
    curve."""
    n = np.asarray(exps)
    if lemma == "III":
        def sample(rng, count):
            return ((rng.random((count, len(exps))) ** (1.0 / n)).sum(axis=1),)

        return np.geomspace(5e-3, 0.8, 28), sample

    if lemma == "IV":
        psi = (math.pi / 2.0) / len(exps)  # keeps the sum inside the monotone range of sin^2

        def sample(rng, count):
            th = psi * rng.random((count, len(exps))) ** (1.0 / n)
            return np.sin(th.sum(axis=1)) ** 2, np.sin(th.max(axis=1)) ** 2

        return np.geomspace(1e-4, 0.3, 28), sample

    if lemma == "V":
        n_a, n_b = exps
        if n_a != int(n_a):
            raise ValueError("the Gamma shape n_a must be an integer")

        def sample(rng, count):
            a = rng.gamma(n_a, 1.0, size=count)
            b1 = rng.random(count) ** (1.0 / n_b)
            # second factor with the same exponent but a different shape:
            # CDF 2 x^{n_b} - x^{2 n_b}
            b2 = (1.0 - np.sqrt(1.0 - rng.random(count))) ** (1.0 / n_b)
            return a * b1, a * b2

        return np.geomspace(1e-4, 0.5, 28), sample

    raise ValueError(f"unknown lemma {lemma!r}; expected III, IV or V")


def lemma_harness(lemma: str, parameters: Sequence[float], trials: int,
                  master_seed: int = 0) -> tuple[SlopeFit, ...]:
    """Fitted small-x tail exponents of the synthetic variables of one
    exponential-equivalence statement.

    "III": ``parameters`` are the CDF exponents n_k (each variable is
    U^(1/n_k)); one fit, of the sum, whose exponent is sum(n_k).
    "IV": same variables squeezed into (0, (pi/2)/K) and mapped through
    sin^2; the fits of the sum and of the max variant, both of exponent
    sum(n_k)/2.
    "V": ``parameters`` = (n_a, n_b); a is Gamma(n_a, 1) and two
    differently-shaped [0, 1] factors share CDF exponent n_b; the fits of
    the two products, which agree and stay at or below n_a.

    Each chunk is drawn, counted into the curves and dropped, so memory
    does not grow with ``trials``.
    """
    lemma = str(lemma).upper()
    exps = [float(n) for n in parameters]
    if not exps or any(n <= 0 for n in exps):
        raise ValueError(f"exponents must be positive, got {parameters}")
    grid, sample = _lemma_case(lemma, exps)
    hits = sum(np.stack([np.searchsorted(np.sort(v), grid, side="right")
                         for v in sample(stream_generator(master_seed, i), count)])
               for i, count in _chunk_plan(trials, 1_000_000))
    return tuple(fit_slope(EmpiricalCurve(tuple(grid), tuple(int(h) for h in row), (trials,) * len(grid)))
                 for row in hits)


# ---------------------------------------------------------------------------
# independence suite
# ---------------------------------------------------------------------------

def _corr(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.corrcoef(x, y)[0, 1])


def _product_cdf_gaps(name: str, x: np.ndarray, y: np.ndarray,
                      probes: Sequence[float]) -> dict[str, tuple[float, float]]:
    """|F_xy - F_x F_y| at each pair of probes, with its asymptotic
    standard deviation under independence."""
    n = len(x)
    out = {}
    for a in probes:
        for b in probes:
            fx = float(np.mean(x <= a))
            fy = float(np.mean(y <= b))
            fxy = float(np.mean((x <= a) & (y <= b)))
            sigma = math.sqrt(max(fx * (1 - fx) * fy * (1 - fy), 1e-300) / n)
            out[f"{name} product CDF at ({a}, {b})"] = (abs(fxy - fx * fy), sigma)
    return out


def independence_suite(n_t: int, n_r: int, trials: int, master_seed: int = 0) -> dict:
    """Statistics of the pairwise-height independence structure.

    Returns a dict of plain values: ``correlations``, the named (signed)
    correlations of chained heights (column k against column k+1), of the
    reference angles from column 0 and of column 0's norm against its
    first angle; ``cdf_gaps``, the named product-CDF gaps of chained
    heights and angles, each with its standard deviation under
    independence; ``ks_pvalues``, the KS p-values of the height and angle
    marginals against their closed forms; and ``control_correlation``,
    the correlation of a deliberately dependent pair (two heights sharing
    column 0's norm).
    """
    if n_t < 3 or n_r < 2:
        raise ValueError(f"need n_t >= 3 and n_r >= 2, got ({n_t}, {n_r})")
    from scipy import stats

    chunk_size, ks_samples = 200_000, 100_000
    chain_len = min(n_t - 1, 3)
    n_angles = min(n_t - 1, 3)
    chain_parts: list[list[np.ndarray]] = [[] for _ in range(chain_len)]
    angle_parts: list[list[np.ndarray]] = [[] for _ in range(n_angles)]
    shared_parts: list[np.ndarray] = []
    norm0_parts: list[np.ndarray] = []
    # row of the pair table holding the height of column i against column j > i
    rank = {(int(i), int(j)): p for p, (i, j) in enumerate(_subsets(n_t, 2))}

    for i, count in _chunk_plan(trials, chunk_size):
        rng = stream_generator(master_seed, i)
        H = complex_gaussian(rng, (count, n_r, n_t))
        norms, fwd, _ = _pair_table(H)
        for k in range(chain_len):
            chain_parts[k].append(fwd[rank[k, k + 1]])
        for j in range(n_angles):
            ratio = np.clip(fwd[rank[0, j + 1]] / norms[0], 0.0, 1.0)
            angle_parts[j].append(np.arcsin(np.sqrt(ratio)))
        shared_parts.append(fwd[rank[0, 2]])
        norm0_parts.append(norms[0])

    chain = [np.concatenate(p) for p in chain_parts]
    angles = [np.concatenate(p) for p in angle_parts]
    shared = np.concatenate(shared_parts)
    norm0 = np.concatenate(norm0_parts)

    correlations = {}
    cdf_gaps = {}
    probes = (0.5, 1.0)
    for i, j in itertools.combinations(range(chain_len), 2):
        correlations[f"chain heights ({i},{i + 1})x({j},{j + 1})"] = _corr(chain[i], chain[j])
    cdf_gaps.update(_product_cdf_gaps("chain heights (0,1)x(1,2)", chain[0], chain[1], probes))
    if chain_len >= 3:
        cdf_gaps.update(_product_cdf_gaps("chain heights (1,2)x(2,3)", chain[1], chain[2], probes))
    for i, j in itertools.combinations(range(n_angles), 2):
        correlations[f"reference angles (0,{i + 1})x(0,{j + 1})"] = _corr(angles[i], angles[j])
    cdf_gaps.update(_product_cdf_gaps("reference angles (0,1)x(0,2)", angles[0], angles[1], probes))
    correlations["norm vs angle"] = _corr(norm0, angles[0])

    ks_n = min(ks_samples, trials)
    ks_height = stats.kstest(chain[0][:ks_n], lambda v: chi2n_cdf(v, n_r - 1))
    ks_angle = stats.kstest(angles[0][:ks_n], lambda v: theta_cdf(v, n_r))
    return {
        "correlations": correlations,
        "cdf_gaps": cdf_gaps,
        "ks_pvalues": (float(ks_height.pvalue), float(ks_angle.pvalue)),
        "control_correlation": _corr(chain[0], shared),
    }
