"""Reproducible Monte Carlo engines: outage curves, BER curves,
diversity-multiplexing estimates, and the statistical harnesses for the
independence and exponential-equivalence checks.

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
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import receivers as rx
from .analytic import chi2n_cdf, theta_cdf
from .channel import complex_gaussian, stream_generator
from .selection import RULES, _greedy_selection_block, _outage_scalars, _pair_table, _subsets, select_block

#: Cap on complex received samples held by one BER chunk.
_BER_CHUNK_SAMPLE_CAP = 2_000_000


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


def _weighted_loglog_fit(x: np.ndarray, hits: np.ndarray, trials: np.ndarray,
                         min_hits: int, p_max: float) -> tuple[float, float, float, np.ndarray]:
    """WLS of log(hits/trials) on log(x) over the usable points.

    Weights are the inverse delta-method variances of log p_hat,
    hits / (1 - p_hat).  Returns (slope, intercept, slope stderr, mask).
    """
    p = hits / trials
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
    stderr = math.sqrt(s_w / denom)
    return float(slope), float(intercept), float(stderr), usable


def fit_slope(curve: EmpiricalCurve, min_hits: int = 10, p_max: float = 0.2) -> SlopeFit:
    """Fit the log-log slope of an empirical curve over its usable range.

    Only points with at least ``min_hits`` events and probability at most
    ``p_max`` enter the fit: small enough to probe the asymptote, large
    enough for meaningful counts.
    """
    x = np.asarray(curve.abscissa, dtype=float)
    hits = np.asarray(curve.hits, dtype=float)
    trials = np.asarray(curve.trials, dtype=float)
    slope, intercept, stderr, usable = _weighted_loglog_fit(x, hits, trials, min_hits, p_max)
    xs = x[usable]
    return SlopeFit(slope, intercept, stderr, (float(xs.min()), float(xs.max())), int(usable.sum()))


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
    """Detected QPSK symbols at each SNR point of ``config.grid``, in
    order, for a block of frames whose columns are already in decode order
    (stream i of the symbols of ``bits`` rides column i of ``Heff``).

    The noiseless received block is formed once.  The nulling rows are
    formed again only when their lam changes, so the ZF rows (lam = 0) are
    formed once and the MMSE rows at every point.  Each point then does
    the arithmetic of one ``receivers.detect_block`` call.  The points
    share one buffer for the received block, so besides the noise the
    chunk holds at most two (B, n_r, T) blocks.
    """
    symbols = rx.qpsk_modulate(bits)
    clean = np.einsum("brl,blt->brt", Heff, symbols)
    # the transmitted symbols are kept for genie feedback only
    genie = symbols if config.feedback == "genie" else None
    del symbols
    nulling, lam = None, None
    # a one-point grid builds its received block in the noiseless one
    received = np.empty_like(clean) if len(config.grid) > 1 else clean
    for snr_db in config.grid:
        budget = rx.LinkBudget(rho0=10.0 ** (snr_db / 10.0), L=config.L)
        if (point_lam := rx.nulling_lam(config.receiver, budget)) != lam:
            lam = point_lam
            nulling = rx.nulling_block(Heff, config.receiver, lam)
        np.multiply(budget.stream_scale, clean, out=received)
        received += noise
        yield rx.detect_nulled(nulling, received, budget.stream_scale, config.feedback, genie)


def _ber_chunk_size(config: ExperimentConfig) -> int:
    cap = max(1, _BER_CHUNK_SAMPLE_CAP // (config.n_r * config.frame_symbols))
    return min(config.chunk_size, cap)


def _ber_chunk(args: tuple[ExperimentConfig, int, int]) -> tuple[np.ndarray, np.ndarray]:
    config, chunk_index, frames = args
    n_r, n_t, L, T = config.n_r, config.n_t, config.L, config.frame_symbols
    rng = stream_generator(config.master_seed, chunk_index)
    H = complex_gaussian(rng, (frames, n_r, n_t))
    bits = rng.integers(0, 2, size=(frames, L, T, 2))
    noise = complex_gaussian(rng, (frames, n_r, T))
    cols = _apply_ordering(config, H, select_block(config.rule, H, L, rng))
    Heff = np.take_along_axis(H, cols[:, None, :], axis=2)
    errors = np.zeros(len(config.grid), dtype=np.int64)
    detections = _detect_grid(config, Heff, bits, noise)
    for p_i in range(len(config.grid)):
        # no name holds a detected block while the next one is built
        errors[p_i] = rx.count_bit_errors(next(detections), bits)
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
                 chunk_size: int = 100_000, workers: int = 1,
                 min_hits: int = 10, p_max: float = 0.2) -> SlopeFit:
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
        master_seed=master_seed, grid=tuple(thresholds[order]), chunk_size=chunk_size,
    )
    curve = estimate_outage(config, workers=workers)
    hits_sorted = np.asarray(curve.hits, dtype=float)
    hits = np.empty_like(hits_sorted)
    hits[order] = hits_sorted
    trials_arr = np.full(len(rho), float(trials))
    slope, intercept, stderr, usable = _weighted_loglog_fit(rho, hits, trials_arr, min_hits, p_max)
    used = rho[usable]
    return SlopeFit(-slope, intercept, stderr, (float(used.min()), float(used.max())), int(usable.sum()))


# ---------------------------------------------------------------------------
# exponential-equivalence harnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    """One named statistic against its bound."""

    name: str
    value: float
    bound: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class LemmaReport:
    """Fits and verdict of one synthetic exponential-equivalence harness."""

    lemma: str
    fits: tuple[SlopeFit, ...]
    expected_slope: float
    tolerance: float
    passed: bool
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)


def _count_curve(values_per_chunk, grid: np.ndarray, trials: int) -> EmpiricalCurve:
    hits = np.zeros(len(grid), dtype=np.int64)
    for vals in values_per_chunk:
        hits += np.searchsorted(np.sort(vals), grid, side="right")
    return EmpiricalCurve(tuple(grid), tuple(int(h) for h in hits), (trials,) * len(grid))


def lemma_harness(lemma: str, parameters: Sequence[float], trials: int, master_seed: int = 0,
                  chunk_size: int = 1_000_000, grid: Sequence[float] | None = None,
                  tolerance: float | None = None) -> LemmaReport:
    """Slope checks for the three synthetic tail-exponent statements.

    "III": ``parameters`` are the CDF exponents n_k (each variable is
    U^(1/n_k)); the sum's small-x exponent must be sum(n_k).
    "IV": same variables squeezed into (0, (pi/2)/K) and mapped through
    sin^2; both the sum and the max variant must show exponent
    sum(n_k)/2, and must agree with each other.
    "V": ``parameters`` = (n_a, n_b); a is Gamma(n_a, 1) and two
    differently-shaped [0, 1] factors share CDF exponent n_b; the two
    product slopes must agree and stay at or below n_a.
    """
    lemma = str(lemma).upper()
    plan = _chunk_plan(trials, chunk_size)

    if lemma == "III":
        exps = [float(n) for n in parameters]
        if not exps or any(n <= 0 for n in exps):
            raise ValueError(f"exponents must be positive, got {parameters}")
        tol = 0.15 if tolerance is None else tolerance
        gr = np.geomspace(5e-3, 0.8, 28) if grid is None else np.asarray(sorted(grid))
        expected = sum(exps)

        def chunk_values(i, n):
            rng = stream_generator(master_seed, i)
            u = rng.random((n, len(exps)))
            return (u ** (1.0 / np.asarray(exps))).sum(axis=1)

        curve = _count_curve((chunk_values(i, n) for i, n in plan), gr, trials)
        fit = fit_slope(curve)
        passed = abs(fit.slope - expected) <= tol
        return LemmaReport(lemma, (fit,), expected, tol, passed)

    if lemma == "IV":
        exps = [float(n) for n in parameters]
        if not exps or any(n <= 0 for n in exps):
            raise ValueError(f"exponents must be positive, got {parameters}")
        tol = 0.1 if tolerance is None else tolerance
        gr = np.geomspace(1e-4, 0.3, 28) if grid is None else np.asarray(sorted(grid))
        psi = (math.pi / 2.0) / len(exps)  # keeps the sum inside the monotone range of sin^2
        expected = 0.5 * sum(exps)

        def chunk_pair(i, n):
            rng = stream_generator(master_seed, i)
            u = rng.random((n, len(exps)))
            th = psi * u ** (1.0 / np.asarray(exps))
            return np.sin(th.sum(axis=1)) ** 2, np.sin(th.max(axis=1)) ** 2

        pairs = [chunk_pair(i, n) for i, n in plan]
        curve_sum = _count_curve((p[0] for p in pairs), gr, trials)
        curve_max = _count_curve((p[1] for p in pairs), gr, trials)
        fit_sum, fit_max = fit_slope(curve_sum), fit_slope(curve_max)
        agree = abs(fit_sum.slope - fit_max.slope) <= tol
        on_target = abs(fit_sum.slope - expected) <= tol and abs(fit_max.slope - expected) <= tol
        checks = (CheckResult("sum-vs-max slope gap", abs(fit_sum.slope - fit_max.slope), tol, agree),)
        return LemmaReport(lemma, (fit_sum, fit_max), expected, tol, agree and on_target, checks)

    if lemma == "V":
        n_a, n_b = (float(v) for v in parameters)
        if n_a <= 0 or n_b <= 0:
            raise ValueError(f"exponents must be positive, got {parameters}")
        if n_a != int(n_a):
            raise ValueError("the Gamma shape n_a must be an integer")
        tol = 0.1 if tolerance is None else tolerance
        gr = np.geomspace(1e-4, 0.5, 28) if grid is None else np.asarray(sorted(grid))

        def chunk_products(i, n):
            rng = stream_generator(master_seed, i)
            a = rng.gamma(n_a, 1.0, size=n)
            b1 = rng.random(n) ** (1.0 / n_b)
            # second factor with the same exponent but a different shape:
            # CDF 2 x^{n_b} - x^{2 n_b}
            b2 = (1.0 - np.sqrt(1.0 - rng.random(n))) ** (1.0 / n_b)
            return a * b1, a * b2

        pairs = [chunk_products(i, n) for i, n in plan]
        curve1 = _count_curve((p[0] for p in pairs), gr, trials)
        curve2 = _count_curve((p[1] for p in pairs), gr, trials)
        fit1, fit2 = fit_slope(curve1), fit_slope(curve2)
        agree = abs(fit1.slope - fit2.slope) <= tol
        below = fit1.slope <= n_a + tol and fit2.slope <= n_a + tol
        checks = (
            CheckResult("product slope gap", abs(fit1.slope - fit2.slope), tol, agree),
            CheckResult("slope at most n_a", max(fit1.slope, fit2.slope), n_a + tol, below,
                        "products with [0,1] factors cannot outpace the bare variable"),
        )
        return LemmaReport(lemma, (fit1, fit2), min(n_a, n_b), tol, agree and below, checks)

    raise ValueError(f"unknown lemma {lemma!r}; expected III, IV or V")


# ---------------------------------------------------------------------------
# independence suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndependenceReport:
    """Pairwise correlation, product-CDF, and marginal-law test results."""

    n_t: int
    n_r: int
    trials: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _corr(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.corrcoef(x, y)[0, 1])


def _product_cdf_checks(name: str, x: np.ndarray, y: np.ndarray,
                        probes: Sequence[float]) -> list[CheckResult]:
    n = len(x)
    out = []
    for a in probes:
        for b in probes:
            fx = float(np.mean(x <= a))
            fy = float(np.mean(y <= b))
            fxy = float(np.mean((x <= a) & (y <= b)))
            # asymptotic std of F_xy - F_x F_y at a point, under independence
            sigma = math.sqrt(max(fx * (1 - fx) * fy * (1 - fy), 1e-300) / n)
            gap = abs(fxy - fx * fy)
            out.append(CheckResult(f"{name} product CDF at ({a}, {b})", gap, 3 * sigma, gap <= 3 * sigma))
    return out


def independence_suite(n_t: int, n_r: int, trials: int, master_seed: int = 0,
                       chunk_size: int = 200_000, corr_bound: float = 0.01,
                       ks_significance: float = 0.01, ks_samples: int = 100_000) -> IndependenceReport:
    """Statistical checks of the pairwise-height independence structure.

    Verifies that chained heights (column k against column k+1) are
    uncorrelated with product-form joint CDFs, that the reference angles
    from column 0 behave likewise, that the marginals match the closed
    forms, and that a deliberately dependent pair (two heights sharing
    column 0's norm) is detected as dependent.
    """
    if n_t < 3 or n_r < 2:
        raise ValueError(f"need n_t >= 3 and n_r >= 2, got ({n_t}, {n_r})")
    from scipy import stats

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

    checks: list[CheckResult] = []
    probes = (0.5, 1.0)
    for i, j in itertools.combinations(range(chain_len), 2):
        c = abs(_corr(chain[i], chain[j]))
        checks.append(CheckResult(f"|corr| chain heights ({i},{i + 1})x({j},{j + 1})", c, corr_bound, c <= corr_bound))
    checks.extend(_product_cdf_checks("chain heights (0,1)x(1,2)", chain[0], chain[1], probes))
    if chain_len >= 3:
        checks.extend(_product_cdf_checks("chain heights (1,2)x(2,3)", chain[1], chain[2], probes))

    for i, j in itertools.combinations(range(n_angles), 2):
        c = abs(_corr(angles[i], angles[j]))
        checks.append(CheckResult(f"|corr| reference angles (0,{i + 1})x(0,{j + 1})", c, corr_bound, c <= corr_bound))
    checks.extend(_product_cdf_checks("reference angles (0,1)x(0,2)", angles[0], angles[1], probes))

    c_norm = abs(_corr(norm0, angles[0]))
    checks.append(CheckResult("|corr| norm vs angle", c_norm, corr_bound, c_norm <= corr_bound))

    ks_n = min(ks_samples, trials)
    ks_r = stats.kstest(chain[0][:ks_n], lambda v: chi2n_cdf(v, n_r - 1))
    checks.append(CheckResult("KS height marginal p-value", float(ks_r.pvalue), ks_significance,
                              ks_r.pvalue > ks_significance, "must exceed the significance level"))
    ks_t = stats.kstest(angles[0][:ks_n], lambda v: theta_cdf(v, n_r))
    checks.append(CheckResult("KS angle marginal p-value", float(ks_t.pvalue), ks_significance,
                              ks_t.pvalue > ks_significance, "must exceed the significance level"))

    c_dep = abs(_corr(chain[0], shared))
    checks.append(CheckResult("negative control: shared-norm pair detected", c_dep, 0.05, c_dep > 0.05,
                              "heights sharing one column's norm must show correlation"))

    return IndependenceReport(n_t=n_t, n_r=n_r, trials=trials, checks=tuple(checks))
